"""Spline basis on [0,1] for the profile functions and its curvature
penalty matrix."""

from dataclasses import dataclass

import numpy as np

from .errors import StateError


def open_uniform_knots(degree, m):
    """Clamped knot vector with m basis functions on [0,1]."""
    n_interior = m - degree - 1
    if degree < 0:
        raise ValueError("spline degree must be nonnegative")
    if n_interior < 0:
        raise ValueError("m must be at least degree + 1")
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


_BLOCK = 4096      # points per de Boor pass of SplineBasis.eval_many


def _recurrence_table(knots, degree):
    """Per span l of ``knots``, one column each: t[l+1-degree..l+degree],
    then t[l+n] - t[l+n-j] for j = 1..degree, n = 1..j."""
    p = degree
    j, n = np.tril_indices(p)
    span = np.arange(p, len(knots) - p - 1)
    near = knots[span + np.arange(1 - p, p + 1)[:, None]]
    return np.vstack([near, near[p + n] - near[p - 1 + n - j]])


def _de_boor(knots, degree, table, x):
    """De Boor's recurrence (de Boor 1972) in the operation order of
    scipy's BSpline, at x in [knots[degree], knots[-degree-1]]: each x's
    span offset s (span l = s + degree, t[l] <= x < t[l+1], x = 1 in the
    last span) and the (degree + 1, len(x)) values of the B-splines
    s..s+degree.  ``table`` is :func:`_recurrence_table` of the knots."""
    p = degree
    s = np.searchsorted(knots[p + 1:len(knots) - p - 1], x, "right")
    tab = np.take(table, s, axis=1)
    gap, diff = tab[:2 * p], tab[2 * p:]
    gap -= x                                  # x - t = -(t - x) exactly
    # step j: w = B_{n-1} / (t[l+n] - t[l+n-j]), B_{n-1} += w (t[l+n] - x),
    # B_n = w (x - t[l+n-j]) for n = 1..j; B_j is 0.0 until step j
    h = np.zeros((p + 1, len(x)))
    h[0] = 1.0
    for j in range(1, p + 1):
        w = h[:j] / diff[j * (j - 1) // 2:j * (j + 1) // 2]
        np.multiply(w, gap[p:p + j], out=h[:j])
        w *= gap[p - j:p]
        h[1:j + 1] -= w
    return s, h


@dataclass
class SplineBasis:
    """Cubic (by default) B-spline basis of dimension m on [0,1], on the
    clamped uniform knots of :func:`open_uniform_knots`.

    ``end_constraint`` marks bases used for profiles pinned to zero at x=1;
    the constraint itself is enforced by zeroing the last coefficient.
    """

    degree: int = 3
    m: int = 8
    end_constraint: bool = False

    def __post_init__(self):
        # clamped: only the last basis function is alive at x = 1, which
        # the zeroed last coefficient of an end-constrained profile relies on
        self.knots = open_uniform_knots(self.degree, self.m)
        self._table = _recurrence_table(self.knots, self.degree)

    def eval_many(self, xs):
        """(len(xs), m) matrix of basis values; xs clamped to [0,1], a NaN
        x gives a NaN row.  The degree + 1 values nonzero on each x's span
        come from :func:`_de_boor`, the bits of scipy's BSpline."""
        x = np.clip(np.atleast_1d(np.asarray(xs, float)), 0.0, 1.0)
        out = np.zeros((len(x), self.m))
        # blocks of points keep the recurrence's temporaries in cache and
        # off fresh heap pages
        for a in range(0, len(x), _BLOCK):
            s, h = _de_boor(self.knots, self.degree, self._table,
                            x[a:a + _BLOCK])
            flat = out[a:a + _BLOCK].reshape(-1)
            flat[np.arange(0, flat.size, self.m) + s
                 + np.arange(self.degree + 1)[:, None]] = h
        out[np.isnan(x)] = np.nan
        return out

    def greville(self):
        """Abscissae whose coefficients reproduce affine functions."""
        t, p = self.knots, self.degree
        return np.array([t[i + 1:i + p + 1].mean() for i in range(self.m)])

    def fit(self, xs, ys):
        """Least-squares coefficients matching samples (xs, ys)."""
        A = self.eval_many(xs)
        coef, *_ = np.linalg.lstsq(A, np.asarray(ys, float), rcond=None)
        return coef


def regularization_matrix(basis):
    """m x m matrix of integrals of second-derivative products.

    Second derivatives of splines of degree p are piecewise polynomials of
    degree p-2, so a 2-point Gauss rule per knot span is exact for cubics.
    """
    if basis.degree < 2:
        raise StateError("curvature penalty needs degree >= 2")
    t, k, m = basis.knots, basis.degree, basis.m
    npts = max(2, k - 1)
    gx, gw = np.polynomial.legendre.leggauss(npts)
    spans = np.unique(t)
    a, b = spans[:-1, None], spans[1:, None]
    xs = (0.5 * (b - a) * gx + 0.5 * (a + b)).ravel()
    ws = 0.5 * (b - a) * gw
    # second-derivative coefficients: scipy's splder twice on the identity
    # (its zero padding rows never enter a difference)
    c = np.eye(m)
    for _ in range(2):
        c = (c[1:] - c[:-1]) * k / (t[k + 1:-1] - t[1:-k - 1])[:, None]
        t, k = t[1:-1], k - 1
    s, h = _de_boor(t, k, _recurrence_table(t, k), xs)
    d2 = np.zeros((len(xs), m))
    for i in range(k + 1):      # summed from 0.0 as scipy's BSpline does
        d2 = d2 + c[s + i] * h[i, :, None]
    lam = np.zeros((m, m))
    for i, w in enumerate(ws):
        vals = d2[i * npts:(i + 1) * npts].T        # (m, npts)
        lam += (vals * w) @ vals.T
    return 0.5 * (lam + lam.T)


@dataclass
class ProfileExpansion:
    """Coefficients of the identified profile functions.

    a, b are dimensionless; c (electron density) carries physical units
    after the nondimensionalizing scale has been applied.  A profile's
    values at xs are ``basis.eval_many(xs) @ a`` (b, c).
    """

    basis: SplineBasis
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.c is not None:
            self.c = np.asarray(self.c, dtype=np.float64)
        m = self.basis.m
        if any(c is not None and c.shape != (m,)
               for c in (self.a, self.b, self.c)):
            raise ValueError("coefficient length must match basis dimension")


def first_guess_expansion(basis):
    """Coefficients reproducing A(x) = B(x) = 1 - x via the Greville rule."""
    g = 1.0 - basis.greville()
    return ProfileExpansion(basis, g.copy(), g.copy())
