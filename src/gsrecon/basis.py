"""Spline basis on [0,1] for the profile functions and its curvature
penalty matrix."""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .errors import StateError


def open_uniform_knots(degree, m):
    """Clamped knot vector with m basis functions on [0,1]."""
    n_interior = m - degree - 1
    if n_interior < 0:
        raise ValueError("m must be at least degree + 1")
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


@dataclass
class SplineBasis:
    """Cubic (by default) B-spline basis of dimension m on [0,1].

    ``end_constraint`` marks bases used for profiles pinned to zero at x=1;
    the constraint itself is enforced by zeroing the last coefficient.
    """

    degree: int = 3
    m: int = 8
    end_constraint: bool = False
    knots: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.knots is None:
            self.knots = open_uniform_knots(self.degree, self.m)
        self.knots = np.asarray(self.knots, dtype=np.float64)

    def eval_many(self, xs):
        """(len(xs), m) matrix of basis values; xs clamped to [0,1]."""
        x = np.clip(np.atleast_1d(np.asarray(xs, float)), 0.0, 1.0)
        # the input is already inside the base interval, so the bounds
        # check that extrapolate=False would add is skipped
        return BSpline.design_matrix(x, self.knots, self.degree,
                                     extrapolate=True).toarray()

    def eval(self, x):
        return self.eval_many([x])[0]

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
    t, p, m = basis.knots, basis.degree, basis.m
    npts = max(2, p - 1)
    gx, gw = np.polynomial.legendre.leggauss(npts)
    spans = np.unique(t)
    lam = np.zeros((m, m))
    d2 = []
    for i in range(m):
        c = np.zeros(m)
        c[i] = 1.0
        d2.append(BSpline(t, c, p).derivative(2))
    for a, b in zip(spans[:-1], spans[1:]):
        xs = 0.5 * (b - a) * gx + 0.5 * (a + b)
        ws = 0.5 * (b - a) * gw
        vals = np.array([f(xs) for f in d2])        # (m, npts)
        lam += (vals * ws) @ vals.T
    return 0.5 * (lam + lam.T)


@dataclass
class ProfileExpansion:
    """Coefficients of the identified profile functions.

    a, b are dimensionless; c (electron density) carries physical units
    after the nondimensionalizing scale has been applied.
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

    def coeffs(self, which):
        c = {"A": self.a, "B": self.b, "ne": self.c}[which]
        if c is None:
            raise StateError("no electron-density coefficients present")
        return c

    def eval(self, which, xs):
        vals = self.basis.eval_many(xs) @ self.coeffs(which)
        return vals if np.ndim(xs) else float(vals[0])


def first_guess_expansion(basis):
    """Coefficients reproducing A(x) = B(x) = 1 - x via the Greville rule."""
    g = 1.0 - basis.greville()
    return ProfileExpansion(basis, g.copy(), g.copy())
