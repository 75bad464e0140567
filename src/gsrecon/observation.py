"""Measurement definitions and observation operators: boundary Neumann
rows, interferometry chord integrals and polarimetry rows, plus the
statistical weights of the misfit terms."""

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import MeshParseError
from .fem import MU0
from .mesh import _expand, point_matrix
from .textio import LineReader, write_rows


@dataclass
class MeasurementSet:
    g_d: np.ndarray          # Dirichlet flux per boundary node, Wb/rad
    g_n: np.ndarray          # (1/r) dpsi/dn at the points M_k, T
    gamma: np.ndarray        # interferometry chord integrals
    alpha: np.ndarray        # polarimetry chord integrals
    ip: float
    b0: float
    gn_points: np.ndarray    # (N, 2) locations of the M_k

    def __post_init__(self):
        self.g_d = np.asarray(self.g_d, dtype=np.float64)
        self.g_n = np.asarray(self.g_n, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if len(self.g_n) < 1:
            raise ValueError("at least one Neumann point is required")
        self.gn_points = np.asarray(self.gn_points, dtype=np.float64)
        if self.gn_points.shape != (len(self.g_n), 2) or not np.isfinite(
                self.gn_points).all():
            raise ValueError(f"{len(self.g_n)} gN values need as many finite "
                             f"(r, z) points, not {self.gn_points.shape}")
        if len(self.gamma) != len(self.alpha):
            raise ValueError("gamma and alpha must have one entry per chord")
        for arr in (self.g_d, self.g_n, self.gamma, self.alpha):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite measurement value")
        if not (0 < abs(self.ip) < np.inf and np.isfinite(self.b0)):
            raise ValueError("Ip must be finite and nonzero, B0 finite")


class ChordSet:
    """Chords of one measurement configuration, given as (N_c, 4)
    ``endpoints`` rows (r1, z1, r2, z2), and the sparse operators over their
    quadrature points inside the mesh, stacked chord after chord (points
    outside the mesh are dropped: zero contribution):

    S : (Q, n) P1 interpolation of nodal fields at the points
    D : (Q, n) chord-normal derivative of nodal fields at the points
    R : (N_c, Q) sum over the points of each chord
    points : (Q, 2) the points; r is their radius
    w : (Q,) quadrature weights of the points
    normals : (N_c, 2) unit normal of each chord, rotated +90 degrees from
              its direction

    Each chord is sampled by the composite midpoint rule with spacing
    <= ``step``.  A point on a mesh edge or vertex lies in several
    triangles; its rows are the mean of theirs, so D does not depend on the
    chord direction.  ``len`` is the number of chords.
    """

    def __init__(self, mesh, endpoints, step):
        self.endpoints = np.reshape(np.asarray(endpoints, dtype=np.float64),
                                    (-1, 4))
        n_c = len(self.endpoints)
        p0 = self.endpoints[:, :2]
        d = self.endpoints[:, 2:] - p0
        length, bad = chord_lengths(self.endpoints)
        if len(bad):
            raise ValueError("degenerate or non-finite chord")
        nseg = np.maximum(1, np.ceil(length / step)).astype(np.int64)
        chord_of, k = _expand(nseg)
        s = (k + 0.5) / nseg[chord_of]
        pts = p0[chord_of] + s[:, None] * d[chord_of]
        weights = (length / nseg)[chord_of]
        point, tri, bary = mesh.locator().locate(pts)
        inside, point = np.unique(point, return_inverse=True)
        q = len(inside)
        self.w, self.points = weights[inside], pts[inside]
        self.r = self.points[:, 0]
        chord_of = chord_of[inside]
        empty = np.flatnonzero(np.bincount(chord_of, minlength=n_c) == 0)
        if len(empty):
            warnings.warn(f"chord(s) {empty.tolist()} lie entirely outside "
                          "the domain")
        self.S = point_matrix(mesh, point, tri, bary, q)
        direction = d / length[:, None]
        self.normals = np.column_stack([-direction[:, 1], direction[:, 0]])
        normals = self.normals[chord_of[point]]
        grads = mesh.grads()[tri]                            # (K, 2, 3)
        dn = (normals[:, 0, None] * grads[:, 0]
              + normals[:, 1, None] * grads[:, 1])
        self.D = point_matrix(mesh, point, tri, dn, q)
        self.R = sp.csr_matrix((np.ones(q), (chord_of, np.arange(q))),
                               shape=(n_c, q))

    def __len__(self):
        return len(self.endpoints)


def chord_lengths(endpoints):
    """Length of each (r1, z1, r2, z2) row, as np.linalg.norm of the lone
    segment gives it (a norm along an axis can differ in the last bit), and
    the indices of the rows of zero, infinite or NaN length."""
    d = endpoints[:, 2:] - endpoints[:, :2]
    length = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return length, np.flatnonzero(~((0 < length) & (length < np.inf)))


def build_chord_geometries(mesh, chords, step=None):
    """:class:`ChordSet` of the (r1, z1, r2, z2) rows ``chords``, sampled
    with spacing <= ``step`` (default: half the typical edge length, which
    resolves the plasma cutoff)."""
    if step is None:
        step = 0.5 * np.sqrt(2.0 * mesh.areas().sum() / len(mesh.triangles))
    return ChordSet(mesh, chords, step)


# ---------------------------------------------------------------------------
# Observers
# ---------------------------------------------------------------------------

def build_neumann_observer(mesh):
    """Sparse N x n matrix whose row k maps nodal psi to the outward normal
    derivative (1/r) dpsi/dn at the boundary node M_k = ``boundary[k]``,
    and the (N, 2) points M_k.

    The gradient at a boundary node is the area-weighted mean of the P1
    gradients of its incident triangles; the normal is the mean of the two
    adjacent boundary-edge normals.
    """
    nodes = mesh.boundary
    n_t = len(mesh.triangles)
    # node-triangle incidence holding the triangle areas; one entry per
    # (M_k, incident triangle)
    incidence = sp.csr_matrix(
        (np.repeat(mesh.areas(), 3),
         (mesh.triangles.ravel(), np.repeat(np.arange(n_t), 3))),
        shape=(mesh.n_nodes, n_t))
    pairs = incidence[nodes].tocoo()
    k, t, area = pairs.row, pairs.col, pairs.data
    wsum = np.bincount(k, weights=area, minlength=len(nodes))
    normals = mesh.boundary_normals()[k]
    grads = mesh.grads()[t]
    rows = ((normals[:, 0, None] * grads[:, 0]
             + normals[:, 1, None] * grads[:, 1])
            * (area / wsum[k] / mesh.nodes[nodes[k], 0])[:, None])
    C0 = sp.csr_matrix((rows.ravel(), (np.repeat(k, 3),
                                       mesh.triangles[t].ravel())),
                       shape=(len(nodes), mesh.n_nodes))
    return C0, mesh.nodes[nodes]


def build_interferometry_matrix(chords, basis, psibar_nodal):
    """The basis evaluated once at the chord points: (B, G).  Row i of the
    N_c x m interferometry matrix B gives the chord integral of each basis
    function of the normalized flux over the plasma region; G holds the
    Q x m polarimetry weights w phi_j(psibar) / r, zero outside it."""
    pb = chords.S @ np.asarray(psibar_nodal, dtype=np.float64)
    mask = pb <= 1.0
    F = np.zeros((len(pb), basis.m))
    F[mask] = chords.w[mask, None] * basis.eval_many(pb[mask])
    return chords.R @ F, F / chords.r[:, None]


def build_polarimetry_observer(chords, weights, ne_coeffs, dX):
    """The polarimetry rows of the density ``ne_coeffs`` on the
    chord-normal derivatives dX = ``chords.D`` @ X of nodal field(s) X:
    R (coef * dX), the chord integrals of n_e/r times dX/dn, with
    coef = ``weights`` @ ne_coeffs = w n_e / r."""
    return chords.R @ ((weights @ ne_coeffs) * dX.T).T


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

Weights = namedtuple("Weights", "w_mag w_polar w_inter")


def default_weights(ms, boundary_length):
    """Weights 1 / (sqrt(N) sigma) of the magnetic, polarimetry and
    interferometry rows of the measurement set ``ms``.

    sigma_mag is 1% of the mean poloidal field mu0*Ip/|Gamma| (Ampere).
    The chord sigmas are 1% of the mean magnitude of the measured alpha and
    gamma (the rotation-physics constants are folded into the line
    integrals here, so fixed radian-scale values would misweight them);
    an all-zero or empty vector takes sigma 1e-1 (alpha) or 1e18 (gamma).
    """
    if boundary_length <= 0:
        raise ValueError("boundary length must be positive")
    sigma_mag = 0.01 * (MU0 * abs(ms.ip) / boundary_length)

    def sigma(values, default):
        scale = np.mean(np.abs(values)) if len(values) else 0.0
        return 0.01 * float(scale) if scale > 0 else default

    n_chords = max(len(ms.gamma), 1)
    return Weights(1.0 / (np.sqrt(len(ms.g_n)) * sigma_mag),
                   1.0 / (np.sqrt(n_chords) * sigma(ms.alpha, 1e-1)),
                   1.0 / (np.sqrt(n_chords) * sigma(ms.gamma, 1e18)))


# ---------------------------------------------------------------------------
# Measurement file IO
# ---------------------------------------------------------------------------

def save_measurements(ms, chords, path):
    """Write ``ms`` with the (r1, z1, r2, z2) rows ``chords`` of its
    internal measurements (see :func:`load_measurements`); ValueError
    before any write when the rows do not match ``ms.gamma`` in number."""
    chords = np.reshape(chords, (-1, 4))
    if len(chords) != len(ms.gamma):
        raise ValueError(f"{len(chords)} chord rows, {len(ms.gamma)} "
                         "gamma values")
    write_rows(path, [
        ["Ip", ms.ip], ["B0", ms.b0],
        ["gD", len(ms.g_d)], *([v] for v in ms.g_d),
        ["gN", len(ms.g_n)],
        *([*p, v] for p, v in zip(ms.gn_points, ms.g_n)),
        ["chords", len(ms.gamma)],
        *([*c, gam, al] for c, gam, al in zip(chords, ms.gamma, ms.alpha))])


def load_measurements(path):
    """Returns (MeasurementSet, (N_c, 4) chord rows r1 z1 r2 z2).

    Raises :class:`MeshParseError`: with the line number for a line that
    :class:`~gsrecon.textio.LineReader` rejects (a missing, malformed or
    non-finite line, a bad count, a truncated section, a chord of zero or
    infinite length), without one for values the measurement set rejects.
    """
    rd = LineReader(path)
    scalars = {}
    while len(scalars) < 2:
        key, rest = rd.record([k for k in ("Ip", "B0") if k not in scalars])
        scalars[key] = rd.values(rest, 1)[0]

    def section(name, nfields):
        return rd.block(rd.count(rd.record([name])[1]), nfields, name)

    g_d = section("gD", 1).ravel()
    gn_rows = section("gN", 3)
    chord_rows = section("chords", 6)
    bad = chord_lengths(chord_rows[:, :4])[1]
    if len(bad):
        rd.line += bad[0] + 1 - len(chord_rows)     # that chord's line
        rd.fail("chord of zero or infinite length")
    try:
        ms = MeasurementSet(g_d, gn_rows[:, 2], chord_rows[:, 4],
                            chord_rows[:, 5], scalars["Ip"], scalars["B0"],
                            gn_points=gn_rows[:, 0:2])
    except ValueError as exc:
        raise MeshParseError(str(exc)) from exc
    return ms, chord_rows[:, :4]

