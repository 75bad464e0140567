"""Measurement definitions and observation operators: boundary Neumann
rows, interferometry chord integrals and polarimetry rows, plus the
statistical weights of the misfit terms."""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import MeshParseError, StateError
from .fem import MU0
from .mesh import point_matrix


@dataclass
class MeasurementSet:
    g_d: np.ndarray          # Dirichlet flux per boundary node, Wb/rad
    g_n: np.ndarray          # (1/r) dpsi/dn at the points M_k, T
    gamma: np.ndarray        # interferometry chord integrals
    alpha: np.ndarray        # polarimetry chord integrals
    ip: float
    b0: float
    gn_points: np.ndarray = None   # (N, 2) locations of the M_k

    def __post_init__(self):
        self.g_d = np.asarray(self.g_d, dtype=np.float64)
        self.g_n = np.asarray(self.g_n, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if len(self.g_n) < 1:
            raise ValueError("at least one Neumann point is required")
        if len(self.gamma) != len(self.alpha):
            raise ValueError("gamma and alpha must have one entry per chord")
        for arr in (self.g_d, self.g_n, self.gamma, self.alpha):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite measurement value")


@dataclass
class Chord:
    p0: np.ndarray
    p1: np.ndarray
    qpoints: np.ndarray       # (Q, 2)
    weights: np.ndarray       # (Q,), sums to segment length
    normal: np.ndarray        # unit normal to the chord direction

    @property
    def length(self):
        return float(self.weights.sum())


def make_chord(p0, p1, step):
    """Composite-midpoint quadrature along the segment with spacing <= step."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0:
        raise ValueError("degenerate chord")
    nseg = max(1, int(np.ceil(length / step)))
    s = (np.arange(nseg) + 0.5) / nseg
    qpoints = p0 + s[:, None] * (p1 - p0)
    weights = np.full(nseg, length / nseg)
    direction = (p1 - p0) / length
    normal = np.array([-direction[1], direction[0]])
    return Chord(p0, p1, qpoints, weights, normal)


class ChordSet:
    """Chords of one measurement configuration and the sparse operators
    over their quadrature points inside the mesh, stacked chord after chord
    (points outside the mesh are dropped: zero contribution):

    S : (Q, n) P1 interpolation of nodal fields at the points
    D : (Q, n) chord-normal derivative of nodal fields at the points
    R : (N_c, Q) sum over the points of each chord
    w, r : (Q,) quadrature weights and radii of the points

    A point on a mesh edge or vertex lies in several triangles; its rows
    are the mean of theirs, so D does not depend on the chord direction.
    ``len`` is the number of chords.
    """

    def __init__(self, mesh, chords):
        self.chords = list(chords)
        n_c = len(self.chords)
        pts = np.concatenate([np.empty((0, 2))]
                             + [c.qpoints for c in self.chords])
        weights = np.concatenate([np.empty(0)]
                                 + [c.weights for c in self.chords])
        chord_of = np.repeat(np.arange(n_c),
                             [len(c.weights) for c in self.chords])
        point, tri, bary = mesh.locator().locate(pts)
        inside, point = np.unique(point, return_inverse=True)
        q = len(inside)
        self.w, self.r = weights[inside], pts[inside, 0]
        chord_of = chord_of[inside]
        empty = np.flatnonzero(np.bincount(chord_of, minlength=n_c) == 0)
        if len(empty):
            warnings.warn(f"chord(s) {empty.tolist()} lie entirely outside "
                          "the domain")
        self.S = point_matrix(mesh, point, tri, bary, q)
        normals = np.reshape([c.normal for c in self.chords], (-1, 2))
        normals = normals[chord_of[point]]
        grads = mesh.grads()[tri]                            # (K, 2, 3)
        dn = (normals[:, 0, None] * grads[:, 0]
              + normals[:, 1, None] * grads[:, 1])
        self.D = point_matrix(mesh, point, tri, dn, q)
        self.R = sp.csr_matrix((np.ones(q), (chord_of, np.arange(q))),
                               shape=(n_c, q))

    def __len__(self):
        return len(self.chords)

    def plasma_points(self, psibar_nodal):
        """Normalized flux at the points and the mask psibar <= 1."""
        pb = self.S @ np.asarray(psibar_nodal, dtype=np.float64)
        return pb, pb <= 1.0


def build_chord_geometries(mesh, chords, step=None):
    """:class:`ChordSet` of chords given as :class:`Chord` objects,
    (r1, z1, r2, z2) tuples or endpoint pairs, sampled with spacing
    <= ``step`` (default: half the typical edge length, which resolves
    the plasma cutoff)."""
    if step is None:
        step = 0.5 * np.sqrt(2.0 * mesh.area() / len(mesh.triangles))
    out = []
    for c in chords:
        if isinstance(c, Chord):
            out.append(c)
        elif len(c) == 4 and np.isscalar(c[0]):
            out.append(make_chord((c[0], c[1]), (c[2], c[3]), step))
        else:
            out.append(make_chord(c[0], c[1], step))
    return ChordSet(mesh, out)


# ---------------------------------------------------------------------------
# Observers
# ---------------------------------------------------------------------------

def build_neumann_observer(mesh, mk_indices=None):
    """Sparse N x n matrix whose row k maps nodal psi to the outward normal
    derivative (1/r) dpsi/dn at the boundary node M_k.

    The gradient at a boundary node is the area-weighted mean of the P1
    gradients of its incident triangles; the normal is the mean of the two
    adjacent boundary-edge normals.
    """
    if mk_indices is None:
        mk_indices = np.arange(len(mesh.boundary))
    mk_indices = np.asarray(mk_indices, dtype=np.int64)
    nodes = mesh.boundary[mk_indices]
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
    if np.any(wsum == 0):
        raise ValueError("boundary node without an incident triangle")
    normals = mesh.boundary_normals()[mk_indices][k]
    grads = mesh.grads()[t]
    rows = ((normals[:, 0, None] * grads[:, 0]
             + normals[:, 1, None] * grads[:, 1])
            * (area / wsum[k] / mesh.nodes[nodes[k], 0])[:, None])
    C0 = sp.csr_matrix((rows.ravel(), (np.repeat(k, 3),
                                       mesh.triangles[t].ravel())),
                       shape=(len(nodes), mesh.n_nodes))
    return C0, mesh.nodes[nodes]


def build_interferometry_matrix(chords, basis, psibar_nodal):
    """N_c x m matrix: row i gives the chord integral of each basis function
    of the normalized flux, restricted to the plasma region."""
    pb, mask = chords.plasma_points(psibar_nodal)
    F = np.zeros((len(pb), basis.m))
    F[mask] = chords.w[mask, None] * basis.eval_many(pb[mask])
    return chords.R @ F


def build_polarimetry_observer(chords, ne_expansion, psibar_nodal):
    """Sparse N_c x n matrix: row k maps nodal psi to the chord integral of
    n_e(psibar)/r times the chord-normal derivative of psi."""
    if ne_expansion is None:
        raise StateError("polarimetry requires identified n_e coefficients")
    pb, mask = chords.plasma_points(psibar_nodal)
    ne_vals = (ne_expansion.basis.eval_many(pb[mask])
               @ ne_expansion.coeffs("ne"))
    coef = np.zeros(len(pb))
    coef[mask] = chords.w[mask] * ne_vals / chords.r[mask]
    return (chords.R @ sp.diags(coef) @ chords.D).tocsr()


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass
class WeightConfig:
    sigma_mag: float
    sigma_polar: float
    sigma_inter: float
    n_mag: int
    n_chords: int

    def __post_init__(self):
        if min(self.sigma_mag, self.sigma_polar, self.sigma_inter) <= 0:
            raise ValueError("all sigmas must be positive")

    @property
    def w_mag(self):
        return 1.0 / (np.sqrt(self.n_mag) * self.sigma_mag)

    @property
    def w_polar(self):
        return 1.0 / (np.sqrt(self.n_chords) * self.sigma_polar)

    @property
    def w_inter(self):
        return 1.0 / (np.sqrt(self.n_chords) * self.sigma_inter)


def default_weights(ip, boundary_length, n_mag, n_chords,
                    sigma_polar=1e-1, sigma_inter=1e18, mu0=MU0,
                    alpha=None, gamma=None):
    """Weights from the mean poloidal field: sigma_mag is 1% of
    mu0*Ip/|Gamma| (Ampere), with stated defaults for the internal chords.

    The chord sigmas correspond to ~1% of a typical measurement in the
    instrument's own units; when the actual measurement vectors are passed,
    the sigmas are rescaled to 1% of their mean magnitude (the rotation-
    physics constants are folded into the line integrals here, so fixed
    radian-scale defaults would misweight them).
    """
    if boundary_length <= 0:
        raise ValueError("boundary length must be positive")
    b_m = mu0 * abs(ip) / boundary_length
    if alpha is not None and len(alpha) and np.mean(np.abs(alpha)) > 0:
        sigma_polar = 0.01 * float(np.mean(np.abs(alpha)))
    if gamma is not None and len(gamma) and np.mean(np.abs(gamma)) > 0:
        sigma_inter = 0.01 * float(np.mean(np.abs(gamma)))
    return WeightConfig(0.01 * b_m, sigma_polar, sigma_inter,
                        n_mag, max(n_chords, 1))


# ---------------------------------------------------------------------------
# Measurement file IO
# ---------------------------------------------------------------------------

def save_measurements(ms, chords, path):
    r_ = lambda v: repr(float(v))
    with open(path, "w") as fh:
        fh.write(f"Ip {r_(ms.ip)}\nB0 {r_(ms.b0)}\n")
        fh.write(f"gD {len(ms.g_d)}\n")
        for v in ms.g_d:
            fh.write(f"{r_(v)}\n")
        fh.write(f"gN {len(ms.g_n)}\n")
        pts = ms.gn_points if ms.gn_points is not None \
            else np.zeros((len(ms.g_n), 2))
        for (r, z), v in zip(pts, ms.g_n):
            fh.write(f"{r_(r)} {r_(z)} {r_(v)}\n")
        fh.write(f"chords {len(ms.gamma)}\n")
        for c, gam, al in zip(chords, ms.gamma, ms.alpha):
            p0, p1 = (c.p0, c.p1) if isinstance(c, Chord) else c
            fh.write(f"{r_(p0[0])} {r_(p0[1])} {r_(p1[0])} {r_(p1[1])} "
                     f"{r_(gam)} {r_(al)}\n")


def load_measurements(path):
    """Returns (MeasurementSet, chord endpoint pairs).

    Raises :class:`MeshParseError`, with the line number, for a missing or
    malformed line, a non-numeric value or count, a truncated section and
    values the measurement set rejects.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = 0

    def fail(msg):
        raise MeshParseError(msg, line=idx)

    def fields(what):
        nonlocal idx
        idx += 1
        if idx > len(lines):
            fail(f"file ends before {what}")
        return lines[idx - 1].split()

    def numbers(parts):
        try:
            return [float(v) for v in parts]
        except ValueError:
            fail(f"bad value in {lines[idx - 1]!r}")

    scalars = {}
    for _ in range(2):
        parts = fields("the Ip and B0 lines")
        if len(parts) != 2 or parts[0] not in {"Ip", "B0"} - set(scalars):
            fail(f"expected 'Ip value' or 'B0 value', got {lines[idx - 1]!r}")
        scalars[parts[0]] = numbers(parts[1:])[0]

    def section(name, nfields):
        parts = fields(f"section {name!r}")
        if len(parts) != 2 or parts[0] != name or not parts[1].isdigit():
            fail(f"expected '{name} <count>', got {lines[idx - 1]!r}")
        rows = []
        for _ in range(int(parts[1])):
            p = fields(f"the end of section {name!r}")
            if len(p) != nfields:
                fail(f"expected {nfields} fields in {name}")
            rows.append(numbers(p))
        return np.array(rows).reshape(len(rows), nfields)

    g_d = section("gD", 1).ravel()
    gn_rows = section("gN", 3)
    chord_rows = section("chords", 6)
    chords = [(row[0:2], row[2:4]) for row in chord_rows]
    try:
        ms = MeasurementSet(g_d, gn_rows[:, 2], chord_rows[:, 4],
                            chord_rows[:, 5], scalars["Ip"], scalars["B0"],
                            gn_points=gn_rows[:, 0:2])
    except ValueError as exc:
        raise MeshParseError(str(exc)) from exc
    return ms, chords


def perturb_measurements(ms, rate, rng):
    """Each scalar m becomes m + eta with eta ~ N(0, (rate*|m|)^2)."""
    if rate < 0:
        raise ValueError("noise rate must be nonnegative")
    if rate == 0:
        return replace(ms)

    def noisy(arr):
        return arr + rng.standard_normal(arr.shape) * rate * np.abs(arr)

    return replace(ms, g_d=noisy(ms.g_d), g_n=noisy(ms.g_n),
                   gamma=noisy(ms.gamma), alpha=noisy(ms.alpha))
