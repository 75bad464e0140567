"""Measurement definitions and observation operators: boundary Neumann
rows, interferometry chord integrals and polarimetry rows, plus the
statistical weights of the misfit terms."""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import MeshParseError, StateError
from .fem import MU0
from .mesh import PointLocator, interpolation_matrix


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


class ChordGeometry:
    """Chord quadrature pinned to the mesh: triangle, barycentric weights
    and radius per quadrature point.  Points outside the domain are dropped
    from the quadrature (zero contribution)."""

    def __init__(self, mesh, chord, locator=None):
        self.chord = chord
        if locator is None:
            locator = PointLocator(mesh)
        tri = []
        bary = []
        keep = []
        for k, p in enumerate(chord.qpoints):
            hit = locator.try_locate(p)
            if hit is None:
                continue
            keep.append(k)
            tri.append(hit[0])
            bary.append(hit[1])
        self.inside = np.array(keep, dtype=np.int64)
        self.tri = np.array(tri, dtype=np.int64)
        self.bary = np.array(bary, dtype=np.float64).reshape(-1, 3)
        self.nodes = mesh.triangles[self.tri] if len(self.tri) else \
            np.empty((0, 3), dtype=np.int64)
        self.w = chord.weights[self.inside]
        self.r = chord.qpoints[self.inside, 0]
        if len(self.inside) == 0:
            warnings.warn("chord lies entirely outside the domain")

    def values_at_points(self, nodal):
        if len(self.inside) == 0:
            return np.empty(0)
        return np.einsum("qa,qa->q", self.bary, nodal[self.nodes])


class ChordSet:
    """Chord geometries of one measurement configuration, with the sparse
    operators built once over all their quadrature points (stacked chord
    after chord):

    S : (Q, n) P1 interpolation of nodal fields at the points
    D : (Q, n) chord-normal derivative of nodal fields at the points
    R : (N_c, Q) sum over the points of each chord
    w, r : (Q,) quadrature weights and radii of the points

    Iterating, indexing and ``len`` act on the :class:`ChordGeometry` list.
    """

    def __init__(self, mesh, geoms):
        self.geoms = list(geoms)

        def stack(attr, empty):
            return np.concatenate([empty] + [getattr(g, attr)
                                             for g in self.geoms])

        tri = stack("tri", np.empty(0, np.int64))
        self.w = stack("w", np.empty(0))
        self.r = stack("r", np.empty(0))
        counts = [len(g.inside) for g in self.geoms]
        normals = np.repeat(np.reshape([g.chord.normal for g in self.geoms],
                                       (-1, 2)), counts, axis=0)
        nodes = mesh.triangles[tri]
        self.S = interpolation_matrix(nodes, stack("bary", np.empty((0, 3))),
                                      mesh.n_nodes)
        grads = mesh.grads()[tri]                                # (Q, 2, 3)
        dn = (normals[:, 0, None] * grads[:, 0]
              + normals[:, 1, None] * grads[:, 1])
        self.D = interpolation_matrix(nodes, dn, mesh.n_nodes)
        q = len(tri)
        self.R = sp.csr_matrix((np.ones(q), np.arange(q),
                                np.concatenate([[0], np.cumsum(counts)])),
                               shape=(len(self.geoms), q))

    def __len__(self):
        return len(self.geoms)

    def __iter__(self):
        return iter(self.geoms)

    def __getitem__(self, k):
        return self.geoms[k]

    def plasma_points(self, psibar_nodal):
        """Normalized flux at the points and the mask psibar <= 1."""
        pb = self.S @ np.asarray(psibar_nodal, dtype=np.float64)
        return pb, pb <= 1.0


def build_chord_geometries(mesh, chords, step=None):
    if step is None:
        # half the typical edge length resolves the plasma cutoff
        step = 0.5 * np.sqrt(2.0 * mesh.area() / len(mesh.triangles))
    locator = PointLocator(mesh)
    geoms = []
    for c in chords:
        if isinstance(c, Chord):
            chord = c
        elif len(c) == 4 and np.isscalar(c[0]):
            chord = make_chord((c[0], c[1]), (c[2], c[3]), step)
        else:
            chord = make_chord(c[0], c[1], step)
        geoms.append(ChordGeometry(mesh, chord, locator))
    return ChordSet(mesh, geoms)


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
    normals = mesh.boundary_normals()[mk_indices]
    node_tris = mesh.node_triangles()
    grads = mesh.grads()
    areas = mesh.areas()
    rows, cols, vals = [], [], []
    for k, bidx in enumerate(mk_indices):
        node = int(mesh.boundary[bidx])
        tris = node_tris[node]
        if len(tris) == 0:
            raise ValueError(f"boundary node {node} has no incident triangle")
        wsum = areas[tris].sum()
        r_k = mesh.nodes[node, 0]
        acc = {}
        for t in tris:
            row = (normals[k] @ grads[t]) * (areas[t] / wsum) / r_k  # (3,)
            for a, nid in enumerate(mesh.triangles[t]):
                acc[nid] = acc.get(nid, 0.0) + row[a]
        for nid, v in acc.items():
            rows.append(k)
            cols.append(nid)
            vals.append(v)
    C0 = sp.coo_matrix((vals, (rows, cols)),
                       shape=(len(mk_indices), mesh.n_nodes)).tocsr()
    points = mesh.nodes[mesh.boundary[mk_indices]]
    return C0, points


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
