"""The mesh-fixed operators (neighbor table, quadrature matrix P,
limiter matrix L, chord sampling and chord matrices S, D, R, Neumann
observer C0) against frozen copies of the per-point, per-node and per-chord
loops they replaced, and the weighted source matrices and chord-basis
products of the reconstruction step against frozen copies of the dense
source fill and the sparse polarimetry observer."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline

import gsrecon
from gsrecon.forward import (SourceQuadrature, assemble_source_matrix,
                             assemble_source_vector)
from gsrecon.errors import NoPlasmaError
from gsrecon.geometry import (boundary_flux, find_axis, find_xpoint,
                              quadrature_points, saddle_candidates)
from gsrecon.mesh import interpolation_matrix
from gsrecon.observation import (build_chord_geometries,
                                 build_interferometry_matrix,
                                 build_neumann_observer,
                                 build_polarimetry_observer)

from conftest import CHORDS, LIMITER


# ---------------------------------------------------------------------------
# Frozen loop versions
# ---------------------------------------------------------------------------

class _PointLocatorLoop:
    """Point location one point at a time: the last-hit triangle first,
    then the triangles listed in the point's bin, first hit wins."""

    def __init__(self, mesh, bins=None):
        self.mesh = mesh
        nodes, tris = mesh.nodes, mesh.triangles
        self._last = 0
        if bins is None:
            bins = max(4, int(np.sqrt(len(tris))))
        self._nb = bins
        self._rmin, self._zmin = nodes.min(axis=0)
        self._rmax, self._zmax = nodes.max(axis=0)
        self._dr = (self._rmax - self._rmin) / bins or 1.0
        self._dz = (self._zmax - self._zmin) / bins or 1.0
        grid = [[[] for _ in range(bins)] for _ in range(bins)]
        pts = nodes[tris]                       # (T, 3, 2)
        lo = pts.min(axis=1)
        hi = pts.max(axis=1)
        for t in range(len(tris)):
            i0 = self._clip_bin((lo[t, 0] - self._rmin) / self._dr)
            i1 = self._clip_bin((hi[t, 0] - self._rmin) / self._dr)
            j0 = self._clip_bin((lo[t, 1] - self._zmin) / self._dz)
            j1 = self._clip_bin((hi[t, 1] - self._zmin) / self._dz)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    grid[i][j].append(t)
        self._grid = [[np.array(c, dtype=np.int64) for c in row]
                      for row in grid]

    def _clip_bin(self, v):
        return int(min(max(v, 0), self._nb - 1))

    def _bary(self, t, p, tol=1e-12):
        tri = self.mesh.triangles[t]
        a, b, c = self.mesh.nodes[tri]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        l1 = ((p[0] - a[0]) * (c[1] - a[1])
              - (c[0] - a[0]) * (p[1] - a[1])) / det
        l2 = ((b[0] - a[0]) * (p[1] - a[1])
              - (p[0] - a[0]) * (b[1] - a[1])) / det
        l0 = 1.0 - l1 - l2
        if l0 >= -tol and l1 >= -tol and l2 >= -tol:
            return np.array([l0, l1, l2])
        return None

    def _cell(self, p):
        i = self._clip_bin((p[0] - self._rmin) / self._dr)
        j = self._clip_bin((p[1] - self._zmin) / self._dz)
        return self._grid[i][j]

    def locate(self, point):
        p = np.asarray(point, dtype=np.float64)
        bary = self._bary(self._last, p)
        if bary is not None:
            return self._last, bary
        for t in self._cell(p):
            bary = self._bary(t, p)
            if bary is not None:
                self._last = int(t)
                return int(t), bary
        raise LookupError(f"point ({p[0]:g}, {p[1]:g}) outside")

    def try_locate(self, point):
        try:
            return self.locate(point)
        except LookupError:
            return None

    def locate_all(self, point):
        """Every triangle of the point's bin that holds it (the rule the
        array locator follows)."""
        p = np.asarray(point, dtype=np.float64)
        return [int(t) for t in self._cell(p) if self._bary(t, p) is not None]


def _interpolate_loop(mesh, values, point, locator):
    t, bary = locator.locate(point)
    return float(values[mesh.triangles[t]] @ bary)


def _make_chord_loop(p0, p1, step):
    """Composite-midpoint quadrature along one segment with spacing
    <= step: points, weights and the unit normal."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    length = float(np.linalg.norm(p1 - p0))
    nseg = max(1, int(np.ceil(length / step)))
    s = (np.arange(nseg) + 0.5) / nseg
    direction = (p1 - p0) / length
    return SimpleNamespace(qpoints=p0 + s[:, None] * (p1 - p0),
                           weights=np.full(nseg, length / nseg),
                           normal=np.array([-direction[1], direction[0]]))


def _default_step(mesh):
    return 0.5 * np.sqrt(2.0 * mesh.area() / len(mesh.triangles))


class _ChordGeometryLoop:
    """Chord quadrature pinned to the mesh one point at a time; points
    outside the domain are dropped."""

    def __init__(self, mesh, chord, locator):
        self.chord = chord
        tri, bary, keep = [], [], []
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


def _chord_geoms_loop(mesh, endpoints, step):
    locator = _PointLocatorLoop(mesh)
    return locator, [_ChordGeometryLoop(
        mesh, _make_chord_loop(c[:2], c[2:], step), locator)
        for c in endpoints]


def _neumann_loop(mesh):
    node_tris = [[] for _ in range(mesh.n_nodes)]
    for t, tri in enumerate(mesh.triangles):
        for i in tri:
            node_tris[i].append(t)
    normals = mesh.boundary_normals()
    grads, areas = mesh.grads(), mesh.areas()
    out = np.zeros((len(mesh.boundary), mesh.n_nodes))
    for k, node in enumerate(mesh.boundary):
        tris = np.array(node_tris[node])
        wsum = areas[tris].sum()
        r_k = mesh.nodes[node, 0]
        acc = {}
        for t in tris:
            row = (normals[k] @ grads[t]) * (areas[t] / wsum) / r_k
            for a, nid in enumerate(mesh.triangles[t]):
                acc[nid] = acc.get(nid, 0.0) + row[a]
        for nid, v in acc.items():
            out[k, nid] = v
    return out


def _boundary_normals_loop(mesh):
    pts = mesh.nodes[mesh.boundary]
    nb = len(pts)
    normals = np.empty((nb, 2))
    for k in range(nb):
        prev_e = pts[k] - pts[(k - 1) % nb]
        next_e = pts[(k + 1) % nb] - pts[k]
        n1 = np.array([prev_e[1], -prev_e[0]])
        n2 = np.array([next_e[1], -next_e[0]])
        n1 /= np.hypot(*n1)
        n2 /= np.hypot(*n2)
        n = n1 + n2
        normals[k] = n / np.hypot(*n)
    return normals

def _adjacency_loop(mesh):
    """For each node, the sorted edge-connected nodes."""
    nbs = [set() for _ in range(mesh.n_nodes)]
    for tri in mesh.triangles.tolist():
        for a in tri:
            nbs[a].update(tri)
    return [np.array(sorted(s - {k}), dtype=np.int64)
            for k, s in enumerate(nbs)]


def _ordered_ring_loop(mesh, node, adjacency):
    nbs = adjacency[node]
    d = mesh.nodes[nbs] - mesh.nodes[node]
    order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
    return nbs[order]


def _saddle_candidates_loop(mesh, psi, scale):
    adjacency = _adjacency_loop(mesh)
    out = []
    for node in mesh.interior_nodes():
        ring = _ordered_ring_loop(mesh, int(node), adjacency)
        diff = psi[ring] - psi[node]
        signs = np.sign(diff[np.abs(diff) > 1e-14 * scale])
        if len(signs) < 4:
            continue
        if int(np.sum(signs != np.roll(signs, 1))) >= 4:
            out.append(int(node))
    return out


def _quadratic_fit(mesh, values, node, two_ring=False):
    """Least-squares quadratic psi(dr,dz) about a node over its ring
    neighborhood.  Returns (coeffs c,gr,gz,hrr,hrz,hzz) or None."""
    ring = mesh.node_neighbors()[node]
    ring = ring[ring >= 0]
    if two_ring:
        ring = np.append(ring, mesh.node_neighbors()[ring])
    ids = np.array([node] + sorted(set(ring.tolist()) - {node, -1}))
    if len(ids) < 6:
        return None
    d = mesh.nodes[ids] - mesh.nodes[node]
    A = np.column_stack([np.ones(len(ids)), d[:, 0], d[:, 1],
                         0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1],
                         0.5 * d[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(A, values[ids], rcond=None)
    return coef


def _critical_point(coef):
    """Stationary point of the fitted quadratic, relative to the fit center."""
    _, gr, gz, hrr, hrz, hzz = coef
    H = np.array([[hrr, hrz], [hrz, hzz]])
    det = hrr * hzz - hrz * hrz
    if det == 0.0:
        return None, H
    dx = -np.linalg.solve(H, np.array([gr, gz]))
    return dx, H


def _fit_value(coef, dx):
    c, gr, gz, hrr, hrz, hzz = coef
    return (c + gr * dx[0] + gz * dx[1] + 0.5 * hrr * dx[0] ** 2
            + hrz * dx[0] * dx[1] + 0.5 * hzz * dx[1] ** 2)


def _ring_radius(mesh, node):
    ring = mesh.node_neighbors()[node]
    return np.linalg.norm(mesh.nodes[ring[ring >= 0]] - mesh.nodes[node],
                          axis=1).max()


def _find_axis_frozen(mesh, psi):
    """find_axis over the fit helpers above; returns (result, branch) with
    branch "one", "two" (ring fit used) or "node" (argmax fallback)."""
    psi = np.asarray(psi, dtype=np.float64)
    interior = mesh.interior_nodes()
    if len(interior) == 0:
        raise NoPlasmaError("mesh has no interior nodes")
    node = interior[np.argmax(psi[interior])]
    if psi[mesh.boundary].max() >= psi[node]:
        raise NoPlasmaError("flux maximum attained on the boundary")

    best = (tuple(mesh.nodes[node]), float(psi[node])), "node"
    for two_ring in (False, True):
        coef = _quadratic_fit(mesh, psi, node, two_ring=two_ring)
        if coef is None:
            continue
        dx, H = _critical_point(coef)
        if dx is None:
            continue
        eigs = np.linalg.eigvalsh(H)
        if (eigs.max() < 0
                and np.linalg.norm(dx) <= 1.5 * _ring_radius(mesh, node)):
            pos = mesh.nodes[node] + dx
            best = ((tuple(pos), float(_fit_value(coef, dx))),
                    "two" if two_ring else "one")
            break
    return best


def _find_xpoint_loop(mesh, psi):
    psi = np.asarray(psi, dtype=np.float64)
    scale = np.abs(psi).max() or 1.0
    adjacency = _adjacency_loop(mesh)
    candidates = []
    for node in _saddle_candidates_loop(mesh, psi, scale):
        ring = _ordered_ring_loop(mesh, node, adjacency)
        coef = _quadratic_fit(mesh, psi, node)
        if coef is None:
            continue
        dx, H = _critical_point(coef)
        det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
        if dx is None or det >= -1e-12 * scale ** 2:
            continue
        radius = np.linalg.norm(
            mesh.nodes[ring] - mesh.nodes[node], axis=1).max()
        if np.linalg.norm(dx) > 1.5 * radius:
            continue
        pos = mesh.nodes[node] + dx
        candidates.append((tuple(pos), float(_fit_value(coef, dx))))
    if not candidates:
        return None
    return max(candidates, key=lambda c: c[1])


def _limiter_flux_loop(mesh, psi):
    locator = _PointLocatorLoop(mesh)
    return max(_interpolate_loop(mesh, psi, p, locator) for p in mesh.limiter)


def _psibar_qp_loop(squad, psibar_nodal):
    return np.einsum("qa,qa->q", squad.qp_bary, psibar_nodal[squad.qp_nodes])


def _source_vector_loop(squad, pq, a_vals, b_vals, lam, r0, rows):
    mask = pq <= 1.0
    w, r = squad.qp_w[mask], squad.qp_r[mask]
    dens = lam * (r / r0 * a_vals[mask] + r0 / r * b_vals[mask]) * w
    y = np.zeros(squad.P.shape[1])
    contrib = squad.qp_bary[mask] * dens[:, None]
    np.add.at(y, squad.qp_nodes[mask].ravel(), contrib.ravel())
    y[rows] = 0.0
    return y


def _source_matrix_loop(squad, pq, basis, lam, r0, rows):
    m = basis.m
    inside = pq <= 1.0
    nodes, bary = squad.qp_nodes[inside], squad.qp_bary[inside]
    w, r = squad.qp_w[inside], squad.qp_r[inside]
    phi = BSpline.design_matrix(np.clip(pq[inside], 0.0, 1.0), basis.knots,
                                basis.degree).toarray()
    ca = (w * r / r0)[:, None] * phi
    cb = (w * r0 / r)[:, None] * phi
    Y = np.zeros((squad.P.shape[1], 2 * m))
    for a in range(bary.shape[1]):
        np.add.at(Y, (nodes[:, a], slice(0, m)), bary[:, a][:, None] * ca)
        np.add.at(Y, (nodes[:, a], slice(m, 2 * m)), bary[:, a][:, None] * cb)
    Y *= lam
    Y[rows, :] = 0.0
    return Y


def _seed_rule(mesh, r0):
    """The unmerged mid-edge rule: three points per triangle."""
    nodes, bary, w, r, z = quadrature_points(mesh)
    P = interpolation_matrix(nodes, bary, mesh.n_nodes)
    return SimpleNamespace(P=P, qp_nodes=nodes, qp_bary=bary, qp_w=w,
                           qp_r=r, qp_z=z, Pa=P.T @ sp.diags(w * r / r0),
                           Pb=P.T @ sp.diags(w * r0 / r))


def _source_matrix_f_fill(squad, psibar_qp, basis, lam, r0, rows):
    """Y as assembled before the weighted matrices: a dense (Q, 2m) array
    F of weighted basis values, every coefficient a column, then P^T F."""
    mask = psibar_qp <= 1.0
    w, r = squad.qp_w[mask], squad.qp_r[mask]
    phi = basis.eval_many(psibar_qp[mask])
    F = np.zeros((len(psibar_qp), 2 * basis.m))
    F[mask, :basis.m] = (w * r / r0)[:, None] * phi
    F[mask, basis.m:] = (w * r0 / r)[:, None] * phi
    Y = squad.P.T @ F
    Y *= lam
    Y[rows, :] = 0.0
    return Y


def _polarimetry_observer_sparse(chords, basis, ne_coeffs, psibar_nodal):
    """The polarimetry rows as the sparse N_c x n matrix R diag(coef) D."""
    pb, mask = chords.plasma_points(psibar_nodal)
    ne_vals = basis.eval_many(pb[mask]) @ ne_coeffs
    coef = np.zeros(len(pb))
    coef[mask] = chords.w[mask] * ne_vals / chords.r[mask]
    return (chords.R @ sp.diags(coef) @ chords.D).tocsr()


def _polarimetry(chords, basis, ne_coeffs, psibar_nodal, X):
    """R (coef * D X) for the nodal field(s) X, as the reconstruction step
    forms it."""
    weights = build_interferometry_matrix(chords, basis, psibar_nodal)[1]
    return build_polarimetry_observer(chords, weights, ne_coeffs)(X)


def _interferometry_loop(geoms, basis, psibar_nodal):
    out = np.zeros((len(geoms), basis.m))
    for i, geom in enumerate(geoms):
        if len(geom.inside) == 0:
            continue
        pb = geom.values_at_points(psibar_nodal)
        mask = pb <= 1.0
        if not np.any(mask):
            continue
        phi = basis.eval_many(pb[mask])
        out[i] = (geom.w[mask][:, None] * phi).sum(axis=0)
    return out


def _polarimetry_loop(locator, geoms, basis, ne_coeffs, psibar_nodal, mesh):
    """The chord-normal derivative at a point on an edge or a vertex is
    the mean over every triangle holding it."""
    grads = mesh.grads()
    out = np.zeros((len(geoms), mesh.n_nodes))
    for k, geom in enumerate(geoms):
        if len(geom.inside) == 0:
            continue
        pb = geom.values_at_points(psibar_nodal)
        mask = pb <= 1.0
        if not np.any(mask):
            continue
        ne_vals = basis.eval_many(pb[mask]) @ ne_coeffs
        coef = geom.w[mask] * ne_vals / geom.r[mask]
        for q, p in enumerate(geom.chord.qpoints[geom.inside][mask]):
            tris = locator.locate_all(p)
            for t in tris:
                row = coef[q] * (geom.chord.normal @ grads[t]) / len(tris)
                for a, nid in enumerate(mesh.triangles[t]):
                    out[k, nid] += row[a]
    return out


# ---------------------------------------------------------------------------
# Neighbor table and X-point search
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mesh16():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 16, 16)


def _fields(mesh):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rng = np.random.default_rng(20240917)
    return {"paraboloid": 1.0 - (r - 2.5) ** 2 - z ** 2,
            "saddle": (r - 2.5) ** 2 - z ** 2,
            # Hessian determinant -4e-12, just past the -1e-12 scale^2 test
            "flat_saddle": (r - 2.5) ** 2 - 1e-12 * z ** 2,
            "noise": rng.standard_normal(mesh.n_nodes)}


def test_node_neighbors_match_loop(twin_mesh):
    table = twin_mesh.node_neighbors()
    adjacency = _adjacency_loop(twin_mesh)
    assert table.shape == (twin_mesh.n_nodes,
                           max(len(nbs) for nbs in adjacency))
    for node, row in enumerate(table):
        ring = _ordered_ring_loop(twin_mesh, node, adjacency)
        np.testing.assert_array_equal(row[:len(ring)], ring)
        assert np.all(row[len(ring):] == -1)


@pytest.mark.parametrize("name", ["paraboloid", "saddle", "flat_saddle",
                                  "noise"])
def test_xpoint_matches_loop(mesh16, name):
    psi = _fields(mesh16)[name]
    scale = np.abs(psi).max()
    assert (list(saddle_candidates(mesh16, psi, scale))
            == _saddle_candidates_loop(mesh16, psi, scale))
    assert find_xpoint(mesh16, psi) == _find_xpoint_loop(mesh16, psi)


def _ridge(mesh, nr, nz, center, power, eps, slope=(2.0, -1.5)):
    """-|a i + b j|^power - eps (i^2 + j^2) in cell units (i, j) about the
    node ``center`` = (column, row) of build_rect_mesh(2, 3, -1, 1, nr, nz):
    power 3 leaves the one-ring quadratic fit indefinite, power 4 both."""
    i = (mesh.nodes[:, 0] - 2.0) * nr - center[0]
    j = (mesh.nodes[:, 1] + 1.0) * nz / 2.0 - center[1]
    return -np.abs(slope[0] * i + slope[1] * j) ** power - eps * (i * i + j * j)


@pytest.mark.parametrize("power,branch", [(2, "one"), (3, "two"),
                                          (4, "node")])
def test_axis_branches_match_frozen(power, branch):
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 8, 8)
    psi = _ridge(mesh, 8, 8, (4, 4), power, 0.1)
    ref, taken = _find_axis_frozen(mesh, psi)
    assert taken == branch
    assert find_axis(mesh, psi) == ref


@settings(max_examples=120)
@given(data=st.data())
def test_axis_and_xpoint_match_frozen_on_random_fields(data):
    nr, nz = data.draw(st.integers(3, 12)), data.draw(st.integers(3, 12))
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, nr, nz)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    kind = data.draw(st.sampled_from(["ridge", "bumps", "noise"]))
    if kind == "ridge":
        psi = _ridge(mesh, nr, nz, rng.integers(1, (nr, nz)),
                     data.draw(st.sampled_from([1, 2, 3, 4])),
                     rng.uniform(0.01, 0.5), rng.uniform(-2.0, 2.0, 2))
    elif kind == "bumps":               # peaks with saddles between them
        d = mesh.nodes[:, None, :] - rng.uniform((2.0, -1.0), (3.0, 1.0),
                                                 (3, 2))
        width = rng.uniform(0.1, 0.5, 3)
        psi = (rng.uniform(0.5, 1.0, 3)
               * np.exp(-(d ** 2).sum(axis=2) / width ** 2)).sum(axis=1)
    else:
        psi = rng.standard_normal(mesh.n_nodes)
    psi += data.draw(st.sampled_from([0.0, 1e-3, 0.1])) * rng.standard_normal(
        mesh.n_nodes)
    try:
        ref = _find_axis_frozen(mesh, psi)[0]
    except NoPlasmaError:
        with pytest.raises(NoPlasmaError):
            find_axis(mesh, psi)
    else:
        assert find_axis(mesh, psi) == ref
    assert find_xpoint(mesh, psi) == _find_xpoint_loop(mesh, psi)


def test_noise_field_has_saddle_candidates(mesh16):
    psi = _fields(mesh16)["noise"]
    assert len(saddle_candidates(mesh16, psi, np.abs(psi).max())) > 10


def test_xpoint_matches_loop_on_twin_flux(twin_mesh, reference_eq):
    psi = reference_eq.psi
    scale = np.abs(psi).max()
    assert (list(saddle_candidates(twin_mesh, psi, scale))
            == _saddle_candidates_loop(twin_mesh, psi, scale))
    assert find_xpoint(twin_mesh, psi) == _find_xpoint_loop(twin_mesh, psi)


# ---------------------------------------------------------------------------
# Limiter, quadrature and chord operators on the 20x20 twin
# ---------------------------------------------------------------------------

def _free(basis):
    """Columns of the free coefficients: all but the last of A and of B."""
    m = basis.m
    return np.delete(np.arange(2 * m), [m - 1, 2 * m - 1])


def _close(new, ref, rtol=1e-12):
    new = new.toarray() if hasattr(new, "toarray") else np.asarray(new)
    np.testing.assert_allclose(new, ref, rtol=0,
                               atol=rtol * np.abs(ref).max())


def test_limiter_flux_matches_loop(twin_mesh, reference_eq):
    for psi in (reference_eq.psi, _fields(twin_mesh)["noise"]):
        psi_lim, _ = boundary_flux(twin_mesh, psi)
        assert psi_lim == pytest.approx(_limiter_flux_loop(twin_mesh, psi),
                                        rel=1e-12)


def test_source_operators_match_loop(twin_mesh, basis, reference_eq):
    eq = reference_eq
    squad = SourceQuadrature(twin_mesh, 2.5)
    psibar = eq.domain.normalize(eq.psi)
    pq = squad.psibar_qp(psibar)
    _close(pq, _psibar_qp_loop(squad, psibar))
    assert 0 < np.sum(pq <= 1.0) < len(pq)

    # the loads are unscaled and cover every row: lam 1, no rows cleared
    _close(assemble_source_matrix(squad, pq, basis),
           _source_matrix_loop(squad, pq, basis, 1.0, 2.5, [])[:, _free(basis)])
    phi = basis.eval_many(np.clip(pq, 0.0, 1.0))
    a_vals, b_vals = phi @ eq.profiles.a, phi @ eq.profiles.b
    _close(assemble_source_vector(squad, pq, a_vals, b_vals),
           _source_vector_loop(squad, pq, a_vals, b_vals, 1.0, 2.5, []))


def test_merged_rule_matches_seed_rule(twin_mesh, basis, reference_eq):
    # one point per mesh edge against three points per triangle, the
    # midpoint of each interior edge counted once from each side
    eq = reference_eq
    squad, seed = SourceQuadrature(twin_mesh, 2.5), _seed_rule(twin_mesh, 2.5)
    assert (len(squad.qp_w), len(seed.qp_w)) == (1240, 2400)
    _, tri_edges = twin_mesh.edge_index()
    pick = tri_edges.ravel()
    _close(squad.qp_r[pick], seed.qp_r)
    _close(squad.qp_z[pick], seed.qp_z)
    assert squad.qp_w.sum() == pytest.approx(seed.qp_w.sum(), rel=1e-14)

    psibar = eq.domain.normalize(eq.psi)
    pq, pq3 = squad.psibar_qp(psibar), _psibar_qp_loop(seed, psibar)
    np.testing.assert_array_equal(pq3, pq[pick])

    _close(assemble_source_matrix(squad, pq, basis),
           _source_matrix_loop(seed, pq3, basis, 1.0, 2.5,
                               [])[:, _free(basis)])
    ab, ab3 = ([basis.eval_many(x) @ c for c in (eq.profiles.a,
                                                  eq.profiles.b)]
               for x in (pq, pq3))
    y = assemble_source_vector(squad, pq, *ab)
    _close(y, _source_vector_loop(seed, pq3, *ab3, 1.0, 2.5, []))
    assert y.sum() == pytest.approx(
        assemble_source_vector(seed, pq3, *ab3).sum(), rel=1e-12)


def test_chord_operators_match_loop(setup, basis, reference_eq, ne_coeffs):
    eq = reference_eq
    psibar = eq.domain.normalize(eq.psi)
    chords = setup.chord_geoms
    locator, geoms = _chord_geoms_loop(setup.mesh, chords.endpoints,
                                       _default_step(setup.mesh))
    _close(build_interferometry_matrix(chords, basis, psibar)[0],
           _interferometry_loop(geoms, basis, psibar))
    # the polarimetry rows applied to the identity: the observer matrix
    _close(_polarimetry(chords, basis, ne_coeffs, psibar,
                        np.eye(setup.mesh.n_nodes)),
           _polarimetry_loop(locator, geoms, basis, ne_coeffs, psibar,
                             setup.mesh))


def test_step_products_match_parent_assembly(setup, basis, reference_eq,
                                             ne_coeffs, clean_measurements):
    # Y from the weighted matrices against the dense F fill it replaced,
    # the pinned columns dropped; the polarimetry rows R (coef * D X)
    # against the sparse observer R diag(coef) D on psi, K^-1 Y and K^-1 g
    eq, squad = reference_eq, setup.squad
    psibar = eq.domain.normalize(eq.psi)
    pq = squad.psibar_qp(psibar)
    parent = _source_matrix_f_fill(squad, pq, basis, 1.0, 2.5, [])
    Y = assemble_source_matrix(squad, pq, basis)
    assert Y.shape == (setup.mesh.n_nodes, 2 * basis.m - 2)
    _close(Y, parent[:, setup.free_idx], rtol=1e-13)
    k_inv_y = setup.fact.solve_multi(eq.lam * Y)
    chords = setup.chord_geoms
    observer = _polarimetry_observer_sparse(chords, basis, ne_coeffs, psibar)
    for X in (eq.psi, k_inv_y, setup.fact.lift(clean_measurements.g_d)):
        _close(_polarimetry(chords, basis, ne_coeffs, psibar, X),
               observer @ X, rtol=1e-13)


@pytest.fixture(scope="module", params=[(20, 0.0), (40, 0.0), (40, 0.3)],
                ids=["20x20", "40x40", "40x40-jittered"])
def twin_chords(request):
    cells, jitter = request.param
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, cells, cells,
                                   limiter=LIMITER)
    if jitter:
        # interior nodes moved by up to `jitter` cells: unequal triangle
        # areas weigh the Neumann rows unevenly
        rng = np.random.default_rng(11)
        nodes = mesh.nodes.copy()
        cell = np.array([1.0, 2.4]) / cells
        inner = mesh.interior_nodes()
        nodes[inner] += jitter * cell * rng.uniform(-1, 1, (len(inner), 2))
        mesh = gsrecon.Mesh(nodes, mesh.triangles, mesh.boundary, LIMITER)
    return mesh, build_chord_geometries(mesh, CHORDS)


def test_point_operators_match_frozen_copies(twin_chords):
    mesh, chords = twin_chords
    locator, geoms = _chord_geoms_loop(mesh, chords.endpoints,
                                       _default_step(mesh))
    n, grads = mesh.n_nodes, mesh.grads()
    S = np.zeros((len(chords.w), n))
    D, D_mean = np.zeros_like(S), np.zeros_like(S)
    n_hits = []
    q = 0
    for geom in geoms:
        for p, bary, nodes, t in zip(geom.chord.qpoints[geom.inside],
                                     geom.bary, geom.nodes, geom.tri):
            S[q, nodes] = bary
            D[q, nodes] = geom.chord.normal @ grads[t]
            tris = locator.locate_all(p)
            for t in tris:
                D_mean[q, mesh.triangles[t]] += \
                    (geom.chord.normal @ grads[t]) / len(tris)
            n_hits.append(len(tris))
            q += 1
    assert q == S.shape[0]
    # the sampling is the per-chord loop's, bit for bit
    np.testing.assert_array_equal(
        chords.points,
        np.concatenate([g.chord.qpoints[g.inside] for g in geoms]))
    np.testing.assert_array_equal(chords.w,
                                  np.concatenate([g.w for g in geoms]))
    np.testing.assert_array_equal(chords.normals,
                                  [g.chord.normal for g in geoms])
    np.testing.assert_array_equal(
        chords.R.toarray(),
        np.repeat(np.eye(len(geoms)), [len(g.inside) for g in geoms], axis=1))
    _close(chords.S, S)

    # D agrees with the frozen copy on points inside one triangle; on an
    # edge or a vertex it is the mean over the triangles holding the point
    single = np.array(n_hits) == 1
    _close(chords.D, D_mean)
    _close(chords.D.toarray()[single], D[single])

    L = np.zeros((len(mesh.limiter), n))
    for k, p in enumerate(mesh.limiter):
        t, bary = locator.locate(p)
        L[k, mesh.triangles[t]] = bary
    _close(mesh.limiter_matrix(), L)

    np.testing.assert_array_equal(mesh.boundary_normals(),
                                  _boundary_normals_loop(mesh))
    C0, points = build_neumann_observer(mesh)
    _close(C0, _neumann_loop(mesh))
    np.testing.assert_array_equal(points, mesh.nodes[mesh.boundary])


def test_chord_sampling_matches_make_chord_loop(twin_mesh):
    # points, weights and normals of chords of many lengths and directions
    # against the per-chord loop, bit for bit; every point lies inside
    rng = np.random.default_rng(3)
    ends = rng.uniform([2.0, -1.2, 2.0, -1.2], [3.0, 1.2, 3.0, 1.2],
                       size=(200, 4))
    endpoints = np.vstack([CHORDS, np.roll(CHORDS, 2, axis=1), ends])
    for step in (_default_step(twin_mesh), 0.013):
        chords = build_chord_geometries(twin_mesh, endpoints, step=step)
        loop = [_make_chord_loop(c[:2], c[2:], step) for c in endpoints]
        np.testing.assert_array_equal(
            chords.points, np.concatenate([c.qpoints for c in loop]))
        np.testing.assert_array_equal(
            chords.w, np.concatenate([c.weights for c in loop]))
        np.testing.assert_array_equal(chords.normals,
                                      [c.normal for c in loop])
