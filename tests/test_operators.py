"""The mesh-fixed operators (ordered-ring index, quadrature matrix P,
limiter matrix L, chord matrices S, D, R) against frozen copies of the
per-node and per-chord loops they replaced."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import BSpline

import gsrecon
from gsrecon.basis import ProfileExpansion
from gsrecon.forward import (SourceQuadrature, assemble_source_matrix,
                             assemble_source_vector, current_density_integral)
from gsrecon.geometry import (_critical_point, _fit_value, _quadratic_fit,
                              boundary_flux, find_xpoint, quadrature_points,
                              saddle_candidates)
from gsrecon.mesh import PointLocator, interpolate, interpolation_matrix
from gsrecon.observation import (build_interferometry_matrix,
                                 build_polarimetry_observer)


# ---------------------------------------------------------------------------
# Frozen loop versions
# ---------------------------------------------------------------------------

def _ordered_ring_loop(mesh, node):
    nbs = mesh.node_neighbors()[node]
    d = mesh.nodes[nbs] - mesh.nodes[node]
    order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
    return nbs[order]


def _saddle_candidates_loop(mesh, psi, scale):
    out = []
    for node in mesh.interior_nodes():
        ring = _ordered_ring_loop(mesh, int(node))
        diff = psi[ring] - psi[node]
        signs = np.sign(diff[np.abs(diff) > 1e-14 * scale])
        if len(signs) < 4:
            continue
        if int(np.sum(signs != np.roll(signs, 1))) >= 4:
            out.append(int(node))
    return out


def _find_xpoint_loop(mesh, psi):
    psi = np.asarray(psi, dtype=np.float64)
    scale = np.abs(psi).max() or 1.0
    candidates = []
    for node in _saddle_candidates_loop(mesh, psi, scale):
        ring = _ordered_ring_loop(mesh, node)
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
    locator = PointLocator(mesh)
    return max(interpolate(mesh, psi, p, locator) for p in mesh.limiter)


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


def _seed_rule(mesh):
    """The unmerged mid-edge rule: three points per triangle."""
    nodes, bary, w, r, z = quadrature_points(mesh)
    return SimpleNamespace(P=interpolation_matrix(nodes, bary, mesh.n_nodes),
                           qp_nodes=nodes, qp_bary=bary, qp_w=w, qp_r=r,
                           qp_z=z)


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


def _polarimetry_loop(geoms, ne_expansion, psibar_nodal, mesh):
    grads = mesh.grads()
    out = np.zeros((len(geoms), mesh.n_nodes))
    for k, geom in enumerate(geoms):
        if len(geom.inside) == 0:
            continue
        pb = geom.values_at_points(psibar_nodal)
        mask = pb <= 1.0
        if not np.any(mask):
            continue
        ne_vals = (ne_expansion.basis.eval_many(pb[mask])
                   @ ne_expansion.coeffs("ne"))
        coef = geom.w[mask] * ne_vals / geom.r[mask]
        for q, t in enumerate(geom.tri[mask]):
            row = coef[q] * (geom.chord.normal @ grads[t])
            for a, nid in enumerate(geom.nodes[mask][q]):
                out[k, nid] += row[a]
    return out


# ---------------------------------------------------------------------------
# Ordered rings and X-point search
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mesh16():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 16, 16)


def _fields(mesh):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rng = np.random.default_rng(20240917)
    return {"paraboloid": 1.0 - (r - 2.5) ** 2 - z ** 2,
            "saddle": (r - 2.5) ** 2 - z ** 2,
            "noise": rng.standard_normal(mesh.n_nodes)}


def test_ordered_rings_match_loop(twin_mesh):
    rings = twin_mesh.ordered_rings()
    for k, node in enumerate(twin_mesh.interior_nodes()):
        ring = rings[k][rings[k] >= 0]
        np.testing.assert_array_equal(ring,
                                      _ordered_ring_loop(twin_mesh, node))


@pytest.mark.parametrize("name", ["paraboloid", "saddle", "noise"])
def test_xpoint_matches_loop(mesh16, name):
    psi = _fields(mesh16)[name]
    scale = np.abs(psi).max()
    assert (list(saddle_candidates(mesh16, psi, scale))
            == _saddle_candidates_loop(mesh16, psi, scale))
    assert find_xpoint(mesh16, psi) == _find_xpoint_loop(mesh16, psi)


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
    squad = SourceQuadrature(twin_mesh)
    psibar = eq.domain.normalize(eq.psi)
    pq = squad.psibar_qp(psibar)
    _close(pq, _psibar_qp_loop(squad, psibar))
    assert 0 < np.sum(pq <= 1.0) < len(pq)

    rows = twin_mesh.boundary
    _close(assemble_source_matrix(squad, pq, basis, eq.lam, 2.5, rows),
           _source_matrix_loop(squad, pq, basis, eq.lam, 2.5, rows))
    phi = basis.eval_many(np.clip(pq, 0.0, 1.0))
    a_vals, b_vals = phi @ eq.profiles.a, phi @ eq.profiles.b
    _close(assemble_source_vector(squad, pq, a_vals, b_vals, eq.lam, 2.5,
                                  rows),
           _source_vector_loop(squad, pq, a_vals, b_vals, eq.lam, 2.5, rows))


def test_merged_rule_matches_seed_rule(twin_mesh, basis, reference_eq):
    # one point per mesh edge against three points per triangle, the
    # midpoint of each interior edge counted once from each side
    eq = reference_eq
    squad, seed = SourceQuadrature(twin_mesh), _seed_rule(twin_mesh)
    assert (len(squad.qp_w), len(seed.qp_w)) == (1240, 2400)
    _, tri_edges = twin_mesh.edge_index()
    pick = tri_edges.ravel()
    _close(squad.qp_r[pick], seed.qp_r)
    _close(squad.qp_z[pick], seed.qp_z)
    assert squad.qp_w.sum() == pytest.approx(seed.qp_w.sum(), rel=1e-14)

    psibar = eq.domain.normalize(eq.psi)
    pq, pq3 = squad.psibar_qp(psibar), _psibar_qp_loop(seed, psibar)
    np.testing.assert_array_equal(pq3, pq[pick])

    rows = twin_mesh.boundary
    _close(assemble_source_matrix(squad, pq, basis, eq.lam, 2.5, rows),
           _source_matrix_loop(seed, pq3, basis, eq.lam, 2.5, rows))
    ab, ab3 = ([basis.eval_many(x) @ c for c in (eq.profiles.a,
                                                  eq.profiles.b)]
               for x in (pq, pq3))
    _close(assemble_source_vector(squad, pq, *ab, eq.lam, 2.5, rows),
           _source_vector_loop(seed, pq3, *ab3, eq.lam, 2.5, rows))
    assert (current_density_integral(squad, pq, *ab, 2.5)
            == pytest.approx(current_density_integral(seed, pq3, *ab3, 2.5),
                             rel=1e-12))


def test_chord_operators_match_loop(setup, basis, reference_eq, ne_coeffs):
    eq = reference_eq
    psibar = eq.domain.normalize(eq.psi)
    geoms = setup.chord_geoms
    _close(build_interferometry_matrix(geoms, basis, psibar),
           _interferometry_loop(geoms, basis, psibar))
    zero = np.zeros(basis.m)
    ne = ProfileExpansion(basis, zero, zero, ne_coeffs)
    _close(build_polarimetry_observer(geoms, ne, psibar),
           _polarimetry_loop(geoms, ne, psibar, setup.mesh))
