import numpy as np
import pytest

import gsrecon
from gsrecon.errors import DegeneratePlasmaError, NoPlasmaError
from gsrecon.geometry import (PlasmaDomain, _fit_operator, _refine,
                              boundary_flux, find_axis, find_xpoint,
                              make_plasma_domain, quadrature_points)


def paraboloid(mesh, r0=2.5, z0=0.0):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return 1.0 - (r - r0) ** 2 - (z - z0) ** 2


@pytest.fixture(scope="module")
def mesh():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 16, 16)


def test_axis_of_paraboloid(mesh):
    (ra, za), psi_a = find_axis(mesh, paraboloid(mesh))
    # quadratic fields are fitted exactly by the local quadratic refinement
    assert (ra, za) == pytest.approx((2.5, 0.0), abs=1e-8)
    assert psi_a == pytest.approx(1.0, abs=1e-8)


def test_axis_off_grid(mesh):
    (ra, za), psi_a = find_axis(mesh, paraboloid(mesh, r0=2.47, z0=0.11))
    assert (ra, za) == pytest.approx((2.47, 0.11), abs=1e-8)


@pytest.mark.parametrize("t", [1.45, 1.55])
def test_refine_reaches_one_and_a_half_ring_radii(mesh, t):
    # the fit is exact for a paraboloid; its maximum t ring radii from the
    # node is kept within 1.5 ring radii and refused beyond
    node = int(np.argmin(np.hypot(*(mesh.nodes - (2.5, 0.0)).T)))
    ring = mesh.node_neighbors()[node]
    radius = np.linalg.norm(mesh.nodes[ring[ring >= 0]] - mesh.nodes[node],
                            axis=1).max()
    center = mesh.nodes[node] + (t * radius, 0.0)
    fit = _refine(mesh, paraboloid(mesh, *center), node)
    if t < 1.5:
        assert fit[0] == pytest.approx(tuple(center), abs=1e-8)
        assert fit[1] == pytest.approx(1.0, abs=1e-8)
    else:
        assert fit is None


@pytest.mark.parametrize("two_ring", [False, True])
@pytest.mark.parametrize("which", ["rect", "delaunay"])
def test_fit_operator_recovers_any_quadratic(mesh, delaunay_mesh, which,
                                            two_ring):
    # the value, gradient and Hessian of a quadratic at every interior node,
    # in ring-radius units
    mesh = {"rect": mesh, "delaunay": delaunay_mesh}[which]
    a = np.random.default_rng(5).uniform(-1.0, 1.0, 6)
    r, z = mesh.nodes.T
    q = a[0] + a[1] * r + a[2] * z + a[3] * r * r + a[4] * r * z + a[5] * z * z
    degree = (mesh.node_neighbors() >= 0).sum(axis=1)
    for node in mesh.interior_nodes():
        ids, pinv, s = _fit_operator(mesh, int(node), two_ring)
        # only a one ring of four nodes has fewer than six fit nodes
        if not two_ring and degree[node] < 5:
            assert len(ids) == 5 and not pinv.any()
            continue
        rn, zn = mesh.nodes[node]
        exact = [q[node], s * (a[1] + 2 * a[3] * rn + a[4] * zn),
                 s * (a[2] + a[4] * rn + 2 * a[5] * zn), s * s * 2 * a[3],
                 s * s * a[4], s * s * 2 * a[5]]
        assert ids[0] == node
        np.testing.assert_allclose(pinv @ q[ids], exact, rtol=0,
                                   atol=1e-12 * np.abs(exact).max())


@pytest.mark.parametrize("two_ring", [False, True])
def test_refine_returns_hessian_in_mesh_units(mesh, delaunay_mesh, two_ring):
    # psi = -(3 dr^2 + dr dz + 2 dz^2) / 2 about (2.5, 0.1): h_rr = -3,
    # det H = 3 * 2 - 1 / 4
    for m in (mesh, delaunay_mesh):
        dr, dz = (m.nodes - (2.5, 0.1)).T
        psi = -(3.0 * dr * dr + dr * dz + 2.0 * dz * dz) / 2.0
        degree = (m.node_neighbors() >= 0).sum(axis=1)
        node = int(np.argmin(np.where(degree >= 5, np.hypot(dr, dz), np.inf)))
        (r, z), value, hrr, det = _refine(m, psi, node, two_ring)
        assert (r, z, value) == pytest.approx((2.5, 0.1, 0.0), abs=1e-12)
        assert (hrr, det) == pytest.approx((-3.0, 5.75), rel=1e-12)


def _rect():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 16, 16)


def test_fit_operator_built_once_per_mesh(monkeypatch):
    built = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda a: built.append(a.shape) or pinv(a))
    first, second = _rect(), _rect()
    nodes = [int(k) for k in first.interior_nodes()]
    keys = [("fit", k, two_ring) for k in nodes for two_ring in (False, True)]
    for _ in range(2):
        for m in (first, second):
            for key in keys:
                _refine(m, paraboloid(m), *key[1:])
    # one pseudo-inverse per (node, ring) and mesh, none on later calls
    assert len(built) == 2 * len(keys)
    for key in keys:
        assert first._cache[key][1] is not second._cache[key][1]
        np.testing.assert_array_equal(first._cache[key][1],
                                      second._cache[key][1])


def test_warm_fit_matches_cold_fit():
    warm = _rect()
    psi = np.random.default_rng(1).standard_normal(warm.n_nodes)
    for node in warm.interior_nodes():
        for two_ring in (False, True):
            cold = _refine(warm, psi, int(node), two_ring)
            assert _refine(warm, psi, int(node), two_ring) == cold
            assert _refine(_rect(), psi, int(node), two_ring) == cold


def test_fit_needs_six_nodes(delaunay_mesh):
    mesh = delaunay_mesh
    degree = (mesh.node_neighbors() >= 0).sum(axis=1)
    node = int(mesh.interior_nodes()[np.argmin(
        degree[mesh.interior_nodes()])])           # a one ring of 4 nodes
    assert degree[node] == 4
    psi = paraboloid(mesh, *mesh.nodes[node])
    assert not _fit_operator(mesh, node, False)[1].any()
    assert _refine(mesh, psi, node) is None
    assert _refine(mesh, psi, node, two_ring=True)[0] == pytest.approx(
        tuple(mesh.nodes[node]), abs=1e-12)


@pytest.mark.parametrize("ratio", [1e-5, 1e-7, 1e-12])
def test_flat_fit_is_refused(mesh, ratio):
    # a saddle and a maximum whose Hessian eigenvalues are 1 / ratio apart:
    # fitted to 1e-9 h down to a ratio of 1e-6, refused below it (the
    # saddle although its det H passes find_xpoint's test; the axis falls
    # back to the node)
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    h = 1.0 / 16
    xpoint = find_xpoint(mesh, (r - 2.5) ** 2 - ratio * z ** 2)
    (ra, za), _ = find_axis(mesh, -(r - 2.5) ** 2
                            - ratio * (z - 0.03) ** 2)
    if ratio > 1e-6:
        assert xpoint[0] == pytest.approx((2.5, 0.0), abs=1e-9 * h)
        assert (ra, za) == pytest.approx((2.5, 0.03), abs=1e-9 * h)
    else:
        assert xpoint is None
        assert (ra, za) == (2.5, 0.0)


def test_axis_requires_interior_maximum(mesh):
    with pytest.raises(NoPlasmaError):
        find_axis(mesh, mesh.nodes[:, 0])      # maximal on the boundary


def test_axis_needs_interior_nodes():
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 1, 1)
    with pytest.raises(NoPlasmaError, match="no interior nodes"):
        find_axis(mesh, np.zeros(mesh.n_nodes))


def test_saddle_point_detected(mesh):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psi = (r - 2.5) ** 2 - z ** 2
    xp = find_xpoint(mesh, psi)
    assert xp is not None
    assert xp[0] == pytest.approx((2.5, 0.0), abs=1e-8)
    assert xp[1] == pytest.approx(0.0, abs=1e-8)


def _mirror_mesh(n):
    """build_rect_mesh(2, 3, -1, 1, n, n) with the diagonals of its lower
    half flipped, so that z -> -z maps the mesh onto itself."""
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, n, n)
    ids = np.arange(mesh.n_nodes).reshape(n + 1, n + 1)
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    lower = (np.arange(n) < n // 2)[None, :, None]
    tris = np.where(lower, np.stack([a, b, d, b, c, d], axis=-1),
                    np.stack([a, b, c, a, c, d], axis=-1)).reshape(-1, 3)
    return gsrecon.Mesh(mesh.nodes, tris, mesh.boundary, mesh.limiter)


def test_mirror_saddles_tie_to_the_lower():
    # a double null: the axis at z = 0, saddles of one value at z = +-0.5
    mesh = _mirror_mesh(16)

    def corner_sets(sign):
        pts = np.round(mesh.nodes * [1.0, sign], 12) + 0.0
        return {frozenset(map(tuple, pts[t])) for t in mesh.triangles}

    assert corner_sets(1.0) == corner_sets(-1.0)
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psi = (z * z - 0.25) ** 2 - (r - 2.5) ** 2
    upper = int(np.argmin(np.hypot(r - 2.5, z - 0.5)))
    rng = np.random.default_rng(0)
    for field in (psi, np.nextafter(psi, psi + rng.choice([-1.0, 1.0],
                                                           len(psi)))):
        (xr, xz), value = find_xpoint(mesh, field)
        assert xr == pytest.approx(2.5, abs=1e-12) and -0.5 < xz < -0.45
        # the upper saddle is found too, and ties the lower one
        (_, uz), upper_value, *_ = _refine(mesh, field, upper)
        assert uz == pytest.approx(-xz, abs=1e-12)
        assert abs(upper_value - value) <= 1e-12 * np.abs(field).max()


def test_no_saddle_in_paraboloid(mesh):
    assert find_xpoint(mesh, paraboloid(mesh)) is None


def test_boundary_flux_limiter_mode(mesh):
    psi = paraboloid(mesh)
    psi_b, mode = boundary_flux(mesh, psi)
    assert mode == "limiter"
    # limiter maximum: closest limiter point to the axis
    expected = max(1.0 - (r - 2.5) ** 2 - z ** 2 for r, z in mesh.limiter)
    assert psi_b == pytest.approx(expected, rel=1e-6)


def test_boundary_flux_prefers_higher_xpoint(mesh):
    psi = paraboloid(mesh)
    psi_lim, _ = boundary_flux(mesh, psi)
    psi_b, mode = boundary_flux(mesh, psi,
                                xpoint=((2.5, 0.9), psi_lim + 0.1))
    assert mode == "xpoint"
    assert psi_b == pytest.approx(psi_lim + 0.1)


def test_make_plasma_domain(mesh):
    dom = make_plasma_domain(mesh, paraboloid(mesh))
    assert dom.mode == "limiter"
    assert dom.axis == pytest.approx((2.5, 0.0), abs=1e-8)
    pb = dom.normalize(paraboloid(mesh))
    assert pb.min() == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("depth", [1e-14, 1e-12])
def test_plasma_domain_of_rounding_noise_is_refused(mesh, depth):
    # a well whose depth is rounding noise on the flux level: the axis and
    # boundary fluxes (1 and 0.75 of the paraboloid) agree within
    # 1e-12 max|psi|
    with pytest.raises(DegeneratePlasmaError, match="within 1e-12"):
        make_plasma_domain(mesh, 1e150 * (1.0 + depth * paraboloid(mesh)))
    assert make_plasma_domain(mesh, 1e150 * (1.0 + 1e-11 * paraboloid(
        mesh))).mode == "limiter"


def test_normalized_flux_endpoints():
    psi = np.array([5.0, 3.0, 1.0])
    pb = PlasmaDomain(5.0, 1.0, (2.5, 0.0)).normalize(psi)
    np.testing.assert_allclose(pb, [0.0, 0.5, 1.0])
    with pytest.raises(DegeneratePlasmaError):
        PlasmaDomain(2.0, 2.0, (2.5, 0.0)).normalize(psi)


def test_quadrature_weights_sum_to_area(mesh):
    nodes, bary, w, qr, qz = quadrature_points(mesh)
    # one point per edge
    np.testing.assert_array_equal(nodes, mesh.edge_index()[0])
    assert len(w) == len(bary) == len(qr) == len(qz) == len(nodes)
    assert w.sum() == pytest.approx(mesh.areas().sum(), rel=1e-12)
    np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-14)
    assert qr.min() >= 2.0 and qr.max() <= 3.0


def test_quadrature_is_degree_one_exact(mesh):
    # mid-edge rule integrates linear fields exactly
    _, bary, w, qr, qz = quadrature_points(mesh)
    integral = float(np.sum(w * (2.0 * qr + 3.0 * qz)))
    exact = 2.0 * 2.5 * mesh.areas().sum()     # centroid r = 2.5, z = 0
    assert integral == pytest.approx(exact, rel=1e-12)
