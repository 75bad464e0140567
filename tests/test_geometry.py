import numpy as np
import pytest

import gsrecon
from gsrecon.errors import DegeneratePlasmaError, NoPlasmaError
from gsrecon.geometry import (_refine, boundary_flux, find_axis,
                              find_xpoint, make_plasma_domain,
                              normalized_flux, quadrature_points)


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


def test_axis_requires_interior_maximum(mesh):
    with pytest.raises(NoPlasmaError):
        find_axis(mesh, mesh.nodes[:, 0])      # maximal on the boundary


def test_saddle_point_detected(mesh):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psi = (r - 2.5) ** 2 - z ** 2
    xp = find_xpoint(mesh, psi)
    assert xp is not None
    assert xp[0] == pytest.approx((2.5, 0.0), abs=1e-8)
    assert xp[1] == pytest.approx(0.0, abs=1e-8)


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


def test_normalized_flux_endpoints():
    psi = np.array([5.0, 3.0, 1.0])
    pb = normalized_flux(psi, 5.0, 1.0)
    np.testing.assert_allclose(pb, [0.0, 0.5, 1.0])
    with pytest.raises(DegeneratePlasmaError):
        normalized_flux(psi, 2.0, 2.0)


def test_quadrature_weights_sum_to_area(mesh):
    nodes, bary, w, qr, qz = quadrature_points(mesh)
    assert len(w) == 3 * len(mesh.triangles)
    assert w.sum() == pytest.approx(mesh.area(), rel=1e-12)
    np.testing.assert_allclose(bary.sum(axis=1), 1.0, atol=1e-14)
    assert qr.min() >= 2.0 and qr.max() <= 3.0


def test_quadrature_is_degree_one_exact(mesh):
    # mid-edge rule integrates linear fields exactly
    _, bary, w, qr, qz = quadrature_points(mesh)
    integral = float(np.sum(w * (2.0 * qr + 3.0 * qz)))
    exact = 2.0 * 2.5 * mesh.area()            # centroid r = 2.5, z = 0
    assert integral == pytest.approx(exact, rel=1e-12)
