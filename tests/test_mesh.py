import numpy as np
import pytest
from hypothesis import given, strategies as st

import gsrecon
from gsrecon.errors import (MeshParseError, MeshValidationError,
                            OutsideDomainError)
from gsrecon.mesh import (Mesh, PointLocator, build_rect_mesh, interpolate,
                          load_mesh, point_in_polygon, save_mesh,
                          triangle_areas)

RECT = dict(r_min=2.0, r_max=3.0, z_min=-1.0, z_max=1.0)


def test_rect_mesh_counts():
    m = build_rect_mesh(**RECT, nr=5, nz=7)
    assert m.n_nodes == 6 * 8
    assert len(m.triangles) == 2 * 5 * 7
    assert len(m.boundary) == 2 * (5 + 7)


def test_rect_mesh_area_and_boundary_length(small_mesh):
    assert small_mesh.area() == pytest.approx(2.0, rel=1e-12)
    assert small_mesh.boundary_length() == pytest.approx(6.0, rel=1e-12)


def test_triangle_areas_positive(small_mesh):
    areas = triangle_areas(small_mesh.nodes, small_mesh.triangles)
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(small_mesh.area())


def test_default_limiter_is_inset(small_mesh):
    # default limiter sits one cell inside the boundary rectangle
    lim = small_mesh.limiter
    assert lim[:, 0].min() > 2.0 and lim[:, 0].max() < 3.0
    assert lim[:, 1].min() > -1.0 and lim[:, 1].max() < 1.0


def test_rect_mesh_input_validation():
    with pytest.raises(MeshValidationError):
        build_rect_mesh(-1.0, 3.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        build_rect_mesh(2.0, 2.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        build_rect_mesh(2.0, 3.0, -1.0, 1.0, 0, 4)


def test_mesh_validation_rejects_bad_triangle():
    nodes = np.array([[2.0, 0.0], [3.0, 0.0], [2.5, 1.0]])
    with pytest.raises(MeshValidationError):
        Mesh(nodes, np.array([[0, 1, 9]]), np.array([0, 1, 2]), nodes)


def test_point_in_polygon_square():
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    inside = point_in_polygon([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2]], poly)
    assert inside.tolist() == [True, False, False]


def test_point_in_polygon_matches_scalar_test(twin_mesh):
    from gsrecon.geometry import quadrature_points
    from gsrecon.mesh import _point_in_polygon
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 2.0 * np.pi, 320, endpoint=False)
    polygons = [
        twin_mesh.limiter,                                   # 4 vertices
        np.array([[2.1, -1.0], [2.9, -0.9], [2.8, 0.2], [2.5, 1.1],
                  [2.2, 0.4]]),                              # 5 vertices
        np.column_stack([2.5 + 0.4 * np.cos(t) * (1 + 0.2 * np.sin(3 * t)),
                         0.9 * np.sin(t)]),                  # 320 vertices
    ]
    _, _, _, qr, qz = quadrature_points(twin_mesh)
    point_sets = [np.column_stack([qr, qz]),
                  twin_mesh.nodes,    # includes nodes on the limiter edges
                  rng.uniform([1.9, -1.3], [3.1, 1.3], size=(500, 2))]
    for poly in polygons:
        for pts in point_sets:
            expected = [_point_in_polygon(p, poly) for p in pts]
            np.testing.assert_array_equal(point_in_polygon(pts, poly),
                                          expected)


_AFFINE_MESH = build_rect_mesh(**RECT, nr=8, nz=8)
_AFFINE_LOC = PointLocator(_AFFINE_MESH)
_AFFINE_FIELD = (2.0 * _AFFINE_MESH.nodes[:, 0]
                 + 3.0 * _AFFINE_MESH.nodes[:, 1] - 1.0)


@given(st.floats(2.001, 2.999), st.floats(-0.999, 0.999))
def test_locator_interpolates_affine_exactly(r, z):
    val = interpolate(_AFFINE_MESH, _AFFINE_FIELD, (r, z), _AFFINE_LOC)
    assert val == pytest.approx(2.0 * r + 3.0 * z - 1.0, abs=1e-10)


def test_locator_outside_domain(small_mesh):
    loc = PointLocator(small_mesh)
    with pytest.raises(OutsideDomainError):
        loc.locate((10.0, 0.0))
    assert loc.try_locate((10.0, 0.0)) is None


def test_locator_hits_every_quadrature_point(small_mesh):
    from gsrecon.geometry import quadrature_points
    loc = PointLocator(small_mesh)
    _, _, _, qr, qz = quadrature_points(small_mesh)
    for p in zip(qr, qz):
        assert loc.try_locate(p) is not None


def test_mesh_roundtrip(tmp_path, twin_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(twin_mesh, path)
    m2 = load_mesh(path)
    np.testing.assert_array_equal(twin_mesh.nodes, m2.nodes)
    np.testing.assert_array_equal(twin_mesh.triangles, m2.triangles)
    np.testing.assert_array_equal(twin_mesh.boundary, m2.boundary)
    np.testing.assert_array_equal(twin_mesh.limiter, m2.limiter)


def test_load_mesh_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("this is not a mesh\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_load_mesh_truncated(tmp_path, small_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(small_mesh, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:10]))
    with pytest.raises(MeshParseError):
        load_mesh(path)
