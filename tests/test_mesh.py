import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gsrecon
from gsrecon.errors import MeshParseError, MeshValidationError
from gsrecon.mesh import (Mesh, build_rect_mesh, load_mesh, point_in_polygon,
                          point_matrix, save_mesh, triangle_areas)

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


def test_mesh_validation_rejects_limiter_outside_mesh():
    with pytest.raises(MeshValidationError,
                       match=r"limiter point \(3\.5, 0\) outside"):
        build_rect_mesh(**RECT, nr=4, nz=4,
                        limiter=[[2.5, 0.0], [3.5, 0.0], [2.5, 2.0]])
    # points on the boundary loop, at an edge midpoint or a corner, are in
    on_edge = [[2.5, 1.0], [3.0, 1.0], [2.0, -0.25], [2.5, 0.0]]
    mesh = build_rect_mesh(**RECT, nr=4, nz=4, limiter=on_edge)
    np.testing.assert_allclose(mesh.limiter_matrix() @ mesh.nodes,
                               on_edge, rtol=1e-15, atol=0)


@pytest.mark.parametrize("loop", [
    lambda b: b[::-1],                       # clockwise
    lambda b: np.array([10, 11, 12, 20]),    # interior nodes
    lambda b: b[:10],                        # part of the loop
])
def test_mesh_validation_rejects_bad_boundary_loop(loop):
    # the loop must run once, counter-clockwise, along every edge that
    # belongs to one triangle; gD blocks follow it, so it is not reordered
    m = build_rect_mesh(**RECT, nr=8, nz=8)
    assert len(m.boundary) == 32
    with pytest.raises(MeshValidationError, match="boundary loop"):
        Mesh(m.nodes, m.triangles, loop(m.boundary), m.limiter)


def test_load_mesh_rejects_clockwise_loop(tmp_path):
    m = build_rect_mesh(**RECT, nr=8, nz=8)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    lines = path.read_text().splitlines()
    start = 1 + m.n_nodes + len(m.triangles)
    loop = lines[start:start + 32]
    path.write_text("\n".join(lines[:start] + loop[::-1]
                              + lines[start + 32:]))
    with pytest.raises(MeshValidationError, match="counter-clockwise"):
        load_mesh(path)


def test_boundary_normals_point_outward():
    m = build_rect_mesh(**RECT, nr=8, nz=8)
    away = m.nodes[m.boundary] - (2.5, 0.0)       # from the center
    assert np.all(np.einsum("ij,ij->i", m.boundary_normals(), away) > 0)


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
_AFFINE_FIELD = (2.0 * _AFFINE_MESH.nodes[:, 0]
                 + 3.0 * _AFFINE_MESH.nodes[:, 1] - 1.0)


@given(st.floats(2.001, 2.999), st.floats(-0.999, 0.999))
def test_locator_interpolates_affine_exactly(r, z):
    point, tri, bary = _AFFINE_MESH.locator().locate([[r, z]])
    assert len(point) >= 1
    for t, b in zip(tri, bary):
        val = _AFFINE_FIELD[_AFFINE_MESH.triangles[t]] @ b
        assert val == pytest.approx(2.0 * r + 3.0 * z - 1.0, abs=1e-10)
    val = point_matrix(_AFFINE_MESH, point, tri, bary, 1) @ _AFFINE_FIELD
    assert val[0] == pytest.approx(2.0 * r + 3.0 * z - 1.0, abs=1e-10)


def test_locator_outside_domain(small_mesh):
    point, tri, bary = small_mesh.locator().locate(
        [[10.0, 0.0], [2.53, 0.1], [1.9, 0.0], [2.53, 1.0 + 1e-9]])
    assert point.tolist() == [1]
    assert tri.shape == (1,) and bary.shape == (1, 3)


def test_locator_hits_every_quadrature_point(small_mesh):
    from gsrecon.geometry import quadrature_points
    _, _, _, qr, qz = quadrature_points(small_mesh)
    point, _, _ = small_mesh.locator().locate(np.column_stack([qr, qz]))
    np.testing.assert_array_equal(np.unique(point), np.arange(len(qr)))


def test_locator_interior_point_gets_one_pair(small_mesh):
    centroids = small_mesh.nodes[small_mesh.triangles].mean(axis=1)
    point, tri, bary = small_mesh.locator().locate(centroids)
    np.testing.assert_array_equal(point, np.arange(len(centroids)))
    np.testing.assert_array_equal(tri, np.arange(len(centroids)))
    np.testing.assert_allclose(bary, 1.0 / 3.0, rtol=1e-12)


def test_locator_vertex_gets_one_pair_per_incident_triangle(small_mesh):
    point, tri, bary = small_mesh.locator().locate(small_mesh.nodes)
    np.testing.assert_array_equal(
        np.bincount(point, minlength=small_mesh.n_nodes),
        np.bincount(small_mesh.triangles.ravel()))
    own = small_mesh.triangles[tri] == point[:, None]
    assert np.all(own.sum(axis=1) == 1)
    np.testing.assert_allclose(bary[own], 1.0, atol=1e-12)


def test_cached_locator_does_not_keep_mesh_alive():
    # the locator is cached on the mesh; a mesh -> locator -> mesh cycle
    # would hold every dropped mesh and its cached operators until the
    # garbage collector runs
    mesh = build_rect_mesh(**RECT, nr=4, nz=4)
    mesh.limiter_matrix()
    ref = weakref.ref(mesh)
    gc.disable()
    try:
        del mesh
        assert ref() is None
    finally:
        gc.enable()


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


def test_mesh_validation_rejects_nonfinite_and_empty():
    nodes = np.array([[2.0, 0.0], [3.0, 0.0], [2.5, 1.0]])
    tri, loop = np.array([[0, 1, 2]]), np.array([0, 1, 2])
    for bad in (np.nan, np.inf):
        moved = nodes.copy()
        moved[0, 1] = bad
        with pytest.raises(MeshValidationError):
            Mesh(moved, tri, loop, nodes[:1])
        with pytest.raises(MeshValidationError):
            Mesh(nodes, tri, loop, [[2.5, bad]])
    with pytest.raises(MeshValidationError):
        Mesh(nodes, np.empty((0, 3)), loop, nodes)
    with pytest.raises(MeshValidationError):
        Mesh(np.empty((0, 2)), tri, loop, nodes)


@pytest.mark.parametrize("header", [
    "nodes 0 triangles 0 boundary 0 limiter 0",
    "nodes -1 triangles 0 boundary 0 limiter 0",
])
def test_load_mesh_empty_or_negative_counts(tmp_path, header):
    path = tmp_path / "mesh.txt"
    path.write_text(header + "\n")
    with pytest.raises(gsrecon.GsReconError):
        load_mesh(path)


def test_load_mesh_rejects_nan_node(tmp_path, small_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(small_mesh, path)
    lines = path.read_text().splitlines()
    lines[1] = "nan 0.0"
    path.write_text("\n".join(lines))
    with pytest.raises(MeshParseError, match="line 2"):
        load_mesh(path)


def test_load_mesh_every_prefix_and_mutation(tmp_path):
    # every line prefix of a saved mesh file, and every field replaced by a
    # non-finite, negative or oversized value, loads or raises a
    # GsReconError, never another exception
    path = tmp_path / "mesh.txt"
    save_mesh(build_rect_mesh(**RECT, nr=3, nz=3), path)
    lines = path.read_text().splitlines()
    variants = ["\n".join(lines[:k]) for k in range(len(lines) + 1)]
    for i, line in enumerate(lines):
        fields = line.split()
        for j in range(len(fields)):
            for value in ("nan", "inf", "-inf", "-1", "0", "16",
                          "99999999999999999999"):
                mutated = fields[:j] + [value] + fields[j + 1:]
                variants.append("\n".join(lines[:i] + [" ".join(mutated)]
                                          + lines[i + 1:]))
    loaded = 0
    for text in variants:
        path.write_text(text)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "reoriented",
                                        UserWarning)
                load_mesh(path)
            loaded += 1
        except gsrecon.GsReconError:
            pass
    assert loaded > 1          # the full file and harmless mutations
