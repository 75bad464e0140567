"""Frozen loop versions of the geometric primitives the package now builds
with array code: the scalar ray-crossing test, the mid-edge rule with three
points per triangle, and the rectangle mesh built in nested loops.  Tests
use them as references; nothing in ``src/`` imports them."""

import numpy as np

from gsrecon.errors import MeshValidationError
from gsrecon.mesh import Mesh

MIDEDGE_BARY = np.array([[0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5],
                         [0.5, 0.0, 0.5]])


def point_in_polygon_scalar(p, poly):
    """Ray-crossing test of one point."""
    x, y = p
    n = len(poly)
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y):
            xcross = xi + (y - yi) * (xj - xi) / (yj - yi)
            if x < xcross:
                inside = not inside
        j = i
    return inside


def quadrature_points_per_triangle(mesh):
    """The unmerged mid-edge rule: (nodes (Q, 3), bary (Q, 3), weights
    (Q,), r (Q,), z (Q,)) with Q = 3 * number of triangles, the points of
    each triangle on its sides (0, 1), (1, 2), (2, 0)."""
    tris = mesh.triangles
    areas = mesh.areas()
    T = len(tris)
    qp_nodes = np.repeat(tris, 3, axis=0)                     # (3T, 3)
    qp_bary = np.tile(MIDEDGE_BARY, (T, 1))
    pts = np.einsum("qa,qad->qd", qp_bary, mesh.nodes[qp_nodes])
    qp_w = np.repeat(areas / 3.0, 3)
    return qp_nodes, qp_bary, qp_w, pts[:, 0], pts[:, 1]


def build_rect_mesh_loop(r_min, r_max, z_min, z_max, nr, nz, limiter=None):
    """The structured rectangle mesh built node by node."""
    if r_min <= 0:
        raise MeshValidationError("r_min must be positive")
    if not (r_min < r_max and z_min < z_max):
        raise ValueError("empty rectangle")
    if nr < 1 or nz < 1:
        raise ValueError("nr and nz must be at least 1")

    rs = np.linspace(r_min, r_max, nr + 1)
    zs = np.linspace(z_min, z_max, nz + 1)
    R, Z = np.meshgrid(rs, zs, indexing="ij")
    nodes = np.column_stack([R.ravel(), Z.ravel()])

    def nid(i, j):
        return i * (nz + 1) + j

    tris = []
    for i in range(nr):
        for j in range(nz):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = np.array(tris, dtype=np.int64)

    loop = []
    for i in range(nr):
        loop.append(nid(i, 0))
    for j in range(nz):
        loop.append(nid(nr, j))
    for i in range(nr, 0, -1):
        loop.append(nid(i, nz))
    for j in range(nz, 0, -1):
        loop.append(nid(0, j))
    boundary = np.array(loop, dtype=np.int64)

    if limiter is None:
        if nr >= 3 and nz >= 3:
            hr = (r_max - r_min) / nr
            hz = (z_max - z_min) / nz
            lim = []
            for i in range(1, nr):
                lim.append((rs[i], z_min + hz))
            for j in range(1, nz):
                lim.append((r_max - hr, zs[j]))
            for i in range(nr - 1, 0, -1):
                lim.append((rs[i], z_max - hz))
            for j in range(nz - 1, 0, -1):
                lim.append((r_min + hr, zs[j]))
            limiter = np.array(lim)
        else:
            limiter = nodes[boundary]

    return Mesh(nodes, triangles, boundary, np.asarray(limiter))
