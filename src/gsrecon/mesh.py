"""Triangulated cross-section geometry: mesh construction, file IO, array
point location and the sparse P1 operators built on it.

The mesh is immutable after construction; derived arrays, operators and the
point locator are built on first use and cached on the mesh.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MeshValidationError, OutsideDomainError
from .textio import LineReader


def triangle_areas(nodes, triangles):
    p0 = nodes[triangles[:, 0]]
    p1 = nodes[triangles[:, 1]]
    p2 = nodes[triangles[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


@dataclass
class Mesh:
    """Triangulation of the vacuum-vessel cross-section.

    nodes      : (n, 2) array of (r, z) coordinates, r > 0
    triangles  : (T, 3) int array, positively oriented
    boundary   : (B,) int array, one closed loop in order (closure implicit)
    limiter    : (L, 2) array of points on the limiter contour
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    limiter: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.boundary = np.asarray(self.boundary, dtype=np.int64)
        self.limiter = np.asarray(self.limiter, dtype=np.float64).reshape(-1, 2)
        self._validate()

    def _validate(self):
        n = len(self.nodes)
        if n == 0 or self.triangles.size == 0:
            raise MeshValidationError("mesh has no nodes or no triangles")
        if not (np.all(np.isfinite(self.nodes))
                and np.all(np.isfinite(self.limiter))):
            raise MeshValidationError("non-finite node or limiter coordinate")
        if np.any(self.nodes[:, 0] <= 0):
            raise MeshValidationError("all nodes must have r > 0")
        if self.triangles.min() < 0 or self.triangles.max() >= n:
            raise MeshValidationError("triangle references node index out of range")
        if np.any(triangle_areas(self.nodes, self.triangles) <= 0):
            raise MeshValidationError("triangle with non-positive area "
                                      "(clockwise or degenerate)")
        if self.boundary.size and (self.boundary.min() < 0
                                   or self.boundary.max() >= n):
            raise MeshValidationError("boundary references node index out of range")
        if self.boundary_length() <= 0:
            raise MeshValidationError("boundary loop has zero length")
        poly = self.nodes[self.boundary]
        for p in self.limiter:
            if not _point_in_polygon(p, poly, include_edge=True):
                raise MeshValidationError(
                    f"limiter point ({p[0]:g}, {p[1]:g}) outside the domain")

    # -- derived geometry ---------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.nodes)

    def areas(self):
        if "areas" not in self._cache:
            self._cache["areas"] = triangle_areas(self.nodes, self.triangles)
        return self._cache["areas"]

    def area(self):
        return float(self.areas().sum())

    def boundary_length(self):
        pts = self.nodes[self.boundary]
        d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def interior_nodes(self):
        if "interior" not in self._cache:
            mask = np.ones(self.n_nodes, dtype=bool)
            mask[self.boundary] = False
            self._cache["interior"] = np.nonzero(mask)[0]
        return self._cache["interior"]

    def _edges(self):
        """Directed edges (node, neighbor), each once, sorted by node then
        neighbor."""
        if "edges" not in self._cache:
            t = self.triangles
            src = t[:, [0, 0, 1, 1, 2, 2]].ravel()
            dst = t[:, [1, 2, 0, 2, 0, 1]].ravel()
            key = np.unique(src * self.n_nodes + dst)
            self._cache["edges"] = (key // self.n_nodes, key % self.n_nodes)
        return self._cache["edges"]

    def edge_index(self):
        """Undirected edges (E, 2), lower node first, sorted, and for each
        triangle the (T, 3) indices of its sides (0, 1), (1, 2), (2, 0)."""
        if "edge_index" not in self._cache:
            n = self.n_nodes
            a, b = self.triangles, np.roll(self.triangles, -1, axis=1)
            key, sides = np.unique((np.minimum(a, b) * n + np.maximum(a, b))
                                   .ravel(), return_inverse=True)
            self._cache["edge_index"] = (np.column_stack([key // n, key % n]),
                                         sides.reshape(-1, 3))
        return self._cache["edge_index"]

    def node_neighbors(self):
        """Adjacency list: for each node, the sorted edge-connected nodes."""
        if "neighbors" not in self._cache:
            src, dst = self._edges()
            cuts = np.searchsorted(src, np.arange(1, self.n_nodes))
            self._cache["neighbors"] = np.split(dst, cuts)
        return self._cache["neighbors"]

    def ordered_rings(self):
        """Neighbors of each interior node ordered by angle around it.

        Row k belongs to ``interior_nodes()[k]``; rows are padded with -1
        up to the largest degree.
        """
        if "rings" not in self._cache:
            src, dst = self._edges()
            d = self.nodes[dst] - self.nodes[src]
            order = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), src))
            src, dst = src[order], dst[order]
            first = np.searchsorted(src, src)
            slot = np.arange(len(src)) - first
            rings = np.full((self.n_nodes, slot.max(initial=0) + 1), -1,
                            dtype=np.int64)
            rings[src, slot] = dst
            self._cache["rings"] = rings[self.interior_nodes()]
        return self._cache["rings"]

    def locator(self):
        """The mesh's :class:`PointLocator`."""
        if "locator" not in self._cache:
            self._cache["locator"] = PointLocator(self)
        return self._cache["locator"]

    def limiter_matrix(self):
        """Sparse (L, n) P1 interpolation of nodal fields at the limiter
        points."""
        if "limiter_matrix" not in self._cache:
            n_lim = len(self.limiter)
            point, tri, bary = self.locator().locate(self.limiter)
            if len(np.unique(point)) < n_lim:
                raise OutsideDomainError("limiter point outside the mesh")
            self._cache["limiter_matrix"] = point_matrix(self, point, tri,
                                                         bary, n_lim)
        return self._cache["limiter_matrix"]

    def grads(self):
        """Per-triangle P1 gradient operators, shape (T, 2, 3).

        ``grads()[t] @ values[triangles[t]]`` is the constant gradient of the
        nodal field on triangle t.
        """
        if "grads" not in self._cache:
            p0 = self.nodes[self.triangles[:, 0]]
            p1 = self.nodes[self.triangles[:, 1]]
            p2 = self.nodes[self.triangles[:, 2]]
            two_a = 2.0 * self.areas()
            g = np.empty((len(self.triangles), 2, 3))
            # gradient of barycentric coordinate of vertex a is the rotated
            # opposite edge over twice the area
            g[:, 0, 0] = (p1[:, 1] - p2[:, 1]) / two_a
            g[:, 1, 0] = (p2[:, 0] - p1[:, 0]) / two_a
            g[:, 0, 1] = (p2[:, 1] - p0[:, 1]) / two_a
            g[:, 1, 1] = (p0[:, 0] - p2[:, 0]) / two_a
            g[:, 0, 2] = (p0[:, 1] - p1[:, 1]) / two_a
            g[:, 1, 2] = (p1[:, 0] - p0[:, 0]) / two_a
            self._cache["grads"] = g
        return self._cache["grads"]

    def boundary_normals(self):
        """Outward unit normal per boundary node (mean of adjacent edge
        normals, renormalized)."""
        if "bnormals" not in self._cache:
            pts = self.nodes[self.boundary]
            edge = np.roll(pts, -1, axis=0) - pts        # node k to k + 1
            # boundary loop is counter-clockwise: outward is (dz, -dr)
            out = np.column_stack([edge[:, 1], -edge[:, 0]])
            out /= np.hypot(out[:, 0], out[:, 1])[:, None]
            n = np.roll(out, 1, axis=0) + out
            self._cache["bnormals"] = n / np.hypot(n[:, 0], n[:, 1])[:, None]
        return self._cache["bnormals"]


def _point_in_polygon(p, poly, include_edge=False, tol=1e-12):
    """Ray-crossing test; optionally accepts points on an edge."""
    x, y = p
    n = len(poly)
    if include_edge:
        for k in range(n):
            a = poly[k]
            b = poly[(k + 1) % n]
            ab = b - a
            ap = p - a
            cross = ab[0] * ap[1] - ab[1] * ap[0]
            dot = ab[0] * ap[0] + ab[1] * ap[1]
            L2 = ab[0] ** 2 + ab[1] ** 2
            scale = max(np.sqrt(L2), 1.0)
            if abs(cross) <= tol * scale and -tol * scale <= dot <= L2 + tol * scale:
                return True
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


def point_in_polygon(points, poly):
    """Vectorized containment of many points in a closed polygon (the
    ray-crossing test of :func:`_point_in_polygon`, one edge at a time)."""
    points = np.atleast_2d(points)
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    j = len(poly) - 1
    # horizontal edges divide by zero but never cross the ray: masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(poly)):
            xi, yi = poly[i]
            xj, yj = poly[j]
            crosses = (yi > y) != (yj > y)
            xcross = xi + (y - yi) * (xj - xi) / (yj - yi)
            inside ^= crosses & (x < xcross)
            j = i
    return inside


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def build_rect_mesh(r_min, r_max, z_min, z_max, nr, nz, limiter=None):
    """Structured rectangle split into 2*nr*nz triangles.

    The boundary loop is counter-clockwise.  When ``limiter`` is None it
    defaults to the boundary offset inward by one cell, which keeps the
    plasma strictly away from the Dirichlet nodes.
    """
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


# ---------------------------------------------------------------------------
# File IO (plain-text format, see README)
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.n_nodes} triangles {len(mesh.triangles)} "
                 f"boundary {len(mesh.boundary)} limiter {len(mesh.limiter)}\n")
        for r, z in mesh.nodes:
            fh.write(f"{float(r)!r} {float(z)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for i in mesh.boundary:
            fh.write(f"{i}\n")
        for r, z in mesh.limiter:
            fh.write(f"{float(r)!r} {float(z)!r}\n")


def load_mesh(path):
    rd = LineReader(path)
    header = rd.fields("the header")
    counts = dict(zip(header[0::2], header[1::2]))
    blocks = ("nodes", "triangles", "boundary", "limiter")
    if len(header) != 8 or set(counts) != set(blocks):
        rd.fail(f"bad header {' '.join(header)!r}")
    n, t, b, l = (rd.count([counts[k]]) for k in blocks)
    nodes = rd.block(n, 2, "node")
    triangles = rd.block(t, 3, "triangle", bound=n)
    boundary = rd.block(b, 1, "boundary index", bound=n).ravel()
    limiter = rd.block(l, 2, "limiter point")
    flipped = triangle_areas(nodes, triangles) < 0
    if np.any(flipped):
        warnings.warn(f"reoriented {int(flipped.sum())} clockwise triangle(s)")
        triangles[flipped] = triangles[flipped][:, ::-1]
    return Mesh(nodes, triangles, boundary, limiter)


# ---------------------------------------------------------------------------
# Point location and interpolation
# ---------------------------------------------------------------------------

class PointLocator:
    """Locates many points at once over a uniform grid of bins, each bin
    listing the triangles whose bounding box meets it.  Built once per mesh
    by :meth:`Mesh.locator`."""

    def __init__(self, mesh):
        # the mesh's arrays, not the mesh: the mesh caches its locator, and
        # a reference cycle would keep every dropped mesh alive until the
        # garbage collector runs
        self._nodes, self._tris = mesh.nodes, mesh.triangles
        self._nb = max(4, int(np.sqrt(len(self._tris))))
        self._lo = self._nodes.min(axis=0)
        span = self._nodes.max(axis=0) - self._lo
        self._h = np.where(span > 0, span / self._nb, 1.0)
        corners = self._nodes[self._tris]                # (T, 3, 2)
        b0, b1 = self._bin(corners.min(axis=1)), self._bin(corners.max(axis=1))
        extent = b1 - b0 + 1
        t, k = _expand(extent[:, 0] * extent[:, 1])
        height = extent[t, 1]
        key = (b0[t, 0] + k // height) * self._nb + b0[t, 1] + k % height
        order = np.argsort(key, kind="stable")
        self._bin_tri = t[order]
        self._start = np.searchsorted(key[order], np.arange(self._nb ** 2 + 1))

    def _bin(self, points):
        """(i, j) bin of each point, clipped to the grid."""
        return np.clip((points - self._lo) / self._h, 0,
                       self._nb - 1).astype(np.int64)

    def locate(self, points):
        """Every (point index, triangle, barycentric coordinates) triple of
        the (P, 2) ``points`` whose coordinates are all >= -1e-12, as arrays
        (K,), (K,) and (K, 3) sorted by point.  A point on an edge or a
        vertex gets one triple per triangle holding it; a point outside the
        mesh gets none."""
        points = np.reshape(np.asarray(points, dtype=np.float64), (-1, 2))
        ij = self._bin(points)
        key = ij[:, 0] * self._nb + ij[:, 1]
        point, k = _expand(self._start[key + 1] - self._start[key])
        tri = self._bin_tri[self._start[key[point]] + k]
        a, b, c = np.moveaxis(self._nodes[self._tris[tri]], 1, 0)
        p = points[point]
        det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
            - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
        l1 = ((p[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
              - (c[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])) / det
        l2 = ((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])
              - (p[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
        bary = np.column_stack([1.0 - l1 - l2, l1, l2])
        hit = np.all(bary >= -1e-12, axis=1)
        return point[hit], tri[hit], bary[hit]


def _expand(counts):
    """For groups of the given sizes, the group and the rank within the
    group of every member."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, np.arange(len(group)) - (np.cumsum(counts) - counts)[group]


def interpolation_matrix(tri_nodes, bary, n_nodes):
    """Sparse (Q, n) matrix of P1 interpolation at Q points, given the
    vertices (Q, k) of each point's triangle or edge and its barycentric
    coordinates (Q, k).  Entries keep the vertex order within a row."""
    q, k = np.shape(tri_nodes)
    return sp.csr_matrix((np.ravel(bary), np.ravel(tri_nodes),
                          np.arange(0, k * q + 1, k)), shape=(q, n_nodes))


def point_matrix(mesh, point, tri, rows, n_points):
    """Sparse (n_points, n) operator from located pairs: row i is the mean,
    over the pairs (point[k] == i, tri[k]), of the per-triangle row
    ``rows[k]`` placed on the nodes of triangle ``tri[k]``."""
    count = np.bincount(point, minlength=n_points)
    mean = sp.csr_matrix((1.0 / count[point], (point, np.arange(len(point)))),
                         shape=(n_points, len(point)))
    return (mean @ interpolation_matrix(mesh.triangles[tri], rows,
                                        mesh.n_nodes)).tocsr()
