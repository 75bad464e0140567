"""Triangulated cross-section geometry: mesh construction, file IO, array
point location and the sparse P1 operators built on it.

The mesh is immutable after construction.  Validation builds the point
locator and the limiter matrix; other derived arrays and operators are built
on first use.  All are cached on the mesh.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MeshValidationError
from .textio import LineReader, write_rows


def triangle_areas(nodes, triangles):
    p0, p1, p2 = (np.take(nodes, v, axis=0) for v in triangles.T)
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


@dataclass
class Mesh:
    """Triangulation of the vacuum-vessel cross-section.

    nodes      : (n, 2) array of (r, z) coordinates, r > 0
    triangles  : (T, 3) int array, positively oriented
    boundary   : (B,) int array, one counter-clockwise loop in order
                 (closure implicit) along exactly the edges that belong to
                 one triangle, each edge once
    limiter    : (L, 2) array of points on the limiter contour, L >= 1,
                 each inside the mesh

    The limiter flux is the largest flux at the listed points only, not
    along the contour between them.  A limiter given by its corners
    (a 4-point rectangle) therefore bounds the plasma at the corner flux,
    and the plasma region runs past the rectangle's edges: on the test
    twin psi_b is 0.0173 while psi reaches 0.1045 at (2.9, 0) on an edge
    (psibar 0.69).
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
        if len(self.limiter) == 0:
            raise MeshValidationError("limiter has no points")
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
        lone = np.flatnonzero(np.bincount(self.triangles.ravel(),
                                          minlength=n) == 0)
        if len(lone):
            raise MeshValidationError(f"node {lone[0]} is in no triangle")
        edges, sides = self.edge_index()
        share = np.bincount(sides.ravel())
        if share.max() > 2:
            a, b = edges[np.argmax(share)]
            raise MeshValidationError(f"edge ({a}, {b}) is in "
                                      f"{share.max()} triangles")
        # refused, never reordered: gD blocks follow the loop order
        outer = edges[share == 1] @ [n, 1]
        a, b = self.boundary, np.roll(self.boundary, -1)
        if not np.array_equal(np.sort(np.minimum(a, b) * n + np.maximum(a, b)),
                              outer):
            raise MeshValidationError(
                "boundary loop must run once along every edge of one triangle")
        r, z = self.nodes[a].T
        if np.dot(r, np.roll(z, -1)) - np.dot(np.roll(r, -1), z) <= 0:
            raise MeshValidationError("boundary loop must be counter-clockwise")
        point, tri, bary = self.locator().locate(self.limiter)
        outside = np.flatnonzero(np.bincount(point,
                                             minlength=len(self.limiter)) == 0)
        if len(outside):
            r, z = self.limiter[outside[0]]
            raise MeshValidationError(
                f"limiter point ({r:g}, {z:g}) outside the mesh")
        self._cache["limiter_matrix"] = point_matrix(self, point, tri, bary,
                                                     len(self.limiter))

    # -- derived geometry ---------------------------------------------------

    @property
    def n_nodes(self):
        return len(self.nodes)

    def areas(self):
        if "areas" not in self._cache:
            self._cache["areas"] = triangle_areas(self.nodes, self.triangles)
        return self._cache["areas"]

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
        """(n, max degree) table: row k lists the edge-connected neighbors
        of node k ordered by angle around it, padded with -1."""
        if "neighbors" not in self._cache:
            # each edge both ways, (upper, lower) pairs first: a node's
            # neighbors enter in increasing order, which lexsort keeps for
            # equal angles
            e = self.edge_index()[0]
            src, dst = np.concatenate([e[:, 1], e[:, 0]]), e.T.ravel()
            r, z = self.nodes.T
            order = np.lexsort((np.arctan2(z[dst] - z[src], r[dst] - r[src]),
                                src))
            count = np.bincount(src, minlength=self.n_nodes)
            table = np.full((self.n_nodes, count.max()), -1, dtype=np.int64)
            table[_expand(count)] = dst[order]
            self._cache["neighbors"] = table
        return self._cache["neighbors"]

    def locator(self):
        """The mesh's :class:`PointLocator`."""
        if "locator" not in self._cache:
            self._cache["locator"] = PointLocator(self)
        return self._cache["locator"]

    def limiter_matrix(self):
        """Sparse (L, n) P1 interpolation of nodal fields at the limiter
        points (built by validation)."""
        return self._cache["limiter_matrix"]

    def grads(self):
        """Per-triangle P1 gradient operators, shape (T, 2, 3).

        ``grads()[t] @ values[triangles[t]]`` is the constant gradient of the
        nodal field on triangle t.
        """
        if "grads" not in self._cache:
            p0, p1, p2 = (np.take(self.nodes, v, axis=0)
                          for v in self.triangles.T)
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


def crosses_ray(a, b, x, y):
    """Whether the segments a -> b, (..., 2) arrays, cross the ray from
    (x, y) towards +r: one step of the ray-crossing parity test."""
    # horizontal segments divide by zero but never cross the ray: masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        rcross = a[..., 0] + (y - a[..., 1]) * (b[..., 0] - a[..., 0]) \
            / (b[..., 1] - a[..., 1])
    return ((a[..., 1] > y) != (b[..., 1] > y)) & (x < rcross)


def point_in_polygon(points, poly):
    """Containment of many points in a closed polygon by ray-crossing
    parity, one polygon edge at a time."""
    x, y = np.atleast_2d(points).T
    poly = np.asarray(poly, dtype=np.float64)
    inside = np.zeros(len(x), dtype=bool)
    for a, b in zip(poly, np.roll(poly, 1, axis=0)):
        inside ^= crosses_ray(a, b, x, y)
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

    # node (i, j) is rs[i], zs[j]; cell (i, j) is split along a -> c
    ids = np.arange(len(nodes)).reshape(nr + 1, nz + 1)
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    boundary = np.concatenate([ids[:-1, 0], ids[-1, :-1], ids[:0:-1, -1],
                               ids[0, :0:-1]])

    if limiter is None and nr >= 3 and nz >= 3:
        # the inset ring, side by side from its starting corner to just
        # before the next one, so each corner is listed once and at the
        # exact side coordinates
        hr, hz = (r_max - r_min) / nr, (z_max - z_min) / nz
        r_lo, r_hi, z_lo, z_hi = r_min + hr, r_max - hr, z_min + hz, z_max - hz
        ri, zi = rs[2:nr - 1], zs[2:nz - 1]
        limiter = np.concatenate([
            np.column_stack([np.r_[r_lo, ri], np.full(nr - 2, z_lo)]),
            np.column_stack([np.full(nz - 2, r_hi), np.r_[z_lo, zi]]),
            np.column_stack([np.r_[r_hi, ri[::-1]], np.full(nr - 2, z_hi)]),
            np.column_stack([np.full(nz - 2, r_lo), np.r_[z_hi, zi[::-1]]])])
    elif limiter is None:
        limiter = nodes[boundary]

    return Mesh(nodes, triangles, boundary, np.asarray(limiter))


# ---------------------------------------------------------------------------
# File IO (plain-text format, see README)
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    write_rows(path, [["nodes", mesh.n_nodes, "triangles", len(mesh.triangles),
                       "boundary", len(mesh.boundary),
                       "limiter", len(mesh.limiter)],
                      *mesh.nodes, *mesh.triangles,
                      *([i] for i in mesh.boundary), *mesh.limiter])


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
        c0, c1, c2 = (np.take(self._nodes, v, axis=0) for v in self._tris.T)
        b0 = self._bin(np.minimum(np.minimum(c0, c1), c2))
        extent = self._bin(np.maximum(np.maximum(c0, c1), c2)) - b0 + 1
        t, k = _expand(extent[:, 0] * extent[:, 1])
        height = extent[:, 1][t]
        key = (b0[:, 0][t] + k // height) * self._nb + b0[:, 1][t] + k % height
        self._bin_tri = t[np.argsort(key, kind="stable")]
        # bin b lists _bin_tri[_start[b]:_start[b + 1]]
        self._start = np.cumsum(np.bincount(key + 1,
                                            minlength=self._nb ** 2 + 1))

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
        a, b, c = (np.take(self._nodes, v, axis=0)
                   for v in np.take(self._tris, tri, axis=0).T)
        p = np.take(points, point, axis=0)
        det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
            - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
        l1 = ((p[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
              - (c[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])) / det
        l2 = ((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])
              - (p[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
        l0 = 1.0 - l1 - l2
        hit = np.flatnonzero(np.minimum(np.minimum(l0, l1), l2) >= -1e-12)
        return point[hit], tri[hit], np.column_stack([l0[hit], l1[hit],
                                                      l2[hit]])


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
