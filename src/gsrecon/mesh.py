"""Triangulated cross-section geometry: mesh construction, file IO, point
location and P1 interpolation.

The mesh is immutable after construction.  Point-location state (the
last-hit triangle cache) lives in :class:`PointLocator` instances so that
concurrent callers do not share mutable state.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MeshParseError, MeshValidationError, OutsideDomainError


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
        if np.any(self.nodes[:, 0] <= 0):
            raise MeshValidationError("all nodes must have r > 0")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= n):
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

    def boundary_set(self):
        if "bset" not in self._cache:
            self._cache["bset"] = frozenset(int(i) for i in self.boundary)
        return self._cache["bset"]

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

    def limiter_matrix(self):
        """Sparse (L, n) P1 interpolation of nodal fields at the limiter
        points."""
        if "limiter_matrix" not in self._cache:
            locator = PointLocator(self)
            hits = [locator.locate(p) for p in self.limiter]
            tri = np.array([t for t, _ in hits], dtype=np.int64)
            bary = np.array([b for _, b in hits]).reshape(-1, 3)
            self._cache["limiter_matrix"] = interpolation_matrix(
                self.triangles[tri], bary, self.n_nodes)
        return self._cache["limiter_matrix"]

    def node_triangles(self):
        """For each node, indices of incident triangles."""
        if "node_tris" not in self._cache:
            nt = [[] for _ in range(self.n_nodes)]
            for t, tri in enumerate(self.triangles):
                for i in tri:
                    nt[i].append(t)
            self._cache["node_tris"] = [np.array(v) for v in nt]
        return self._cache["node_tris"]

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
            loop = self.boundary
            pts = self.nodes[loop]
            nb = len(loop)
            normals = np.empty((nb, 2))
            for k in range(nb):
                prev_e = pts[k] - pts[(k - 1) % nb]
                next_e = pts[(k + 1) % nb] - pts[k]
                # boundary loop is counter-clockwise: outward is (dy, -dx)
                n1 = np.array([prev_e[1], -prev_e[0]])
                n2 = np.array([next_e[1], -next_e[0]])
                n1 /= np.hypot(*n1)
                n2 /= np.hypot(*n2)
                n = n1 + n2
                normals[k] = n / np.hypot(*n)
            self._cache["bnormals"] = normals
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
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MeshParseError("empty mesh file", line=1)
    header = lines[0].split()
    try:
        counts = {header[i]: int(header[i + 1]) for i in range(0, len(header), 2)}
        n = counts["nodes"]
        t = counts["triangles"]
        b = counts["boundary"]
        l = counts["limiter"]
    except (KeyError, ValueError, IndexError):
        raise MeshParseError(f"bad header {lines[0]!r}", line=1) from None

    def parse_block(start, count, nfields, conv, what):
        rows = []
        for k in range(count):
            ln = start + k
            if ln >= len(lines):
                raise MeshParseError(f"unexpected end of file in {what}", line=ln + 1)
            parts = lines[ln].split()
            if len(parts) != nfields:
                raise MeshParseError(f"expected {nfields} fields in {what}", line=ln + 1)
            try:
                rows.append([conv(p) for p in parts])
            except ValueError:
                raise MeshParseError(f"bad {what} entry {lines[ln]!r}",
                                     line=ln + 1) from None
        return np.array(rows)

    nodes = parse_block(1, n, 2, float, "node")
    triangles = parse_block(1 + n, t, 3, int, "triangle")
    boundary = parse_block(1 + n + t, b, 1, int, "boundary index").ravel()
    limiter = parse_block(1 + n + t + b, l, 2, float, "limiter point")
    if t:
        triangles = triangles.astype(np.int64)
        if triangles.min() < 0 or triangles.max() >= n:
            raise MeshValidationError("triangle references node index out of range")
        flipped = triangle_areas(nodes, triangles) < 0
        if np.any(flipped):
            warnings.warn(f"reoriented {int(flipped.sum())} clockwise triangle(s)")
            triangles[flipped] = triangles[flipped][:, ::-1]
    return Mesh(nodes, triangles, boundary, limiter)


# ---------------------------------------------------------------------------
# Point location and interpolation
# ---------------------------------------------------------------------------

class PointLocator:
    """Locates the triangle containing a query point.

    Checks the last-hit triangle first (queries are usually spatially
    coherent), then falls back to a uniform bin grid over the bounding box.
    Instances are cheap; use one per caller, they are not thread-safe.
    """

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
        self._grid = [[np.array(c, dtype=np.int64) for c in row] for row in grid]

    def _clip_bin(self, v):
        return int(min(max(v, 0), self._nb - 1))

    def _bary(self, t, p, tol=1e-12):
        tri = self.mesh.triangles[t]
        a, b, c = self.mesh.nodes[tri]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        l1 = ((p[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (p[1] - a[1])) / det
        l2 = ((b[0] - a[0]) * (p[1] - a[1]) - (p[0] - a[0]) * (b[1] - a[1])) / det
        l0 = 1.0 - l1 - l2
        if l0 >= -tol and l1 >= -tol and l2 >= -tol:
            return np.array([l0, l1, l2])
        return None

    def locate(self, point):
        """Return (triangle index, barycentric coords) or raise
        :class:`OutsideDomainError`."""
        p = np.asarray(point, dtype=np.float64)
        bary = self._bary(self._last, p)
        if bary is not None:
            return self._last, bary
        i = self._clip_bin((p[0] - self._rmin) / self._dr)
        j = self._clip_bin((p[1] - self._zmin) / self._dz)
        for t in self._grid[i][j]:
            bary = self._bary(t, p)
            if bary is not None:
                self._last = int(t)
                return int(t), bary
        raise OutsideDomainError(f"point ({p[0]:g}, {p[1]:g}) outside the domain")

    def try_locate(self, point):
        try:
            return self.locate(point)
        except OutsideDomainError:
            return None


def interpolation_matrix(tri_nodes, bary, n_nodes):
    """Sparse (Q, n) matrix of P1 interpolation at Q points, given the
    vertices (Q, 3) of each point's triangle and its barycentric
    coordinates (Q, 3).  Entries keep the vertex order within a row."""
    q = len(tri_nodes)
    return sp.csr_matrix((np.ravel(bary), np.ravel(tri_nodes),
                          np.arange(0, 3 * q + 1, 3)), shape=(q, n_nodes))


def interpolate(mesh, values, point, locator=None):
    """P1 interpolation of a nodal field at an interior point."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) != mesh.n_nodes:
        raise ValueError("field length does not match node count")
    if locator is None:
        locator = PointLocator(mesh)
    t, bary = locator.locate(point)
    return float(values[mesh.triangles[t]] @ bary)
