"""Frozen versions of primitives the package now builds another way: loop
versions of the scalar ray-crossing test, the mid-edge rule with three
points per triangle and the rectangle mesh built in nested loops, the
earlier array constructions of the mesh-fixed tables (node neighbors, the
point locator's bins, the mid-edge quadrature and the stiffness matrix),
built with hash-based np.unique, middle-axis reductions and einsum, and the
Picard step's operator stages as several passes each (the ring sign-change
count from permutation copies, the saddle tie test from np.diff, the source
matrix and load from two sparse products, and the observation rows from
separate C0, D and polarimetry products).  Tests use them as references;
nothing in ``src/`` imports them."""

import numpy as np
import scipy.sparse as sp

from gsrecon.errors import MeshValidationError
from gsrecon.geometry import _ring_saddles
from gsrecon.mesh import Mesh, _expand
from gsrecon.observation import build_polarimetry_observer

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


def node_neighbors_unique(mesh):
    """The (n, max degree) neighbor table from the np.unique of the 6T
    directed corner pairs, each row ordered by angle, padded with -1."""
    n, t = mesh.n_nodes, mesh.triangles
    key = np.unique(t[:, [0, 0, 1, 1, 2, 2]].ravel() * n
                    + t[:, [1, 2, 0, 2, 0, 1]].ravel())
    src, dst = key // n, key % n
    d = mesh.nodes[dst] - mesh.nodes[src]
    order = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), src))
    src, dst = src[order], dst[order]
    slot = np.arange(len(src)) - np.searchsorted(src, src)
    table = np.full((n, slot.max(initial=0) + 1), -1, dtype=np.int64)
    table[src, slot] = dst
    return table


def locator_bins(mesh):
    """The point locator's (bin_tri, start): the triangles listed bin after
    bin, and the offset of each of the nb^2 bins in that list."""
    nodes, tris = mesh.nodes, mesh.triangles
    nb = max(4, int(np.sqrt(len(tris))))
    lo = nodes.min(axis=0)
    span = nodes.max(axis=0) - lo
    h = np.where(span > 0, span / nb, 1.0)

    def to_bin(points):
        return np.clip((points - lo) / h, 0, nb - 1).astype(np.int64)

    corners = nodes[tris]                                # (T, 3, 2)
    b0, b1 = to_bin(corners.min(axis=1)), to_bin(corners.max(axis=1))
    extent = b1 - b0 + 1
    t, k = _expand(extent[:, 0] * extent[:, 1])
    height = extent[t, 1]
    key = (b0[t, 0] + k // height) * nb + b0[t, 1] + k % height
    order = np.argsort(key, kind="stable")
    return t[order], np.searchsorted(key[order], np.arange(nb ** 2 + 1))


def quadrature_points_mean(mesh):
    """The mid-edge rule with its midpoints as the mean of the end nodes."""
    edges, tri_edges = mesh.edge_index()
    w = np.bincount(tri_edges.ravel(),
                    weights=np.repeat(mesh.areas() / 3.0, 3))
    r, z = mesh.nodes[edges].mean(axis=1).T
    return edges, np.full(edges.shape, 0.5), w, r, z


def assemble_stiffness_einsum(mesh, mu0):
    """The stiffness CSR matrix with einsum element matrices and the
    centroid radius as a mean."""
    tris = mesh.triangles
    grads = mesh.grads()
    r_c = mesh.nodes[tris][:, :, 0].mean(axis=1)
    coef = mesh.areas() / (mu0 * r_c)
    local = coef[:, None, None] * np.einsum("tka,tkb->tab", grads, grads)
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def ring_sign_changes_permuted(mesh, psi):
    """The ring sign-change count from two permutation copies of the corner
    values and a float-weighted bincount."""
    corner = psi[mesh.triangles]
    rise = corner[:, [1, 2, 0]] > corner         # corner k to k + 1
    return np.bincount(mesh.triangles.ravel(),
                       (rise == rise[:, [2, 0, 1]]).ravel(), len(psi))


def tie_nodes_diff(mesh, psi, scale):
    """The interior nodes with an edge neighbour within 1e-14 * scale, from
    the edge ends gathered as psi[edges] and differenced with np.diff."""
    edges = mesh.edge_index()[0]
    tie = np.zeros(len(psi), dtype=bool)
    tie[edges[~(np.abs(np.diff(psi[edges])[:, 0]) > 1e-14 * scale)]] = True
    tie[mesh.boundary] = False
    return np.flatnonzero(tie)


def saddle_candidates_diff(mesh, psi, scale):
    """The saddle candidates of the two passes above, tied nodes taking the
    ring scan."""
    saddle = ring_sign_changes_permuted(mesh, psi) >= 4
    saddle[mesh.boundary] = False
    tie = tie_nodes_diff(mesh, psi, scale)
    if len(tie):
        saddle[tie] = _ring_saddles(mesh, psi, tie, 1e-14 * scale)
    return np.flatnonzero(saddle)


def weighted_scatter_pair(squad, r0):
    """The separate (n, Q) scatter matrices Pa = P^T diag(w r/r0) and
    Pb = P^T diag(w r0/r) of a source quadrature."""
    pa, pb = squad.P.T.tocsr(), squad.P.T.tocsr()
    pa.data *= (squad.qp_w * squad.qp_r / r0)[pa.indices]
    pb.data *= (squad.qp_w * r0 / squad.qp_r)[pb.indices]
    return pa, pb


def source_matrix_two_products(pa, pb, psibar_qp, basis):
    """The source matrix Y as one product with each scatter matrix, the
    pinned last columns dropped and the halves joined by np.hstack."""
    mask = psibar_qp <= 1.0
    phi = basis.eval_many(np.where(mask, psibar_qp, 1.0))
    return np.hstack([(pa @ phi)[:, :-1], (pb @ phi)[:, :-1]])


def source_vector_two_products(pa, pb, psibar_qp, a_vals, b_vals):
    """The nodal load Pa A + Pb B as two matrix-vector products."""
    mask = psibar_qp <= 1.0
    return pa @ np.where(mask, a_vals, 0.0) + pb @ np.where(mask, b_vals, 0.0)


def step_rows_separate(setup, k_inv_y, k_inv_g, g_n, alpha=None, G=None,
                       ne_coeffs=None):
    """The rows (E, f) of the A/B solve as separate products: C0 and D
    each on K^-1 Y and on K^-1 g, and with internal data (``G`` given) the
    polarimetry observer on D K^-1 Y and on D K^-1 g in two calls."""
    E, f = setup.c0 @ k_inv_y, g_n - setup.c0 @ k_inv_g
    if G is None:
        return E, f
    D = setup.chord_geoms.D
    polar = build_polarimetry_observer(setup.chord_geoms, G, ne_coeffs)
    return (np.vstack([E, polar(D @ k_inv_y)]),
            np.concatenate([f, alpha - polar(D @ k_inv_g)]))
