"""Free-boundary bookkeeping: magnetic axis, X-point, boundary flux and
normalized flux.

Convention: the flux is maximal at the magnetic axis and the plasma region
is the superlevel set {psi >= psi_b}.  Inputs with the opposite sign
convention must be negated by the caller.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlasmaError, NoPlasmaError

# mid-edge quadrature: degree-2 exact and resolves the plasma boundary
# below element size when combined with the pointwise mask
MIDEDGE_BARY = np.array([[0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5],
                         [0.5, 0.0, 0.5]])


@dataclass
class PlasmaDomain:
    psi_a: float
    psi_b: float
    axis: tuple
    xpoint: tuple = None
    mode: str = "limiter"

    def normalize(self, psi):
        return normalized_flux(psi, self.psi_a, self.psi_b)


def _quadratic_fit(mesh, values, node, two_ring=False):
    """Least-squares quadratic psi(dr,dz) about a node over its ring
    neighborhood.  Returns (coeffs c,gr,gz,hrr,hrz,hzz) or None."""
    neighbors = mesh.node_neighbors()
    ring = set(neighbors[node])
    if two_ring:
        for nb in list(ring):
            ring.update(neighbors[nb])
    ring.discard(node)
    ids = np.array([node] + sorted(ring))
    if len(ids) < 6:
        return None
    d = mesh.nodes[ids] - mesh.nodes[node]
    A = np.column_stack([np.ones(len(ids)), d[:, 0], d[:, 1],
                         0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1],
                         0.5 * d[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(A, values[ids], rcond=None)
    return coef


def _critical_point(coef):
    """Stationary point of the fitted quadratic, relative to the fit center."""
    _, gr, gz, hrr, hrz, hzz = coef
    H = np.array([[hrr, hrz], [hrz, hzz]])
    det = hrr * hzz - hrz * hrz
    if det == 0.0:
        return None, H
    dx = -np.linalg.solve(H, np.array([gr, gz]))
    return dx, H


def _fit_value(coef, dx):
    c, gr, gz, hrr, hrz, hzz = coef
    return (c + gr * dx[0] + gz * dx[1] + 0.5 * hrr * dx[0] ** 2
            + hrz * dx[0] * dx[1] + 0.5 * hzz * dx[1] ** 2)


def find_axis(mesh, psi):
    """Magnetic axis: interior argmax refined by a local quadratic fit."""
    psi = np.asarray(psi, dtype=np.float64)
    interior = mesh.interior_nodes()
    if len(interior) == 0:
        raise NoPlasmaError("mesh has no interior nodes")
    node = interior[np.argmax(psi[interior])]
    if psi[mesh.boundary].max() >= psi[node]:
        raise NoPlasmaError("flux maximum attained on the boundary")

    best = (tuple(mesh.nodes[node]), float(psi[node]))
    for two_ring in (False, True):
        coef = _quadratic_fit(mesh, psi, node, two_ring=two_ring)
        if coef is None:
            continue
        dx, H = _critical_point(coef)
        if dx is None:
            continue
        radius = np.linalg.norm(
            mesh.nodes[mesh.node_neighbors()[node]] - mesh.nodes[node],
            axis=1).max()
        eigs = np.linalg.eigvalsh(H)
        if eigs.max() < 0 and np.linalg.norm(dx) <= 1.5 * radius:
            pos = mesh.nodes[node] + dx
            best = (tuple(pos), float(_fit_value(coef, dx)))
            break
    return best


def saddle_candidates(mesh, psi, scale):
    """Interior nodes around whose ordered ring the sign of (psi_neighbor -
    psi_node) alternates at least four times, ignoring differences below
    1e-14 * scale."""
    interior = mesh.interior_nodes()
    rings = mesh.ordered_rings()
    diff = psi[rings] - psi[interior][:, None]
    keep = (rings >= 0) & (np.abs(diff) > 1e-14 * scale)
    signs = np.where(keep, np.sign(diff), 0.0)
    # cyclic sign changes among the kept entries of each ring: compare
    # every kept sign with the last kept sign before it, and the first
    # kept sign with the last one
    cols = np.arange(rings.shape[1])
    last = np.maximum.accumulate(np.where(keep, cols, 0), axis=1)
    prev = np.take_along_axis(signs, last, axis=1)
    changes = np.sum(signs[:, 1:] * prev[:, :-1] < 0, axis=1)
    first = np.take_along_axis(signs, np.argmax(keep, axis=1)[:, None], 1)
    changes += first[:, 0] * prev[:, -1] < 0
    return interior[(keep.sum(axis=1) >= 4) & (changes >= 4)]


def find_xpoint(mesh, psi):
    """Saddle of the flux map, or None.

    Each discrete saddle candidate (see :func:`saddle_candidates`) is
    refined with the local quadratic fit.
    """
    psi = np.asarray(psi, dtype=np.float64)
    scale = np.abs(psi).max() or 1.0
    candidates = []
    for node in saddle_candidates(mesh, psi, scale):
        coef = _quadratic_fit(mesh, psi, int(node))
        if coef is None:
            continue
        dx, H = _critical_point(coef)
        det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
        if dx is None or det >= -1e-12 * scale ** 2:
            continue
        radius = np.linalg.norm(
            mesh.nodes[mesh.node_neighbors()[node]] - mesh.nodes[node],
            axis=1).max()
        if np.linalg.norm(dx) > 1.5 * radius:
            continue
        pos = mesh.nodes[node] + dx
        candidates.append((tuple(pos), float(_fit_value(coef, dx))))
    if not candidates:
        return None
    return max(candidates, key=lambda c: c[1])


def boundary_flux(mesh, psi, xpoint=None):
    """Boundary flux value and configuration mode.

    psi_b is the limiter maximum unless an X-point carries a larger flux
    value (separatrix inside the limiter flux); equality prefers the
    X-point.
    """
    psi = np.asarray(psi, dtype=np.float64)
    psi_lim = float((mesh.limiter_matrix() @ psi).max())
    mode, psi_b = "limiter", psi_lim
    if xpoint is not None:
        xpos, psi_x = xpoint
        if psi_x >= psi_lim:
            mode, psi_b = "xpoint", psi_x
    return psi_b, mode


def make_plasma_domain(mesh, psi):
    axis, psi_a = find_axis(mesh, psi)
    xp = find_xpoint(mesh, psi)
    if xp is not None and xp[1] >= psi_a:
        xp = None
    psi_b, mode = boundary_flux(mesh, psi, xpoint=xp)
    if psi_b == psi_a:
        raise DegeneratePlasmaError("boundary flux equals axis flux")
    return PlasmaDomain(psi_a, psi_b, axis,
                        xpoint=xp[0] if (xp and mode == "xpoint") else None,
                        mode=mode)


def normalized_flux(psi, psi_a, psi_b):
    if psi_a == psi_b:
        raise DegeneratePlasmaError("psi_a equals psi_b")
    return (np.asarray(psi, dtype=np.float64) - psi_a) / (psi_b - psi_a)


def quadrature_points(mesh):
    """Mid-edge quadrature data over the whole mesh.

    Returns (nodes (Q,3), bary (Q,3), weights (Q,), r (Q,), z (Q,)) with
    Q = 3 * number of triangles and weights summing to the domain area.
    """
    tris = mesh.triangles
    areas = mesh.areas()
    T = len(tris)
    qp_nodes = np.repeat(tris, 3, axis=0)                     # (3T, 3)
    qp_bary = np.tile(MIDEDGE_BARY, (T, 1))
    pts = np.einsum("qa,qad->qd", qp_bary, mesh.nodes[qp_nodes])
    qp_w = np.repeat(areas / 3.0, 3)
    return qp_nodes, qp_bary, qp_w, pts[:, 0], pts[:, 1]
