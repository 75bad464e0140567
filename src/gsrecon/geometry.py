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


def _refine(mesh, psi, node, two_ring=False):
    """Stationary point of the least-squares quadratic psi(dr, dz) fitted
    about a node over its ring (or two-ring) neighborhood.

    Returns ((r, z), fitted value, Hessian), or None when fewer than six
    nodes support the fit, the Hessian is singular or the stationary point
    lies farther than 1.5 ring radii from the node.
    """
    ring = mesh.node_neighbors()[node]
    ring = ring[ring >= 0]
    ids = np.append(ring, mesh.node_neighbors()[ring]) if two_ring else ring
    ids = np.array([node] + sorted(set(ids.tolist()) - {node, -1}))
    if len(ids) < 6:
        return None
    d = mesh.nodes[ids] - mesh.nodes[node]
    A = np.column_stack([np.ones(len(ids)), d[:, 0], d[:, 1],
                         0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1],
                         0.5 * d[:, 1] ** 2])
    (c, gr, gz, hrr, hrz, hzz), *_ = np.linalg.lstsq(A, psi[ids], rcond=None)
    if hrr * hzz - hrz * hrz == 0.0:
        return None
    H = np.array([[hrr, hrz], [hrz, hzz]])
    dx = -np.linalg.solve(H, np.array([gr, gz]))
    radius = np.linalg.norm(mesh.nodes[ring] - mesh.nodes[node], axis=1).max()
    if not np.linalg.norm(dx) <= 1.5 * radius:
        return None
    value = (c + gr * dx[0] + gz * dx[1] + 0.5 * hrr * dx[0] ** 2
             + hrz * dx[0] * dx[1] + 0.5 * hzz * dx[1] ** 2)
    return tuple(mesh.nodes[node] + dx), float(value), H


def find_axis(mesh, psi):
    """Magnetic axis: interior argmax refined by a local quadratic fit over
    the one ring, else the two rings, with a negative definite Hessian."""
    psi = np.asarray(psi, dtype=np.float64)
    interior = mesh.interior_nodes()
    if len(interior) == 0:
        raise NoPlasmaError("mesh has no interior nodes")
    node = interior[np.argmax(psi[interior])]
    if psi[mesh.boundary].max() >= psi[node]:
        raise NoPlasmaError("flux maximum attained on the boundary")
    for two_ring in (False, True):
        fit = _refine(mesh, psi, node, two_ring=two_ring)
        if fit is not None and np.linalg.eigvalsh(fit[2]).max() < 0:
            return fit[:2]
    return tuple(mesh.nodes[node]), float(psi[node])


def saddle_candidates(mesh, psi, scale):
    """Interior nodes around whose ordered ring the sign of (psi_neighbor -
    psi_node) alternates at least four times, ignoring differences below
    1e-14 * scale."""
    rings = mesh.node_neighbors().T                  # (max degree, n)
    diff = psi[rings] - psi
    keep = (rings >= 0) & (np.abs(diff) > 1e-14 * scale)
    # cyclic sign changes among the kept entries of each ring, one ring
    # position at a time: every kept sign against the last kept sign
    # before it, then the first kept sign against the last one
    first = last = np.zeros(len(psi))
    changes = np.zeros(len(psi), dtype=np.int64)
    for sign in np.where(keep, np.sign(diff), 0.0):
        changes += sign * last < 0
        last = np.where(sign != 0, sign, last)
        first = np.where(first != 0, first, sign)
    changes += first * last < 0
    saddle = (keep.sum(axis=0) >= 4) & (changes >= 4)
    saddle[mesh.boundary] = False
    return np.flatnonzero(saddle)


def find_xpoint(mesh, psi):
    """Saddle of the flux map, or None.

    Each discrete saddle candidate (see :func:`saddle_candidates`) is
    refined with the local quadratic fit.
    """
    psi = np.asarray(psi, dtype=np.float64)
    scale = np.abs(psi).max() or 1.0
    candidates = []
    for node in saddle_candidates(mesh, psi, scale):
        fit = _refine(mesh, psi, int(node))
        if fit is None:
            continue
        (hrr, hrz), (_, hzz) = fit[2]
        # the explicit determinant: np.linalg.det rounds differently
        if hrr * hzz - hrz ** 2 < -1e-12 * scale ** 2:
            candidates.append(fit[:2])
    return max(candidates, key=lambda c: c[1], default=None)


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
