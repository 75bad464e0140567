"""Free-boundary bookkeeping: magnetic axis, X-point, boundary flux and
normalized flux.

Convention: the flux is maximal at the magnetic axis and the plasma region
is the superlevel set {psi >= psi_b}.  Inputs with the opposite sign
convention must be negated by the caller.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlasmaError, NoPlasmaError


@dataclass
class PlasmaDomain:
    psi_a: float
    psi_b: float
    axis: tuple
    xpoint: tuple = None
    mode: str = "limiter"

    def normalize(self, psi):
        """psibar = (psi - psi_a) / (psi_b - psi_a): 0 on the axis and 1 on
        the boundary; :class:`DegeneratePlasmaError` when psi_a = psi_b."""
        if self.psi_a == self.psi_b:
            raise DegeneratePlasmaError("psi_a equals psi_b")
        return ((np.asarray(psi, dtype=np.float64) - self.psi_a)
                / (self.psi_b - self.psi_a))


def _fit_operator(mesh, node, two_ring):
    """The quadratic fit about a node, built once per mesh: (fit nodes, the
    node first; pseudo-inverse of [1, dr, dz, dr^2/2, dr dz, dz^2/2] in
    ring radii, zero below six fit nodes; the ring radius)."""
    key = ("fit", node, two_ring)
    if key not in mesh._cache:
        ring = mesh.node_neighbors()[node]
        ring = ring[ring >= 0]
        ids = np.append(ring, mesh.node_neighbors()[ring]) if two_ring else ring
        ids = np.array([node] + sorted(set(ids.tolist()) - {node, -1}))
        radius = np.linalg.norm(mesh.nodes[ring] - mesh.nodes[node],
                                axis=1).max()
        dr, dz = ((mesh.nodes[ids] - mesh.nodes[node]) / radius).T
        design = np.column_stack([np.ones(len(ids)), dr, dz, 0.5 * dr * dr,
                                  dr * dz, 0.5 * dz * dz])
        mesh._cache[key] = (ids, np.linalg.pinv(design) if len(ids) >= 6
                            else np.zeros((6, len(ids))), float(radius))
    return mesh._cache[key]


def _refine(mesh, psi, node, two_ring=False):
    """Stationary point of the least-squares quadratic psi(dr, dz) fitted
    about a node over its ring (or two-ring) neighborhood: ((r, z), fitted
    value, h_rr, det H) in the mesh's units, or None when fewer than six
    nodes support the fit, the Hessian is flat (|det H| <= 1e-6 |H|^2) or
    the stationary point lies farther than 1.5 ring radii from the node."""
    ids, pinv, radius = _fit_operator(mesh, node, two_ring)
    # coefficients and stationary point in ring radii
    c, gr, gz, hrr, hrz, hzz = (pinv @ psi[ids]).tolist()
    det = hrr * hzz - hrz * hrz
    if not abs(det) > 1e-6 * (hrr * hrr + 2.0 * hrz * hrz + hzz * hzz):
        return None
    dr, dz = (hrz * gz - hzz * gr) / det, (hrz * gr - hrr * gz) / det
    if not dr * dr + dz * dz <= 2.25:
        return None
    r, z = mesh.nodes[node].tolist()
    # at the stationary point the quadratic is c + g.d/2
    return ((r + radius * dr, z + radius * dz), c + 0.5 * (gr * dr + gz * dz),
            hrr / radius ** 2, det / radius ** 4)


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
        if fit is not None and fit[2] < 0 < fit[3]:
            return fit[:2]
    return tuple(mesh.nodes[node]), float(psi[node])


def ring_sign_changes(mesh, psi):
    """Per node, its triangles in which psi rises (or falls) through it: at
    an interior node with no tied neighbour, the sign changes of psi around
    its ring (PL extremum 0, regular node 2, saddle 4 or more)."""
    corners = mesh.triangles.T
    a, b, c = np.take(psi, corners)
    ab, bc, ca = b > a, c > b, a > c             # rises along the sides
    through = np.concatenate([ab == ca, bc == ab, ca == bc])
    return np.bincount(np.compress(through, corners), minlength=len(psi))


def saddle_candidates(mesh, psi, scale):
    """Interior nodes around whose ordered ring the sign of (psi_neighbor -
    psi_node) alternates at least four times, ignoring differences below
    1e-14 * scale.  Without ties the alternations are
    :func:`ring_sign_changes`; tied nodes take the ring scan."""
    edges = mesh.edge_index()[0]
    saddle = ring_sign_changes(mesh, psi) >= 4
    tie = np.zeros(len(psi), dtype=bool)
    lo, hi = np.take(psi, edges).T
    tie[np.compress(~(np.abs(hi - lo) > 1e-14 * scale), edges, axis=0)] = True
    saddle[mesh.boundary] = tie[mesh.boundary] = False
    if tie.any():
        saddle[tie] = _ring_saddles(mesh, psi, np.flatnonzero(tie),
                                    1e-14 * scale)
    return np.flatnonzero(saddle)


def _ring_saddles(mesh, psi, nodes, tol):
    """Ring scan of :func:`saddle_candidates`, differences up to tol
    skipped."""
    rings = mesh.node_neighbors()[nodes].T           # (max degree, nodes)
    diff = psi[rings] - psi[nodes]
    keep = (rings >= 0) & (np.abs(diff) > tol)
    # cyclic sign changes among the kept entries of each ring, one ring
    # position at a time: every kept sign against the last kept sign
    # before it, then the first kept sign against the last one
    first = last = np.zeros(len(nodes))
    changes = np.zeros(len(nodes), dtype=np.int64)
    for sign in np.where(keep, np.sign(diff), 0.0):
        changes += sign * last < 0
        last = np.where(sign != 0, sign, last)
        first = np.where(first != 0, first, sign)
    changes += first * last < 0
    return (keep.sum(axis=0) >= 4) & (changes >= 4)


def find_xpoint(mesh, psi):
    """Saddle of the flux map, or None.

    Each discrete saddle candidate (see :func:`saddle_candidates`) is
    refined with the local quadratic fit; of the fits within 1e-12 * max|psi|
    of the highest value (tied mirror saddles) the least z, then r, wins.
    """
    psi = np.asarray(psi, dtype=np.float64)
    scale = np.abs(psi).max() or 1.0
    candidates = []
    for node in saddle_candidates(mesh, psi, scale):
        fit = _refine(mesh, psi, int(node))
        if fit is not None and fit[3] < -1e-12 * scale ** 2:
            candidates.append(fit[:2])
    top = max((c[1] for c in candidates), default=None)
    return min((c for c in candidates if c[1] >= top - 1e-12 * scale),
               key=lambda c: c[0][::-1], default=None)


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
    """The plasma domain of ``psi``; an axis flux within 1e-12 * max|psi|
    of the boundary flux (rounding noise, as :func:`find_xpoint` ties)
    raises :class:`DegeneratePlasmaError`."""
    axis, psi_a = find_axis(mesh, psi)
    xp = find_xpoint(mesh, psi)
    if xp is not None and xp[1] >= psi_a:
        xp = None
    psi_b, mode = boundary_flux(mesh, psi, xpoint=xp)
    if abs(psi_a - psi_b) <= 1e-12 * np.abs(psi).max():
        raise DegeneratePlasmaError(
            "axis flux equals boundary flux within 1e-12 max|psi|")
    return PlasmaDomain(psi_a, psi_b, axis,
                        xpoint=xp[0] if (xp and mode == "xpoint") else None,
                        mode=mode)


def finite_flux(psi):
    """``psi``, after raising :class:`DegeneratePlasmaError` unless it is
    finite at every node."""
    bad = np.count_nonzero(~np.isfinite(psi))
    if bad:
        raise DegeneratePlasmaError(f"flux not finite at {bad} nodes")
    return psi


def quadrature_points(mesh):
    """The mid-edge quadrature rule: one point per edge of
    :meth:`Mesh.edge_index`, at its midpoint, weighted by area/3 summed
    over the edge's triangles.  Degree-2 exact; with the pointwise plasma
    mask it resolves the plasma boundary below element size.

    Returns (edges (E, 2), bary (E, 2) all 0.5, weights (E,), r (E,),
    z (E,)), the weights summing to the domain area.
    """
    edges, tri_edges = mesh.edge_index()
    w = np.bincount(tri_edges.ravel(),
                    weights=np.repeat(mesh.areas() / 3.0, 3))
    r, z = ((np.take(mesh.nodes, edges[:, 0], axis=0)
             + np.take(mesh.nodes, edges[:, 1], axis=0)) / 2).T
    return edges, np.full(edges.shape, 0.5), w, r, z
