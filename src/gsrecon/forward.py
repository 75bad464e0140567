"""Direct free-boundary solve: plasma-current source assembly, total-current
scaling and the Picard fixed point producing reference equilibria."""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .basis import ProfileExpansion, SplineBasis
from .errors import ConvergenceError, DivergentLambdaError, EmptySourceError
from .geometry import make_plasma_domain, quadrature_points
from .mesh import interpolation_matrix, point_in_polygon


@dataclass
class MachineParams:
    r0: float
    b0: float
    ip: float
    mu0: float = fem.MU0

    def __post_init__(self):
        if not (0 < self.r0 < np.inf and 0 < self.mu0 < np.inf):
            raise ValueError("r0 and mu0 must be positive")
        if not 0 < abs(self.ip) < np.inf:
            raise ValueError("Ip must be nonzero")
        if not np.isfinite(self.b0):
            raise ValueError("b0 must be finite")


@dataclass
class Equilibrium:
    psi: np.ndarray
    domain: object
    profiles: ProfileExpansion
    lam: float
    machine: MachineParams
    residuals: list = field(default_factory=list)
    converged: bool = True
    iterations: int = 0


class SourceQuadrature:
    """Precomputed mid-edge quadrature over the mesh, plus the normalized
    flux and mask evaluation for the current iterate.

    The rule of :func:`geometry.quadrature_points` with each edge's two
    midpoint copies (same flux, same mask) merged: one point per edge,
    weighted by area/3 summed over its triangles.  ``P`` is the sparse
    (Q, n) interpolation matrix to the midpoints (two 0.5 entries per
    row); its transpose scatters contributions back onto the nodes.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        edges, tri_edges = mesh.edge_index()
        self.qp_nodes, self.qp_bary = edges, np.full(edges.shape, 0.5)
        self.qp_w = np.bincount(tri_edges.ravel(),
                                weights=quadrature_points(mesh)[2])
        self.qp_r, self.qp_z = mesh.nodes[edges].mean(axis=1).T
        self.P = interpolation_matrix(self.qp_nodes, self.qp_bary,
                                      mesh.n_nodes)
        pts = np.column_stack([self.qp_r, self.qp_z])
        self._inside_limiter = point_in_polygon(pts, mesh.limiter)

    def psibar_qp(self, psibar_nodal):
        """Normalized flux at the quadrature points (P1 interpolation)."""
        return self.P @ psibar_nodal

    def bootstrap_psibar_qp(self):
        """Cold-start surrogate: psibar 0 inside the limiter contour, 2
        outside, used on the first iteration when the flux map is still
        constant and carries no axis."""
        out = np.full(len(self.qp_w), 2.0)
        out[self._inside_limiter] = 0.0
        return out


def current_density_integral(squad, psibar_qp, a_vals, b_vals, r0):
    """Integral of (r/r0) A + (r0/r) B over the plasma region."""
    mask = psibar_qp <= 1.0
    w = squad.qp_w[mask]
    r = squad.qp_r[mask]
    return float(np.sum(w * (r / r0 * a_vals[mask] + r0 / r * b_vals[mask])))


def lambda_from_integral(ip, integral, area):
    if abs(integral) < 1e-14 * max(area, 1.0):
        raise DivergentLambdaError(
            "plasma-current integral vanishes; cannot scale to Ip")
    return ip / integral


def compute_lambda(mesh, psibar_nodal, expansion, ip, r0, squad=None):
    """Scale factor enforcing the total plasma current."""
    if squad is None:
        squad = SourceQuadrature(mesh)
    pq = squad.psibar_qp(np.asarray(psibar_nodal, float))
    x = np.clip(pq, 0.0, 1.0)
    a_vals = expansion.eval("A", x)
    b_vals = expansion.eval("B", x)
    integral = current_density_integral(squad, pq, a_vals, b_vals, r0)
    return lambda_from_integral(ip, integral, mesh.area())


def assemble_source_vector(squad, psibar_qp, a_vals, b_vals, lam, r0,
                           dirichlet_rows):
    """Nodal load vector for given profile values at the quadrature points."""
    mask = psibar_qp <= 1.0
    if not np.any(mask):
        raise EmptySourceError("plasma region contains no quadrature point")
    w, r = squad.qp_w, squad.qp_r
    dens = np.zeros(len(w))
    dens[mask] = lam * (r[mask] / r0 * a_vals[mask]
                        + r0 / r[mask] * b_vals[mask]) * w[mask]
    y = squad.P.T @ dens
    y[dirichlet_rows] = 0.0
    return y


def assemble_source_matrix(squad, psibar_qp, basis, lam, r0, dirichlet_rows):
    """n x 2m matrix mapping profile coefficients to the load vector.

    Entry (i, j) is lam times the plasma-region quadrature sum of
    (r/r0) phi_j(psibar) v_i, and entry (i, m + j) the same with r0/r.
    """
    mask = psibar_qp <= 1.0
    if not np.any(mask):
        raise EmptySourceError("plasma region contains no quadrature point")
    w, r = squad.qp_w[mask], squad.qp_r[mask]
    phi = basis.eval_many(psibar_qp[mask])
    F = np.zeros((len(psibar_qp), 2 * basis.m))
    F[mask, :basis.m] = (w * r / r0)[:, None] * phi
    F[mask, basis.m:] = (w * r0 / r)[:, None] * phi
    Y = squad.P.T @ F
    Y *= lam
    Y[dirichlet_rows, :] = 0.0
    return Y


def dirichlet_vector(mesh, g_d):
    g = np.zeros(mesh.n_nodes)
    g[mesh.boundary] = g_d
    return g


def forward_fixed_point(mesh, machine, a_func, b_func, g_d, tol=1e-6,
                        max_iter=30, omega=1.0, psi0=None, basis=None,
                        detect_xpoint=True):
    """Picard iteration of the free-boundary problem with known profiles.

    a_func and b_func are callables on [0,1] (tabulated references should be
    wrapped with a monotone cubic interpolant by the caller).  Raises
    :class:`ConvergenceError` when max_iter is exhausted.
    """
    g_d = np.asarray(g_d, dtype=np.float64)
    if g_d.shape != mesh.boundary.shape:
        raise ValueError("g_d must provide one value per boundary node")

    stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh, machine.mu0),
                                 mesh.boundary)
    fact = fem.factorize(stiff)
    squad = SourceQuadrature(mesh)
    g = dirichlet_vector(mesh, g_d)

    def picard_map(pq):
        x = np.clip(pq, 0.0, 1.0)
        a_vals = np.asarray(a_func(x), float)
        b_vals = np.asarray(b_func(x), float)
        integral = current_density_integral(squad, pq, a_vals, b_vals,
                                            machine.r0)
        lam = lambda_from_integral(machine.ip, integral, mesh.area())
        y = assemble_source_vector(squad, pq, a_vals, b_vals, lam,
                                   machine.r0, mesh.boundary)
        psi_new = fact.solve(y + g)
        psi_new[mesh.boundary] = g_d
        return psi_new, lam

    if psi0 is None:
        # uncounted initialization solve: a constant flux map carries no
        # axis yet, so the source is seeded with psibar 0 inside the
        # limiter contour (fully covered plasma) and 2 outside
        psi, lam = picard_map(squad.bootstrap_psibar_qp())
    else:
        psi = np.array(psi0, dtype=np.float64)
        lam = None

    residuals = []
    domain = None
    om = omega
    r_prev = None
    for it in range(max_iter):
        domain = make_plasma_domain(mesh, psi, detect_xpoint=detect_xpoint)
        pq = squad.psibar_qp(domain.normalize(psi))
        psi_new, lam = picard_map(pq)
        r = psi_new - psi
        denom = np.linalg.norm(psi)
        res = np.linalg.norm(r) / (denom if denom > 0 else 1.0)
        residuals.append(res)
        if res <= tol:
            psi = psi_new
        else:
            # dynamic relaxation: rescale the update by the secant estimate
            # of the dominant contraction mode (keeps plain Picard when the
            # history is too short or the estimate degenerates)
            if r_prev is not None:
                dr = r - r_prev
                dr2 = float(dr @ dr)
                if dr2 > 0:
                    om = -om * float(r_prev @ dr) / dr2
                    om = min(max(om, 0.25), 2.0)
            psi = psi + om * r
            r_prev = r
        if res <= tol:
            domain = make_plasma_domain(mesh, psi, detect_xpoint=detect_xpoint)
            if basis is None:
                basis = SplineBasis()
            xs = np.linspace(0.0, 1.0, 201)
            profiles = ProfileExpansion(basis, basis.fit(xs, a_func(xs)),
                                        basis.fit(xs, b_func(xs)))
            return Equilibrium(psi, domain, profiles, lam, machine,
                               residuals, True, it + 1)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})", residuals)


# ---------------------------------------------------------------------------
# Equilibrium file IO
# ---------------------------------------------------------------------------

def save_equilibrium(eq, path):
    r_ = lambda v: repr(float(v))
    with open(path, "w") as fh:
        fh.write(f"r0 {r_(eq.machine.r0)}\nb0 {r_(eq.machine.b0)}\n"
                 f"ip {r_(eq.machine.ip)}\nmu0 {r_(eq.machine.mu0)}\n")
        fh.write(f"lambda {r_(eq.lam)}\n")
        fh.write(f"psi_a {r_(eq.domain.psi_a)}\n"
                 f"psi_b {r_(eq.domain.psi_b)}\n")
        fh.write(f"mode {eq.domain.mode}\n")
        fh.write(f"axis {r_(eq.domain.axis[0])} {r_(eq.domain.axis[1])}\n")
        fh.write("coeff_a " + " ".join(r_(v) for v in eq.profiles.a) + "\n")
        fh.write("coeff_b " + " ".join(r_(v) for v in eq.profiles.b) + "\n")
        if eq.profiles.c is not None:
            fh.write("coeff_c " + " ".join(r_(v) for v in eq.profiles.c)
                     + "\n")
        fh.write(f"psi {len(eq.psi)}\n")
        for v in eq.psi:
            fh.write(f"{r_(v)}\n")


def load_equilibrium(path, mesh=None, basis=None):
    fields = {}
    psi = None
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        key = parts[0]
        if key == "psi":
            count = int(parts[1])
            psi = np.array([float(v) for v in lines[i + 1:i + 1 + count]])
            i += count + 1
            continue
        fields[key] = parts[1:]
        i += 1
    machine = MachineParams(float(fields["r0"][0]), float(fields["b0"][0]),
                            float(fields["ip"][0]), float(fields["mu0"][0]))
    if basis is None:
        basis = SplineBasis(m=len(fields["coeff_a"]))
    prof = ProfileExpansion(
        basis,
        np.array([float(v) for v in fields["coeff_a"]]),
        np.array([float(v) for v in fields["coeff_b"]]),
        np.array([float(v) for v in fields["coeff_c"]])
        if "coeff_c" in fields else None)
    from .geometry import PlasmaDomain
    domain = PlasmaDomain(float(fields["psi_a"][0]), float(fields["psi_b"][0]),
                          (float(fields["axis"][0]), float(fields["axis"][1])),
                          mode=fields["mode"][0])
    return Equilibrium(psi, domain, prof, float(fields["lambda"][0]), machine)
