"""Profile identification: density normal equation, regularized A/B normal
equation, dof rescaling and the full reconstruction fixed point."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .basis import (ProfileExpansion, SplineBasis, first_guess_expansion,
                    full_regularization_matrix, regularization_matrix)
from .errors import (DivergentLambdaError, EmptySourceError,
                     MeasurementCountError, NoPlasmaError,
                     RegularizationError, StateError)
from .forward import (SourceQuadrature, assemble_source_matrix,
                      dirichlet_vector, lambda_from_integral)
from .geometry import make_plasma_domain
from .mesh import point_in_polygon
from .observation import (build_chord_geometries, build_interferometry_matrix,
                          build_neumann_observer, build_polarimetry_observer,
                          default_weights)


@dataclass
class RegularizationConfig:
    eps: float = 5e-2            # shared by A and B
    eps_ne: float = 1e-2
    alpha_scale: float = 1e19    # density nondimensionalization, m^-3

    def __post_init__(self):
        if not all(0 < v < np.inf
                   for v in (self.eps, self.eps_ne, self.alpha_scale)):
            raise ValueError("regularization parameters must be positive")


@dataclass
class ReconstructionResult:
    psi: np.ndarray
    domain: object
    profiles: ProfileExpansion
    lam: float
    residuals: list
    lam_history: list
    costs: dict
    converged: bool
    iterations: int
    error: str = None


def identify_ne(b_int, gamma, w_inter, eps_ne, alpha_scale, lam_block):
    """Density coefficients from the preconditioned normal equation."""
    bt = w_inter * np.asarray(b_int, dtype=np.float64)
    gt = w_inter * np.asarray(gamma, dtype=np.float64)
    # nondimensionalize v = alpha_scale * v_hat so the data term and the
    # curvature penalty eps_ne * Lambda meet at O(1) magnitudes
    a = alpha_scale
    lhs = a * a * (bt.T @ bt) + eps_ne * lam_block
    rhs = a * (bt.T @ gt)
    try:
        v_hat = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise RegularizationError(f"density normal system singular: {exc}")
    return a * v_hat


def identify_ab(E, f, weights, eps, lam_full, free_idx):
    """Solve the weighted, curvature-penalized normal equation for the
    profile coefficients on the constraint-reduced dof set."""
    E = np.asarray(E, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise StateError("non-finite observation sensitivity (plasma lost?)")
    et = weights[:, None] * E
    ft = weights * f
    et_r = et[:, free_idx]
    lhs = et_r.T @ et_r + eps * lam_full[np.ix_(free_idx, free_idx)]
    rhs = et_r.T @ ft
    try:
        u_red = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise RegularizationError(f"profile normal system singular: {exc}")
    u = np.zeros(E.shape[1])
    u[free_idx] = u_red
    return u


def rescale_dofs(u, lam):
    """Normalize max|a_i| to one, moving the scale into lambda.

    Returns (u, lam, applied).  The product lam*u is preserved exactly up
    to one floating-point division per entry.
    """
    u = np.asarray(u, dtype=np.float64)
    m = len(u) // 2
    m_hat = np.abs(u[:m]).max()
    if m_hat == 0.0:
        return u, lam, False
    return u / m_hat, lam * m_hat, True


class ReconstructionSetup:
    """Mesh-bound immutable state shared by many reconstructions: the
    factorized stiffness matrix, the boundary observer, chord geometry and
    the penalty matrices."""

    def __init__(self, mesh, machine, chords=(), basis=None, mk_indices=None,
                 chord_step=None):
        self.mesh = mesh
        self.machine = machine
        self.basis = basis if basis is not None else SplineBasis(
            end_constraint=True)
        stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh, machine.mu0),
                                     mesh.boundary)
        self.fact = fem.factorize(stiff)
        self.squad = SourceQuadrature(mesh)
        self.c0, self.gn_points = build_neumann_observer(mesh, mk_indices)
        self.chord_geoms = build_chord_geometries(mesh, chords,
                                                  step=chord_step)
        self.lam_block = regularization_matrix(self.basis)
        self.lam_full = full_regularization_matrix(self.basis)
        m = self.basis.m
        # A(1)=B(1)=0 by eliminating the one basis function alive at x=1
        self.free_idx = np.array([i for i in range(2 * m)
                                  if i not in (m - 1, 2 * m - 1)])
        self._node_in_limiter = point_in_polygon(mesh.nodes, mesh.limiter)

    def bootstrap_psibar_nodal(self):
        out = np.full(self.mesh.n_nodes, 2.0)
        out[self._node_in_limiter] = 0.0
        return out

    def first_guess(self):
        exp = first_guess_expansion(self.basis)
        return np.concatenate([exp.a, exp.b])


def reconstruct(setup, measurements, reg, use_internal=True, tol=1e-6,
                max_iter=30, warm_start=None, detect_xpoint=True,
                weights=None):
    """Fixed-point reconstruction of (psi, domain, A, B, lambda[, n_e]).

    Non-convergence is reported through the result flag, not raised: the
    real-time regime intentionally truncates the loop after two iterations.
    Measurement vectors whose lengths do not match the setup raise
    :class:`MeasurementCountError`.
    """
    mesh, machine, basis = setup.mesh, setup.machine, setup.basis
    ms = measurements
    n_c = len(setup.chord_geoms)
    use_internal = use_internal and n_c > 0
    counts = [("gD", ms.g_d, len(mesh.boundary), "boundary nodes"),
              ("gN", ms.g_n, setup.c0.shape[0], "Neumann points")]
    if use_internal:      # MeasurementSet keeps len(alpha) == len(gamma)
        counts.append(("gamma", ms.gamma, n_c, "chords"))
    for name, values, expected, what in counts:
        if len(values) != expected:
            raise MeasurementCountError(
                f"{name} has {len(values)} values for {expected} {what}")
    if weights is None:
        weights = default_weights(ms.ip, mesh.boundary_length(),
                                  len(ms.g_n), len(ms.gamma),
                                  alpha=ms.alpha, gamma=ms.gamma)

    g = dirichlet_vector(mesh, ms.g_d)
    k_inv_g = setup.fact.solve(g)
    k_inv_g[mesh.boundary] = ms.g_d

    if warm_start is not None:
        psi = np.array(warm_start.psi, dtype=np.float64)
        u = np.concatenate([warm_start.profiles.a, warm_start.profiles.b])
        lam = warm_start.lam
        ne_coeffs = warm_start.profiles.c
    else:
        psi = np.zeros(mesh.n_nodes)
        u = setup.first_guess()
        lam = 1.0
        ne_coeffs = None

    residuals = []
    lam_history = []
    domain = None
    b_int = None
    w_vec_mag = np.full(setup.c0.shape[0], weights.w_mag)
    error = None
    it = 0
    om = 1.0
    r_prev = None
    for it in range(1, max_iter + 1):
        try:
            domain = make_plasma_domain(mesh, psi, detect_xpoint=detect_xpoint)
            psibar_nodal = domain.normalize(psi)
        except NoPlasmaError as exc:
            if it > 1:
                error = str(exc)
                break
            domain = None
            psibar_nodal = setup.bootstrap_psibar_nodal()
        pq = setup.squad.psibar_qp(psibar_nodal)

        # total-current scale from the previous-iterate profiles (the rows
        # of P sum to one, so the column sums of the unscaled Y give the
        # current integral), then dof normalization to pin lambda*u
        try:
            Y = assemble_source_matrix(setup.squad, pq, basis, 1.0,
                                       machine.r0, [])
            lam = lambda_from_integral(
                machine.ip, float(Y.sum(axis=0) @ u), mesh.area())
        except (DivergentLambdaError, EmptySourceError) as exc:
            error = str(exc)
            break
        Y[mesh.boundary, :] = 0.0
        u, lam, _ = rescale_dofs(u, lam)
        Y *= lam
        lam_history.append(lam)

        if use_internal:
            b_int = build_interferometry_matrix(setup.chord_geoms, basis,
                                                psibar_nodal)
            ne_coeffs = identify_ne(b_int, ms.gamma, weights.w_inter,
                                    reg.eps_ne, reg.alpha_scale,
                                    setup.lam_block)
            ne_exp = ProfileExpansion(basis, np.zeros(basis.m),
                                      np.zeros(basis.m), ne_coeffs)
            c1 = build_polarimetry_observer(setup.chord_geoms, ne_exp,
                                            psibar_nodal)
            C = sp.vstack([setup.c0, c1]).tocsr()
            d = np.concatenate([ms.g_n, ms.alpha])
            w_vec = np.concatenate([w_vec_mag,
                                    np.full(n_c, weights.w_polar)])
        else:
            C = setup.c0
            d = ms.g_n
            w_vec = w_vec_mag

        k_inv_y = setup.fact.solve_multi(Y)
        k_inv_y[mesh.boundary, :] = 0.0
        E = C @ k_inv_y
        f = d - C @ k_inv_g
        u_new = identify_ab(E, f, w_vec, reg.eps, setup.lam_full,
                            setup.free_idx)

        # K^-1 (Y u + g); zero boundary rows of k_inv_y keep g_d exact
        psi_new = k_inv_y @ u_new + k_inv_g
        r = psi_new - psi
        denom = np.linalg.norm(psi)
        res = np.linalg.norm(r) / (denom if denom > 0 else 1.0)
        residuals.append(res)
        if res <= tol:
            psi = psi_new
            u = u_new
            break
        # dynamic relaxation on the flux update (secant estimate of the
        # dominant contraction mode), as in the direct solver
        if r_prev is not None and it > 2:
            dr = r - r_prev
            dr2 = float(dr @ dr)
            if dr2 > 0:
                om = min(max(-om * float(r_prev @ dr) / dr2, 0.25), 2.0)
        r_prev = r
        psi = psi + om * r
        u = u_new

    converged = bool(residuals) and residuals[-1] <= tol and error is None

    costs = {}
    if error is None and domain is not None:
        try:
            domain = make_plasma_domain(mesh, psi, detect_xpoint=detect_xpoint)
            psibar_nodal = domain.normalize(psi)
            costs = _cost_breakdown(setup, ms, weights, reg, psi,
                                    psibar_nodal, u, ne_coeffs, use_internal)
        except NoPlasmaError as exc:
            error = str(exc)
            converged = False

    profiles = ProfileExpansion(basis, u[:basis.m], u[basis.m:], ne_coeffs)
    return ReconstructionResult(psi, domain, profiles, lam, residuals,
                                lam_history, costs, converged, it,
                                error=error)


def _cost_breakdown(setup, ms, weights, reg, psi, psibar_nodal, u, ne_coeffs,
                    use_internal):
    basis = setup.basis
    j0 = 0.5 * float(np.sum((weights.w_mag * (setup.c0 @ psi - ms.g_n)) ** 2))
    j1 = j2 = 0.0
    if use_internal and ne_coeffs is not None:
        ne_exp = ProfileExpansion(basis, np.zeros(basis.m), np.zeros(basis.m),
                                  ne_coeffs)
        c1 = build_polarimetry_observer(setup.chord_geoms, ne_exp,
                                        psibar_nodal)
        j1 = 0.5 * float(np.sum(
            (weights.w_polar * (c1 @ psi - ms.alpha)) ** 2))
        b_int = build_interferometry_matrix(setup.chord_geoms, basis,
                                            psibar_nodal)
        j2 = 0.5 * float(np.sum(
            (weights.w_inter * (b_int @ ne_coeffs - ms.gamma)) ** 2))
    j_eps = 0.5 * reg.eps * float(u @ setup.lam_full @ u)
    if ne_coeffs is not None:
        v_hat = ne_coeffs / reg.alpha_scale   # the penalty's adimensional dofs
        j_eps += 0.5 * reg.eps_ne * float(v_hat @ setup.lam_block @ v_hat)
    return {"J0": j0, "J1": j1, "J2": j2, "Jeps": j_eps}
