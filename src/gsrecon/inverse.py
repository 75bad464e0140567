"""Profile identification: density normal equation, regularized A/B normal
equation, dof rescaling and the full reconstruction fixed point."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (ProfileExpansion, SplineBasis, first_guess_expansion,
                    full_regularization_matrix, regularization_matrix)
from .errors import (GsReconError, MeasurementCountError, NoPlasmaError,
                     RegularizationError, StateError)
from .forward import (assemble_source_matrix, dirichlet_vector,
                      lambda_from_integral, mesh_operators, picard)
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

    def __init__(self, mesh, machine, chords=(), basis=None):
        self.mesh = mesh
        self.machine = machine
        self.basis = basis if basis is not None else SplineBasis(
            end_constraint=True)
        self.fact, self.squad = mesh_operators(mesh, machine.mu0)
        self.c0, self.gn_points = build_neumann_observer(mesh)
        self.chord_geoms = build_chord_geometries(mesh, chords)
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

    def dirichlet_lift(self, g_d):
        """K^-1 g for the boundary flux g_d, exact on the boundary."""
        k_inv_g = self.fact.solve(dirichlet_vector(self.mesh, g_d))
        k_inv_g[self.mesh.boundary] = g_d
        return k_inv_g

    def first_guess(self):
        exp = first_guess_expansion(self.basis)
        return np.concatenate([exp.a, exp.b])


def observation_state(setup, Y, C, d, k_inv_g):
    """Observation state of one flux iterate: (K^-1 Y, E, f).

    K^-1 Y has its boundary rows cleared, so K^-1 Y u + K^-1 g keeps the
    boundary flux of ``k_inv_g`` (see
    :meth:`ReconstructionSetup.dirichlet_lift`) exact; E = C K^-1 Y and
    f = d - C K^-1 g, so E u - f = C psi(u) - d.
    """
    k_inv_y = setup.fact.solve_multi(Y)
    k_inv_y[setup.mesh.boundary, :] = 0.0
    return k_inv_y, C @ k_inv_y, d - C @ k_inv_g


def reconstruct(setup, measurements, reg, use_internal=True, tol=1e-6,
                max_iter=30, warm_start=None):
    """Fixed-point reconstruction of (psi, domain, A, B, lambda[, n_e]).

    Measurement vectors whose lengths do not match the setup raise
    :class:`MeasurementCountError` before the loop.  Any other
    :class:`GsReconError` raised by an iteration, or by the domain search
    on the final flux, comes back as ``result.error``: ``psi`` is then the
    iterate reached, ``iterations`` counts the failing one, ``domain`` is
    None and ``costs`` is empty.  Non-convergence (the real-time regime
    truncates the loop on purpose) is reported by ``converged``.

    ``lam`` is the scale of ``profiles``: the last iteration's
    coefficients u are returned rescaled to max|a| = 1, with lam * u kept.
    ``costs`` belongs to the last iteration: J0 and J1 are the magnetic
    and polarimetric rows of 1/2 |W (E u - f)|^2 at its observation state,
    J2 the weighted interferometry misfit of its density and Jeps the
    curvature penalty of the returned coefficients.
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
    weights = default_weights(ms, mesh.boundary_length())
    w_mag = np.full(setup.c0.shape[0], weights.w_mag)
    k_inv_g = setup.dirichlet_lift(ms.g_d)

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

    residuals, lam_history = [], []
    iterations, last = 0, None

    def step(psi_in):
        nonlocal psi, iterations, u, lam, ne_coeffs, last
        psi, iterations = psi_in, iterations + 1
        try:
            psibar_nodal = make_plasma_domain(mesh, psi).normalize(psi)
        except NoPlasmaError:
            if residuals:
                raise
            psibar_nodal = setup.bootstrap_psibar_nodal()
        pq = setup.squad.psibar_qp(psibar_nodal)

        # total-current scale from the previous-iterate profiles (the rows
        # of P sum to one, so the column sums of the unscaled Y give the
        # current integral), then dof normalization to pin lambda*u
        Y = assemble_source_matrix(setup.squad, pq, basis, 1.0, machine.r0,
                                   [])
        lam = lambda_from_integral(machine.ip, float(Y.sum(axis=0) @ u),
                                   mesh.area())
        Y[mesh.boundary, :] = 0.0
        u, lam, _ = rescale_dofs(u, lam)
        Y *= lam
        lam_history.append(lam)

        C, d, w, b_int = setup.c0, ms.g_n, w_mag, None
        if use_internal:
            b_int = build_interferometry_matrix(setup.chord_geoms, basis,
                                                psibar_nodal)
            ne_coeffs = identify_ne(b_int, ms.gamma, weights.w_inter,
                                    reg.eps_ne, reg.alpha_scale,
                                    setup.lam_block)
            c1 = build_polarimetry_observer(setup.chord_geoms, basis,
                                            ne_coeffs, psibar_nodal)
            C = sp.vstack([setup.c0, c1]).tocsr()
            d = np.concatenate([ms.g_n, ms.alpha])
            w = np.concatenate([w_mag, np.full(n_c, weights.w_polar)])

        k_inv_y, E, f = observation_state(setup, Y, C, d, k_inv_g)
        u = identify_ab(E, f, w, reg.eps, setup.lam_full, setup.free_idx)
        last = (w * (E @ u - f), b_int)
        return k_inv_y @ u + k_inv_g

    error = domain = None
    try:
        psi = picard(step, psi, tol, max_iter, residuals)
        domain = make_plasma_domain(mesh, psi)
    except GsReconError as exc:
        error = str(exc)
    converged = error is None and bool(residuals) and residuals[-1] <= tol

    u, lam, _ = rescale_dofs(u, lam)
    costs = {}
    if error is None and residuals:
        misfit, b_int = last
        n_mag = setup.c0.shape[0]
        costs = {"J0": 0.5 * float(np.sum(misfit[:n_mag] ** 2)),
                 "J1": 0.5 * float(np.sum(misfit[n_mag:] ** 2)), "J2": 0.0,
                 "Jeps": 0.5 * reg.eps * float(u @ setup.lam_full @ u)}
        if b_int is not None:
            costs["J2"] = 0.5 * float(np.sum(
                (weights.w_inter * (b_int @ ne_coeffs - ms.gamma)) ** 2))
        if ne_coeffs is not None:
            v_hat = ne_coeffs / reg.alpha_scale   # identify_ne's dofs
            costs["Jeps"] += 0.5 * reg.eps_ne * float(
                v_hat @ setup.lam_block @ v_hat)

    profiles = ProfileExpansion(basis, u[:basis.m], u[basis.m:], ne_coeffs)
    return ReconstructionResult(psi, domain, profiles, lam, residuals,
                                lam_history, costs, converged, iterations,
                                error=error)
