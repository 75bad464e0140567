"""Profile identification: density normal equation, regularized A/B normal
equation, dof rescaling and the full reconstruction fixed point."""

from dataclasses import dataclass

import numpy as np

from .basis import (ProfileExpansion, SplineBasis, first_guess_expansion,
                    full_regularization_matrix, regularization_matrix)
from .errors import (GsReconError, MeasurementCountError, NoPlasmaError,
                     RegularizationError, StateError)
from .forward import (Equilibrium, assemble_source_matrix,
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
    """Full coefficient vector from the weighted, curvature-penalized normal
    equation on the columns of E, coefficients ``free_idx``; zero elsewhere."""
    E = np.asarray(E, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise StateError("non-finite observation sensitivity (plasma lost?)")
    et = weights[:, None] * E
    lhs = et.T @ et + eps * lam_full[np.ix_(free_idx, free_idx)]
    rhs = et.T @ (weights * f)
    try:
        u_red = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise RegularizationError(f"profile normal system singular: {exc}")
    u = np.zeros(len(lam_full))
    u[free_idx] = u_red
    return u


def rescale_dofs(u, lam):
    """Normalize max|a_i| to one, moving the scale into lambda.

    Returns (u, lam), both unchanged when every a_i is zero.  The product
    lam*u is preserved exactly up to one floating-point division per entry.
    """
    u = np.asarray(u, dtype=np.float64)
    m_hat = np.abs(u[:len(u) // 2]).max()
    if m_hat == 0.0:
        return u, lam
    return u / m_hat, lam * m_hat


class ReconstructionSetup:
    """Mesh-bound immutable state shared by many reconstructions: the
    factorized stiffness matrix, the boundary observer, chord geometry and
    the penalty matrices."""

    def __init__(self, mesh, machine, chords=(), basis=None):
        self.mesh = mesh
        self.machine = machine
        self.basis = basis if basis is not None else SplineBasis(
            end_constraint=True)
        self.fact, self.squad = mesh_operators(mesh, machine.mu0, machine.r0)
        self.c0, self.gn_points = build_neumann_observer(mesh)
        self.chord_geoms = build_chord_geometries(mesh, chords)
        self.lam_block = regularization_matrix(self.basis)
        self.lam_full = full_regularization_matrix(self.basis)
        m = self.basis.m
        # A(1)=B(1)=0 by eliminating the one basis function alive at x=1
        self.pinned = [m - 1, 2 * m - 1]
        self.free_idx = np.delete(np.arange(2 * m), self.pinned)
        self._node_in_limiter = point_in_polygon(mesh.nodes, mesh.limiter)

    def bootstrap_psibar_nodal(self):
        out = np.full(self.mesh.n_nodes, 2.0)
        out[self._node_in_limiter] = 0.0
        return out


def observation_state(setup, Y, g_n, k_inv_g):
    """Observation state of one flux iterate: (K^-1 Y, E, f).

    K^-1 Y is zero on the boundary, so psi(u) = K^-1 Y u + K^-1 g keeps the
    boundary flux of the lift ``k_inv_g``; E = C0 K^-1 Y and
    f = g_n - C0 K^-1 g, so E u - f = C0 psi(u) - g_n.
    """
    k_inv_y = setup.fact.solve_multi(Y)
    return k_inv_y, setup.c0 @ k_inv_y, g_n - setup.c0 @ k_inv_g


def reconstruct(setup, measurements, reg, use_internal=True, tol=1e-6,
                max_iter=30, warm_start=None):
    """Fixed-point reconstruction of (psi, domain, A, B, lambda[, n_e]),
    returned as an :class:`~gsrecon.forward.Equilibrium`.

    Measurement vectors whose lengths do not match the setup raise
    :class:`MeasurementCountError` before the loop.  Any other
    :class:`GsReconError` raised by an iteration, or by the domain search
    on the final flux, comes back as ``result.error``: ``psi`` is then the
    iterate reached, ``iterations`` counts the failing one, ``domain`` is
    None and ``costs`` is empty.  Non-convergence (the real-time regime
    truncates the loop on purpose) is reported by ``converged``.

    A warm start's last A and B coefficients are read as zero, as A(1) =
    B(1) = 0 pins them.  ``lam`` is the scale of ``profiles``: the last
    iteration's u is returned rescaled to max|a| = 1, with lam * u kept.
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
    w = np.repeat([weights.w_mag, weights.w_polar],
                  [setup.c0.shape[0], n_c if use_internal else 0])
    k_inv_g = setup.fact.lift(ms.g_d)
    chords, free = setup.chord_geoms, setup.free_idx

    if warm_start is not None:
        psi = np.array(warm_start.psi, dtype=np.float64)
        u = np.concatenate([warm_start.profiles.a, warm_start.profiles.b])
        u[setup.pinned] = 0.0
        lam = warm_start.lam
        ne_coeffs = warm_start.profiles.c
    else:
        psi = np.zeros(mesh.n_nodes)
        exp = first_guess_expansion(basis)
        u = np.concatenate([exp.a, exp.b])
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

        # total-current scale from the previous-iterate profiles (the
        # column sums of Y give the current integral), then dof
        # normalization to pin lambda*u
        Y = assemble_source_matrix(setup.squad, pq, basis)
        lam = lambda_from_integral(
            machine.ip, float(Y.sum(axis=0) @ u[free]), mesh.area())
        u, lam = rescale_dofs(u, lam)
        Y *= lam
        lam_history.append(lam)

        k_inv_y, E, f = observation_state(setup, Y, ms.g_n, k_inv_g)
        b_int = None
        if use_internal:
            b_int, G = build_interferometry_matrix(chords, basis,
                                                   psibar_nodal)
            ne_coeffs = identify_ne(b_int, ms.gamma, weights.w_inter,
                                    reg.eps_ne, reg.alpha_scale,
                                    setup.lam_block)
            observe = build_polarimetry_observer(chords, G, ne_coeffs)
            E = np.vstack([E, observe(k_inv_y)])
            f = np.concatenate([f, ms.alpha - observe(k_inv_g)])
        u = identify_ab(E, f, w, reg.eps, setup.lam_full, free)
        last = (w * (E @ u[free] - f), b_int)
        return k_inv_y @ u[free] + k_inv_g

    error = domain = None
    try:
        psi = picard(step, psi, tol, max_iter, residuals)
        domain = make_plasma_domain(mesh, psi)
    except GsReconError as exc:
        error = str(exc)
    converged = error is None and bool(residuals) and residuals[-1] <= tol

    u, lam = rescale_dofs(u, lam)
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
    return Equilibrium(psi, domain, profiles, lam, machine, residuals,
                       converged, iterations, lam_history, costs, error)
