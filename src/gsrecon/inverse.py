"""Profile identification: one penalized least-squares solve for the
density and for A/B, dof rescaling and the full reconstruction fixed
point."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .basis import (ProfileExpansion, SplineBasis, first_guess_expansion,
                    regularization_matrix)
from .errors import (GsReconError, MeasurementCountError,
                     RegularizationError, StateError)
from .forward import (Equilibrium, assemble_source_matrix,
                      lambda_from_integral, mesh_operators, picard)
from .geometry import finite_flux, make_plasma_domain
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


def penalized_lsq(E, f, w, eps, lam, scale=1.0):
    """Minimizer of |w (E scale x - f)|^2 + eps x^T lam x over x.

    ``scale`` nondimensionalizes the unknowns (the density's
    alpha_scale), so the data term and the penalty meet at O(1)
    magnitudes.  Returns (scale x, the weighted residual
    w (E scale x - f), the seminorm x^T lam x).
    """
    E, f = np.asarray(E, dtype=np.float64), np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise StateError("non-finite observation matrix (plasma lost?)")
    et = np.reshape(w, (-1, 1)) * E
    lhs = scale * scale * (et.T @ et) + eps * lam
    try:
        x = np.linalg.solve(lhs, scale * (et.T @ (w * f)))
    except np.linalg.LinAlgError as exc:
        raise RegularizationError(f"penalized normal system singular: {exc}")
    return scale * x, w * (E @ (scale * x) - f), float(x @ lam @ x)


# the two solves keep their own names: perfbench times each one by name
def identify_ne(b_int, gamma, w_inter, eps_ne, lam_block, alpha_scale):
    """Density coefficients from the interferometry rows:
    :func:`penalized_lsq` with the unknowns scaled by ``alpha_scale``."""
    return penalized_lsq(b_int, gamma, w_inter, eps_ne, lam_block, alpha_scale)


def identify_ab(E, f, w, eps, lam_free):
    """A/B coefficients over the free columns of E from the magnetic and
    polarimetric rows: :func:`penalized_lsq`."""
    return penalized_lsq(E, f, w, eps, lam_free)


def rescale_dofs(u, lam):
    """Normalize max|a_i| to one, moving the scale into lambda.

    Returns (u, lam), both unchanged when every a_i is zero; u is never the
    caller's array, which the first-iteration memo would freeze.  The product
    lam*u is preserved exactly up to one floating-point division per entry.
    """
    u = np.asarray(u, dtype=np.float64)
    m_hat = np.abs(u[:len(u) // 2]).max()
    if m_hat == 0.0:
        return u.copy(), lam
    return u / m_hat, lam * m_hat


class ReconstructionSetup:
    """Mesh-bound state shared by many reconstructions: the factorized
    stiffness matrix, the boundary observer, chord geometry, the penalty
    matrices and a one-slot memo of :meth:`first_iteration`."""

    def __init__(self, mesh, machine, chords=(), basis=None):
        self.mesh = mesh
        self.machine = machine
        self.basis = basis if basis is not None else SplineBasis(
            end_constraint=True)
        self.fact, self.squad = mesh_operators(mesh, machine.mu0, machine.r0)
        self.c0, self.gn_points = build_neumann_observer(mesh)
        self.chord_geoms = build_chord_geometries(mesh, chords)
        self.lam_block = regularization_matrix(self.basis)
        # A(1)=B(1)=0 pins the last coefficients (of the one basis function
        # alive at x=1): the penalty of the free ones u = (a[:-1], b[:-1])
        self.lam_free = block_diag(*[self.lam_block[:-1, :-1]] * 2)
        self._node_in_limiter = point_in_polygon(mesh.nodes, mesh.limiter)
        self._first = None      # (key, flux_state) of the last first iteration

    def first_iteration(self, psi, domain, u, use_internal):
        """:func:`flux_state` of psi, plasma ``domain`` (found when None) and
        free coefficients u, held in one slot keyed by value (domain by repr)
        and returned as held, every array read-only.  A psi not finite at
        every node raises :class:`DegeneratePlasmaError`; psi = 0, the cold
        start, takes psibar 0 in the limiter and 2 outside."""
        key = (psi.tobytes(), u.tobytes(), repr(domain), use_internal)
        if self._first is None or self._first[0] != key:
            finite_flux(psi)
            if np.linalg.norm(psi) == 0:
                psibar = np.where(self._node_in_limiter, 0.0, 2.0)
            else:
                psibar = (domain or make_plasma_domain(
                    self.mesh, psi)).normalize(psi)
            state = flux_state(self, psibar, u, use_internal)
            for a in (a for a in state[1:] if a is not None):
                a.flags.writeable = False
            self._first = (key, state)
        return self._first[1]


def source_response(setup, Y):
    k_inv_y = setup.fact.solve_multi(Y)
    return k_inv_y, setup.c0 @ k_inv_y


def neumann_target(setup, g_n, k_inv_g):
    return g_n - setup.c0 @ k_inv_g


def observation_state(setup, Y, g_n, k_inv_g):
    """Observation state of one flux iterate: (K^-1 Y, E, f).

    K^-1 Y is zero on the boundary, so psi(u) = K^-1 Y u + K^-1 g keeps the
    boundary flux of the lift ``k_inv_g``; E = C0 K^-1 Y and
    f = g_n - C0 K^-1 g, so E u - f = C0 psi(u) - g_n."""
    return (*source_response(setup, Y), neumann_target(setup, g_n, k_inv_g))


def flux_state(setup, psibar_nodal, u, use_internal):
    """(lam, u, K^-1 Y, E, B, G, D K^-1 Y) of an iteration, free of the
    measurements: lam scales the last free u to Ip by the column sums of the
    source matrix Y of psibar, then both are rescaled; K^-1 Y and E are of
    lam Y, B and G of :func:`build_interferometry_matrix`, D the chords'
    normal derivative (the last three None without ``use_internal``)."""
    Y = assemble_source_matrix(
        setup.squad, setup.squad.psibar_qp(psibar_nodal), setup.basis)
    u, lam = rescale_dofs(u, lambda_from_integral(
        setup.machine.ip, float(Y.sum(axis=0) @ u), setup.mesh.area()))
    Y *= lam
    k_inv_y, E = source_response(setup, Y)
    chord = (None, None, None) if not use_internal else (
        *build_interferometry_matrix(setup.chord_geoms, setup.basis,
                                     psibar_nodal),
        setup.chord_geoms.D @ k_inv_y)
    return (lam, u, k_inv_y, E, *chord)


def reconstruct(setup, measurements, reg, use_internal=True, tol=1e-6,
                max_iter=30, warm_start=None):
    """Fixed-point reconstruction of (psi, domain, A, B, lambda[, n_e]),
    returned as an :class:`~gsrecon.forward.Equilibrium`.

    Measurement vectors whose lengths do not match the setup, or gN points
    (when given) off the setup's boundary nodes by more than 1e-9 of the
    shortest boundary edge, raise :class:`MeasurementCountError`, and a
    warm start not fitting the mesh or basis :class:`StateError`, before
    any solve.  Any other :class:`GsReconError` raised by an iteration, or
    by the domain search on the final flux, comes back as ``result.error``:
    ``psi`` is then the iterate reached, ``iterations`` counts the failing
    one, ``domain`` is None and ``costs`` is empty.  Non-convergence (the
    real-time regime truncates the loop on purpose) is reported by
    ``converged``.

    The first iteration depends only on the start's psi, domain and free
    coefficients a[:-1], b[:-1] (the setup memoizes it; A(1) = B(1) = 0
    pins the last ones to zero): a warm start's ``domain`` is the plasma
    domain of its ``psi``, found when None.  Only psi = 0, the cold start,
    takes the limiter as the first plasma region.  A start psi that is not
    finite at every node, or that is nonzero without an interior flux
    maximum, comes back as ``result.error`` of iteration 1, with the
    start's ``lam``.  ``lam`` is the scale of ``profiles``: the last
    iteration's u is returned rescaled to max|a| = 1, with lam * u kept.
    ``costs`` holds the terms of the last iteration's two solves: J0 and
    J1 are the magnetic and polarimetric rows of 1/2 |W (E u - f)|^2, J2
    the weighted interferometry misfit 1/2 |w (B c - gamma)|^2, and Jeps
    is eps/2 u^T Lambda u of the returned (rescaled) u plus the density
    solve's eps_ne/2 v^T Lambda v, v = c / alpha_scale.  A term whose
    solve did not run is 0: a warm start's carried c adds nothing.
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
    if ms.gn_points is not None:
        pts = setup.gn_points
        edge = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T).min()
        if np.shape(ms.gn_points) != pts.shape or not np.all(
                np.abs(ms.gn_points - pts) <= 1e-9 * edge):
            raise MeasurementCountError(
                "gN points are not the boundary nodes of the setup's mesh")
    if warm_start is not None:
        p, psi = warm_start.profiles, np.array(warm_start.psi, dtype=float)
        if psi.shape != (mesh.n_nodes,) or {np.shape(x) for x in (
                p.a, p.b, p.c) if x is not None} != {(basis.m,)}:
            raise StateError(f"warm start: {psi.size} flux values, {len(p.a)} "
                             f"coefficients, not {mesh.n_nodes} and {basis.m}")
        lam = warm_start.lam
    else:
        p, psi, lam = first_guess_expansion(basis), np.zeros(mesh.n_nodes), 1.0
    # the free coefficients; a warm start's c is carried and adds no cost
    u, ne_coeffs = np.concatenate([p.a[:-1], p.b[:-1]]), p.c
    weights = default_weights(ms, mesh.boundary_length())
    w = np.repeat([weights.w_mag, weights.w_polar],
                  [setup.c0.shape[0], n_c if use_internal else 0])
    k_inv_g = setup.fact.lift(ms.g_d)
    f_mag = neumann_target(setup, ms.g_n, k_inv_g)
    dk_inv_g = setup.chord_geoms.D @ k_inv_g if use_internal else None

    residuals, lam_history = [], []
    iterations, last = 0, None

    def step(psi_in):
        nonlocal psi, iterations, u, lam, ne_coeffs, last
        psi, iterations = psi_in, iterations + 1
        lam, u, k_inv_y, E, b_int, G, dk = (setup.first_iteration(
            psi, getattr(warm_start, "domain", None), u, use_internal)
            if iterations == 1 else flux_state(setup, make_plasma_domain(
                mesh, psi).normalize(psi), u, use_internal))
        lam_history.append(lam)
        f, ne_misfit, ne_seminorm = f_mag, np.zeros(0), 0.0
        if use_internal:
            ne_coeffs, ne_misfit, ne_seminorm = identify_ne(
                b_int, ms.gamma, weights.w_inter, reg.eps_ne,
                setup.lam_block, reg.alpha_scale)
            polar = build_polarimetry_observer(setup.chord_geoms, G,
                                               ne_coeffs)
            E = np.vstack([E, polar(dk)])
            f = np.concatenate([f, ms.alpha - polar(dk_inv_g)])
        u, misfit, _ = identify_ab(E, f, w, reg.eps, setup.lam_free)
        last = (misfit, ne_misfit, ne_seminorm)
        return k_inv_y @ u + k_inv_g

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
        misfit, ne_misfit, ne_seminorm = last
        n_mag = setup.c0.shape[0]
        costs = {"J0": 0.5 * float(np.sum(misfit[:n_mag] ** 2)),
                 "J1": 0.5 * float(np.sum(misfit[n_mag:] ** 2)),
                 "J2": 0.5 * float(np.sum(ne_misfit ** 2)),
                 "Jeps": 0.5 * reg.eps * float(u @ setup.lam_free @ u)
                 + 0.5 * reg.eps_ne * ne_seminorm}

    a, b = (np.append(x, 0.0) for x in np.split(u, 2))
    profiles = ProfileExpansion(basis, a, b, ne_coeffs)
    return Equilibrium(psi, domain, profiles, lam, machine, residuals,
                       converged, iterations, lam_history, costs, error)
