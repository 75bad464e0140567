"""Profile identification: one penalized least-squares solve for the
density and for A/B, dof rescaling and the full reconstruction fixed
point."""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from .basis import (ProfileExpansion, SplineBasis, first_guess_expansion,
                    regularization_matrix)
from .errors import (GsReconError, MeasurementCountError,
                     RegularizationError, StateError)
from .forward import (Equilibrium, Iteration, assemble_source_matrix,
                      lambda_from_integral, mesh_operators, picard)
from .geometry import finite_flux, make_plasma_domain
from .observation import (build_chord_geometries, build_interferometry_matrix,
                          build_neumann_observer, build_polarimetry_observer,
                          default_weights)


@dataclass
class RegularizationConfig:
    eps: float = 5e-2            # shared by A and B
    eps_ne: float = 1e-2

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.eps, self.eps_ne)):
            raise ValueError("regularization parameters must be positive")


NE_SCALE = 1e19    # density nondimensionalization of the n_e solve, m^-3


def penalized_lsq(E, f, w, eps, lam, scale=1.0):
    """Minimizer of |w (E scale x - f)|^2 + eps x^T lam x over x.

    ``scale`` nondimensionalizes the unknowns (the density's
    :data:`NE_SCALE`), so the data term and the penalty meet at O(1)
    magnitudes.  Returns (scale x, the weighted residual
    w (E scale x - f), the seminorm x^T lam x).
    """
    E, f = np.asarray(E, dtype=np.float64), np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise StateError("non-finite observation matrix (plasma lost?)")
    et = np.reshape(w, (-1, 1)) * E
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = scale * scale * (et.T @ et) + eps * lam
        try:
            x = np.linalg.solve(lhs, scale * (et.T @ (w * f)))
        except np.linalg.LinAlgError as exc:
            raise RegularizationError(f"penalized normal system singular: "
                                      f"{exc}")
        v, misfit, seminorm = scale * x, w * (E @ (scale * x) - f), x @ lam @ x
        if not (np.isfinite(v).all() and np.isfinite(misfit @ misfit)
                and np.isfinite(seminorm)):
            raise RegularizationError("penalized least squares overflow at "
                                      "this data scale")
    return v, misfit, float(seminorm)


# the two solves keep their own names: perfbench times each one by name
def identify_ne(b_int, gamma, w_inter, eps_ne, lam_block):
    """Density coefficients from the interferometry rows:
    :func:`penalized_lsq` with the unknowns scaled by :data:`NE_SCALE`."""
    return penalized_lsq(b_int, gamma, w_inter, eps_ne, lam_block, NE_SCALE)


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
    stiffness matrix, the boundary observer C0 with its points and their
    tolerance ``gn_tol`` (1e-9 of the shortest boundary edge), chord
    geometry, ``c0_d``, C0 stacked over the chord-normal derivative D
    (both row blocks of one product, each row summed as alone), the
    penalty matrices and a one-slot memo of :meth:`first_iteration`."""

    def __init__(self, mesh, machine, chords=(), basis=None):
        self.mesh = mesh
        self.machine = machine
        self.basis = basis if basis is not None else SplineBasis(
            end_constraint=True)
        self.fact, self.squad = mesh_operators(mesh, machine.r0)
        self.c0, self.gn_points = build_neumann_observer(mesh)
        self.gn_tol = 1e-9 * np.hypot(*(np.roll(self.gn_points, -1, axis=0)
                                        - self.gn_points).T).min()
        self.chord_geoms = build_chord_geometries(mesh, chords)
        self.c0_d = sp.vstack([self.c0, self.chord_geoms.D], format="csr")
        self.lam_block = regularization_matrix(self.basis)
        # A(1)=B(1)=0 pins the last coefficients (of the one basis function
        # alive at x=1): the penalty of the free ones u = (a[:-1], b[:-1])
        self.lam_free = block_diag(*[self.lam_block[:-1, :-1]] * 2)
        self._first = None      # (key, flux_state, domain) of the last one

    def data_rows(self, ms, use_internal):
        """Checked data side of the fit of ``ms``: (w, w_inter, K^-1 g, f,
        D K^-1 g); w weighs the magnetic, then (``use_internal``) the
        polarimetric rows, K^-1 g lifts g_D, f = g_N - C0 K^-1 g.  Counts
        not the setup's (gamma's only with ``use_internal``), or gN points
        off its boundary nodes by over ``gn_tol``, raise
        :class:`MeasurementCountError` before any solve."""
        counts = [("gD", ms.g_d, len(self.mesh.boundary), "boundary nodes"),
                  ("gN", ms.g_n, self.c0.shape[0], "Neumann points")]
        if use_internal:    # MeasurementSet keeps len(alpha) == len(gamma)
            counts.append(("gamma", ms.gamma, len(self.chord_geoms), "chords"))
        for name, values, expected, what in counts:
            if len(values) != expected:
                raise MeasurementCountError(
                    f"{name} has {len(values)} values for {expected} {what}")
        if not np.all(np.abs(ms.gn_points - self.gn_points) <= self.gn_tol):
            raise MeasurementCountError(
                "gN points are not the boundary nodes of the setup's mesh")
        weights = default_weights(ms, self.mesh.boundary_length())
        w = np.repeat([weights.w_mag, weights.w_polar],
                      [len(ms.g_n), len(ms.alpha) if use_internal else 0])
        k_inv_g = self.fact.lift(ms.g_d)
        c0_g, dk_inv_g = np.split(self.c0_d @ k_inv_g, [len(ms.g_n)])
        return w, weights.w_inter, k_inv_g, ms.g_n - c0_g, dk_inv_g

    def first_iteration(self, psi, domain, u, use_internal, ip):
        """:func:`flux_state` of psi, its ``domain`` (found when None; none
        for psi = 0, the cold start, which holds no chord arrays), free
        coefficients u and current ``ip``, held in one slot keyed by value
        (domain by repr; ``use_internal`` only for psi != 0) and returned as
        held, arrays read-only.  A psi not finite at every node raises
        :class:`DegeneratePlasmaError`."""
        cold = np.linalg.norm(psi) == 0
        key = (psi.tobytes(), u.tobytes(), repr(domain),
               use_internal and not cold, ip)
        if self._first is None or self._first[0] != key:
            finite_flux(psi)
            state, domain = flux_state(self, psi, None if cold else domain
                                       or make_plasma_domain(self.mesh, psi),
                                       u, use_internal, ip)
            for a in (a for a in state[1:] if a is not None):
                a.flags.writeable = False
            self._first = (key, state, domain)
        return self._first[1:]


def flux_state(setup, psi, domain, u, use_internal, ip):
    """((lam, u, K^-1 Y, E, B, G, D K^-1 Y), domain) of an iteration on psi
    normalized by ``domain`` (at ``squad.cold_psibar`` when None, the cold
    start), of the data only through their current ``ip``: lam scales the
    last free u to ``ip`` by the column sums of the source matrix Y of
    psibar, then both are rescaled; K^-1 Y and E are of lam Y, B and G of
    :func:`build_interferometry_matrix`, D the chords' normal derivative
    (the last three None for the cold start or without ``use_internal``;
    else E and D K^-1 Y are the row blocks of ``setup.c0_d @ K^-1 Y``).
    K^-1 Y is zero on the boundary: E u - f = C0 psi(u) - g_n, f = g_n -
    C0 K^-1 g of the lift."""
    squad = setup.squad
    psibar = None if domain is None else domain.normalize(psi)
    Y = assemble_source_matrix(squad, squad.cold_psibar if psibar is None
                               else squad.P @ psibar, setup.basis)
    col = np.einsum("ij->j", Y)
    u, lam = rescale_dofs(u, lambda_from_integral(
        ip, float(col @ u), np.abs(col) @ np.abs(u)))
    Y *= lam
    k_inv_y = setup.fact.solve_multi(Y)
    if psibar is None or not use_internal:
        return (lam, u, k_inv_y, setup.c0 @ k_inv_y, None, None, None), domain
    E, dk = np.split(setup.c0_d @ k_inv_y, [setup.c0.shape[0]])
    return (lam, u, k_inv_y, E, *build_interferometry_matrix(
        setup.chord_geoms, setup.basis, psibar), dk), domain


def reconstruct(setup, measurements, reg, use_internal=True, tol=1e-6,
                max_iter=30, warm_start=None):
    """Fixed-point reconstruction of (psi, domain, A, B, lambda[, n_e]):
    an :class:`~gsrecon.forward.Equilibrium` with one
    :class:`~gsrecon.forward.Iteration` record per completed iteration.

    A warm start not fitting the mesh or basis raises :class:`StateError`,
    and measurements not fitting the setup :class:`MeasurementCountError`
    (:meth:`ReconstructionSetup.data_rows`), before any solve.  Any other
    :class:`GsReconError` raised by an iteration, or by the domain search
    on the final flux, comes back as ``result.error``: ``psi`` is then the
    failing iteration's input (or the final flux), ``iterations`` counts
    the failing one, ``domain`` is None and ``costs`` is empty.
    ``converged`` is False after ``max_iter`` iterations (the real-time
    regime truncates the loop on purpose).

    lambda scales the current to the measured ``ip``, and ``machine`` is the
    setup's with the measured Ip and B0.  The first iteration
    depends only on ``ip`` and the start's psi, domain (a warm start's is
    that of its psi, found when None) and free coefficients a[:-1], b[:-1]
    (A(1) = B(1) = 0 pins the last ones); the setup memoizes it.  Only
    psi = 0, the cold start, takes the forward loop's start (the limiter
    region) and fits the magnetic rows only: n_e from iteration 2 on.  A
    psi not finite at every node, or without an interior maximum, fails
    iteration 1.  ``lam`` is the scale of ``profiles``: the last record's u
    (the start's without one) rescaled to max|a| = 1, lam * u kept.  A
    record's ``costs`` are its two solves' terms: J0 and J1 the magnetic
    and polarimetric rows of 1/2 |W (E u - f)|^2, J2 the interferometry
    misfit 1/2 |w (B c - gamma)|^2 and Jeps eps/2 u^T Lambda u of u so
    rescaled plus the density solve's eps_ne/2 v^T Lambda v, v = c /
    NE_SCALE, 0 when that did not run (a warm start's c is carried).
    """
    mesh, basis, ms = setup.mesh, setup.basis, measurements
    machine = replace(setup.machine, ip=ms.ip, b0=ms.b0)
    use_internal = use_internal and len(setup.chord_geoms) > 0
    if warm_start is not None:
        p, psi = warm_start.profiles, np.array(warm_start.psi, dtype=float)
        if psi.shape != (mesh.n_nodes,) or {np.shape(x) for x in (
                p.a, p.b, p.c) if x is not None} != {(basis.m,)}:
            raise StateError(f"warm start: {psi.size} flux values, {len(p.a)} "
                             f"coefficients, not {mesh.n_nodes} and {basis.m}")
    else:
        p, psi = first_guess_expansion(basis), np.zeros(mesh.n_nodes)
    w, w_inter, k_inv_g, f_mag, dk_inv_g = setup.data_rows(ms, use_internal)
    n_mag = len(f_mag)
    start = Iteration(getattr(warm_start, "lam", 1.0), getattr(
        warm_start, "domain", None), np.concatenate([p.a[:-1], p.b[:-1]]), p.c)

    def step(psi, prev):
        (lam, u, k_inv_y, E, b_int, G, dk), domain = (setup.first_iteration(
            psi, start.domain, start.u, use_internal, ms.ip) if prev is None
            else flux_state(setup, psi, make_plasma_domain(mesh, psi),
                            prev.u, use_internal, ms.ip))
        ne_coeffs, f, ne_misfit, ne_seminorm = p.c, f_mag, np.zeros(0), 0.0
        if b_int is not None:
            ne_coeffs, ne_misfit, ne_seminorm = identify_ne(
                b_int, ms.gamma, w_inter, reg.eps_ne, setup.lam_block)
            rows = build_polarimetry_observer(setup.chord_geoms, G, ne_coeffs,
                                              np.column_stack([dk, dk_inv_g]))
            E = np.vstack([E, rows[:, :-1]])
            f = np.concatenate([f, ms.alpha - rows[:, -1]])
        u, misfit, _ = identify_ab(E, f, w[:len(f)], reg.eps, setup.lam_free)
        u_hat = rescale_dofs(u, lam)[0]
        costs = {"J0": 0.5 * float(np.sum(misfit[:n_mag] ** 2)),
                 "J1": 0.5 * float(np.sum(misfit[n_mag:] ** 2)),
                 "J2": 0.5 * float(np.sum(ne_misfit ** 2)),
                 "Jeps": 0.5 * reg.eps * float(u_hat @ setup.lam_free @ u_hat)
                 + 0.5 * reg.eps_ne * ne_seminorm}
        return k_inv_y @ u + k_inv_g, Iteration(lam, domain, u, ne_coeffs,
                                                costs)

    records, error, domain, failed = [], None, None, False
    try:
        psi = picard(step, psi, tol, max_iter, records)
        domain = make_plasma_domain(mesh, psi)
    except GsReconError as exc:     # a failed step's error carries its input
        error, failed = str(exc), hasattr(exc, "psi")
        psi = getattr(exc, "psi", psi)
    end = records[-1] if records else start
    u, lam = rescale_dofs(end.u, end.lam)
    a, b = (np.append(x, 0.0) for x in np.split(u, 2))
    profiles = ProfileExpansion(basis, a, b, end.ne_coeffs)
    converged = error is None and bool(records[-1].residual <= tol)
    return Equilibrium(psi, domain, profiles, lam, machine, records,
                       converged, len(records) + failed, error)
