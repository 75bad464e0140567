"""Twin-experiment orchestration: synthetic measurements, noise
replication statistics and L-curve selection of the regularization
parameter."""

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import TABLE_GRID, profile_table
from .errors import ConvergenceError, GsReconError
from .inverse import flux_state, identify_ab, identify_ne, reconstruct
from .observation import (MeasurementSet, build_interferometry_matrix,
                          build_polarimetry_observer)
from .textio import write_rows

PROFILE_KEYS = ("lambdaA", "lambdaB_weighted", "j_mean", "q", "ne")


def synthesize_measurements(setup, eq, ne_coeffs=None):
    """Exact synthetic measurements from a converged reference equilibrium."""
    if eq.domain is None:
        raise ValueError(f"no plasma domain to measure: {eq.error}")
    if ne_coeffs is not None and len(ne_coeffs) != setup.basis.m:
        raise ValueError(f"{len(ne_coeffs)} ne_coeffs, need {setup.basis.m}")
    mesh = setup.mesh
    psibar = eq.domain.normalize(eq.psi)
    g_d = eq.psi[mesh.boundary]
    g_n = setup.c0 @ eq.psi
    n_c = len(setup.chord_geoms)
    if ne_coeffs is not None and n_c > 0:
        chords = setup.chord_geoms
        b_int, G = build_interferometry_matrix(chords, setup.basis, psibar)
        gamma = b_int @ ne_coeffs
        alpha = build_polarimetry_observer(chords, G, ne_coeffs,
                                           chords.D @ eq.psi)
    else:
        gamma, alpha = np.zeros(n_c), np.zeros(n_c)
    return MeasurementSet(g_d, g_n, gamma, alpha, eq.machine.ip,
                          eq.machine.b0, gn_points=setup.gn_points)


def perturb(ms, rate=0.01, seed=0):
    """Measurement set whose every g_D, g_N, gamma and alpha value m becomes
    m + eta, eta ~ N(0, (rate*|m|)^2) from ``np.random.default_rng(seed)``
    (``seed`` an int or a :class:`numpy.random.SeedSequence`).  Ip, B0 and
    the gN points are kept, so warm starts share the Ip-keyed memo."""
    if not 0 <= rate < np.inf:
        raise ValueError(f"noise rate must be finite and nonnegative, "
                         f"got {rate}")
    if rate == 0:
        return replace(ms)
    rng = np.random.default_rng(seed)

    def noisy(arr):
        return arr + rng.standard_normal(arr.shape) * rate * np.abs(arr)

    return replace(ms, g_d=noisy(ms.g_d), g_n=noisy(ms.g_n),
                   gamma=noisy(ms.gamma), alpha=noisy(ms.alpha))


@dataclass
class ReplicateStats:
    eps: float
    grid: np.ndarray
    mean: dict
    median: dict
    std: dict
    n_requested: int
    n_converged: int
    n_failed: int
    warm_start: bool         # replicates started from the clean reconstruction


def replicate_stats(setup, ms_clean, reg, eps_values, n_replicates=50,
                    rate=0.01, seed=12345, use_internal=True, tol=1e-6,
                    max_iter=25):
    """Reconstruction statistics over randomly perturbed measurement sets.

    Runs n_replicates reconstructions per regularization value; replicates
    that fail to converge are excluded from the statistics and counted,
    and :class:`ConvergenceError` is raised when every replicate of an eps
    fails.  An ``n_replicates`` below 1 raises ValueError up front; a
    measurement count error from :func:`reconstruct` propagates.

    Start rule: each eps first reconstructs ``ms_clean`` with the
    replicates' settings, every eps before any replicate, so that the setup
    computes their shared cold first iteration once.  When that clean run
    converges, every replicate of the eps is warm-started from it (the
    real-time regime's start from an equilibrium already found); otherwise
    every replicate starts cold.  The rule is the same for any
    ``n_replicates``, and ``ReplicateStats.warm_start`` records which start
    was taken.  Against cold starts the statistics move far below their
    noise (every mean by under 1e-3 of its std on the 20x20 twin) while
    each replicate needs about half the Picard iterations.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be at least 1")
    results = []
    ss = np.random.SeedSequence(seed)
    child_seeds = ss.spawn(len(eps_values) * n_replicates)
    cfgs = [replace(reg, eps=eps) for eps in eps_values]
    cleans = [reconstruct(setup, ms_clean, cfg, use_internal=use_internal,
                          tol=tol, max_iter=max_iter) for cfg in cfgs]
    for ei, (eps, cfg, clean) in enumerate(zip(eps_values, cfgs, cleans)):
        start = clean if clean.converged else None
        samples = {k: [] for k in PROFILE_KEYS}
        n_ok = 0
        n_fail = 0
        for rep in range(n_replicates):
            ms = perturb(ms_clean, rate, child_seeds[ei * n_replicates + rep])
            res = reconstruct(setup, ms, cfg, use_internal=use_internal,
                              tol=tol, max_iter=max_iter, warm_start=start)
            if not res.converged:
                n_fail += 1
                continue
            try:
                table = profile_table(setup.mesh, res.psi, res.domain,
                                      res.profiles, res.lam, res.machine)
            except GsReconError:
                n_fail += 1
                continue
            for k in PROFILE_KEYS:
                samples[k].append(table[k])
            n_ok += 1
        if n_ok == 0:
            raise ConvergenceError(
                f"all {n_replicates} replicates failed at eps={eps:g}")
        stats = ReplicateStats(
            eps, TABLE_GRID,
            {k: np.mean(samples[k], axis=0) for k in PROFILE_KEYS},
            {k: np.median(samples[k], axis=0) for k in PROFILE_KEYS},
            {k: np.std(samples[k], axis=0) for k in PROFILE_KEYS},
            n_replicates, n_ok, n_fail, start is not None)
        results.append(stats)
    return results


def write_stats_csv(path, stats):
    cols = {f"{kind}_{k}": getattr(stats, kind)[k] for k in PROFILE_KEYS
            for kind in ("mean", "median", "std")}
    write_rows(path, [["psibar", *cols], *zip(stats.grid, *cols.values())],
               table=True)


# ---------------------------------------------------------------------------
# L-curve
# ---------------------------------------------------------------------------

@dataclass
class LCurveResult:
    eps: np.ndarray
    x: np.ndarray            # log misfit
    y: np.ndarray            # log penalty
    corner_eps: float
    corner_index: int
    flat: bool               # corner location unreliable (near-vertical L)


FLAT_SPAN = 0.3


def l_curve(solver, eps_grid):
    """Parametric L-curve over a log-spaced grid of regularization values.

    ``solver(eps)`` must return (misfit, penalty).  The corner is the point
    of maximum curvature of (log misfit, log penalty) parametrized by
    log eps (Hansen's criterion).  The flat flag is raised when the misfit
    barely varies over the whole scan (log span below ``FLAT_SPAN``): the
    curve is then a near-vertical line and its corner is uninformative.
    The grid ascends or descends strictly (the finite differences in
    log eps need that); ValueError before any solve otherwise.
    """
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    d = np.diff(eps_grid)
    if len(eps_grid) < 3 or not (np.all((eps_grid > 0) & (eps_grid < np.inf))
                                 and (np.all(d > 0) or np.all(d < 0))):
        raise ValueError(f"need 3 or more finite eps > 0 in strictly "
                         f"monotone order, got {eps_grid}")
    pts = np.array([solver(e) for e in eps_grid])
    x = np.log(np.maximum(pts[:, 0], 1e-300))
    y = np.log(np.maximum(pts[:, 1], 1e-300))
    t = np.log(eps_grid)
    dx, dy = np.gradient(x, t), np.gradient(y, t)
    ddx, ddy = np.gradient(dx, t), np.gradient(dy, t)
    speed = dx ** 2 + dy ** 2
    denom = speed ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (dx * ddy - dy * ddx) / denom
    kappa = np.where(np.isfinite(kappa), kappa, 0.0)
    # stagnant stretches (both arms locally flat) carry no corner
    # information and their near-0/0 curvature is numerically unstable
    kappa = np.where(speed > 1e-3 * speed.max(), kappa, 0.0)
    idx = int(np.argmax(kappa))
    flat = bool(x.max() - x.min() < FLAT_SPAN)
    return LCurveResult(eps_grid, x, y, float(eps_grid[idx]), idx, flat)


def l_curves(setup, ms, eq, eps_grid):
    """(density, A/B) L-curves of ``ms`` at the reference equilibrium
    ``eq``, from the state a warm :func:`reconstruct` from eq forms first:
    :func:`flux_state` of eq's flux, domain and free coefficients at the
    measured Ip.  The density fits its interferometry rows B, A and B the
    magnetic rows E against f of :meth:`ReconstructionSetup.data_rows`.  A
    setup without chords or a failed eq raises ValueError before any solve."""
    if len(setup.chord_geoms) == 0:
        raise ValueError("the L-curves need at least one chord")
    if eq.domain is None:
        raise ValueError(f"no plasma domain to scan at: {eq.error}")
    w, w_inter, _, f, _ = setup.data_rows(ms, True)
    u = np.concatenate([eq.profiles.a[:-1], eq.profiles.b[:-1]])
    (_, _, _, E, b_int, _, _), _ = flux_state(setup, eq.psi, eq.domain, u,
                                              True, ms.ip)

    def scan(identify, E, f, w, lam):
        def solver(eps):
            _, misfit, penalty = identify(E, f, w, eps, lam)
            return 0.5 * float(np.sum(misfit ** 2)), 0.5 * penalty
        return l_curve(solver, eps_grid)

    return (scan(identify_ne, b_int, ms.gamma, w_inter, setup.lam_block),
            scan(identify_ab, E, f, w[:len(f)], setup.lam_free))


def write_lcurve_csv(path, result):
    corner = np.arange(len(result.eps)) == result.corner_index
    write_rows(path, [["eps", "log_misfit", "log_penalty", "is_corner"],
                      *zip(result.eps, result.x, result.y, corner)],
               table=True)
