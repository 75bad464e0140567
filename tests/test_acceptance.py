"""End-to-end acceptance checks for the nine headline capabilities.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured-output section of a failure report) and asserts the stated
tolerances, including the runtime budget of the scenario.
"""

import time

import numpy as np
import pytest

import gsrecon
from gsrecon import fem
from gsrecon.basis import SplineBasis, regularization_matrix
from gsrecon.diagnostics import (extract_contour, flux_surface_average,
                                 integrate_f, profile_table, safety_factor)
from gsrecon.forward import (SourceQuadrature, assemble_source_vector,
                             forward_fixed_point)
from gsrecon.inverse import RegularizationConfig, reconstruct
from gsrecon.twin import l_curve_ab, l_curve_ne, perturb, replicate_stats
from conftest import a_ref, b_ref


def _report(num, name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} — {detail} "
          f"[{elapsed:.1f} s]")
    return ok


def _solve_dirichlet(mesh, exact):
    vals = exact(mesh.nodes[:, 0], mesh.nodes[:, 1])
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh), mesh.boundary)
    fact = fem.factorize(stiff)
    return np.abs(fact.lift(vals[mesh.boundary]) - vals).max()


def test_criterion_1_fem_manufactured_solutions():
    t0 = time.perf_counter()
    mesh20 = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 20, 20)
    e_const = _solve_dirichlet(mesh20, lambda r, z: np.full_like(r, 3.7))
    e_linear = _solve_dirichlet(mesh20, lambda r, z: z)
    e_h = _solve_dirichlet(mesh20, lambda r, z: r ** 2)
    e_h2 = _solve_dirichlet(gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2,
                                                    40, 40),
                            lambda r, z: r ** 2)
    ratio = e_h / e_h2
    dt = time.perf_counter() - t0
    ok = (e_const < 1e-10 and e_linear < 1e-10 and 3.6 <= ratio <= 4.4
          and dt < 5.0)
    assert _report(1, "FEM manufactured solutions", ok,
                   f"const {e_const:.1e}, linear {e_linear:.1e}, "
                   f"h-ratio {ratio:.2f}", dt)


def test_criterion_2_fixed_point_convergence(twin_mesh, machine, basis):
    t0 = time.perf_counter()
    g_d = np.zeros(len(twin_mesh.boundary))
    eq = forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d,
                             basis=basis)
    dt = time.perf_counter() - t0
    tail = np.diff(eq.residuals[-5:])
    ok = (eq.converged and eq.iterations <= 15 and eq.residuals[1] < 0.10
          and np.all(tail < 0) and dt < 30.0)
    assert _report(2, "fixed-point convergence", ok,
                   f"{eq.iterations} iterations, residual(2) "
                   f"{eq.residuals[1]:.4f}, monotone tail {np.all(tail < 0)}",
                   dt)


def test_criterion_3_total_current_invariant(twin_mesh, machine, basis,
                                             reference_eq):
    t0 = time.perf_counter()
    squad = SourceQuadrature(twin_mesh, machine.r0)
    g = basis.greville()
    states = [
        squad.cold_psibar,
        squad.P @ reference_eq.domain.normalize(reference_eq.psi),
        squad.P @ reference_eq.domain.normalize(
            reference_eq.psi * 1.07 + 0.01 * np.abs(reference_eq.psi).max()),
    ]
    profiles = [reference_eq.profiles,
                type(reference_eq.profiles)(basis, 1.0 - g,
                                            0.8 * (1.0 - g))]
    worst = 0.0
    for pq in states:
        x = np.clip(pq, 0.0, 1.0)
        for exp in profiles:
            phi = exp.basis.eval_many(x)
            integral = assemble_source_vector(
                squad, pq, phi @ exp.a, phi @ exp.b).sum()
            lam = machine.ip / integral
            worst = max(worst,
                        abs(lam * integral - machine.ip) / abs(machine.ip))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10
    assert _report(3, "total-current constraint", ok,
                   f"worst relative defect {worst:.2e} over "
                   f"{len(states) * len(profiles)} states", dt)


def test_criterion_4_noise_free_identification(setup, clean_measurements,
                                               reference_table, twin_mesh,
                                               machine):
    t0 = time.perf_counter()
    res = reconstruct(setup, clean_measurements,
                      RegularizationConfig(eps=1e-5), use_internal=False)
    rec = profile_table(twin_mesh, res.psi, res.domain, res.profiles,
                        res.lam, machine)
    ref = reference_table
    errs = {}
    for k in ("lambdaA", "lambdaB_weighted", "j_mean", "q"):
        good = (np.isfinite(ref[k]) & np.isfinite(rec[k])
                & (np.abs(ref[k]) > 1e-3 * np.abs(ref[k]).max()))
        errs[k] = float(np.mean(np.abs(rec[k][good] - ref[k][good])
                                / np.abs(ref[k][good])))
    ab_floor = min(errs["lambdaA"], errs["lambdaB_weighted"])
    dt = time.perf_counter() - t0
    ok = (res.converged
          and errs["lambdaA"] <= 0.10 and errs["lambdaB_weighted"] <= 0.10
          and errs["j_mean"] <= 0.02 and errs["q"] <= 0.02
          and errs["j_mean"] < ab_floor and errs["q"] < ab_floor
          and dt < 60.0)
    assert _report(4, "noise-free identification", ok,
                   "mean rel errors "
                   + ", ".join(f"{k} {v:.4f}" for k, v in errs.items())
                   + f", derived < profile errors "
                   f"{errs['j_mean'] < ab_floor and errs['q'] < ab_floor}",
                   dt)


def test_criterion_5_noisy_magnetics_statistics(setup, clean_measurements,
                                                reference_table):
    t0 = time.perf_counter()
    stats = replicate_stats(setup, clean_measurements,
                            RegularizationConfig(), [1e-2, 1e-1, 1.0],
                            n_replicates=50, use_internal=False)
    ref = reference_table
    details = []
    ok = True
    for st in stats:
        good = np.isfinite(ref["j_mean"]) & np.isfinite(st.mean["j_mean"])
        band_j = float(np.mean(
            (np.abs(ref["j_mean"] - st.mean["j_mean"])
             <= 2.0 * st.std["j_mean"])[good]))
        band_q = float(np.mean(
            (np.abs(ref["q"] - st.mean["q"]) <= 2.0 * st.std["q"])[good]))
        frac = float(np.mean(st.std["j_mean"] < st.std["lambdaA"]))
        ok = ok and band_j >= 0.90 and band_q >= 0.90 and frac >= 0.80
        details.append(f"eps {st.eps:g}: bands j {band_j:.0%} q {band_q:.0%},"
                       f" std(j)<std(A) {frac:.0%},"
                       f" {st.n_converged}/{st.n_requested} converged")
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    assert _report(5, "noisy-magnetics statistics", ok,
                   "; ".join(details), dt)


def test_criterion_6_internal_measurements_improve(setup, clean_measurements):
    t0 = time.perf_counter()
    st_mag, = replicate_stats(setup, clean_measurements,
                              RegularizationConfig(eps=5e-2), [5e-2],
                              n_replicates=50, use_internal=False, seed=777)
    st_int, = replicate_stats(setup, clean_measurements,
                              RegularizationConfig(eps=5e-2, eps_ne=2e-1),
                              [5e-2], n_replicates=50, use_internal=True,
                              seed=777)
    core = st_mag.grid <= 0.5
    spread_mag = float(st_mag.std["lambdaA"][core].mean())
    spread_int = float(st_int.std["lambdaA"][core].mean())
    dt = time.perf_counter() - t0
    ok = spread_int < spread_mag and dt < 600.0
    assert _report(6, "internal-measurement improvement", ok,
                   f"core std of identified profile: magnetics "
                   f"{spread_mag:.3e} vs internal {spread_int:.3e}", dt)


def test_criterion_7_l_curves(setup, clean_measurements, reference_eq,
                              twin_mesh, machine, basis):
    t0 = time.perf_counter()
    ms = perturb(clean_measurements, 0.01, seed=7)
    grid = np.logspace(-5, 0, 21)
    lc = l_curve_ne(setup, ms, reference_eq, grid)
    x_mono = bool(np.all(np.diff(lc.x) >= -1e-9))
    y_mono = bool(np.all(np.diff(lc.y) <= 1e-9))
    lab = l_curve_ab(setup, ms, reference_eq, grid)
    dt = time.perf_counter() - t0
    ok = (1e-3 <= lc.corner_eps <= 1e-1 and not lc.flat and x_mono
          and y_mono and lab.flat and dt < 120.0)
    assert _report(7, "L-curve corner selection", ok,
                   f"density corner {lc.corner_eps:.3g} "
                   f"(monotone arms {x_mono and y_mono}, flat {lc.flat}); "
                   f"profile curve flat flag {lab.flat}", dt)


def test_criterion_8_derived_quantity_identities(twin_mesh, reference_eq,
                                                 machine, basis):
    t0 = time.perf_counter()
    psibar = reference_eq.domain.normalize(reference_eq.psi)
    contours = extract_contour(twin_mesh, psibar, [0.5],
                               reference_eq.domain.axis, psi=reference_eq.psi)
    avg_defect = abs(flux_surface_average(contours,
                                          lambda r, z: 4.25)[0] - 4.25)

    grid = np.linspace(0.0, 1.0, 21)
    b_vals = reference_eq.profiles.basis.eval_many(grid) \
        @ reference_eq.profiles.b
    f_vals = integrate_f(b_vals, reference_eq.lam,
                         reference_eq.domain.psi_a,
                         reference_eq.domain.psi_b, machine.b0, machine.r0,
                         machine.mu0, grid)
    edge_exact = f_vals[-1] == machine.b0 * machine.r0

    lam_mat = regularization_matrix(basis)
    g = basis.greville()
    affine_defect = max(np.abs(lam_mat @ np.ones(basis.m)).max(),
                        np.abs(lam_mat @ (2.0 * g - 0.7)).max())

    q1 = safety_factor(contours, np.array([f_vals[10]]))[0]
    q2 = safety_factor(contours, np.array([2.0 * f_vals[10]]))[0]
    q_ratio = q2 / q1
    dt = time.perf_counter() - t0
    ok = (avg_defect < 1e-12 and edge_exact and affine_defect < 1e-12
          and q_ratio == pytest.approx(2.0, rel=1e-14))
    assert _report(8, "derived-quantity identities", ok,
                   f"constant average defect {avg_defect:.1e}, edge f exact "
                   f"{edge_exact}, affine penalty {affine_defect:.1e}, "
                   f"q doubling ratio {q_ratio:.15f}", dt)


def test_criterion_9_warm_start_realtime(setup, clean_measurements):
    base = reconstruct(setup, clean_measurements, RegularizationConfig(),
                       use_internal=True)
    ms = perturb(clean_measurements, 0.01, seed=7)
    t0 = time.perf_counter()
    res = reconstruct(setup, ms, RegularizationConfig(), use_internal=True,
                      warm_start=base, tol=0.0, max_iter=2)
    dt = time.perf_counter() - t0
    ok = (res.iterations == 2 and res.residuals[-1] <= 5e-3 and dt < 1.0)
    assert _report(9, "warm-start real-time regime", ok,
                   f"residual after 2 iterations {res.residuals[-1]:.2e}",
                   dt)
