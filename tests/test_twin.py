import csv
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import gsrecon
from gsrecon import twin
from gsrecon.diagnostics import profile_table
from gsrecon.errors import GsReconError, MeasurementCountError
from gsrecon.forward import forward_fixed_point
from gsrecon.inverse import (ReconstructionSetup, RegularizationConfig,
                             reconstruct)
from gsrecon.twin import (l_curve, l_curve_ab, l_curve_ne, perturb,
                          replicate_stats, synthesize_measurements,
                          write_lcurve_csv, write_stats_csv)

from conftest import CHORDS, LIMITER, a_ref, b_ref


def test_synthesized_measurements_match_equilibrium(setup, reference_eq,
                                                    clean_measurements):
    ms = clean_measurements
    np.testing.assert_array_equal(
        ms.g_d, reference_eq.psi[setup.mesh.boundary])
    np.testing.assert_allclose(ms.g_n, setup.c0 @ reference_eq.psi)
    assert ms.ip == reference_eq.machine.ip
    assert len(ms.gamma) == len(setup.chord_geoms)
    assert np.all(ms.gamma > 0)          # all chords cross the plasma
    assert np.any(ms.alpha != 0.0)


def test_synthesize_without_density_zeroes_chords(setup, reference_eq):
    ms = synthesize_measurements(setup, reference_eq)
    assert np.all(ms.gamma == 0.0) and np.all(ms.alpha == 0.0)


def test_perturb_deterministic_under_seed(clean_measurements):
    a = perturb(clean_measurements, 0.01, seed=42)
    b = perturb(clean_measurements, 0.01, seed=42)
    c = perturb(clean_measurements, 0.01, seed=43)
    np.testing.assert_array_equal(a.g_n, b.g_n)
    assert np.any(a.g_n != c.g_n)


@pytest.mark.parametrize("rate", [-0.01, np.nan, np.inf])
def test_perturb_rejects_bad_rate(clean_measurements, rate):
    with pytest.raises(ValueError, match=f"noise rate .* got {rate}"):
        perturb(clean_measurements, rate)


def test_replicate_stats_shapes_and_determinism(setup, clean_measurements):
    kwargs = dict(n_replicates=3, seed=99, use_internal=False)
    run = lambda: replicate_stats(setup, clean_measurements,
                                  RegularizationConfig(), [5e-2], **kwargs)
    s1, = run()
    s2, = run()
    assert s1.n_requested == 3
    assert s1.n_converged + s1.n_failed == 3
    assert len(s1.grid) == len(s1.mean["j_mean"]) == len(s1.std["q"])
    np.testing.assert_array_equal(s1.mean["lambdaA"], s2.mean["lambdaA"])
    assert np.all(s1.std["lambdaA"] >= 0.0)


def test_replicate_stats_checks_grid_first(setup, clean_measurements,
                                           monkeypatch):
    calls = []
    monkeypatch.setattr(twin, "reconstruct", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="profile table needs"):
        replicate_stats(setup, clean_measurements, RegularizationConfig(),
                        [5e-2], n_replicates=1, n_grid=3)
    assert calls == []


@pytest.mark.parametrize("n", [0, -1])
def test_replicate_stats_needs_a_replicate(setup, clean_measurements,
                                           monkeypatch, n):
    # checked before the clean run, which would otherwise be wasted
    calls = []
    monkeypatch.setattr(twin, "reconstruct", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="n_replicates must be at least 1"):
        replicate_stats(setup, clean_measurements, RegularizationConfig(),
                        [5e-2], n_replicates=n)
    assert calls == []


def test_replicate_stats_raises_input_errors(setup, clean_measurements):
    # a measurement count that does not match the setup is an input
    # error, not three failed replicates
    ms = dataclasses.replace(clean_measurements,
                             g_n=np.append(clean_measurements.g_n, 0.0))
    with pytest.raises(MeasurementCountError, match="gN has"):
        replicate_stats(setup, ms, RegularizationConfig(), [5e-2],
                        n_replicates=3, use_internal=False)


def test_replicate_stats_keeps_other_parameters(setup, clean_measurements,
                                                monkeypatch):
    seen = []

    def reconstruct(setup, ms, cfg, **kwargs):
        seen.append(cfg)
        return SimpleNamespace(converged=False)

    monkeypatch.setattr(twin, "reconstruct", reconstruct)
    reg = RegularizationConfig(eps_ne=3e-2, alpha_scale=2e19)
    with pytest.raises(GsReconError, match="all 1 replicates failed"):
        replicate_stats(setup, clean_measurements, reg, [1e-3],
                        n_replicates=1)
    # the clean run, then the replicate
    assert seen == [dataclasses.replace(reg, eps=1e-3)] * 2


def _recording_reconstruct(monkeypatch, clean_converged):
    """Replace twin.reconstruct by a recorder of its arguments and results
    whose first (clean) run converges as asked and whose replicates fail."""
    calls, results = [], []

    def reconstruct(setup, ms, cfg, **kwargs):
        calls.append((ms, cfg, kwargs))
        results.append(SimpleNamespace(
            converged=clean_converged and len(results) == 0))
        return results[-1]

    monkeypatch.setattr(twin, "reconstruct", reconstruct)
    return calls, results


@pytest.mark.parametrize("use_internal", [False, True])
def test_replicate_stats_clean_run_uses_replicate_settings(
        setup, clean_measurements, monkeypatch, use_internal):
    calls, _ = _recording_reconstruct(monkeypatch, clean_converged=True)
    reg = RegularizationConfig(eps_ne=3e-2)
    with pytest.raises(GsReconError, match="all 2 replicates failed"):
        replicate_stats(setup, clean_measurements, reg, [1e-3],
                        n_replicates=2, use_internal=use_internal,
                        tol=3e-5, max_iter=11)
    (ms0, cfg0, kw0), *reps = calls
    assert ms0 is clean_measurements
    assert cfg0 == dataclasses.replace(reg, eps=1e-3)
    assert kw0 == dict(use_internal=use_internal, tol=3e-5, max_iter=11)
    assert len(reps) == 2
    for ms, cfg, kw in reps:
        assert ms is not clean_measurements and cfg == cfg0
        assert {k: kw[k] for k in kw0} == kw0


@pytest.mark.parametrize("clean_converged", [True, False])
def test_replicate_stats_start_rule(setup, clean_measurements, monkeypatch,
                                    clean_converged):
    # a converged clean run reaches every replicate as its warm start; one
    # that did not converge leaves every replicate cold
    calls, results = _recording_reconstruct(monkeypatch, clean_converged)
    with pytest.raises(GsReconError, match="all 3 replicates failed"):
        replicate_stats(setup, clean_measurements, RegularizationConfig(),
                        [1e-2], n_replicates=3)
    assert len(calls) == 4 and "warm_start" not in calls[0][2]
    start = results[0] if clean_converged else None
    assert all(kw["warm_start"] is start for _, _, kw in calls[1:])


def test_replicate_stats_builds_one_cold_first_iteration(
        twin_mesh, machine, basis, clean_measurements, monkeypatch):
    # every clean run comes before any replicate, so a three-eps call builds
    # the cold first iteration once (then holds it for the other two clean
    # runs) and one warm first iteration per eps; the statistics are those
    # of a call that builds every first iteration anew, bit for bit
    builds = {"cold": 0, "warm": 0}
    real = ReconstructionSetup.first_iteration

    def counted(self, psi, *args):
        held = self._first
        out = real(self, psi, *args)
        if self._first is not held:
            builds["warm" if psi.any() else "cold"] += 1
        return out

    def uncached(self, *args):
        self._first = None
        return real(self, *args)

    runs = []
    for first_iteration in (counted, uncached):
        monkeypatch.setattr(ReconstructionSetup, "first_iteration",
                            first_iteration)
        runs.append(replicate_stats(
            ReconstructionSetup(twin_mesh, machine, CHORDS, basis=basis),
            clean_measurements, RegularizationConfig(), [1e-2, 5e-2, 1e-1],
            n_replicates=2, seed=5, use_internal=False))
        if first_iteration is counted:
            assert builds == {"cold": 1, "warm": 3}
    for st, ref in zip(*runs):
        assert st.warm_start and (st.n_converged, st.n_failed) == (2, 0)
        for k in twin.PROFILE_KEYS:
            for kind in ("mean", "median", "std"):
                assert (getattr(st, kind)[k].tobytes()
                        == getattr(ref, kind)[k].tobytes()), (st.eps, k)


def test_replicate_with_non_finite_flux_counts_as_failed(
        setup, clean_measurements, monkeypatch):
    # the table refuses a flux with a NaN node by a typed error, which the
    # statistics count as a failed replicate
    calls = []

    def nan_second_replicate(*args, **kwargs):
        res = reconstruct(*args, **kwargs)
        calls.append(res)
        if len(calls) == 3:
            psi = res.psi.copy()
            psi[np.argmax(psi) - 1] = np.nan
            res = dataclasses.replace(res, psi=psi)
        return res

    monkeypatch.setattr(twin, "reconstruct", nan_second_replicate)
    st, = replicate_stats(setup, clean_measurements, RegularizationConfig(),
                          [5e-2], n_replicates=3, use_internal=False)
    assert (st.n_failed, st.n_converged) == (1, 2)


@pytest.mark.parametrize("use_internal, eps_ne", [(False, 1e-2),
                                                  (True, 2e-1)])
def test_warm_started_statistics_match_cold_starts(
        setup, clean_measurements, use_internal, eps_ne):
    # the warm start changes only where each replicate's fixed-point
    # iteration starts: cold reconstructions of the same perturbed sets
    # give the same statistics to far below their spread.  Measured on
    # this set-up (criterion 6's, 4 replicates, seed 777): every mean moved
    # by at most 5.4e-4 of its std, every std by at most 4.4e-4 relative;
    # the bounds are about 9x those.
    reg = RegularizationConfig(eps=5e-2, eps_ne=eps_ne)
    n, seed = 4, 777
    st, = replicate_stats(setup, clean_measurements, reg, [5e-2],
                          n_replicates=n, seed=seed,
                          use_internal=use_internal)
    assert st.warm_start and st.n_converged == n
    tables = []
    for child in np.random.SeedSequence(seed).spawn(n):
        res = reconstruct(setup, perturb(clean_measurements, 0.01, child),
                          reg, use_internal=use_internal, tol=1e-6,
                          max_iter=25)
        assert res.converged
        tables.append(profile_table(setup.mesh, res.psi, res.domain,
                                    res.profiles, res.lam, setup.machine))
    for k in twin.PROFILE_KEYS:
        cold = np.array([t[k] for t in tables])
        mean, std = cold.mean(axis=0), cold.std(axis=0)
        np.testing.assert_array_equal(np.isfinite(st.mean[k]),
                                      np.isfinite(mean))
        spread = np.isfinite(mean) & (std > 0)
        assert np.all(np.abs(st.mean[k] - mean)[spread]
                      <= 5e-3 * std[spread]), k
        assert np.all(np.abs(st.std[k] - std)[spread]
                      <= 4e-3 * std[spread]), k


def test_stats_csv_roundtrip(tmp_path, setup, clean_measurements):
    st, = replicate_stats(setup, clean_measurements, RegularizationConfig(),
                          [5e-2], n_replicates=2, seed=1, use_internal=False)
    path = tmp_path / "stats.csv"
    write_stats_csv(path, st)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "psibar"
    assert len(rows) == 1 + len(st.grid)


def _toy_lcurve_solver(noise=1.0, signal=10.0):
    # scalar Tikhonov problem: misfit rises and penalty falls with eps,
    # trading off around eps ~ noise/signal
    def solver(eps):
        shrink = 1.0 / (1.0 + eps / 1e-2)
        misfit = (signal * (1.0 - shrink)) ** 2 + noise ** 2
        penalty = (signal * shrink) ** 2
        return misfit, penalty
    return solver


def test_l_curve_finds_corner_of_toy_problem():
    grid = np.logspace(-5, 1, 25)
    res = l_curve(_toy_lcurve_solver(), grid)
    assert not res.flat
    assert 1e-4 <= res.corner_eps <= 1.0
    assert res.corner_eps == res.eps[res.corner_index]
    # arms are monotone: misfit grows, penalty shrinks with eps
    assert np.all(np.diff(res.x) >= -1e-12)
    assert np.all(np.diff(res.y) <= 1e-12)


def test_l_curve_flat_flag_for_insensitive_misfit():
    grid = np.logspace(-5, 1, 25)
    res = l_curve(lambda eps: (1.0, 1.0 / eps), grid)
    assert res.flat


def test_l_curve_needs_three_points():
    with pytest.raises(ValueError):
        l_curve(_toy_lcurve_solver(), [1e-3, 1e-2])


def test_lcurve_csv_roundtrip(tmp_path):
    res = l_curve(_toy_lcurve_solver(), np.logspace(-5, 1, 13))
    path = tmp_path / "lcurve.csv"
    write_lcurve_csv(path, res)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "log_misfit", "log_penalty", "is_corner"]
    corners = [int(r[3]) for r in rows[1:]]
    assert sum(corners) == 1


def test_boundary_length_computed_once_per_mesh(machine, basis, ne_coeffs,
                                                monkeypatch):
    # reconstruct and both L-curves weigh the magnetic rows by the boundary
    # length, which the mesh computes on the first call and then keeps
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 12, 12,
                                   limiter=LIMITER)
    eq = forward_fixed_point(mesh, machine, a_ref, b_ref,
                             np.zeros(len(mesh.boundary)), basis=basis)
    setup = ReconstructionSetup(mesh, machine, CHORDS, basis=basis)
    ms = synthesize_measurements(setup, eq, ne_coeffs)
    pts = mesh.nodes[mesh.boundary]
    d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    ref = float(np.hypot(d[:, 0], d[:, 1]).sum())
    calls = []

    class CountingNumpy:
        """numpy for gsrecon.mesh, counting np.hypot: within mesh methods
        not cached by the set-up, only boundary_length calls it."""

        def __getattr__(self, name):
            return getattr(np, name)

        def hypot(self, *args):
            calls.append(args)
            return np.hypot(*args)

    monkeypatch.setattr(gsrecon.mesh, "np", CountingNumpy())
    grid = np.logspace(-3, -1, 3)
    for _ in range(2):
        reconstruct(setup, ms, RegularizationConfig(), tol=0.0, max_iter=1)
        l_curve_ne(setup, ms, eq, grid)
        l_curve_ab(setup, ms, eq, grid)
    assert len(calls) == 1
    assert mesh.boundary_length() == ref and len(calls) == 1
