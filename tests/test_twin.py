import csv
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from gsrecon import twin
from gsrecon.errors import GsReconError, MeasurementCountError
from gsrecon.inverse import RegularizationConfig
from gsrecon.twin import (l_curve, perturb, replicate_stats,
                          synthesize_measurements, write_lcurve_csv,
                          write_stats_csv)


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
    assert seen == [dataclasses.replace(reg, eps=1e-3)]


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
