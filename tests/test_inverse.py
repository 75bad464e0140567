import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gsrecon
from gsrecon.basis import (SplineBasis, first_guess_expansion,
                           regularization_matrix)
from gsrecon import forward, inverse
from gsrecon.errors import (EmptySourceError, MeasurementCountError,
                            RegularizationError, StateError)
from gsrecon.fem import Factorization
from gsrecon.forward import assemble_source_matrix, assemble_source_vector
from gsrecon.geometry import make_plasma_domain
from gsrecon.inverse import (NE_SCALE, ReconstructionSetup,
                             RegularizationConfig, identify_ab, identify_ne,
                             penalized_lsq, reconstruct, rescale_dofs)
from gsrecon.mesh import PointLocator
from gsrecon.observation import MeasurementSet
from gsrecon.twin import perturb

from conftest import CHORDS, LIMITER, a_ref, b_ref

BASIS = SplineBasis(end_constraint=True)


def test_regularization_config_validation():
    with pytest.raises(ValueError):
        RegularizationConfig(eps=0.0)
    with pytest.raises(ValueError):
        RegularizationConfig(eps_ne=-1.0)


@pytest.mark.parametrize("field", ["eps", "eps_ne"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_regularization_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        RegularizationConfig(**{field: value})


def test_rescale_dofs_preserves_current_scale():
    u = np.array([0.5, 2.0, -1.0, 0.3, 0.1, 0.0])
    lam = 3.0e5
    u2, lam2 = rescale_dofs(u, lam)
    assert np.abs(u2[:3]).max() == pytest.approx(1.0)
    np.testing.assert_allclose(lam2 * u2, lam * u, rtol=1e-14)


def test_rescale_dofs_zero_vector():
    u = np.zeros(6)
    u2, lam2 = rescale_dofs(u, 2.0)
    assert lam2 == 2.0 and np.all(u2 == 0.0)
    # a new array, as for any other u: the memo freezes what it holds
    assert u2 is not u


def test_free_penalty_is_two_pinned_blocks(setup):
    # the A and B curvature blocks without their pinned last rows/columns
    lam, k = regularization_matrix(setup.basis), setup.basis.m - 1
    np.testing.assert_array_equal(setup.lam_free[:k, :k], lam[:k, :k])
    np.testing.assert_array_equal(setup.lam_free[k:, k:], lam[:k, :k])
    assert np.all(setup.lam_free[:k, k:] == 0.0)
    assert np.all(setup.lam_free[k:, :k] == 0.0)


def test_identify_ab_recovers_well_posed_truth(setup):
    rng = np.random.default_rng(5)
    E = rng.normal(size=(60, 2 * BASIS.m - 2))     # the free columns
    u_true = rng.normal(size=E.shape[1])
    w = np.ones(60)
    u, misfit, seminorm = identify_ab(E, E @ u_true, w, 1e-12,
                                      setup.lam_free)
    np.testing.assert_allclose(u, u_true, atol=1e-6)
    np.testing.assert_array_equal(misfit, w * (E @ u - E @ u_true))
    assert seminorm == u @ setup.lam_free @ u


def test_identify_ab_rejects_non_finite(setup):
    E = np.full((10, 2 * BASIS.m - 2), np.nan)
    with pytest.raises(StateError):
        identify_ab(E, np.zeros(10), np.ones(10), 1e-2, setup.lam_free)


def test_identify_rejects_singular_system():
    # a zero matrix with a zero penalty leaves the normal system singular
    k = BASIS.m
    with pytest.raises(RegularizationError):
        identify_ne(np.zeros((5, k)), np.ones(5), 1.0, 1e-2,
                    np.zeros((k, k)))
    with pytest.raises(RegularizationError):
        identify_ab(np.zeros((5, 2 * k - 2)), np.ones(5), np.ones(5), 1e-2,
                    np.zeros((2 * k - 2, 2 * k - 2)))


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 30),
       cols=st.integers(1, 8), eps=st.floats(1e-6, 1e3),
       scale=st.sampled_from([1.0, 1e-3, 1e19]))
def test_penalized_lsq_solves_its_normal_equations(seed, rows, cols, eps,
                                                   scale):
    # data f and weights w as in the density solve: w E scale = O(1)
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(rows, cols))
    f = rng.normal(size=rows) * scale
    w = rng.uniform(0.5, 2.0, rows) / scale
    root = rng.normal(size=(cols, cols))
    lam = root @ root.T + np.eye(cols)         # positive definite
    v, misfit, seminorm = penalized_lsq(E, f, w, eps, lam, scale=scale)
    x = v / scale
    # x solves the normal equations of |w (E scale x - f)|^2 + eps x^T lam x
    # up to the backward error of a pivoted LU solve
    et = scale * w[:, None] * E
    lhs, rhs = et.T @ et + eps * lam, et.T @ (w * f)
    assert (np.abs(lhs @ x - rhs).max()
            <= 1e-12 * np.abs(lhs).max() * np.abs(x).max())
    np.testing.assert_array_equal(misfit, w * (E @ v - f))
    assert seminorm == pytest.approx(x @ lam @ x, rel=1e-12)


def test_identify_ne_recovers_truth():
    rng = np.random.default_rng(7)
    v_true = NE_SCALE * rng.uniform(0.5, 1.5, BASIS.m)
    B = rng.uniform(0.1, 1.0, size=(40, BASIS.m))
    gamma = B @ v_true
    w = 1.0 / (0.01 * np.mean(np.abs(gamma)))
    v, _, _ = identify_ne(B, gamma, w, 1e-12, regularization_matrix(BASIS))
    np.testing.assert_allclose(v, v_true, rtol=1e-6)


def test_identify_ne_regularization_pulls_to_smooth():
    # a strong curvature penalty flattens the recovered profile
    rng = np.random.default_rng(7)
    xs = np.linspace(0, 1, 101)
    v_true = NE_SCALE * BASIS.fit(xs, 1.0 - 0.9 * xs ** 2)
    B = rng.uniform(0.1, 1.0, size=(40, BASIS.m))
    gamma = B @ v_true
    w = 1.0 / (0.01 * np.mean(np.abs(gamma)))
    lam = regularization_matrix(BASIS)
    v_lo = identify_ne(B, gamma, w, 1e-10, lam)[0]
    v_hi = identify_ne(B, gamma, w, 1e4, lam)[0]
    curv = lambda v: (v / NE_SCALE) @ lam @ (v / NE_SCALE)
    assert curv(v_hi) < 0.1 * curv(v_lo)


def test_reconstruct_magnetics_only(setup, clean_measurements, reference_eq):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False)
    assert res.converged
    assert res.error is None
    # the dof rescaling moves profile scale into lambda, so compare the
    # physically meaningful product lambda * A rather than lambda itself
    xs = np.linspace(0.0, 0.8, 17)
    prod_rec = res.lam * res.profiles.basis.eval_many(xs) @ res.profiles.a
    prod_ref = reference_eq.lam * (reference_eq.profiles.basis.eval_many(xs)
                                   @ reference_eq.profiles.a)
    assert np.abs(prod_rec - prod_ref).max() < 0.2 * np.abs(prod_ref).max()
    assert res.profiles.c is None
    assert set(res.costs) == {"J0", "J1", "J2", "Jeps"}
    assert res.costs["J1"] == 0.0 and res.costs["J2"] == 0.0


def test_reconstruct_with_internal_data(setup, clean_measurements,
                                        reference_eq, ne_coeffs, basis):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=True)
    assert res.converged
    assert res.profiles.c is not None
    xs = np.linspace(0.05, 0.95, 19)
    ne_rec = basis.eval_many(xs) @ res.profiles.c
    ne_true = basis.eval_many(xs) @ ne_coeffs
    assert np.abs(ne_rec - ne_true).max() < 0.1 * np.abs(ne_true).max()
    assert res.costs["J1"] >= 0.0 and res.costs["J2"] >= 0.0
    # the density penalty acts on v / NE_SCALE, as in identify_ne
    reg = RegularizationConfig()
    u = np.concatenate([res.profiles.a[:-1], res.profiles.b[:-1]])
    v_hat = res.profiles.c / NE_SCALE
    j_eps = (0.5 * reg.eps * u @ setup.lam_free @ u
             + 0.5 * reg.eps_ne * v_hat @ setup.lam_block @ v_hat)
    assert res.costs["Jeps"] == pytest.approx(j_eps, rel=1e-12)


def test_reconstruct_lambda_is_the_scale_of_profiles(setup,
                                                     clean_measurements):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=True)
    assert res.converged and np.abs(res.profiles.a).max() == 1.0
    # the final rescale moves the last iteration's max|a| into lam
    assert res.lam != res.lam_history[-1]


def test_reconstruct_truncated_is_flagged_not_raised(setup,
                                                     clean_measurements):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, tol=0.0, max_iter=2)
    assert res.iterations == 2
    assert not res.converged
    assert res.error is None
    assert len(res.residuals) == 2


def test_reconstruct_warm_start(setup, clean_measurements):
    base = reconstruct(setup, clean_measurements, RegularizationConfig(),
                       use_internal=False)
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, warm_start=base, max_iter=5)
    assert res.converged
    assert res.iterations <= 2


def test_reconstruct_warm_start_zeroes_pinned_coefficients(
        setup, clean_measurements, reference_eq, ne_coeffs):
    # A(1) = B(1) = 0: a warm start's last A and B coefficients are read as
    # zero, and the caller's coefficients are left as they were
    m = setup.basis.m
    starts = [dataclasses.replace(reference_eq, profiles=dataclasses.replace(
        reference_eq.profiles, a=reference_eq.profiles.a.copy(),
        b=reference_eq.profiles.b.copy(), c=ne_coeffs)) for _ in range(2)]
    pinned, zeroed = (s.profiles for s in starts)
    pinned.a[m - 1], pinned.b[m - 1] = 0.3, -0.2
    zeroed.a[m - 1] = zeroed.b[m - 1] = 0.0
    before = [pinned.a.copy(), pinned.b.copy()]
    one, two = (reconstruct(setup, clean_measurements,
                            RegularizationConfig(), warm_start=start,
                            tol=0.0, max_iter=2) for start in starts)
    assert one.error is None and one.iterations == 2
    for x, y in [(one.psi, two.psi), (one.lam_history, two.lam_history),
                 (one.profiles.a, two.profiles.a),
                 (one.profiles.b, two.profiles.b),
                 (one.profiles.c, two.profiles.c),
                 (one.residuals, two.residuals)]:
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(pinned.a, before[0])
    np.testing.assert_array_equal(pinned.b, before[1])


@pytest.mark.parametrize("use_internal", [False, True],
                         ids=["magnetics", "internal"])
def test_warm_start_domain_is_taken_or_computed(
        tmp_path, setup, clean_measurements, basis, monkeypatch,
        use_internal):
    # the first iteration takes the warm start's domain as the domain of
    # its psi and computes it only when it is None; an equilibrium saved
    # and loaded back carries the same psi_a and psi_b
    reg = RegularizationConfig()
    eq = reconstruct(setup, clean_measurements, reg,
                     use_internal=use_internal)
    gsrecon.save_equilibrium(eq, tmp_path / "eq.txt")
    starts = [eq, dataclasses.replace(eq, domain=None),
              gsrecon.load_equilibrium(tmp_path / "eq.txt", setup.mesh,
                                       basis)]
    calls = []

    def counted(mesh, psi):
        calls[-1] += 1
        return make_plasma_domain(mesh, psi)

    monkeypatch.setattr(inverse, "make_plasma_domain", counted)
    ms = perturb(clean_measurements, 0.01, seed=11)
    runs = []
    for start in starts:
        calls.append(0)
        runs.append(reconstruct(setup, ms, reg, use_internal=use_internal,
                                warm_start=start))
    one = runs[0]
    assert one.converged and one.iterations > 1
    # one domain per iteration after the first, one for the returned psi
    assert calls == [one.iterations, one.iterations + 1, one.iterations]
    for other in runs[1:]:
        assert other.iterations == one.iterations
        for x, y in [(one.psi, other.psi), (one.lam, other.lam),
                     (one.lam_history, other.lam_history),
                     (one.profiles.a, other.profiles.a),
                     (one.profiles.b, other.profiles.b),
                     (one.profiles.c, other.profiles.c),
                     (one.residuals, other.residuals)]:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_reconstruct_lambda_history_tracks_iterations(setup,
                                                      clean_measurements):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, tol=0.0, max_iter=3)
    assert len(res.lam_history) == 3
    assert all(lam > 0 for lam in res.lam_history)


def test_reconstruction_is_an_equilibrium(tmp_path, setup,
                                          clean_measurements, basis):
    # reconstruct returns the forward type, so it saves and loads back
    res = reconstruct(setup, clean_measurements, RegularizationConfig())
    assert isinstance(res, gsrecon.Equilibrium)
    assert res.converged and res.machine == setup.machine
    path = tmp_path / "rec.txt"
    gsrecon.save_equilibrium(res, path)
    back = gsrecon.load_equilibrium(path, setup.mesh, basis)
    np.testing.assert_array_equal(back.psi, res.psi)
    np.testing.assert_array_equal(back.profiles.c, res.profiles.c)
    assert back.lam == res.lam and back.domain.mode == res.domain.mode


def test_converged_is_a_python_bool(setup, clean_measurements):
    # the flag goes into JSON and text files as it is, converged or not
    for max_iter, converged in ((30, True), (2, False)):
        res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                          max_iter=max_iter)
        assert res.converged is converged
        assert json.dumps(res.converged) == str(converged).lower()


def test_saved_reconstruction_keeps_convergence(tmp_path, setup,
                                               clean_measurements, basis):
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      tol=0.0, max_iter=2)
    assert not res.converged and res.iterations == 2
    path = tmp_path / "rec.txt"
    gsrecon.save_equilibrium(res, path)
    back = gsrecon.load_equilibrium(path, setup.mesh, basis)
    assert back.converged is False and back.iterations == 2
    # a file written before the two fields existed loads with the defaults
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith(("converged ", "iterations "))]
    path.write_text("\n".join(lines))
    back = gsrecon.load_equilibrium(path, setup.mesh, basis)
    assert back.converged is True and back.iterations == 0
    # a failed reconstruction has no domain to save; its error says why
    failed = dataclasses.replace(res, domain=None, error="no axis found")
    with pytest.raises(ValueError, match="no axis found"):
        gsrecon.save_equilibrium(failed, tmp_path / "failed.txt")


def test_boundary_flux_shift_shifts_reconstruction(setup, clean_measurements):
    # a constant shift c of the boundary flux leaves g_n, alpha and gamma
    # unchanged: the reconstruction moves by c with the same lambda and
    # coefficients, and its boundary values are exactly g_d + c
    ms = perturb(clean_measurements, 0.01, seed=7)
    boundary = setup.mesh.boundary

    def run(measurements):
        res = reconstruct(setup, measurements, RegularizationConfig(),
                          tol=1e-12, max_iter=100)
        assert res.converged
        return res

    base = run(ms)
    for c in (0.05, -0.05, 0.2):
        res = run(dataclasses.replace(ms, g_d=ms.g_d + c))
        np.testing.assert_array_equal(res.psi[boundary], ms.g_d + c)
        np.testing.assert_allclose(res.psi, base.psi + c, rtol=0,
                                   atol=1e-9 * np.abs(base.psi).max())
        assert res.lam == pytest.approx(base.lam, rel=1e-9)
        for name in ("a", "b", "c"):
            ref = getattr(base.profiles, name)
            np.testing.assert_allclose(getattr(res.profiles, name), ref,
                                       rtol=0, atol=1e-9 * np.abs(ref).max())


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_basis_and_solves(monkeypatch):
    """Counts of eval_many, solve, lift and solve_multi calls, and the
    column count of each solve_multi call."""
    calls = {"eval_many": 0, "solve": 0, "lift": 0, "solve_multi": 0}
    columns = []
    real_solve_multi = Factorization.solve_multi

    def solve_multi(fact, cols):
        columns.append(cols.shape[1])
        return real_solve_multi(fact, cols)

    monkeypatch.setattr(SplineBasis, "eval_many",
                        _counted(calls, "eval_many", SplineBasis.eval_many))
    for name in ("solve", "lift"):
        monkeypatch.setattr(Factorization, name, _counted(
            calls, name, getattr(Factorization, name)))
    monkeypatch.setattr(Factorization, "solve_multi",
                        _counted(calls, "solve_multi", solve_multi))
    return calls, columns


def test_reconstruct_one_basis_evaluation_and_one_solve(
        twin_mesh, machine, basis, clean_measurements, reference_eq,
        monkeypatch):
    # per iteration: one source-matrix assembly (the only basis evaluation
    # on a magnetics-only run), one solve of the 2m - 2 free columns and
    # no single-column solve; the one other solve is the lift K^-1 g
    # before the loop.  A second call from the same (cold) start takes its
    # first iteration from the setup's memo.
    setup = ReconstructionSetup(twin_mesh, machine, CHORDS, basis=basis)
    calls, columns = _count_basis_and_solves(monkeypatch)
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False)
    n = res.iterations
    assert res.converged and n > 2
    assert calls == {"eval_many": n, "solve": 0, "lift": 1, "solve_multi": n}
    assert columns == [2 * setup.basis.m - 2] * n
    calls.update(dict.fromkeys(calls, 0))
    columns.clear()
    again = reconstruct(setup, clean_measurements, RegularizationConfig(),
                        use_internal=False)
    assert again.iterations == n
    assert calls == {"eval_many": n - 1, "solve": 0, "lift": 1,
                     "solve_multi": n - 1}
    assert columns == [2 * setup.basis.m - 2] * (n - 1)

    # lambda comes from the column sums of the unscaled source matrix
    eq = reference_eq
    pq = setup.squad.P @ eq.domain.normalize(eq.psi)
    Y = assemble_source_matrix(setup.squad, pq, setup.basis)
    u = np.concatenate([eq.profiles.a[:-1], eq.profiles.b[:-1]])
    phi = setup.basis.eval_many(pq)
    integral = assemble_source_vector(setup.squad, pq, phi @ eq.profiles.a,
                                      phi @ eq.profiles.b).sum()
    assert Y.sum(axis=0) @ u == pytest.approx(integral, rel=1e-12)


def test_reconstruct_costs_reuse_last_iteration(
        twin_mesh, machine, basis, clean_measurements, monkeypatch):
    # the chord operators are built once per iteration after the cold one,
    # which fits the magnetic rows only, and none for the costs; the basis
    # is evaluated once for the source matrix in each iteration and once at
    # the chord points in each but the cold one.  A second call from the
    # same start takes the first iteration's source matrix and solve from
    # the setup's memo; the polarimetry observer depends on the measured
    # density and is built in every iteration that has chord matrices.
    setup = ReconstructionSetup(twin_mesh, machine, CHORDS, basis=basis)
    counts, columns = _count_basis_and_solves(monkeypatch)
    names = ("build_polarimetry_observer", "build_interferometry_matrix")
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(inverse, name,
                            _counted(calls, name, getattr(inverse, name)))
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=True)
    n = res.iterations
    assert res.converged
    assert calls == dict.fromkeys(names, n - 1)
    assert counts == {"eval_many": 2 * n - 1, "solve": 0, "lift": 1,
                      "solve_multi": n}
    assert columns == [2 * setup.basis.m - 2] * n
    for tally in (calls, counts):
        tally.update(dict.fromkeys(tally, 0))
    columns.clear()
    again = reconstruct(setup, clean_measurements, RegularizationConfig(),
                        use_internal=True)
    assert again.iterations == n
    assert calls == dict.fromkeys(names, n - 1)
    assert counts == {"eval_many": 2 * (n - 1), "solve": 0, "lift": 1,
                      "solve_multi": n - 1}
    assert columns == [2 * setup.basis.m - 2] * (n - 1)


def test_reconstruct_reports_step_failure(setup, clean_measurements,
                                          monkeypatch):
    # a GsReconError inside an iteration comes back through the result,
    # with the iterate, the iteration count and the residuals it reached
    one = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, max_iter=1)
    calls = {"identify_ab": 0}
    real = _counted(calls, "identify_ab", inverse.identify_ab)

    def identify_ab(*args):
        if calls["identify_ab"] == 1:
            raise RegularizationError("singular at iteration 2")
        return real(*args)

    monkeypatch.setattr(inverse, "identify_ab", identify_ab)
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False)
    assert res.error == "singular at iteration 2"
    assert res.iterations == 2 and res.residuals == one.residuals
    assert not res.converged and res.costs == {} and res.domain is None
    # the flux iteration 2 started from: the first step's output
    np.testing.assert_array_equal(res.psi, one.psi)


def test_setup_locates_all_chord_points_in_one_call(machine, monkeypatch):
    # one bin index per mesh, shared by the chord set and the limiter
    # matrix; the limiter points (located by validation) and all chord
    # points go through one array call each
    calls = {"init": 0, "locate": 0}
    init, locate = PointLocator.__init__, PointLocator.locate

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counting_locate(self, *args, **kwargs):
        calls["locate"] += 1
        return locate(self, *args, **kwargs)

    monkeypatch.setattr(PointLocator, "__init__", counting_init)
    monkeypatch.setattr(PointLocator, "locate", counting_locate)
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 20, 20,
                                   limiter=LIMITER)
    assert calls == {"init": 1, "locate": 1}
    ReconstructionSetup(mesh, machine, CHORDS)
    mesh.limiter_matrix()
    assert calls == {"init": 1, "locate": 2}


def _setup12(machine):
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 12, 12,
                                   limiter=LIMITER)
    return ReconstructionSetup(mesh, machine, CHORDS)


def _zero_measurements(setup, n_gd=0, n_gn=0, n_chords=0):
    """All-zero data with the setup's counts, plus the given offsets."""
    n_c = len(setup.chord_geoms) + n_chords
    return MeasurementSet(np.zeros(len(setup.mesh.boundary) + n_gd),
                          np.zeros(setup.c0.shape[0] + n_gn), np.zeros(n_c),
                          np.zeros(n_c), 1.0e6, 2.0)


def test_reconstruct_without_plasma_point_reports_error(machine):
    # a limiter around the node (2.5, 0) that encloses no quadrature point:
    # the cold-start source has no plasma point, which comes back through
    # the result
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 12, 12, limiter=[
        [2.49, -0.01], [2.51, -0.01], [2.51, 0.01], [2.49, 0.01]])
    setup = ReconstructionSetup(mesh, machine, CHORDS)
    assert np.all(setup.squad.cold_psibar == 2.0)
    res = reconstruct(setup, _zero_measurements(setup),
                      RegularizationConfig())
    assert res.error is not None and "quadrature point" in res.error
    assert res.iterations == 1
    assert not res.converged and res.residuals == []


@pytest.mark.parametrize("offsets,name", [
    ({"n_gd": -1}, "gD"), ({"n_gn": -1}, "gN"), ({"n_chords": -1}, "gamma"),
    ({"n_gd": 1}, "gD")])
def test_reconstruct_rejects_measurement_count_mismatch(machine, offsets,
                                                        name):
    setup = _setup12(machine)
    ms = _zero_measurements(setup, **offsets)
    with pytest.raises(MeasurementCountError, match=name):
        reconstruct(setup, ms, RegularizationConfig())


@pytest.mark.parametrize("shift,refused", [(1e-12, False), ("drop", True)])
def test_reconstruct_checks_neumann_points(machine, shift, refused):
    # gN points must be the setup's boundary nodes, to 1e-9 of the shortest
    # boundary edge (1/12 m here); a set without points is not checked
    setup = _setup12(machine)
    pts = setup.gn_points[:-1] if shift == "drop" else setup.gn_points + shift
    ms = dataclasses.replace(_zero_measurements(setup), gn_points=pts)
    if refused:
        with pytest.raises(MeasurementCountError, match="gN points"):
            reconstruct(setup, ms, RegularizationConfig())
    else:
        assert reconstruct(setup, ms, RegularizationConfig(),
                           max_iter=1).iterations == 1


def test_reconstruct_refuses_measurements_of_another_mesh(
        machine, basis, clean_measurements):
    # the 20 x 20 twin's data on a 20 x 20 mesh of a larger box: the counts
    # fit, the points do not
    mesh = gsrecon.build_rect_mesh(1.9, 3.1, -1.3, 1.3, 20, 20,
                                   limiter=LIMITER)
    setup = ReconstructionSetup(mesh, machine, CHORDS, basis=basis)
    with pytest.raises(MeasurementCountError, match="gN points"):
        reconstruct(setup, clean_measurements, RegularizationConfig())


def test_reconstruct_magnetics_only_ignores_chord_count(machine):
    # chord data is not read without internal measurements
    setup = _setup12(machine)
    ms = _zero_measurements(setup, n_chords=-1)
    res = reconstruct(setup, ms, RegularizationConfig(), use_internal=False,
                      max_iter=1)
    assert res.iterations == 1


def test_iteration_counts_do_not_grow(reference_eq, setup,
                                      clean_measurements):
    # the counts the Anderson-mixed driver reaches on the 20 x 20 twin; a
    # driver change that needs more iterations fails here
    assert reference_eq.iterations <= 8
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False)
    assert res.converged and res.iterations <= 9


# ---------------------------------------------------------------------------
# The one cold start
# ---------------------------------------------------------------------------

def _record_sources(monkeypatch, module, name):
    """Make ``module.name`` (a source assembly) append each call's psibar
    argument and a copy of its output to the returned list."""
    seen, real = [], getattr(module, name)

    def wrapper(squad, psibar_qp, *args):
        out = real(squad, psibar_qp, *args)
        seen.append((psibar_qp, out.copy()))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_both_loops_start_from_cold_psibar(fresh_setup, monkeypatch):
    # the forward solve's first source and the cold flux state's source
    # matrix are both taken at the quadrature rule's one cold start
    setup = fresh_setup()
    squad, n = setup.squad, setup.mesh.n_nodes
    seen = _record_sources(monkeypatch, forward, "assemble_source_vector")
    forward.forward_fixed_point(setup.mesh, setup.machine, a_ref, b_ref,
                                np.zeros(len(setup.mesh.boundary)))
    assert seen[0][0] is squad.cold_psibar
    seen = _record_sources(monkeypatch, inverse, "assemble_source_matrix")
    exp = first_guess_expansion(setup.basis)
    (lam, u, k_inv_y, E, B, G, dk), domain = inverse.flux_state(
        setup, np.zeros(n), None, np.concatenate([exp.a[:-1], exp.b[:-1]]),
        True, setup.machine.ip)
    assert len(seen) == 1 and seen[0][0] is squad.cold_psibar
    Y = assemble_source_matrix(squad, squad.cold_psibar, setup.basis)
    assert seen[0][1].tobytes() == Y.tobytes()
    # no chord arrays, whatever use_internal says
    assert (domain, B, G, dk) == (None, None, None, None)


def test_cold_psibar_is_read_only(setup):
    # it sits in the mesh cache that every set-up on the mesh shares
    with pytest.raises(ValueError, match="read-only"):
        setup.squad.cold_psibar[0] = 1.0


def test_cold_run_cut_at_one_iteration_has_no_density(setup,
                                                      clean_measurements):
    # the cold step fits A and B to the magnetic rows only: the density
    # solve and the polarimetry rows start at iteration 2
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=True, max_iter=1)
    assert res.error is None and res.iterations == 1 and not res.converged
    assert res.profiles.c is None
    assert res.costs["J1"] == res.costs["J2"] == 0.0 < res.costs["J0"]


# ---------------------------------------------------------------------------
# The first iteration's memo
# ---------------------------------------------------------------------------

def _result_arrays(res):
    p = res.profiles
    return [res.psi, [res.lam], p.a, p.b, [] if p.c is None else p.c,
            res.residuals, res.lam_history,
            [res.costs[k] for k in sorted(res.costs)], [res.iterations]]


def _assert_same_result(one, two):
    assert one.error is None and two.error is None
    assert sorted(one.costs) == sorted(two.costs)
    for x, y in zip(_result_arrays(one), _result_arrays(two)):
        assert np.asarray(x, float).tobytes() == np.asarray(y, float).tobytes()


def _count_iteration_work(monkeypatch):
    """Counts of the source-matrix assemblies, the K^-1 Y solves and the
    chord-matrix builds of reconstruct."""
    calls = dict.fromkeys(("assemble_source_matrix", "solve_multi",
                           "build_interferometry_matrix"), 0)
    for name in ("assemble_source_matrix", "build_interferometry_matrix"):
        monkeypatch.setattr(inverse, name,
                            _counted(calls, name, getattr(inverse, name)))
    monkeypatch.setattr(Factorization, "solve_multi", _counted(
        calls, "solve_multi", Factorization.solve_multi))
    return calls


@pytest.fixture
def fresh_setup(twin_mesh, machine, basis):
    """A new setup on the twin mesh for each call: its memo is empty."""
    return lambda: ReconstructionSetup(twin_mesh, machine, CHORDS, basis=basis)


def test_cold_reconstruct_reuses_first_iteration(fresh_setup,
                                                 clean_measurements,
                                                 monkeypatch):
    # a cold start is the same on every call: the second call takes the
    # first iteration from the memo and returns the same result bit for bit
    setup = fresh_setup()
    calls, _ = _count_basis_and_solves(monkeypatch)
    work = _count_iteration_work(monkeypatch)
    runs = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        work.update(dict.fromkeys(work, 0))
        runs.append((reconstruct(setup, clean_measurements,
                                 RegularizationConfig(), use_internal=False),
                     dict(calls), dict(work)))
    (one, calls1, work1), (two, calls2, work2) = runs
    assert one.converged
    _assert_same_result(one, two)
    for key in ("eval_many", "solve_multi"):
        assert calls2[key] == calls1[key] - 1
    assert work2["assemble_source_matrix"] == \
        work1["assemble_source_matrix"] - 1 == one.iterations - 1


def test_warm_realtime_regime_shares_first_iteration(fresh_setup,
                                                     clean_measurements,
                                                     monkeypatch):
    # criterion 9's regime: warm two-iteration reconstructions of noisy
    # copies of one measurement set from one base; after the first call,
    # only the second iteration assembles, solves and builds chord matrices
    setup = fresh_setup()
    reg = RegularizationConfig()
    base = reconstruct(setup, clean_measurements, reg, use_internal=True)
    draws = [perturb(clean_measurements, 0.01, seed=s) for s in (5, 6)]
    work = _count_iteration_work(monkeypatch)
    for i, ms in enumerate(draws + draws):
        work.update(dict.fromkeys(work, 0))
        res = reconstruct(setup, ms, reg, use_internal=True, warm_start=base,
                          tol=0.0, max_iter=2)
        assert res.iterations == 2
        assert work == dict.fromkeys(work, 2 if i == 0 else 1)
        _assert_same_result(res, reconstruct(
            fresh_setup(), ms, reg, use_internal=True, warm_start=base,
            tol=0.0, max_iter=2))


def _editable_start(setup, clean_measurements):
    """(start, run): a converged internal-data reconstruction with its own
    psi and a, to edit in place, and run(setup, internal=True), a warm
    two-iteration reconstruction from it of the 1 % noise draw of seed 5."""
    reg = RegularizationConfig()
    base = reconstruct(setup, clean_measurements, reg, use_internal=True)
    start = dataclasses.replace(base, psi=base.psi.copy(),
                                profiles=dataclasses.replace(
                                    base.profiles, a=base.profiles.a.copy()))
    ms = perturb(clean_measurements, 0.01, seed=5)

    def run(s, internal=True):
        return reconstruct(s, ms, reg, use_internal=internal,
                           warm_start=start, tol=0.0, max_iter=2)

    return start, run


@pytest.mark.parametrize("edit", ["psi", "a", "use_internal"])
def test_changed_start_misses_the_memo(fresh_setup, clean_measurements,
                                       monkeypatch, edit):
    # the memo is keyed by value: an in-place edit of the warm start, or
    # another use_internal, computes the first iteration anew
    setup = fresh_setup()
    start, run = _editable_start(setup, clean_measurements)
    run(setup)
    use_internal = True
    if edit == "psi":
        start.psi[np.argmax(start.psi)] *= 1.0 + 1e-9
    elif edit == "a":
        start.profiles.a[0] *= 1.0 + 1e-9
    else:
        use_internal = False
    work = _count_iteration_work(monkeypatch)
    res = run(setup, use_internal)
    assert work["assemble_source_matrix"] == work["solve_multi"] == 2
    _assert_same_result(res, run(fresh_setup(), use_internal))


def test_start_lambda_shares_the_first_iteration(fresh_setup,
                                                 clean_measurements,
                                                 monkeypatch):
    # lambda comes from Ip and the column sums of Y in every iteration, so
    # a start that differs only in lam hits the memo: only the second
    # iteration assembles, and the result is that of a fresh setup
    setup = fresh_setup()
    start, run = _editable_start(setup, clean_measurements)
    run(setup)
    start.lam *= 1.0 + 1e-9
    work = _count_iteration_work(monkeypatch)
    res = run(setup)
    assert work == dict.fromkeys(work, 1)
    _assert_same_result(res, run(fresh_setup()))


def test_memo_holds_one_read_only_entry(fresh_setup, clean_measurements,
                                        monkeypatch):
    setup = fresh_setup()
    m = setup.basis.m
    exp = first_guess_expansion(setup.basis)
    cold = (np.zeros(setup.mesh.n_nodes), None,
            np.concatenate([exp.a[:-1], exp.b[:-1]]), True, setup.machine.ip)
    (lam, u, k_inv_y, E, B, G, dk), domain = setup.first_iteration(*cold)
    assert domain is None       # the cold start normalizes by no domain
    assert u.shape == (2 * m - 2,) == (k_inv_y.shape[1],)
    # the cold step fits the magnetic rows only: it holds no chord arrays
    assert (B, G, dk) == (None, None, None)
    # every held array is handed out as held, and read-only
    for held in (u, k_inv_y, E):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
    again = setup.first_iteration(*cold)[0]
    assert again[1] is u and again[2] is k_inv_y
    assert np.abs(u[:m - 1]).max() == 1.0
    # one cold entry: it holds no chord arrays, so the internal-data
    # switch is not part of its key
    reg = RegularizationConfig()
    work = _count_iteration_work(monkeypatch)
    for internal, computed in [(False, 0), (True, 0), (True, 0)]:
        work["assemble_source_matrix"] = 0
        setup.first_iteration(*cold[:3], internal, cold[4])
        assert work["assemble_source_matrix"] == computed
    res = reconstruct(setup, clean_measurements, reg, use_internal=True)
    _assert_same_result(res, reconstruct(fresh_setup(), clean_measurements,
                                         reg, use_internal=True))
    # one slot: a warm start replaces the entry, so the cold start misses
    work["assemble_source_matrix"] = 0
    (_, *held), _ = setup.first_iteration(res.psi, res.domain, cold[2],
                                          True, cold[4])
    assert work["assemble_source_matrix"] == 1
    assert setup.first_iteration(*cold)[0][2] is not k_inv_y
    assert work["assemble_source_matrix"] == 2
    # a warm entry holds the chord arrays too, each read-only
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    np.testing.assert_array_equal(held[5], setup.chord_geoms.D @ held[1])


def test_memo_hit_leaves_held_arrays_unchanged(fresh_setup,
                                              clean_measurements):
    # reconstructions that take their first iteration from the memo (cold
    # and warm, with and without internal data) read the held arrays and
    # write none of them, bit for bit
    setup = fresh_setup()
    reg = RegularizationConfig()
    base = reconstruct(setup, clean_measurements, reg, use_internal=True)
    ms = perturb(clean_measurements, 0.01, seed=6)
    for kwargs in ({}, {"warm_start": base, "tol": 0.0, "max_iter": 2}):
        for internal in (False, True):
            reconstruct(setup, ms, reg, use_internal=internal, **kwargs)
            state = setup._first[1]
            held = [a.copy() for a in state[1:] if a is not None]
            res = reconstruct(setup, ms, reg, use_internal=internal,
                              **kwargs)
            assert res.error is None and setup._first[1] is state
            for a, before in zip((a for a in state[1:] if a is not None),
                                 held):
                assert a.tobytes() == before.tobytes()


def test_failed_first_iteration_is_not_memoized(fresh_setup,
                                                clean_measurements,
                                                monkeypatch):
    setup = fresh_setup()
    reg = RegularizationConfig()
    real = inverse.assemble_source_matrix
    failures = [EmptySourceError("no plasma point (patched)")]

    def assemble(*args):
        if failures:
            raise failures.pop()
        return real(*args)

    monkeypatch.setattr(inverse, "assemble_source_matrix", assemble)
    failed = reconstruct(setup, clean_measurements, reg, use_internal=False)
    assert failed.error == "no plasma point (patched)"
    assert failed.iterations == 1
    monkeypatch.setattr(inverse, "assemble_source_matrix", real)
    work = _count_iteration_work(monkeypatch)
    res = reconstruct(setup, clean_measurements, reg, use_internal=False)
    assert work["assemble_source_matrix"] == res.iterations
    _assert_same_result(res, reconstruct(fresh_setup(), clean_measurements,
                                         reg, use_internal=False))


# ---------------------------------------------------------------------------
# Warm starts checked up front
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", ["short_psi", "basis_10"])
def test_reconstruct_rejects_unfit_warm_start(fresh_setup, clean_measurements,
                                              monkeypatch, bad):
    # a warm start that does not fit the mesh or the basis raises before
    # any solve
    setup = fresh_setup()
    base = reconstruct(setup, clean_measurements, RegularizationConfig(),
                       use_internal=False)
    if bad == "short_psi":
        start = dataclasses.replace(base, psi=base.psi[:-5])
    else:
        b10 = SplineBasis(m=10, end_constraint=True)
        xs = np.linspace(0.0, 1.0, 51)
        start = dataclasses.replace(base, profiles=gsrecon.ProfileExpansion(
            b10, b10.fit(xs, 1.0 - xs), b10.fit(xs, 1.0 - xs)))
    calls, _ = _count_basis_and_solves(monkeypatch)
    with pytest.raises(StateError, match="warm start"):
        reconstruct(setup, clean_measurements, RegularizationConfig(),
                    use_internal=False, warm_start=start)
    assert calls == dict.fromkeys(calls, 0)


def test_reconstruct_reports_nan_warm_start(fresh_setup, clean_measurements,
                                            monkeypatch):
    # a NaN flux fits the mesh: the first iteration refuses it inside the
    # loop, before any assembly, with or without a carried domain, and the
    # result reports it
    setup = fresh_setup()
    base = reconstruct(setup, clean_measurements, RegularizationConfig(),
                       use_internal=False)
    psi = base.psi.copy()
    psi[np.argmax(psi)] = np.nan
    work = _count_iteration_work(monkeypatch)
    for domain in (None, base.domain):
        res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                          use_internal=False,
                          warm_start=dataclasses.replace(base, psi=psi,
                                                         domain=domain))
        assert res.error == "flux not finite at 1 nodes"
        assert res.iterations == 1
        assert not res.converged and res.domain is None
    assert work == dict.fromkeys(work, 0)


def test_reconstruct_reports_warm_start_without_axis(fresh_setup,
                                                     clean_measurements,
                                                     monkeypatch):
    # only psi = 0 is the cold start: a nonzero constant flux has no
    # interior maximum, and the domain search's error comes back at
    # iteration 1 instead of a run from the limiter surrogate
    setup = fresh_setup()
    base = reconstruct(setup, clean_measurements, RegularizationConfig(),
                       use_internal=False)
    work = _count_iteration_work(monkeypatch)
    res = reconstruct(setup, clean_measurements, RegularizationConfig(),
                      use_internal=False, warm_start=dataclasses.replace(
                          base, psi=np.full_like(base.psi, 0.01),
                          domain=None))
    assert res.error == "flux maximum attained on the boundary"
    assert res.iterations == 1
    assert not res.converged and res.domain is None
    assert work == dict.fromkeys(work, 0)


def test_lambda_scales_to_the_measured_current(fresh_setup,
                                               clean_measurements):
    # lambda takes Ip from the measurement set, and the first iteration's
    # memo tells the two currents apart: on one setup, cold runs at 1.0 and
    # 1.3 MA start from lambdas in the ratio 1.3
    setup = fresh_setup()
    runs = [reconstruct(setup, dataclasses.replace(clean_measurements, ip=ip),
                        RegularizationConfig(), use_internal=False)
            for ip in (1.0e6, 1.3e6)]
    assert all(res.converged for res in runs)
    ratio = runs[1].lam_history[0] / runs[0].lam_history[0]
    assert ratio == pytest.approx(1.3, rel=1e-14)


def test_reconstruct_reports_overflowing_normal_equations(setup,
                                                          clean_measurements):
    # a boundary flux of 1e300 overflows the first A/B solve's misfit: the
    # solve refuses it, without a floating-point warning (an error under
    # the test configuration), and the run ends at iteration 1
    ms = dataclasses.replace(clean_measurements,
                             g_d=np.full_like(clean_measurements.g_d, 1e300))
    res = reconstruct(setup, ms, RegularizationConfig(), use_internal=False)
    assert res.error == "penalized least squares overflow at this data scale"
    assert res.iterations == 1 and res.records == []
    assert not res.converged and res.domain is None


def test_penalized_lsq_refuses_overflow():
    E = np.eye(3)
    with pytest.raises(RegularizationError, match="overflow"):
        penalized_lsq(E, np.full(3, 1e300), np.full(3, 1e10), 1.0, E)
    with pytest.raises(RegularizationError, match="overflow"):
        penalized_lsq(E, np.full(3, 1e200), np.ones(3), 1.0, E)


def test_reconstruct_reports_flux_of_rounding_noise(setup, clean_measurements):
    # a boundary flux of 1e150 leaves a plasma well of a few ulps after the
    # cold iteration: the domain search refuses it, and the result says so
    # instead of a converged reconstruction on noise
    ms = dataclasses.replace(clean_measurements,
                             g_d=np.full_like(clean_measurements.g_d, 1e150))
    res = reconstruct(setup, ms, RegularizationConfig(), use_internal=False)
    assert "within 1e-12 max|psi|" in res.error
    assert res.iterations == 2
    assert not res.converged and res.domain is None
