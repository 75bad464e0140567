import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsrecon
from gsrecon.basis import ProfileExpansion, SplineBasis
from gsrecon.errors import (ConvergenceError, DivergentLambdaError,
                            EmptySourceError, MeshParseError)
from gsrecon.fem import MU0, Factorization
from gsrecon.forward import (ANDERSON_DEPTH, Iteration, MachineParams,
                             SourceQuadrature, assemble_source_matrix,
                             assemble_source_vector, forward_fixed_point,
                             lambda_from_integral, load_equilibrium, picard,
                             save_equilibrium)
from conftest import a_ref, b_ref


def test_machine_params_validation():
    with pytest.raises(ValueError):
        MachineParams(-1.0, 2.0, 1e6)
    with pytest.raises(ValueError):
        MachineParams(2.5, 2.0, 0.0)


@pytest.mark.parametrize("field", ["r0", "b0", "ip"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_machine_params_reject_non_finite(field, value):
    args = {"r0": 2.5, "b0": 2.0, "ip": 1e6}
    args[field] = value
    with pytest.raises(ValueError):
        MachineParams(**args)


def test_lambda_from_integral_rejects_vanishing():
    # an integral at rounding level of the size of its terms, or zero
    for integral, size in ((0.0, 2.0), (1e-20, 1.0), (0.0, 0.0)):
        with pytest.raises(DivergentLambdaError):
            lambda_from_integral(1e6, integral, size)


def test_lambda_from_integral_accepts_any_scale():
    # the guard is relative to the terms' size, not to the mesh's units
    assert lambda_from_integral(1e6, 1e-300, 1e-300) == 1e6 / 1e-300


_COEF = st.floats(0.1, 2.0)


@settings(max_examples=15, deadline=None)
@given(_COEF, _COEF)
def test_total_current_constraint(ca, cb):
    # lambda scales the plasma current to Ip, so the scaled nodal load
    # vector carries Ip in total
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 8, 8)
    basis = SplineBasis(end_constraint=True)
    g = basis.greville()
    exp = ProfileExpansion(basis, ca * (1 - g), cb * (1 - g))
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psibar = ((r - 2.5) ** 2 + z ** 2) / 0.2
    squad = SourceQuadrature(mesh, 2.5)
    pq = squad.P @ psibar
    x = np.clip(pq, 0.0, 1.0)
    phi = basis.eval_many(x)
    a_vals, b_vals = phi @ exp.a, phi @ exp.b
    y = assemble_source_vector(squad, pq, a_vals, b_vals)
    lam = lambda_from_integral(1.0e6, y.sum(), np.abs(y).sum())
    assert (lam * y).sum() == pytest.approx(1.0e6, rel=1e-10)


def _recorded_affine_step(a, b):
    """The step psi -> a @ psi + b, recording its inputs and outputs; its
    record's lam counts the steps through the previous record."""
    seen = {"in": [], "out": []}

    def step(psi, rec):
        seen["in"].append(psi)
        seen["out"].append(a @ psi + b)
        return seen["out"][-1], Iteration(1.0 if rec is None else rec.lam + 1)

    return step, seen


# a non-symmetric contraction of R^3 (spectral radius 0.40) and its offset
_A = np.array([[0.5, 0.2, 0.0], [-0.1, 0.3, 0.2], [0.1, 0.0, -0.4]])
_B = np.array([1.0, -2.0, 0.5])


def _anderson_update(psi_in, out, pairs):
    """The type-II Anderson iterate after step(psi_in[-1]) = out[-1], from
    the differences of the last ``pairs`` (residual, output) pairs."""
    r = [o - p for p, o in zip(psi_in, out)]
    d_r = np.column_stack([r[k] - r[k - 1] for k in range(-pairs, 0)])
    d_g = np.column_stack([out[k] - out[k - 1] for k in range(-pairs, 0)])
    gamma = np.linalg.lstsq(d_r, r[-1], rcond=None)[0]
    return out[-1] - d_g @ gamma


def test_picard_returns_last_step_output():
    step, seen = _recorded_affine_step(_A, _B)
    records = []
    psi = picard(step, np.zeros(3), 0.0, 4, records)
    # max_iter reached: the last step's output, not a mixed update
    assert psi is seen["out"][-1] and len(records) == 4
    # each step is handed the record of the one before
    assert [r.lam for r in records] == [1.0, 2.0, 3.0, 4.0]
    residuals = [r.residual for r in records]
    psi_in, out = seen["in"], seen["out"]
    assert residuals[0] == 1.0     # |g - psi| / |g| from zero flux
    assert residuals[1] == (np.linalg.norm(out[1] - psi_in[1])
                            / np.linalg.norm(psi_in[1]))
    # no mixing while psi = 0: the step from zero flux leaves no pair, so
    # the first two iterates are plain step outputs
    np.testing.assert_array_equal(psi_in[1], out[0])
    np.testing.assert_array_equal(psi_in[2], out[1])
    expected = _anderson_update(psi_in[1:3], out[1:3], 1)
    assert not np.array_equal(expected, out[2])
    np.testing.assert_allclose(psi_in[3], expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("tol,max_iter", [(np.nan, 5), (-1.0, 5), (1e-6, 0),
                                          (1e-6, 2.5), (1e-6, np.inf)])
def test_picard_rejects_bad_stop_test_before_first_step(tol, max_iter):
    step, seen = _recorded_affine_step(_A, _B)
    with pytest.raises(ValueError, match="tol >= 0 and max_iter >= 1"):
        picard(step, np.zeros(3), tol, max_iter, [])
    assert seen["in"] == []


def test_picard_takes_a_whole_float_max_iter():
    step, seen = _recorded_affine_step(_A, _B)
    records = []
    picard(step, np.zeros(3), 0.0, 3.0, records)
    assert len(records) == len(seen["in"]) == 3


def test_picard_solves_affine_map_within_depth_plus_two():
    step, seen = _recorded_affine_step(_A, _B)
    records = []
    psi = picard(step, np.ones(3), 1e-12, ANDERSON_DEPTH + 2, records)
    fixed = np.linalg.solve(np.eye(3) - _A, _B)
    assert records[-1].residual <= 1e-12
    np.testing.assert_allclose(psi, fixed, rtol=0, atol=1e-12)
    assert not np.allclose(seen["in"][1:], seen["out"][:-1])   # mixed


def test_picard_step_error_carries_its_input():
    # a step's GsReconError propagates with the flux that step was called
    # on, the completed steps' records kept
    affine, seen = _recorded_affine_step(_A, _B)

    def step(psi, rec):
        if len(seen["in"]) == 3:
            raise EmptySourceError("no plasma point")
        return affine(psi, rec)

    records = []
    with pytest.raises(EmptySourceError) as info:
        picard(step, np.ones(3), 0.0, 6, records)
    assert len(records) == 3 and info.value.psi is not seen["out"][-1]
    np.testing.assert_allclose(info.value.psi, _anderson_update(
        seen["in"], seen["out"], 2), rtol=1e-14, atol=0)


def test_picard_growing_residual_clears_history():
    # a contraction for three steps, then a jump that grows the residual
    affine, seen = _recorded_affine_step(_A, _B)

    def step(psi, rec):
        out, rec = affine(psi, rec)
        if len(seen["out"]) == 4:                 # the fourth step
            out = seen["out"][-1] = psi + 100.0
        return out, rec

    picard(step, np.ones(3), 0.0, 6, [])
    psi_in, out = seen["in"], seen["out"]
    assert not np.array_equal(psi_in[3], out[2])    # mixing was active
    np.testing.assert_array_equal(psi_in[4], out[3])
    # the history restarted at the jump: one pair, not three
    np.testing.assert_allclose(psi_in[5], _anderson_update(psi_in[3:5],
                                                           out[3:5], 1),
                               rtol=1e-14, atol=0)


def _scripted_then_affine(residuals, a, b):
    """The step psi -> psi + residuals[i] for its i-th call while scripted
    residuals last, then psi -> a @ psi + b, recording inputs and outputs."""
    affine, seen = _recorded_affine_step(a, b)

    def step(psi, rec):
        if len(seen["in"]) >= len(residuals):
            return affine(psi, rec)
        seen["in"].append(psi)
        seen["out"].append(psi + residuals[len(seen["in"]) - 1])
        return seen["out"][-1], Iteration(0.0)

    return step, seen


def test_picard_singular_mixing_restarts_history():
    # residuals 3v, 2v, v leave two equal differences -v in the history
    # after the third step, so D D^T is exactly singular (dyadic values make
    # every sum exact).  That step's output is taken as it is and the
    # history restarts: the next update mixes one pair, not three.  The
    # scripted steps end at g = psi0 + 10v = x* + e, from where the affine
    # map's residual (A - I) e stays below |v|, so no growing residual
    # clears the history instead
    v = np.array([1.0, -2.0, 0.5])
    fixed = np.linalg.solve(np.eye(3) - _A, _B)
    e = np.array([2.0 ** -10, 2.0 ** -11, -2.0 ** -12])
    psi0 = np.round(fixed * 2.0 ** 20) / 2.0 ** 20 - 10.0 * v
    step, seen = _scripted_then_affine([3.0 * v, 2.0 * v, v], _A, _B)
    records = []
    psi = picard(step, psi0 + e, 1e-12, 30, records)
    psi_in, out = seen["in"], seen["out"]
    d_r = [(o - p) - (o0 - p0) for p0, o0, p, o in
           zip(psi_in, out, psi_in[1:3], out[1:3])]
    np.testing.assert_array_equal(d_r[0], d_r[1])
    np.testing.assert_array_equal(psi_in[3], out[2])
    assert records[3].residual * np.linalg.norm(psi_in[3]) < np.linalg.norm(v)
    np.testing.assert_allclose(psi_in[4], _anderson_update(psi_in[2:4],
                                                           out[2:4], 1),
                               rtol=1e-14, atol=0)
    assert records[-1].residual <= 1e-12
    np.testing.assert_allclose(psi, fixed, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [5, 441])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_picard_mixing_matches_least_squares(n, seed):
    # scripted residuals of halving norm never clear the history, so the
    # i-th update mixes min(i, ANDERSON_DEPTH) random, well-conditioned
    # pairs; gamma, read back from the update g - gamma G through G's full
    # row rank, is the least-squares fit D^T gamma ~ r
    rng = np.random.default_rng(seed)
    script = rng.standard_normal((ANDERSON_DEPTH + 3, n))
    script *= (0.5 ** np.arange(len(script))
               / np.linalg.norm(script, axis=1))[:, None]
    psi_in, out = [], []

    def step(psi, rec):
        psi_in.append(psi)
        out.append(psi + script[len(out)])
        return out[-1], Iteration(0.0)

    picard(step, rng.standard_normal(n), 0.0, len(script), [])
    r = [o - p for p, o in zip(psi_in, out)]
    for i in range(1, len(r) - 1):
        k = min(i, ANDERSON_DEPTH)
        D = np.array([r[j] - r[j - 1] for j in range(i - k + 1, i + 1)])
        G = np.array([out[j] - out[j - 1] for j in range(i - k + 1, i + 1)])
        gamma = np.linalg.lstsq(G.T, out[i] - psi_in[i + 1], rcond=None)[0]
        want = np.linalg.lstsq(D.T, r[i], rcond=None)[0]
        np.testing.assert_allclose(gamma, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_source_matrix_matches_vector(twin_mesh, basis, reference_eq):
    eq = reference_eq
    squad = SourceQuadrature(twin_mesh, 2.5)
    pq = squad.P @ eq.domain.normalize(eq.psi)
    x = np.clip(pq, 0.0, 1.0)
    # the matrix acts on the free coefficients; the reference's pinned ones
    # are rounding-size, so its A(1) = B(1) = 0 profiles are compared
    m = basis.m
    a, b = eq.profiles.a.copy(), eq.profiles.b.copy()
    a[m - 1] = b[m - 1] = 0.0
    Y = assemble_source_matrix(squad, pq, basis)
    phi = basis.eval_many(x)
    y = assemble_source_vector(squad, pq, phi @ a, phi @ b)
    u = np.concatenate([a[:m - 1], b[:m - 1]])
    np.testing.assert_allclose(Y @ u, y, rtol=1e-9, atol=1e-9 * np.abs(y).max())


def test_empty_plasma_raises(small_mesh):
    squad = SourceQuadrature(small_mesh, 2.5)
    pq = np.full(len(squad.qp_w), 2.0)
    with pytest.raises(EmptySourceError):
        assemble_source_vector(squad, pq, pq, pq)


def test_bootstrap_flux_covers_limiter(twin_mesh):
    squad = SourceQuadrature(twin_mesh, 2.5)
    pq = squad.cold_psibar
    assert set(np.unique(pq)) == {0.0, 2.0}
    assert np.any(pq == 0.0)


def test_forward_convergence(reference_eq):
    eq = reference_eq
    assert eq.converged
    assert eq.iterations <= 15
    assert eq.residuals[-1] <= 1e-6
    assert eq.lam > 0


def test_forward_flux_peaks_inside_limiter(twin_mesh, reference_eq):
    eq = reference_eq
    ra, za = eq.domain.axis
    assert 2.1 < ra < 2.9 and -1.05 < za < 1.05
    assert eq.domain.psi_a > eq.domain.psi_b


def test_forward_lambda_history(reference_eq):
    # one lambda per iteration, the last one the equilibrium's
    eq = reference_eq
    assert len(eq.lam_history) == eq.iterations
    assert eq.lam_history[-1] == eq.lam
    assert eq.costs == {} and eq.error is None


@pytest.mark.parametrize("bad", ["nan", "inf", "short"])
def test_forward_rejects_bad_boundary_flux(twin_mesh, machine, monkeypatch,
                                           bad):
    # a g_d that is not one finite value per boundary node is rejected with
    # ValueError before any solve
    g_d = np.zeros(len(twin_mesh.boundary))
    if bad == "short":
        g_d = g_d[:-1]
    else:
        g_d[5] = float(bad)

    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(Factorization, "solve", no_solve)
    with pytest.raises(ValueError, match="one finite value per boundary"):
        forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d)


def test_forward_without_convergence_raises(twin_mesh, machine, basis):
    g_d = np.zeros(len(twin_mesh.boundary))
    with pytest.raises(ConvergenceError) as info:
        forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d,
                            max_iter=2, basis=basis)
    assert str(info.value) == ("no convergence after 2 iterations "
                               "(last residual 4.929e-02)")
    assert info.value.__cause__ is None


def test_boundary_flux_shift_shifts_forward_solution(twin_mesh, machine,
                                                     basis):
    # psi is linear in g_d for fixed sources and a constant shift leaves
    # psibar alone: g_d + c gives psi + c with the same lambda, A and B,
    # and boundary values exactly g_d + c
    g_d = np.zeros(len(twin_mesh.boundary))
    base = forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d,
                               tol=1e-12, max_iter=100, basis=basis)
    scale = np.abs(base.psi).max()
    for c in (0.05, -0.05, 0.2):
        eq = forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d + c,
                                 tol=1e-12, max_iter=100, basis=basis)
        np.testing.assert_array_equal(eq.psi[twin_mesh.boundary], g_d + c)
        np.testing.assert_allclose(eq.psi, base.psi + c, rtol=0,
                                   atol=1e-9 * scale)
        assert eq.lam == pytest.approx(base.lam, rel=1e-9)


def test_equilibrium_roundtrip(tmp_path, reference_eq, basis):
    path = tmp_path / "eq.txt"
    save_equilibrium(reference_eq, path)
    eq2 = load_equilibrium(path, basis=basis)
    np.testing.assert_array_equal(reference_eq.psi, eq2.psi)
    assert eq2.lam == reference_eq.lam
    np.testing.assert_array_equal(reference_eq.profiles.a, eq2.profiles.a)
    np.testing.assert_array_equal(reference_eq.profiles.b, eq2.profiles.b)
    assert eq2.machine.ip == reference_eq.machine.ip
    assert eq2.domain.psi_a == reference_eq.domain.psi_a
    assert eq2.domain.mode == reference_eq.domain.mode
    assert eq2.converged and eq2.iterations == reference_eq.iterations > 0


def test_equilibrium_roundtrip_keeps_degree(tmp_path, twin_mesh, machine):
    # a quadratic basis loads back quadratic, and a basis of another degree
    # or dimension does not fit the file
    quad = SplineBasis(degree=2, m=8)
    eq = forward_fixed_point(twin_mesh, machine, a_ref, b_ref,
                             np.zeros(len(twin_mesh.boundary)), basis=quad)
    path = tmp_path / "eq.txt"
    save_equilibrium(eq, path)
    back = load_equilibrium(path)
    assert (back.profiles.basis.degree, back.profiles.basis.m) == (2, 8)
    np.testing.assert_array_equal(
        back.profiles.basis.eval_many(0.25) @ back.profiles.a,
        eq.profiles.basis.eval_many(0.25) @ eq.profiles.a)
    assert load_equilibrium(path, basis=quad).profiles.basis is quad
    for other in (SplineBasis(), SplineBasis(degree=2, m=9)):
        with pytest.raises(MeshParseError, match="do not fit the basis"):
            load_equilibrium(path, basis=other)
    # a file without the degree line is cubic
    path.write_text("\n".join(ln for ln in path.read_text().splitlines()
                              if not ln.startswith("degree ")))
    assert load_equilibrium(path).profiles.basis.degree == 3


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:2],                               # r0 and b0 only
    lambda lines: lines[:-1],                              # short psi block
    lambda lines: lines[:-1] + ["0.0 1.0"],
    lambda lines: lines[:2] + ["ip many"] + lines[3:],
    lambda lines: lines[:8] + ["axis 2.5"] + lines[9:],
    lambda lines: [ln for ln in lines if not ln.startswith("psi ")],
])
def test_load_equilibrium_rejects_malformed(tmp_path, reference_eq, basis,
                                            edit):
    path = tmp_path / "eq.txt"
    save_equilibrium(reference_eq, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())))
    with pytest.raises(MeshParseError):
        load_equilibrium(path, basis=basis)


def test_load_equilibrium_refuses_another_mu0(tmp_path, reference_eq,
                                              basis):
    # the file keeps its mu0 line, which must hold the package's constant
    path = tmp_path / "eq.txt"
    save_equilibrium(reference_eq, path)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("mu0 "))
    assert lines[at] == f"mu0 {MU0!r}"
    lines[at] = "mu0 1.2566e-06"
    path.write_text("\n".join(lines))
    with pytest.raises(MeshParseError, match="mu0 must be") as info:
        load_equilibrium(path, basis=basis)
    assert info.value.line == at + 1


def test_load_equilibrium_checks_mesh(tmp_path, twin_mesh, reference_eq,
                                     basis):
    path = tmp_path / "eq.txt"
    save_equilibrium(reference_eq, path)                   # 20 x 20 twin
    assert len(load_equilibrium(path, twin_mesh, basis).psi) == 441
    mesh12 = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 12, 12)
    with pytest.raises(MeshParseError, match="441 values for a mesh of 169"):
        load_equilibrium(path, mesh12, basis)

