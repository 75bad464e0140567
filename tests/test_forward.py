import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsrecon
from gsrecon.basis import ProfileExpansion, SplineBasis
from gsrecon.errors import DivergentLambdaError, EmptySourceError
from gsrecon.forward import (MachineParams, SourceQuadrature,
                             assemble_source_matrix, assemble_source_vector,
                             compute_lambda, current_density_integral,
                             dirichlet_vector, forward_fixed_point,
                             lambda_from_integral, load_equilibrium,
                             save_equilibrium)
from conftest import a_ref, b_ref


def test_machine_params_validation():
    with pytest.raises(ValueError):
        MachineParams(-1.0, 2.0, 1e6)
    with pytest.raises(ValueError):
        MachineParams(2.5, 2.0, 0.0)


@pytest.mark.parametrize("field", ["r0", "b0", "ip", "mu0"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_machine_params_reject_non_finite(field, value):
    args = {"r0": 2.5, "b0": 2.0, "ip": 1e6, "mu0": 4e-7 * np.pi}
    args[field] = value
    with pytest.raises(ValueError):
        MachineParams(**args)


def test_lambda_from_integral_rejects_vanishing():
    with pytest.raises(DivergentLambdaError):
        lambda_from_integral(1e6, 0.0, 2.0)


_COEF = st.floats(0.1, 2.0)


@settings(max_examples=15, deadline=None)
@given(_COEF, _COEF)
def test_total_current_constraint(ca, cb):
    # lambda is defined so the plasma-current integral equals Ip exactly
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 8, 8)
    basis = SplineBasis(end_constraint=True)
    g = basis.greville()
    exp = ProfileExpansion(basis, ca * (1 - g), cb * (1 - g))
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psibar = ((r - 2.5) ** 2 + z ** 2) / 0.2
    squad = SourceQuadrature(mesh)
    lam = compute_lambda(mesh, psibar, exp, 1.0e6, 2.5, squad=squad)
    pq = squad.psibar_qp(psibar)
    x = np.clip(pq, 0.0, 1.0)
    integral = current_density_integral(squad, pq, exp.eval("A", x),
                                        exp.eval("B", x), 2.5)
    assert lam * integral == pytest.approx(1.0e6, rel=1e-10)


def test_source_matrix_matches_vector(twin_mesh, basis, reference_eq):
    eq = reference_eq
    squad = SourceQuadrature(twin_mesh)
    pq = squad.psibar_qp(eq.domain.normalize(eq.psi))
    x = np.clip(pq, 0.0, 1.0)
    u = np.concatenate([eq.profiles.a, eq.profiles.b])
    Y = assemble_source_matrix(squad, pq, basis, eq.lam, 2.5,
                               twin_mesh.boundary)
    phi = basis.eval_many(x)
    y = assemble_source_vector(squad, pq, phi @ eq.profiles.a,
                               phi @ eq.profiles.b, eq.lam, 2.5,
                               twin_mesh.boundary)
    np.testing.assert_allclose(Y @ u, y, rtol=1e-9, atol=1e-9 * np.abs(y).max())


def test_source_vector_zero_on_boundary(small_mesh):
    squad = SourceQuadrature(small_mesh)
    pq = np.zeros(len(squad.qp_w))
    y = assemble_source_vector(squad, pq, np.ones_like(pq), np.ones_like(pq),
                               1.0, 2.5, small_mesh.boundary)
    assert np.all(y[small_mesh.boundary] == 0.0)
    assert np.abs(y).max() > 0.0


def test_empty_plasma_raises(small_mesh):
    squad = SourceQuadrature(small_mesh)
    pq = np.full(len(squad.qp_w), 2.0)
    with pytest.raises(EmptySourceError):
        assemble_source_vector(squad, pq, pq, pq, 1.0, 2.5,
                               small_mesh.boundary)


def test_bootstrap_flux_covers_limiter(twin_mesh):
    squad = SourceQuadrature(twin_mesh)
    pq = squad.bootstrap_psibar_qp()
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


def test_forward_warm_start_is_fast(twin_mesh, machine, basis, reference_eq):
    g_d = np.zeros(len(twin_mesh.boundary))
    eq = forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d,
                             psi0=reference_eq.psi, basis=basis)
    assert eq.iterations <= 2


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


def test_dirichlet_vector(small_mesh):
    g_d = np.arange(len(small_mesh.boundary), dtype=float)
    g = dirichlet_vector(small_mesh, g_d)
    np.testing.assert_array_equal(g[small_mesh.boundary], g_d)
    mask = np.ones(small_mesh.n_nodes, dtype=bool)
    mask[small_mesh.boundary] = False
    assert np.all(g[mask] == 0.0)
