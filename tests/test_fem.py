import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import gsrecon
from gsrecon import fem
from gsrecon.basis import SplineBasis
from gsrecon.errors import FactorizationError
from gsrecon.forward import MachineParams, forward_fixed_point
from gsrecon.inverse import (ReconstructionSetup, RegularizationConfig,
                             reconstruct)
from gsrecon.twin import synthesize_measurements

from conftest import CHORDS, LIMITER, a_ref, b_ref, ne_ref
from frozen_primitives import lift_scaled_identity


def _solve_dirichlet(mesh, exact):
    """Max-norm error of the homogeneous solve with exact boundary data."""
    vals = exact(mesh.nodes[:, 0], mesh.nodes[:, 1])
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh), mesh.boundary)
    fact = fem.factorize(stiff)
    return np.abs(fact.lift(vals[mesh.boundary]) - vals).max()


def test_stiffness_symmetric(small_mesh):
    K = fem.assemble_stiffness(small_mesh)
    diff = (K - K.T)
    assert np.abs(diff.toarray()).max() < 1e-9 * np.abs(K.toarray()).max()


def test_stiffness_annihilates_constants(small_mesh):
    K = fem.assemble_stiffness(small_mesh)
    resid = K @ np.ones(small_mesh.n_nodes)
    assert np.abs(resid).max() < 1e-9 * np.abs(K.diagonal()).max()


def test_constant_field_reproduced(twin_mesh):
    assert _solve_dirichlet(twin_mesh,
                            lambda r, z: np.full_like(r, 3.7)) < 1e-10


def test_vertical_coordinate_reproduced(twin_mesh):
    assert _solve_dirichlet(twin_mesh, lambda r, z: z) < 1e-10


def test_quadratic_field_second_order():
    e = [_solve_dirichlet(gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, n, n),
                          lambda r, z: r ** 2) for n in (20, 40)]
    assert 3.6 <= e[0] / e[1] <= 4.4


def test_solve_multi_matches_columnwise(small_mesh):
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    fact = fem.factorize(stiff)
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(small_mesh.n_nodes, 4))
    multi = fact.solve_multi(cols)
    for j in range(4):
        np.testing.assert_array_equal(multi[:, j], fact.solve(cols[:, j]))


def test_solve_rejects_wrong_length(small_mesh):
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    fact = fem.factorize(stiff)
    with pytest.raises(ValueError):
        fact.solve(np.zeros(3))


def test_solve_multi_rejects_wrong_row_count(small_mesh):
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    fact = fem.factorize(stiff)
    with pytest.raises(ValueError, match="columns must have"):
        fact.solve_multi(np.zeros((small_mesh.n_nodes + 1, 2)))


def test_singular_matrix_is_a_factorization_error(small_mesh):
    n = small_mesh.n_nodes
    stiff = fem.StiffnessMatrix(sp.csr_matrix((n, n)), small_mesh.boundary)
    with pytest.raises(FactorizationError, match="exactly singular"):
        fem.factorize(stiff)


def test_solve_does_not_mutate_rhs(small_mesh):
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    fact = fem.factorize(stiff)
    rhs = np.ones(small_mesh.n_nodes)
    fact.solve(rhs)
    assert np.all(rhs == 1.0)


def _interior(mesh):
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[mesh.boundary] = False
    return mask


def test_solve_ignores_and_zeroes_constrained_rows(small_mesh):
    # the field of a load is zero on the boundary whatever the load holds
    # in the constrained rows, and equals the interior Dirichlet solve
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    fact = fem.factorize(stiff)
    interior = _interior(small_mesh)
    load = np.random.default_rng(4).normal(size=small_mesh.n_nodes)
    cleared = np.where(interior, load, 0.0)
    psi = fact.solve(load)
    np.testing.assert_array_equal(psi, fact.solve(cleared))
    assert np.all(psi[small_mesh.boundary] == 0.0)
    assert np.abs(psi[interior]).max() > 0.0
    K = fem.assemble_stiffness(small_mesh)
    np.testing.assert_allclose((K @ psi)[interior], load[interior],
                               rtol=0, atol=1e-9 * np.abs(load).max())
    multi = fact.solve_multi(np.column_stack([load, cleared]))
    assert np.all(multi[small_mesh.boundary] == 0.0)


def test_lift_is_exact_on_boundary(small_mesh):
    # the load-free field: boundary values exactly g_d, K psi = 0 inside
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    fact = fem.factorize(stiff)
    g_d = np.sin(np.arange(len(small_mesh.boundary), dtype=float))
    psi = fact.lift(g_d)
    np.testing.assert_array_equal(psi[small_mesh.boundary], g_d)
    K = fem.assemble_stiffness(small_mesh)
    assert np.abs((K @ psi)[_interior(small_mesh)]).max() < 1e-9 * np.abs(
        K.diagonal()).max()


@pytest.mark.parametrize("n", [20, 40, 80, None])
def test_lift_matches_scaled_identity_solve(n, delaunay_mesh):
    # the solve of the load -K_B g_d on the free rows against the solve of
    # the whole system with g_d times the scale in the constrained rows:
    # the same boundary bits, and inside the same field up to rounding;
    # n None is the jittered Delaunay mesh
    mesh = delaunay_mesh if n is None else gsrecon.build_rect_mesh(
        2.0, 3.0, -1.2, 1.2, n, n)
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh), mesh.boundary)
    fact = fem.factorize(stiff)
    rng = np.random.default_rng(n)
    for _ in range(5):
        g_d = rng.normal(size=len(mesh.boundary))
        lift = fact.lift(g_d)
        ref = lift_scaled_identity(stiff, fact, g_d)
        np.testing.assert_array_equal(lift[mesh.boundary], ref[mesh.boundary])
        np.testing.assert_allclose(lift, ref, rtol=0,
                                   atol=1e-14 * np.abs(lift).max())
    zero = fact.lift(np.zeros(len(mesh.boundary)))
    assert np.all(zero == 0.0)


# --- solve_multi: one call on the factor -------------------------------------

def _factor(n):
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, n, n)
    return fem.factorize(fem.impose_dirichlet(fem.assemble_stiffness(mesh),
                                              mesh.boundary))


@pytest.fixture(scope="module")
def fact80():
    return _factor(80)


def _loads(fact, seed, k=14):
    return np.random.default_rng(seed).normal(size=(fact.n, k))


def _twin80():
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 80, 80,
                                   limiter=LIMITER)
    machine = MachineParams(2.5, 2.0, 1.0e6)
    basis = SplineBasis(end_constraint=True)
    eq = forward_fixed_point(mesh, machine, a_ref, b_ref,
                             np.zeros(len(mesh.boundary)), basis=basis)
    setup = ReconstructionSetup(mesh, machine, CHORDS, basis=basis)
    xs = np.linspace(0.0, 1.0, 201)
    return setup, synthesize_measurements(setup, eq, basis.fit(xs, ne_ref(xs)))


def test_solve_multi_and_reconstruct_start_no_thread(fact80):
    # first in this file: no 80x80 solve_multi has run before it
    before = threading.enumerate()
    fact80.solve_multi(_loads(fact80, 0))
    assert threading.enumerate() == before
    setup, ms = _twin80()
    res = reconstruct(setup, ms, RegularizationConfig())
    assert res.error is None and res.converged
    assert threading.enumerate() == before


def test_solve_multi_has_the_bits_of_one_solve(fact80):
    fact = fact80
    for seed in range(20):
        cols = _loads(fact, seed)
        multi = fact.solve_multi(cols)
        cols[fact._rows] = 0.0
        whole = fact._lu.solve(cols)
        whole[fact._rows] = 0.0
        np.testing.assert_array_equal(multi, whole)
        assert multi.flags.f_contiguous
        # a one-column solve takes another BLAS path, whose last bit can
        # differ from the multi-column one (also with a single thread)
        for j in range(cols.shape[1]):
            np.testing.assert_allclose(multi[:, j], fact.solve(cols[:, j]),
                                       rtol=0, atol=1e-15 * np.abs(
                                           multi[:, j]).max())


def test_solve_multi_keeps_the_edge_cases(fact80):
    assert fact80.solve_multi(np.zeros((fact80.n, 0))).shape == (fact80.n, 0)
    load = _loads(fact80, 1, 1)[:, 0]
    np.testing.assert_array_equal(fact80.solve_multi(load), fact80.solve(load))
    with pytest.raises(ValueError):
        fact80.solve_multi(np.zeros((fact80.n, 14, 2)))


def test_concurrent_callers_get_the_same_bits(fact80):
    cols = _loads(fact80, 3)
    expected = fact80.solve_multi(cols)
    results, barrier = [], threading.Barrier(4)

    def call():
        barrier.wait()
        for _ in range(5):
            results.append(fact80.solve_multi(cols))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 20
    for x in results:
        np.testing.assert_array_equal(x, expected)
