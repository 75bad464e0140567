import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gsrecon
from gsrecon import fem
from gsrecon.errors import StateError


def _solve_dirichlet(mesh, exact):
    """Max-norm error of the homogeneous solve with exact boundary data."""
    vals = exact(mesh.nodes[:, 0], mesh.nodes[:, 1])
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(mesh), mesh.boundary)
    fact = fem.factorize(stiff)
    return np.abs(fact.lift(vals[mesh.boundary]) - vals).max()


def test_stiffness_symmetric(small_mesh):
    K = fem.assemble_stiffness(small_mesh).mat
    diff = (K - K.T)
    assert np.abs(diff.toarray()).max() < 1e-9 * np.abs(K.toarray()).max()


def test_stiffness_annihilates_constants(small_mesh):
    K = fem.assemble_stiffness(small_mesh).mat
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


def test_factorize_requires_dirichlet(small_mesh):
    stiff = fem.assemble_stiffness(small_mesh)
    with pytest.raises(StateError):
        fem.factorize(stiff)


def test_double_dirichlet_rejected(small_mesh):
    stiff = fem.impose_dirichlet(fem.assemble_stiffness(small_mesh),
                                 small_mesh.boundary)
    with pytest.raises(StateError):
        fem.impose_dirichlet(stiff, small_mesh.boundary)


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
    K = fem.assemble_stiffness(small_mesh).mat
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
    K = fem.assemble_stiffness(small_mesh).mat
    assert np.abs((K @ psi)[_interior(small_mesh)]).max() < 1e-9 * np.abs(
        K.diagonal()).max()


# --- solve_multi split over the worker thread --------------------------------

def _factor(n):
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, n, n)
    return fem.factorize(fem.impose_dirichlet(fem.assemble_stiffness(mesh),
                                              mesh.boundary))


@pytest.fixture(scope="module")
def fact80():
    return _factor(80)


class _CountingWorker:
    """The worker, recording the column count of each solve handed to it."""

    def __init__(self, worker):
        self.worker, self.columns = worker, []

    def submit(self, fn, rhs):
        self.columns.append(rhs.shape[1])
        return self.worker.submit(fn, rhs)


@pytest.fixture
def worker(monkeypatch):
    # two CPUs whatever the machine has, so the split rule alone decides
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with ThreadPoolExecutor(1) as executor:
        counting = _CountingWorker(executor)
        monkeypatch.setattr(fem, "_workers", {os.getpid(): counting})
        yield counting


def _loads(fact, seed, k=14):
    return np.random.default_rng(seed).normal(size=(fact.n, k))


@pytest.mark.parametrize("n", [80, 45])
def test_split_solve_has_the_bits_of_one_solve(n, fact80, worker):
    fact = fact80 if n == 80 else _factor(n)
    if n == 45:     # the first square mesh at or above the split size
        assert fact._lu.nnz >= fem.SPLIT_NNZ > _factor(44)._lu.nnz
    # at 80x80 a cut at 7 columns changes a bit in loads 8, 13 and 16
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
    assert worker.columns == [8] * 20


def test_small_factor_and_one_cpu_start_no_thread(fact80, worker,
                                                  monkeypatch):
    small = _factor(20)
    assert small._lu.nnz < fem.SPLIT_NNZ
    small.solve_multi(_loads(small, 0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fact80.solve_multi(_loads(fact80, 0))
    assert worker.columns == []


def test_split_keeps_the_edge_cases(fact80, worker):
    assert fact80.solve_multi(np.zeros((fact80.n, 0))).shape == (fact80.n, 0)
    load = _loads(fact80, 1, 1)[:, 0]
    np.testing.assert_array_equal(fact80.solve_multi(load), fact80.solve(load))
    # below 9 columns the multiple of 8 nearest half the columns is 0
    fact80.solve_multi(_loads(fact80, 2, 8))
    with pytest.raises(ValueError):
        fact80.solve_multi(np.zeros((fact80.n, 14, 2)))
    assert worker.columns == []


def test_concurrent_callers_share_the_worker(fact80, worker):
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


def _child_solve(fact, cols, expected):
    np.testing.assert_array_equal(fact.solve_multi(cols), expected)


# Python 3.12 and later warn on fork in a process with threads
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
def test_forked_child_gets_its_own_worker(fact80, worker):
    cols = _loads(fact80, 4)
    expected = fact80.solve_multi(cols)      # the parent's worker has run
    assert worker.columns == [8]
    child = multiprocessing.get_context("fork").Process(
        target=_child_solve, args=(fact80, cols, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the split solve in a forked child did not finish")
    assert child.exitcode == 0
