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
        np.testing.assert_allclose(multi[:, j], fact.solve(cols[:, j]),
                                   rtol=1e-12, atol=1e-14)


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
