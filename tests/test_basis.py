import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsrecon.basis import (ProfileExpansion, SplineBasis,
                           first_guess_expansion, open_uniform_knots,
                           regularization_matrix)
from gsrecon.errors import StateError

BASIS = SplineBasis(end_constraint=True)


def test_knot_vector_shape():
    knots = open_uniform_knots(3, 8)
    assert len(knots) == 8 + 3 + 1
    assert np.all(knots[:4] == 0.0) and np.all(knots[-4:] == 1.0)


def test_knot_vector_rejects_small_m():
    with pytest.raises(ValueError):
        open_uniform_knots(3, 3)


def test_negative_degree_is_refused():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        SplineBasis(degree=-1, m=8)


def test_replace_builds_open_uniform_basis():
    basis = dataclasses.replace(BASIS, m=10)
    assert (basis.degree, basis.m, basis.end_constraint) == (3, 10, True)
    np.testing.assert_array_equal(basis.knots, open_uniform_knots(3, 10))
    assert basis.eval_many([0.3]).shape == (1, 10)


@given(st.floats(0.0, 1.0))
def test_partition_of_unity(x):
    vals = BASIS.eval_many([x])[0]
    assert np.all(vals >= -1e-14)
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_eval_clamps_outside_unit_interval():
    np.testing.assert_allclose(BASIS.eval_many([-0.5, 1.5]),
                               BASIS.eval_many([0.0, 1.0]), atol=1e-14)


def test_only_last_basis_function_alive_at_one():
    vals = BASIS.eval_many([1.0])[0]
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(vals[:-1]).max() < 1e-12


def test_greville_coefficients_reproduce_affine():
    g = BASIS.greville()
    coeffs = 2.0 * g - 0.7          # samples of f(x) = 2x - 0.7
    xs = np.linspace(0, 1, 101)
    np.testing.assert_allclose(BASIS.eval_many(xs) @ coeffs, 2.0 * xs - 0.7,
                               atol=1e-12)


def test_fit_reproduces_representable_function():
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=BASIS.m)
    xs = np.linspace(0, 1, 101)
    fitted = BASIS.fit(xs, BASIS.eval_many(xs) @ coeffs)
    np.testing.assert_allclose(fitted, coeffs, atol=1e-9)


def test_penalty_matrix_symmetric_psd():
    lam = regularization_matrix(BASIS)
    np.testing.assert_allclose(lam, lam.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(lam)
    assert eigs.min() > -1e-9 * eigs.max()


def test_penalty_annihilates_affine():
    g = BASIS.greville()
    for coeffs in (np.ones(BASIS.m), 2.0 * g - 0.7):
        resid = regularization_matrix(BASIS) @ coeffs
        assert np.abs(resid).max() < 1e-12


def test_penalty_positive_on_curved():
    xs = np.linspace(0, 1, 201)
    coeffs = BASIS.fit(xs, (1 - xs) ** 2)
    lam = regularization_matrix(BASIS)
    assert coeffs @ lam @ coeffs > 1e-6


def test_penalty_needs_curvature():
    with pytest.raises(StateError):
        regularization_matrix(SplineBasis(degree=1, m=4))


def test_expansion_validates_coefficient_length():
    with pytest.raises(ValueError):
        ProfileExpansion(BASIS, np.zeros(3), np.zeros(BASIS.m))


def test_first_guess_is_one_minus_x():
    exp = first_guess_expansion(BASIS)
    xs = np.linspace(0, 1, 51)
    phi = BASIS.eval_many(xs)
    np.testing.assert_allclose(phi @ exp.a, 1.0 - xs, atol=1e-12)
    np.testing.assert_allclose(phi @ exp.b, 1.0 - xs, atol=1e-12)
