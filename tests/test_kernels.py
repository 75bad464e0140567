"""Behaviour of the two numeric kernels: batch B-spline evaluation
(``SplineBasis.eval_many``, with the curvature penalty built on it) and
source-matrix assembly.  scipy's BSpline, which the package no longer
imports, is the reference the basis values are compared with bit for bit."""

import numpy as np
from scipy.interpolate import BSpline

from gsrecon.basis import _BLOCK, SplineBasis, regularization_matrix
from gsrecon.forward import SourceQuadrature, assemble_source_matrix

BASIS = SplineBasis(end_constraint=True)


def _design_matrix_eval(basis, xs):
    """The frozen evaluation: scipy's sparse design matrix made dense."""
    x = np.clip(np.atleast_1d(np.asarray(xs, float)), 0.0, 1.0)
    return BSpline.design_matrix(x, basis.knots, basis.degree,
                                 extrapolate=True).toarray()


def test_bspline_batch_matches_scipy():
    bases = [SplineBasis(degree=p, m=m) for p in range(0, 6)
             for m in range(p + 1, p + 12)]
    rng = np.random.default_rng(0)
    for basis in bases:
        t = basis.knots
        xs = np.concatenate([t, np.nextafter(t, -np.inf),
                             np.nextafter(t, np.inf), [0.0, 1.0],
                             rng.random(300)])
        ours = basis.eval_many(xs)
        ref = _design_matrix_eval(basis, xs)
        assert ours.shape == ref.shape == (len(xs), basis.m)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


def test_bspline_nan_gives_nan_row():
    # as scipy's BSpline.__call__: the NaN rows are NaN in every column,
    # the other rows keep their values
    for p in range(0, 6):
        basis = SplineBasis(degree=p, m=p + 4)
        xs = np.array([0.3, np.nan, 1.0, np.nan])
        ours = basis.eval_many(xs)
        ref = BSpline(basis.knots, np.eye(basis.m), p)(xs)
        assert np.isnan(ours[[1, 3]]).all()
        assert ours.tobytes() == ref.tobytes()


def test_bspline_batch_spans_blocks():
    # more points than one de Boor pass takes, NaNs in two blocks
    rng = np.random.default_rng(1)
    xs = rng.random(2 * _BLOCK + 7)
    xs[[5, _BLOCK + 3]] = np.nan
    ref = BSpline(BASIS.knots, np.eye(BASIS.m), BASIS.degree)(xs)
    assert BASIS.eval_many(xs).tobytes() == ref.tobytes()


def _scipy_regularization_matrix(basis):
    """The frozen penalty: scipy's second-derivative spline on the same
    per-span Gauss rule."""
    t, p, m = basis.knots, basis.degree, basis.m
    npts = max(2, p - 1)
    gx, gw = np.polynomial.legendre.leggauss(npts)
    spans = np.unique(t)
    lam = np.zeros((m, m))
    d2 = BSpline(t, np.eye(m), p).derivative(2)
    for a, b in zip(spans[:-1], spans[1:]):
        xs = 0.5 * (b - a) * gx + 0.5 * (a + b)
        ws = 0.5 * (b - a) * gw
        vals = d2(xs).T
        lam += (vals * ws) @ vals.T
    return 0.5 * (lam + lam.T)


def test_regularization_matrix_matches_scipy():
    for p in range(2, 6):
        for m in range(p + 1, p + 7):
            basis = SplineBasis(degree=p, m=m)
            ours = regularization_matrix(basis)
            ref = _scipy_regularization_matrix(basis)
            assert ours.shape == ref.shape == (m, m)
            assert ours.tobytes() == ref.tobytes(), (p, m)


def test_bspline_batch_clamps():
    inside = BASIS.eval_many(np.array([0.0, 1.0]))
    outside = BASIS.eval_many(np.array([-3.0, 7.0]))
    np.testing.assert_allclose(outside, inside, atol=1e-14)


def test_source_kernel_ignores_vacuum_points(small_mesh):
    squad = SourceQuadrature(small_mesh, 2.5)
    psibar = np.full(len(squad.qp_w), 2.0)
    psibar[0] = 0.5
    Y = assemble_source_matrix(squad, psibar, BASIS)
    touched = np.nonzero(np.abs(Y).sum(axis=1))[0]
    assert set(touched) <= set(squad.qp_nodes[0])
    assert len(touched) > 0


def test_source_matrix_matches_masked_fill(twin_mesh, reference_eq):
    # vacuum points evaluated at psibar = 1 give the zeros of the frozen
    # fill, which evaluated only the plasma points
    squad = SourceQuadrature(twin_mesh, 2.5)
    eq = reference_eq
    pq = squad.P @ eq.domain.normalize(eq.psi)
    mask = pq <= 1.0
    phi = np.zeros((len(pq), BASIS.m - 1))
    phi[mask] = BASIS.eval_many(pq[mask])[:, :-1]
    ref = np.hstack([squad.Pa @ phi, squad.Pb @ phi])
    assert 0 < mask.sum() < len(pq)
    assert assemble_source_matrix(squad, pq, BASIS).tobytes() == ref.tobytes()
