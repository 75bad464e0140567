"""Behaviour of the two numeric kernels: batch B-spline evaluation
(``SplineBasis.eval_many``) and source-matrix assembly."""

import numpy as np
from scipy.interpolate import BSpline

from gsrecon.basis import SplineBasis
from gsrecon.forward import SourceQuadrature, assemble_source_matrix

BASIS = SplineBasis(end_constraint=True)


def test_bspline_batch_matches_scipy():
    xs = np.linspace(0.0, 1.0, 257)
    ours = BASIS.eval_many(xs)
    ref = BSpline.design_matrix(xs, BASIS.knots, BASIS.degree).toarray()
    np.testing.assert_allclose(ours, ref, atol=1e-13)


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
