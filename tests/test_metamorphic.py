"""Relations that must hold for any input, checked through the pipeline.

Scaling: multiplying the magnetic data g_d and g_n by a power of two 2^k
scales every quantity of the reconstruction that is linear in them by
exactly 2^k, since each product and quotient by 2^k is exact in floating
point.  The plasma current Ip, and with it the weights, stays unscaled, so
lambda's per-iteration history, the residuals and the normalized A and B
coefficients keep their bits while psi and the final lambda scale.  Only
the magnetics enter: the internal data's weights are taken from the data
themselves.

Mirror z -> -z: the conftest twin mirrored (nodes, triangle orientation,
boundary loop, limiter, chords and the boundary data along the loop)
gives the mirrored flux and axis, both in the forward solve and in a cold
magnetics-only reconstruction.
"""

import dataclasses

import numpy as np
import pytest

from gsrecon.forward import forward_fixed_point
from gsrecon.inverse import (ReconstructionSetup, RegularizationConfig,
                             reconstruct)
from gsrecon.mesh import Mesh
from gsrecon.twin import perturb

from conftest import CHORDS, a_ref, b_ref

FLIP = np.array([1.0, -1.0])

NOISE = {"clean": 0.0, "noisy": 0.01}


@pytest.fixture(scope="module")
def unscaled(setup, clean_measurements):
    """The magnetics-only cold reconstruction of each data set."""
    out = {}
    for name, rate in NOISE.items():
        ms = perturb(clean_measurements, rate, seed=7)
        out[name] = ms, reconstruct(setup, ms, RegularizationConfig(),
                                    use_internal=False)
    return out


@pytest.mark.parametrize(
    "k", [-200, -60, -46, -45, -40, -27, 27, 40, 60, 200])
@pytest.mark.parametrize("data", list(NOISE))
def test_magnetic_data_scaling_scales_psi_and_lambda(setup, unscaled, data,
                                                     k):
    ms, ref = unscaled[data]
    scaled = dataclasses.replace(ms, g_d=np.ldexp(ms.g_d, k),
                                 g_n=np.ldexp(ms.g_n, k))
    res = reconstruct(setup, scaled, RegularizationConfig(),
                      use_internal=False)
    assert ref.converged and res.converged and res.error is None
    assert res.iterations == ref.iterations
    assert res.residuals == ref.residuals
    assert res.lam_history == ref.lam_history
    np.testing.assert_array_equal(res.profiles.a, ref.profiles.a)
    np.testing.assert_array_equal(res.profiles.b, ref.profiles.b)
    np.testing.assert_array_equal(res.psi, np.ldexp(ref.psi, k))
    assert res.lam == np.ldexp(ref.lam, k)


def _mirrored(mesh):
    """``mesh`` mirrored z -> -z with its node numbering kept: each
    triangle's corners and the boundary loop reversed, so both stay
    counter-clockwise, and the limiter mirrored and reversed."""
    return Mesh(mesh.nodes * FLIP, mesh.triangles[:, ::-1],
                mesh.boundary[::-1], (mesh.limiter * FLIP)[::-1])


def _assert_mirrored(mesh, res, ref, tol):
    """``res`` on the mirrored mesh is ``ref`` mirrored, to the solve
    tolerance.

    Every step of both loops is mirror-equivariant in exact arithmetic:
    the node numbering is shared, so the stiffness matrix, the source
    quadrature and C0 are the same matrices up to the order in which their
    sums round, and each discrete decision of a step (the axis node, the
    limiter point that sets psi_b, the plasma mask) is the mirror of the
    other run's unless it is a tie to rounding.  None is on this twin: the
    axis node is the one node on z = 0 nearest the axis, and the highest
    limiter corner leads its mirror by 2 % (the triangle diagonals break
    the up-down symmetry).  So the runs take the same iterations and
    differ by rounding only (about 1e-14 max|psi| measured).  The bound is
    the solve tolerance: tol max|psi| for psi and the domain's fluxes, tol
    cell heights for the axis (a fit linear in psi).  A flipped decision
    or an orientation-dependent step moves psi_b by the 2 % corner lead,
    far beyond it.
    """
    scale = np.abs(ref.psi).max()
    h = np.diff(np.unique(mesh.nodes[:, 1])).min()
    assert res.error is None and res.converged and ref.converged
    assert res.iterations == ref.iterations
    assert res.lam == pytest.approx(ref.lam, rel=tol)
    assert np.abs(res.psi - ref.psi).max() <= tol * scale
    d, d_ref = res.domain, ref.domain
    assert d.mode == d_ref.mode
    assert abs(d.psi_a - d_ref.psi_a) <= tol * scale
    assert abs(d.psi_b - d_ref.psi_b) <= tol * scale
    assert np.abs(np.multiply(d.axis, FLIP) - d_ref.axis).max() <= tol * h


def test_mirror_gives_mirrored_forward_equilibrium(twin_mesh, machine,
                                                   basis, reference_eq):
    mirror = _mirrored(twin_mesh)
    eq = forward_fixed_point(mirror, machine, a_ref, b_ref,
                             np.zeros(len(mirror.boundary)), basis=basis)
    _assert_mirrored(twin_mesh, eq, reference_eq, 1e-6)


@pytest.mark.parametrize("data", list(NOISE))
def test_mirror_gives_mirrored_cold_reconstruction(twin_mesh, machine, basis,
                                                   setup, unscaled, data):
    ms, ref = unscaled[data]
    mirror = ReconstructionSetup(_mirrored(twin_mesh), machine,
                                 np.multiply(CHORDS, np.tile(FLIP, 2)),
                                 basis=basis)
    mirrored = dataclasses.replace(ms, g_d=ms.g_d[::-1], g_n=ms.g_n[::-1],
                                   gn_points=(ms.gn_points * FLIP)[::-1])
    res = reconstruct(mirror, mirrored, RegularizationConfig(),
                      use_internal=False)
    _assert_mirrored(twin_mesh, res, ref, 1e-6)
    for x, x_ref in ((res.profiles.a, ref.profiles.a),
                     (res.profiles.b, ref.profiles.b)):
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-6)
