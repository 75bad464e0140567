"""Relations that must hold for any input, checked through the pipeline.

Scaling: multiplying the magnetic data g_d and g_n by a power of two 2^k
scales every quantity of the reconstruction that is linear in them by
exactly 2^k, since each product and quotient by 2^k is exact in floating
point.  The plasma current Ip, and with it the weights, stays unscaled, so
lambda's per-iteration history, the residuals and the normalized A and B
coefficients keep their bits while psi and the final lambda scale.  Only
the magnetics enter: the internal data's weights are taken from the data
themselves.
"""

import dataclasses

import numpy as np
import pytest

from gsrecon.inverse import RegularizationConfig, reconstruct
from gsrecon.twin import perturb

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
