"""Iteration totals of both Picard loops on the 48-run twin set.

The conftest twin at 20, 40 and 80 cells with A = (1 - x)(1 + alpha x),
B = (1 - x)(1 + beta x) for five (alpha, beta) pairs: a forward solve at
the default tolerance, and cold magnetics-only and cold internal
reconstructions of 1 % noise (seed 7) on data synthesized from a forward
solve at tol 1e-13.  The set's three warm two-iteration runs have a fixed
count and are left out.  A change to either loop, its start or its mixing
that needs more iterations in total fails here; single runs may move
either way.
"""

import numpy as np
import pytest

import gsrecon
from gsrecon.forward import forward_fixed_point
from gsrecon.inverse import (ReconstructionSetup, RegularizationConfig,
                             reconstruct)
from gsrecon.twin import perturb, synthesize_measurements

from conftest import CHORDS, LIMITER, ne_ref

PAIRS = [(0.3, -0.2), (0.0, 0.0), (0.6, 0.2), (0.45, -0.1), (0.15, -0.4)]
# the totals the one cold start reaches
BOUNDS = {"forward": 125, "magnetics": 134, "internal": 141}


@pytest.fixture(scope="module")
def runs(machine, basis):
    """(iterations, converged) of every run, by kind."""
    out = {kind: [] for kind in BOUNDS}
    xs = np.linspace(0.0, 1.0, 201)
    ne_coeffs = basis.fit(xs, ne_ref(xs))
    reg = RegularizationConfig()
    for n in (20, 40, 80):
        mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, n, n,
                                       limiter=LIMITER)
        setup = ReconstructionSetup(mesh, machine, CHORDS, basis=basis)
        g_d = np.zeros(len(mesh.boundary))
        for alpha, beta in PAIRS:
            profiles = (lambda x: (1.0 - x) * (1.0 + alpha * x),
                        lambda x: (1.0 - x) * (1.0 + beta * x))
            eq = forward_fixed_point(mesh, machine, *profiles, g_d,
                                     basis=basis)
            out["forward"].append((eq.iterations, eq.converged))
            ref = forward_fixed_point(mesh, machine, *profiles, g_d,
                                      tol=1e-13, max_iter=100, basis=basis)
            ms = perturb(synthesize_measurements(setup, ref, ne_coeffs),
                         0.01, seed=7)
            for kind, internal in (("magnetics", False), ("internal", True)):
                res = reconstruct(setup, ms, reg, use_internal=internal)
                out[kind].append((res.iterations, res.converged))
    return out


@pytest.mark.parametrize("kind", BOUNDS)
def test_iteration_total_does_not_grow(runs, kind):
    assert len(runs[kind]) == 15
    assert all(ok for _, ok in runs[kind])
    assert sum(n for n, _ in runs[kind]) <= BOUNDS[kind]
