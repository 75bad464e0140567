"""Bit-level fingerprint of the pipeline's outputs on the conftest twin.

Prints one sha256 per mesh size (20x20, 40x40, 80x80) over: the forward
flux, the synthesized measurements, cold, repeated cold and warm
reconstructions (magnetics only and internal data, clean and 1 % noise:
psi, lam, a, b, c, residuals, lam history, costs and iteration count),
the profile table of the reference and of each reconstruction, and, at
20x20, a replicate_stats batch.  At 20x20 an L-curve line hashes x, y,
corner_eps and flat of the density and A/B L-curves on the 1 %-noise data
over 21 log-spaced eps from 1e-5 to 1.  A second line per mesh size hashes
the mesh-fixed set-up tables: the edge index, the node neighbors, the point
locator's bins, the limiter matrix, the mid-edge quadrature with its P, Pa
and Pb, the stiffness matrix, the Neumann observer C0 and the chords' S, D
and R.  A basis line, printed first, hashes ``SplineBasis.eval_many`` on a
fixed point set (the knots, their floating-point neighbours, points outside
[0, 1], a NaN and a uniform grid) for degrees 1 to 5, and
``regularization_matrix`` for degrees 2 to 5, each at three dimensions m:
the bits of the package's own spline kernel, whatever scipy is installed.
``tests/fingerprint.txt`` holds the lines of the committed code; a
change that moves bits updates it and says why.  Run from the repository
root and compare:

    python tests/fingerprint.py | diff tests/fingerprint.txt -

The name does not match pytest's test_*.py pattern, so the suite does not
collect it.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gsrecon  # noqa: E402
from conftest import CHORDS, LIMITER, a_ref, b_ref, ne_ref  # noqa: E402
from gsrecon.basis import (SplineBasis,  # noqa: E402
                           regularization_matrix)
from gsrecon.diagnostics import profile_table  # noqa: E402
from gsrecon.fem import assemble_stiffness  # noqa: E402
from gsrecon.forward import MachineParams, forward_fixed_point  # noqa: E402
from gsrecon.inverse import (ReconstructionSetup,  # noqa: E402
                             RegularizationConfig, reconstruct)
from gsrecon.twin import (l_curve_ab, l_curve_ne, perturb,  # noqa: E402
                          replicate_stats, synthesize_measurements)

SIZES = (20, 40, 80)


def feed(h, *values):
    """Add each value's bytes to the hash: arrays as float64, None and
    strings by name, dicts by sorted items."""
    for v in values:
        if v is None or isinstance(v, str):
            h.update(repr(v).encode())
        elif isinstance(v, dict):
            for k in sorted(v):
                feed(h, k, v[k])
        else:
            h.update(np.asarray(v, dtype=np.float64).tobytes())


def feed_sparse(h, *mats):
    """Add each sparse matrix's shape and CSR arrays, in stored order."""
    for mat in mats:
        feed(h, mat.shape, mat.data, mat.indices, mat.indptr)


def setup_fingerprint(setup):
    """sha256 over the mesh-fixed tables of ``setup`` and its mesh."""
    h = hashlib.sha256()
    mesh, squad, chords = setup.mesh, setup.squad, setup.chord_geoms
    locator = mesh.locator()
    feed(h, *mesh.edge_index(), mesh.node_neighbors(), locator._bin_tri,
         locator._start, squad.qp_nodes, squad.qp_bary, squad.qp_w,
         squad.qp_r, squad.qp_z)
    feed_sparse(h, mesh.limiter_matrix(), squad.P, squad.Pa, squad.Pb,
                assemble_stiffness(mesh, setup.machine.mu0), setup.c0,
                chords.S, chords.D, chords.R)
    return h.hexdigest()


def feed_result(h, res, setup):
    p = res.profiles
    feed(h, res.psi, res.lam, p.a, p.b, p.c, res.residuals,
         res.lam_history, res.costs, res.iterations, res.error)
    if res.error is None:
        feed(h, profile_table(setup.mesh, res.psi, res.domain, p, res.lam,
                              setup.machine))


def lcurve_fingerprint(setup, eq, ms):
    """sha256 over both L-curves of ``ms`` at the reference ``eq``."""
    h = hashlib.sha256()
    grid = np.logspace(-5, 0, 21)
    for lc in (l_curve_ne(setup, ms, eq, grid),
               l_curve_ab(setup, ms, eq, grid)):
        feed(h, lc.x, lc.y, lc.corner_eps, lc.flat)
    return h.hexdigest()


def basis_fingerprint():
    """sha256 over basis values and curvature penalties of degrees 1-5."""
    h = hashlib.sha256()
    for p in range(1, 6):
        for m in (p + 1, p + 4, 12):
            basis = SplineBasis(degree=p, m=m)
            t = basis.knots
            xs = np.concatenate([t, np.nextafter(t, -np.inf),
                                 np.nextafter(t, np.inf),
                                 [-0.5, 1.5, np.nan],
                                 np.linspace(0.0, 1.0, 1001)])
            feed(h, basis.eval_many(xs))
            if p >= 2:
                feed(h, regularization_matrix(basis))
    return h.hexdigest()


def fingerprint(n):
    h = hashlib.sha256()
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, n, n,
                                   limiter=LIMITER)
    machine = MachineParams(2.5, 2.0, 1.0e6)
    basis = SplineBasis(end_constraint=True)
    eq = forward_fixed_point(mesh, machine, a_ref, b_ref,
                             np.zeros(len(mesh.boundary)), basis=basis)
    xs = np.linspace(0.0, 1.0, 201)
    ne_coeffs = basis.fit(xs, ne_ref(xs))
    setup = ReconstructionSetup(mesh, machine, CHORDS, basis=basis)
    tables = setup_fingerprint(setup)
    ms = synthesize_measurements(setup, eq, ne_coeffs)
    feed(h, eq.psi, eq.lam, eq.residuals, ms.g_d, ms.g_n, ms.gamma, ms.alpha,
         profile_table(mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                       machine))
    reg = RegularizationConfig()
    lcurves = (lcurve_fingerprint(setup, eq, perturb(ms, 0.01, seed=7))
               if n == SIZES[0] else None)
    for internal in (False, True):
        for data in (ms, perturb(ms, 0.01, seed=7)):
            cold = reconstruct(setup, data, reg, use_internal=internal)
            again = reconstruct(setup, data, reg, use_internal=internal)
            warm = reconstruct(setup, data, reg, use_internal=internal,
                               tol=0.0, max_iter=2, warm_start=cold)
            for res in (cold, again, warm):
                feed_result(h, res, setup)
    if n == SIZES[0]:
        for st in replicate_stats(setup, ms, reg, [1e-2, 5e-2],
                                  n_replicates=3, seed=11):
            feed(h, st.grid, st.mean, st.median, st.std, st.n_converged,
                 st.n_failed, st.warm_start)
    return h.hexdigest(), tables, lcurves


if __name__ == "__main__":
    print(f"basis {basis_fingerprint()}", flush=True)
    for n in SIZES:
        outputs, tables, lcurves = fingerprint(n)
        print(f"{n}x{n} {outputs}", flush=True)
        print(f"{n}x{n} setup {tables}", flush=True)
        if lcurves is not None:
            print(f"{n}x{n} lcurve {lcurves}", flush=True)
