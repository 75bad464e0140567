"""Shared fixtures: the desk-scale twin configuration used across the
test suite.

All expensive objects (converged reference equilibrium, reconstruction
setup, synthetic measurements) are session-scoped so each is built once.
"""

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial import Delaunay

import gsrecon
from gsrecon.basis import SplineBasis
from gsrecon.diagnostics import profile_table
from gsrecon.forward import MachineParams, forward_fixed_point
from gsrecon.inverse import ReconstructionSetup
from gsrecon.twin import synthesize_measurements

# every property test runs the same examples on every machine and run
settings.register_profile("reproducible", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("reproducible")


def a_ref(x):
    return (1.0 - x) * (1.0 + 0.3 * x)


def b_ref(x):
    return (1.0 - x) * (1.0 - 0.2 * x)


def ne_ref(x):
    return 1.2e19 * (1.0 - 0.85 * x ** 2)


# interferometry/polarimetry chords crossing the plasma off the symmetry
# planes, so the polarimetric signal does not vanish anywhere on a chord
CHORDS = [
    (2.0, -0.9, 3.0, 0.3), (2.0, 0.9, 3.0, -0.3),
    (2.0, -0.3, 3.0, 0.9), (2.0, 0.3, 3.0, -0.9),
    (2.2, -1.2, 2.8, 1.2), (2.8, -1.2, 2.2, 1.2),
    (2.0, 0.55, 3.0, 0.55), (2.0, -0.55, 3.0, -0.55),
    (2.35, -1.2, 2.65, 1.2), (2.65, -1.2, 2.35, 1.2),
    (2.0, -0.75, 3.0, 0.75), (2.0, 0.75, 3.0, -0.75),
    (2.0, 0.15, 3.0, 0.15), (2.0, -0.15, 3.0, -0.15),
]

LIMITER = np.array([[2.1, -1.05], [2.9, -1.05], [2.9, 1.05], [2.1, 1.05]])


@pytest.fixture(scope="session")
def twin_mesh():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 20, 20,
                                   limiter=LIMITER)


@pytest.fixture(scope="session")
def machine():
    return MachineParams(2.5, 2.0, 1.0e6)


@pytest.fixture(scope="session")
def basis():
    return SplineBasis(end_constraint=True)


@pytest.fixture(scope="session")
def reference_eq(twin_mesh, machine, basis):
    g_d = np.zeros(len(twin_mesh.boundary))
    return forward_fixed_point(twin_mesh, machine, a_ref, b_ref, g_d,
                               basis=basis)


@pytest.fixture(scope="session")
def twin_mesh_80():
    """The twin configuration on 80x80 cells, the benchmark's size."""
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, 80, 80,
                                   limiter=LIMITER)


@pytest.fixture(scope="session")
def reference_eq_80(twin_mesh_80, machine, basis):
    g_d = np.zeros(len(twin_mesh_80.boundary))
    return forward_fixed_point(twin_mesh_80, machine, a_ref, b_ref, g_d,
                               basis=basis)


@pytest.fixture(scope="session")
def setup(twin_mesh, machine, basis):
    return ReconstructionSetup(twin_mesh, machine, CHORDS, basis=basis)


@pytest.fixture(scope="session")
def ne_coeffs(basis):
    xs = np.linspace(0.0, 1.0, 201)
    return basis.fit(xs, ne_ref(xs))


@pytest.fixture(scope="session")
def clean_measurements(setup, reference_eq, ne_coeffs):
    return synthesize_measurements(setup, reference_eq, ne_coeffs)


@pytest.fixture(scope="session")
def reference_table(twin_mesh, reference_eq, machine):
    eq = reference_eq
    return profile_table(twin_mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                         machine)


@pytest.fixture(scope="session")
def small_mesh():
    """Cheap structured mesh without a dedicated limiter contour."""
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 8, 8)


@pytest.fixture(scope="session")
def delaunay_mesh():
    """Delaunay mesh of the rectangle [2, 3] x [-1, 1]: 14 boundary
    segments a side around a lattice jittered by 0.3 cell, interior node
    degrees 4 to 9."""
    n, rng = 14, np.random.default_rng(3)
    r, z = np.linspace(2.0, 3.0, n + 1), np.linspace(-1.0, 1.0, n + 1)
    loop = np.concatenate([
        np.column_stack([r[:-1], np.full(n, z[0])]),
        np.column_stack([np.full(n, r[-1]), z[:-1]]),
        np.column_stack([r[:0:-1], np.full(n, z[-1])]),
        np.column_stack([np.full(n, r[0]), z[:0:-1]])])
    R, Z = np.meshgrid(r[1:-1], z[1:-1], indexing="ij")
    inner = np.column_stack([R.ravel(), Z.ravel()]) + 0.3 * rng.uniform(
        -1.0, 1.0, (R.size, 2)) * [r[1] - r[0], z[1] - z[0]]
    nodes = np.vstack([loop, inner])
    tris = Delaunay(nodes).simplices
    d = nodes[tris[:, 1:]] - nodes[tris[:, :1]]
    clockwise = d[:, 0, 0] * d[:, 1, 1] < d[:, 0, 1] * d[:, 1, 0]
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    mesh = gsrecon.Mesh(nodes, tris, np.arange(len(loop)),
                        [[2.3, -0.5], [2.7, -0.5], [2.7, 0.5], [2.3, 0.5]])
    degrees = (mesh.node_neighbors()[mesh.interior_nodes()] >= 0).sum(axis=1)
    assert (degrees.min(), degrees.max()) == (4, 9)
    return mesh
