"""The Picard step's operator stages, each one pass, against the frozen
multi-pass versions they replaced, bit for bit: the ring sign-change
count and the saddle tie test of the domain search, the source matrix Y
and the forward load, and the rows E and D K^-1 Y of the flux state with
the polarimetry rows of the A/B solve.  On the conftest twin flux at
20x20 and 80x80, and under the hypothesis profile on jittered rectangle
meshes with exact ties (a constant boundary ring, a plateau) and NaN
entries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsrecon
from gsrecon import geometry, inverse
from gsrecon.basis import SplineBasis
from gsrecon.forward import (MachineParams, assemble_source_matrix,
                             assemble_source_vector, forward_fixed_point)
from gsrecon.geometry import make_plasma_domain, ring_sign_changes
from gsrecon.inverse import (ReconstructionSetup, RegularizationConfig,
                             flux_state, reconstruct)
from gsrecon.observation import build_polarimetry_observer
from gsrecon.twin import perturb, synthesize_measurements

from conftest import CHORDS, LIMITER, a_ref, b_ref, ne_ref
from frozen_primitives import (ring_sign_changes_permuted,
                               saddle_candidates_diff,
                               source_matrix_two_products,
                               source_vector_two_products, step_rows_separate,
                               tie_nodes_diff, weighted_scatter_pair)

R0 = 2.5


def _same(new, ref):
    """Equal shape and bits."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


def _tie_nodes(mesh, psi, scale, monkeypatch):
    """saddle_candidates of psi, and the tied nodes it hands to the ring
    scan (none when it makes no scan)."""
    seen = []

    def record(mesh, psi, nodes, tol):
        seen.append(nodes.copy())
        return real(mesh, psi, nodes, tol)

    real = geometry._ring_saddles
    monkeypatch.setattr(geometry, "_ring_saddles", record)
    saddles = geometry.saddle_candidates(mesh, psi, scale)
    monkeypatch.setattr(geometry, "_ring_saddles", real)
    return saddles, seen[0] if seen else np.zeros(0, dtype=np.int64)


def _assert_domain_passes(mesh, psi, monkeypatch):
    """The ring counts, the tie test and the saddle candidates of psi match
    their frozen passes exactly."""
    counts = ring_sign_changes(mesh, psi)
    assert counts.dtype.kind == "i"
    np.testing.assert_array_equal(counts, ring_sign_changes_permuted(mesh,
                                                                     psi))
    scale = np.nanmax(np.abs(psi)) if np.isfinite(psi).any() else 1.0
    saddles, ties = _tie_nodes(mesh, psi, scale, monkeypatch)
    np.testing.assert_array_equal(ties, tie_nodes_diff(mesh, psi, scale))
    np.testing.assert_array_equal(saddles,
                                  saddle_candidates_diff(mesh, psi, scale))


def _assert_source_passes(squad, pq, basis, rng):
    """Y and the load of A, B at the points pq match the two-product
    versions bit for bit."""
    pa, pb = weighted_scatter_pair(squad, R0)
    n = pa.shape[0]
    for block, view, ref in ((squad.Pab[:n], squad.Pa, pa),
                             (squad.Pab[n:], squad.Pb, pb)):
        for attr in ("data", "indices", "indptr"):
            _same(getattr(block, attr), getattr(ref, attr))
            _same(getattr(view, attr), getattr(ref, attr))
        # the row blocks hold no copy of the stack's entries
        assert np.shares_memory(view.data, squad.Pab.data)
        assert np.shares_memory(view.indices, squad.Pab.indices)
    _same(assemble_source_matrix(squad, pq, basis),
          source_matrix_two_products(pa, pb, pq, basis))
    a_vals, b_vals = rng.standard_normal((2, len(pq)))
    _same(assemble_source_vector(squad, pq, a_vals, b_vals),
          source_vector_two_products(pa, pb, pq, a_vals, b_vals))


# ---------------------------------------------------------------------------
# The conftest twin at 20x20 and 80x80
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[20, 80], ids=["20x20", "80x80"])
def twin(request):
    n = request.param
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, n, n,
                                   limiter=LIMITER)
    machine = MachineParams(R0, 2.0, 1.0e6)
    basis = SplineBasis(end_constraint=True)
    eq = forward_fixed_point(mesh, machine, a_ref, b_ref,
                             np.zeros(len(mesh.boundary)), basis=basis)
    setup = ReconstructionSetup(mesh, machine, CHORDS, basis=basis)
    xs = np.linspace(0.0, 1.0, 201)
    ms = synthesize_measurements(setup, eq, basis.fit(xs, ne_ref(xs)))
    return setup, eq, perturb(ms, 0.01, seed=7)


def test_domain_passes_match_frozen_on_twin_flux(twin, monkeypatch):
    setup, eq, _ = twin
    # psi is 0 on the whole boundary ring: every boundary edge ties
    for psi in (eq.psi, eq.domain.normalize(eq.psi)):
        _assert_domain_passes(setup.mesh, psi, monkeypatch)


def test_source_passes_match_frozen_on_twin_flux(twin):
    setup, eq, _ = twin
    squad = setup.squad
    rng = np.random.default_rng(5)
    for pq in (squad.P @ eq.domain.normalize(eq.psi), squad.cold_psibar):
        assert 0 < np.count_nonzero(pq <= 1.0) < len(pq)
        _assert_source_passes(squad, pq, setup.basis, rng)


@pytest.mark.parametrize("internal", [False, True],
                         ids=["magnetics", "internal"])
def test_step_rows_match_separate_products(twin, internal, monkeypatch):
    # a warm two-iteration reconstruction, the real-time regime: every
    # flux state's E and D K^-1 Y, and the rows (E, f) each A/B solve
    # receives, against C0, D and the polarimetry observer applied apart
    setup, eq, ms = twin
    states, ne, rows = [], [], []

    def spy(real, out):
        def wrapped(*args):
            result = real(*args)
            out.append((args, result))
            return result
        return wrapped

    monkeypatch.setattr(inverse, "flux_state", spy(flux_state, states))
    monkeypatch.setattr(inverse, "identify_ne",
                        spy(inverse.identify_ne, ne))
    monkeypatch.setattr(inverse, "identify_ab",
                        spy(inverse.identify_ab, rows))
    setup._first = None                     # no memo hit: one state a step
    res = reconstruct(setup, ms, RegularizationConfig(), use_internal=internal,
                      tol=0.0, max_iter=2, warm_start=eq)
    assert res.error is None and res.iterations == 2
    assert len(states) == len(rows) == 2 and len(ne) == 2 * internal
    k_inv_g = setup.fact.lift(ms.g_d)
    for k, (_, ((lam, u, k_inv_y, E, b_int, G, dk), _)) in enumerate(states):
        _same(E, setup.c0 @ k_inv_y)
        if internal:
            _same(dk, setup.chord_geoms.D @ k_inv_y)
            ref = step_rows_separate(setup, k_inv_y, k_inv_g, ms.g_n,
                                     ms.alpha, G, ne[k][1][0])
        else:
            assert dk is None
            ref = step_rows_separate(setup, k_inv_y, k_inv_g, ms.g_n)
        (E_step, f_step, *_), _ = rows[k]
        _same(E_step, ref[0])
        _same(f_step, ref[1])


# ---------------------------------------------------------------------------
# Jittered rectangle meshes with ties and NaN entries
# ---------------------------------------------------------------------------

def _jittered_mesh(nr, nz, rng):
    """The twin rectangle with interior nodes moved by up to 0.2 cell, so
    no triangle can turn over."""
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.2, 1.2, nr, nz,
                                   limiter=LIMITER)
    nodes, inner = mesh.nodes.copy(), mesh.interior_nodes()
    nodes[inner] += 0.2 * np.array([1.0 / nr, 2.4 / nz]) * rng.uniform(
        -1.0, 1.0, (len(inner), 2))
    return gsrecon.Mesh(nodes, mesh.triangles, mesh.boundary, LIMITER)


def _bump(mesh, rng):
    """A Gaussian peak inside the limiter: a flux with an axis."""
    center = rng.uniform((2.35, -0.4), (2.65, 0.4))
    width = rng.uniform(0.3, 0.6)
    return np.exp(-((mesh.nodes - center) ** 2).sum(axis=1) / width ** 2)


@settings(max_examples=200)
@given(data=st.data())
def test_domain_and_source_passes_match_frozen_on_jittered_meshes(data):
    nr, nz = data.draw(st.integers(3, 10)), data.draw(st.integers(3, 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mesh = _jittered_mesh(nr, nz, rng)
    kind = data.draw(st.sampled_from(["bump", "levels", "at_tol", "noise"]))
    if kind == "bump":
        psi = _bump(mesh, rng)
    elif kind == "levels":                  # exact ties between neighbours
        psi = rng.integers(0, 3, mesh.n_nodes).astype(float)
    elif kind == "at_tol":                  # steps of exactly 1e-14 max|psi|
        psi = rng.choice([0.0, 1e-14, 1.0], mesh.n_nodes)
    else:
        psi = rng.standard_normal(mesh.n_nodes)
    if data.draw(st.booleans()):            # a constant boundary ring
        psi[mesh.boundary] = psi[mesh.boundary[0]]
    if data.draw(st.booleans()):            # a plateau: a node and its ring
        node = rng.choice(mesh.interior_nodes())
        ring = mesh.node_neighbors()[node]
        psi[ring[ring >= 0]] = psi[node]
    psi[rng.choice(mesh.n_nodes, data.draw(st.integers(0, 3)),
                   replace=False)] = np.nan
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_domain_passes(mesh, psi, monkeypatch)

    squad = gsrecon.forward.SourceQuadrature(mesh, R0)
    pq = squad.P @ psi / np.nanmax(np.abs(psi))
    pq[rng.random(len(pq)) < 0.1] = 1.0     # points on the boundary level
    _assert_source_passes(squad, pq, SplineBasis(end_constraint=True), rng)


@settings(max_examples=60)
@given(data=st.data())
def test_flux_state_rows_match_separate_products_on_jittered_meshes(data):
    n = data.draw(st.integers(6, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mesh = _jittered_mesh(n, n, rng)
    basis = SplineBasis(end_constraint=True)
    setup = ReconstructionSetup(mesh, MachineParams(R0, 2.0, 1.0e6), CHORDS,
                                basis=basis)
    psi = _bump(mesh, rng)
    u = rng.uniform(0.1, 1.0, 2 * basis.m - 2)
    (lam, u, k_inv_y, E, b_int, G, dk), _ = flux_state(
        setup, psi, make_plasma_domain(mesh, psi), u, True, 1.0e6)
    _same(E, setup.c0 @ k_inv_y)
    _same(dk, setup.chord_geoms.D @ k_inv_y)
    # the observer once on [D K^-1 Y | D K^-1 g], as the step applies it
    dk_inv_g = setup.chord_geoms.D @ rng.standard_normal(mesh.n_nodes)
    polar = build_polarimetry_observer(setup.chord_geoms, G,
                                       rng.uniform(0.5, 1.5, basis.m) * 1e19)
    both = polar(np.column_stack([dk, dk_inv_g]))
    _same(both[:, :-1], polar(dk))
    _same(both[:, -1], polar(dk_inv_g))
