"""The all-levels contour pass behind ``extract_contour`` and
``profile_table`` against frozen copies of the per-level triangle loop it
replaced, each level's segments compared as a set, and against the level x
edge mask pass that preceded the run enumeration.

``_closed_contours`` has two branches: when the one-cycle condition holds
(``diagnostics._one_cycle``: the minimum is the only PL-critical node
below the top level, and no boundary node and no tied side lies below it)
every level is one closed curve and the connected-components step is
skipped; otherwise the contour pass runs.  Spies on ``_one_cycle`` and
``_group_curves`` show which branch each field takes, and both match the
frozen mask pass bit for bit."""

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import gsrecon
from gsrecon import diagnostics, twin
from gsrecon.diagnostics import (CONTOURED_ROWS, TABLE_GRID,
                                 _closed_contours, _fill_ends,
                                 extract_contour, integrate_f,
                                 mean_current_density, profile_table)
from gsrecon.geometry import ring_sign_changes
from gsrecon.inverse import RegularizationConfig

from frozen_primitives import point_in_polygon_scalar


# ---------------------------------------------------------------------------
# Frozen versions
# ---------------------------------------------------------------------------

class _NoContour(Exception):
    """The frozen loop found no closed contour around the axis."""


def _closed_contours_masks(mesh, psibar, levels, axis):
    """The all-levels pass over dense level x edge and level x triangle
    masks, as it was before the crossings were enumerated as runs."""
    psibar = np.asarray(psibar, dtype=np.float64)
    levels = np.array(levels, dtype=np.float64)
    nodal = np.sort(psibar)
    i = np.clip(np.searchsorted(nodal, levels), 1, len(nodal) - 1)
    levels[np.minimum(np.abs(nodal[i - 1] - levels),
                      np.abs(nodal[i] - levels)) < 1e-14] += 1e-11

    edges, tri_edges = mesh.edge_index()
    neg = psibar < levels[:, None]
    crossed = neg[:, edges[:, 0]] != neg[:, edges[:, 1]]
    key_level, key_edge = np.nonzero(crossed)
    na, nb = edges[key_edge, 0], edges[key_edge, 1]
    va = psibar[na] - levels[key_level]
    s = va / (va - (psibar[nb] - levels[key_level]))
    key_pts = mesh.nodes[na] + s[:, None] * (mesh.nodes[nb] - mesh.nodes[na])

    seg_level, seg_tri = np.nonzero(crossed[:, tri_edges].any(axis=2))
    sides = tri_edges[seg_tri]
    seg_edges = sides[crossed[seg_level[:, None], sides]].reshape(-1, 2)
    seg_keys = np.searchsorted(key_level * len(edges) + key_edge,
                               seg_level[:, None] * len(edges) + seg_edges)
    n_keys = len(key_level)
    n_groups, group = connected_components(sp.coo_matrix(
        (np.ones(len(seg_keys)), (seg_keys[:, 0], seg_keys[:, 1])),
        shape=(n_keys, n_keys)), directed=False)
    seg_group = group[seg_keys[:, 0]]
    closed = (np.bincount(group, minlength=n_groups)
              == np.bincount(seg_group, minlength=n_groups))
    pa, pb = key_pts[seg_keys[:, 0]], key_pts[seg_keys[:, 1]]
    x, y = axis
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = pa[:, 0] + (y - pa[:, 1]) * (pb[:, 0] - pa[:, 0]) \
            / (pb[:, 1] - pa[:, 1])
    crosses = ((pa[:, 1] > y) != (pb[:, 1] > y)) & (x < xcross)
    odd = np.bincount(seg_group, weights=crosses, minlength=n_groups) % 2 == 1

    # every group has segments; its first one holds its smallest triangle
    _, first = np.unique(seg_group, return_index=True)
    cand = np.sort(first[closed & odd])
    cand = cand[np.unique(seg_level[cand], return_index=True)[1]]
    on = np.isin(seg_group, seg_group[cand])
    return (levels, np.isin(np.arange(len(levels)), seg_level[cand]),
            seg_level[on], seg_tri[on], seg_edges[on],
            np.stack([pa[on], pb[on]], axis=1))


def _extract_contour_loop(mesh, psibar, level, axis, psi):
    if not (0 < level < 1):
        raise ValueError("contour level must lie strictly inside (0, 1)")
    psibar = np.asarray(psibar, dtype=np.float64)
    v = psibar[mesh.triangles] - level
    if np.any(np.abs(v) < 1e-14):
        level = level + 1e-11
        v = psibar[mesh.triangles] - level

    neg = v < 0
    crossing = neg.sum(axis=1) % 3 != 0
    tri_ids = np.nonzero(crossing)[0]
    if len(tri_ids) == 0:
        raise _NoContour(f"no crossings for level {level:g}")

    edge_pts = {}
    segments = []
    for t in tri_ids:
        tri = mesh.triangles[t]
        keys = []
        for a, b in ((0, 1), (1, 2), (2, 0)):
            if neg[t, a] != neg[t, b]:
                na, nb = int(tri[a]), int(tri[b])
                key = (na, nb) if na < nb else (nb, na)
                if key not in edge_pts:
                    s = v[t, a] / (v[t, a] - v[t, b])
                    edge_pts[key] = mesh.nodes[tri[a]] + s * (
                        mesh.nodes[tri[b]] - mesh.nodes[tri[a]])
                keys.append(key)
        if len(keys) == 2:
            segments.append((keys[0], keys[1], int(t)))

    adj = {}
    for si, (ka, kb, _) in enumerate(segments):
        adj.setdefault(ka, []).append(si)
        adj.setdefault(kb, []).append(si)

    used = [False] * len(segments)
    loops = []
    for start in range(len(segments)):
        if used[start]:
            continue
        chain_keys = [segments[start][0], segments[start][1]]
        chain_tris = [segments[start][2]]
        used[start] = True
        closed = False
        while True:
            tail = chain_keys[-1]
            nxt = [s for s in adj.get(tail, []) if not used[s]]
            if not nxt:
                break
            si = nxt[0]
            ka, kb, tt = segments[si]
            used[si] = True
            chain_keys.append(kb if ka == tail else ka)
            chain_tris.append(tt)
            if chain_keys[-1] == chain_keys[0]:
                closed = True
                break
        if closed:
            loops.append((chain_keys[:-1], chain_tris))

    axis_pt = np.asarray(axis, dtype=np.float64)
    chosen = None
    for keys, tris in loops:
        poly = np.array([edge_pts[k] for k in keys])
        if point_in_polygon_scalar(axis_pt, poly):
            chosen = (poly, tris)
            break
    if chosen is None:
        raise _NoContour(
            f"level {level:g} has no closed contour around the axis")

    poly, tris = chosen
    pts = np.vstack([poly, poly[:1]])
    d = np.diff(pts, axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    seg_mid = 0.5 * (pts[:-1] + pts[1:])

    grads = mesh.grads()
    field = np.asarray(psi, dtype=np.float64)
    bp = np.empty(len(seg_len))
    for i, t in enumerate(tris):
        gvec = grads[t] @ field[mesh.triangles[t]]
        bp[i] = np.hypot(gvec[0], gvec[1]) / seg_mid[i, 0]
    return SimpleNamespace(level=level, seg_mid=seg_mid, seg_len=seg_len,
                           bp=bp)


def _profile_table_loop(mesh, psi, domain, profiles, lam, machine):
    grid, at = TABLE_GRID, CONTOURED_ROWS
    n_grid = len(grid)
    psibar = domain.normalize(psi)
    inv_r2 = np.full(n_grid, np.nan)
    qgeom = np.full(n_grid, np.nan)
    valid = np.zeros(n_grid, dtype=bool)
    for i in at:
        try:
            c = _extract_contour_loop(mesh, psibar, grid[i], domain.axis,
                                      psi=psi)
        except _NoContour:
            continue
        wd = c.seg_len / c.bp
        inv_r2[i] = float((wd * (1.0 / c.seg_mid[:, 0] ** 2)).sum()
                          / wd.sum())
        qgeom[i] = float((c.seg_len / (c.seg_mid[:, 0] ** 2 * c.bp)).sum())
        valid[i] = True
    inv_r2 = _fill_ends(grid, at, inv_r2[at])
    qgeom = _fill_ends(grid, at, qgeom[at])

    a_vals = profiles.basis.eval_many(grid) @ profiles.a
    b_vals = profiles.basis.eval_many(grid) @ profiles.b
    f_vals = integrate_f(b_vals, lam, domain.psi_a, domain.psi_b,
                         machine.b0, machine.r0, grid)
    table = {
        "psibar": grid,
        "lambdaA": lam * a_vals,
        "lambdaB_weighted": lam * machine.r0 ** 2 * inv_r2 * b_vals,
        "j_mean": mean_current_density(lam, a_vals, b_vals, inv_r2,
                                       machine.r0),
        "q": f_vals * qgeom / (2.0 * np.pi),
        "f": f_vals,
    }
    if profiles.c is not None:
        table["ne"] = profiles.basis.eval_many(grid) @ profiles.c
    else:
        table["ne"] = np.full(n_grid, np.nan)
    return table, valid


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mesh24():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 24, 24)


def _circle(mesh, radius=0.5):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return ((r - 2.5) ** 2 + z ** 2) / radius ** 2


def _two_wells(mesh):
    """Deep well at the axis (2.5, 0.4), shallow one at (2.5, -0.5)."""
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return (1.0 - np.exp(-((r - 2.5) ** 2 + (z - 0.4) ** 2) / 0.08)
            - 0.7 * np.exp(-((r - 2.5) ** 2 + (z + 0.5) ** 2) / 0.04))


def _synthetic_domain(psibar, axis, reference_eq):
    """The twin's flux scale over a given normalized field."""
    psi_a, psi_b = reference_eq.domain.psi_a, reference_eq.domain.psi_b
    domain = SimpleNamespace(
        axis=axis, psi_a=psi_a, psi_b=psi_b,
        normalize=lambda psi: (psi - psi_a) / (psi_b - psi_a))
    return psi_a + psibar * (psi_b - psi_a), domain


def _same_contours(mesh, psibar, levels, axis, psi):
    """One extract_contour call on all levels against the loop level by
    level, each level's segments compared as a set, matched by nearest
    midpoint.  Returns the midpoints of each level, None where the loop
    finds no contour."""
    found, level, mid, dl_bp = extract_contour(mesh, psibar, levels, axis,
                                               psi)
    out = []
    for i, lev in enumerate(levels):
        try:
            ref = _extract_contour_loop(mesh, psibar, lev, axis, psi)
        except _NoContour:
            assert not found[i] and not np.any(level == i)
            out.append(None)
            continue
        assert found[i]
        m, w = mid[level == i], dl_bp[level == i]
        diff = m[:, None] - ref.seg_mid[None]
        match = np.hypot(diff[..., 0], diff[..., 1]).argmin(axis=0)
        np.testing.assert_array_equal(np.sort(match), np.arange(len(m)))
        np.testing.assert_allclose(m[match], ref.seg_mid, rtol=1e-12, atol=0)
        np.testing.assert_allclose(w[match], ref.seg_len / ref.bp,
                                   rtol=1e-12, atol=0)
        out.append(m)
    return out


def _same_table(mesh, psi, domain, profiles, lam, machine):
    ref, valid = _profile_table_loop(mesh, psi, domain, profiles, lam,
                                     machine)
    new = profile_table(mesh, psi, domain, profiles, lam, machine)
    assert set(new) == set(ref)
    for key in ref:
        np.testing.assert_array_equal(np.isnan(new[key]), np.isnan(ref[key]))
        np.testing.assert_allclose(new[key], ref[key], rtol=1e-12, atol=0)
    return valid


def test_twin_matches_loop(twin_mesh, reference_eq, machine):
    eq = reference_eq
    psibar = eq.domain.normalize(eq.psi)
    assert all(m is not None for m in _same_contours(
        twin_mesh, psibar, (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98),
        eq.domain.axis, psi=eq.psi))
    valid = _same_table(twin_mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                        machine)
    assert valid.sum() >= 90


def test_circle_matches_loop(mesh24, reference_eq, machine):
    psibar = _circle(mesh24)
    assert all(m is not None for m in _same_contours(
        mesh24, psibar, (0.01, 0.2, 0.49, 0.8, 0.99), (2.5, 0.0),
        psi=psibar))
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    _same_table(mesh24, psi, domain, reference_eq.profiles, reference_eq.lam,
                machine)


def test_two_islands_match_loop(mesh24, reference_eq, machine):
    psibar = _two_wells(mesh24)
    axis, other = (2.5, 0.4), (2.5, -0.5)
    # below the saddle both wells hold a closed island; each axis picks its
    # own, and only the first is the flux surface around the plasma axis
    levels = (0.35, 0.5, 0.6)
    for mine, theirs in zip(
            _same_contours(mesh24, psibar, levels, axis, psi=psibar),
            _same_contours(mesh24, psibar, levels, other, psi=psibar)):
        assert mine is not None and theirs is not None
        assert mine[:, 1].min() > theirs[:, 1].max()
    psi, domain = _synthetic_domain(psibar, axis, reference_eq)
    _same_table(mesh24, psi, domain, reference_eq.profiles, reference_eq.lam,
                machine)


def test_nested_cycles_match_loop(mesh24):
    # each level is a ring at rho < 0.2 and one or two rings farther out,
    # all around the axis; the loop took the cycle holding the smallest
    # triangle, which is never the innermost ring here
    r, z = mesh24.nodes[:, 0], mesh24.nodes[:, 1]
    psibar = 0.5 - 0.45 * np.cos(2 * np.pi * np.hypot(r - 2.5, z) / 0.4)
    for mid in _same_contours(mesh24, psibar, (0.3, 0.5, 0.7), (2.5, 0.0),
                              psi=psibar):
        assert np.hypot(mid[:, 0] - 2.5, mid[:, 1]).min() > 0.2


def test_boundary_contours_match_loop(mesh24, reference_eq, machine):
    # above 0.3 the level sets are two arcs from z = -1 to z = 1, and the
    # right one crosses the parity ray from the axis an odd number of times
    r, z = mesh24.nodes[:, 0], mesh24.nodes[:, 1]
    psibar = ((r - 2.5) / 0.5) ** 2 + 0.3 * z ** 2
    mids = _same_contours(mesh24, psibar, (0.2, 0.29, 0.31, 0.6),
                          (2.5, 0.0), psi=psibar)
    assert mids[-1] is None
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    valid = _same_table(mesh24, psi, domain, reference_eq.profiles,
                        reference_eq.lam, machine)
    assert 20 < valid.sum() < 30


def test_table_rows_without_contour_are_nan(mesh24, reference_eq, machine):
    # above 0.3 the boundary-arcs field has no closed surface: those rows,
    # and the end rows extrapolated from them, are NaN, not values spread
    # from the last level found; the rows below extrapolate from two found
    psibar = _critical_fields(mesh24)["boundary"]
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    table = profile_table(mesh24, psi, domain, reference_eq.profiles,
                          reference_eq.lam, machine)
    grid, at = TABLE_GRID, CONTOURED_ROWS
    found = extract_contour(mesh24, domain.normalize(psi), grid[at],
                            (2.5, 0.0), psi)[0]
    assert 20 < found.sum() < 30
    np.testing.assert_array_equal(found, grid[at] < 0.3)
    for key in ("lambdaB_weighted", "j_mean", "q"):
        np.testing.assert_array_equal(np.isnan(table[key]), grid >= 0.3)
    for key in ("psibar", "lambdaA", "f"):
        assert np.isfinite(table[key]).all()


def test_nodal_level_matches_loop(mesh24, reference_eq, machine):
    psibar = _circle(mesh24)
    node = int(np.argmin(np.abs(psibar - 0.5)))
    assert psibar[node] == 0.5          # grid level 50 of the table
    _same_contours(mesh24, psibar, [0.5], (2.5, 0.0), psi=psibar)
    assert _extract_contour_loop(mesh24, psibar, 0.5, (2.5, 0.0),
                                 psibar).level == 0.5 + 1e-11
    assert _closed_contours(mesh24, psibar, [0.5], (2.5, 0.0))[0] \
        == [0.5 + 1e-11]
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    assert domain.normalize(psi)[node] == 0.5
    _same_table(mesh24, psi, domain, reference_eq.profiles, reference_eq.lam,
                machine)


# ---------------------------------------------------------------------------
# Run enumeration against the mask pass
# ---------------------------------------------------------------------------

def _same_pass(mesh, psibar, levels, axis):
    ref = _closed_contours_masks(mesh, psibar, levels, axis)
    new = _closed_contours(mesh, psibar, levels, axis)
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    return new


@settings(max_examples=80)
@given(data=st.data())
def test_runs_match_masks_on_random_fields(data):
    nr, nz = data.draw(st.integers(2, 10)), data.draw(st.integers(2, 10))
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, nr, nz)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    bowl = ((r - 2.5) ** 2 + z ** 2) / 0.5 ** 2
    noise = data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    psibar = bowl + noise * rng.standard_normal(mesh.n_nodes)
    if data.draw(st.booleans()):        # ties between nodes and levels
        psibar = np.round(psibar, 1)
    levels = rng.uniform(-0.2, 1.5, data.draw(st.integers(1, 40)))
    at_nodes = rng.choice(psibar, data.draw(st.integers(0, 5)))
    levels = np.unique(np.concatenate([levels, at_nodes]))
    axis = (rng.uniform(2.0, 3.0), rng.uniform(-1.0, 1.0))
    try:
        _same_pass(mesh, psibar, levels, axis)
    except ValueError:
        # only when the 1e-11 raise off nodal values breaks the order
        raised = _closed_contours_masks(mesh, psibar, levels, axis)[0]
        assert not np.all(np.diff(raised) > 0)


def _twin(request, size):
    """The conftest twin's mesh and reference equilibrium at 20 or 80
    cells."""
    suffix = {20: "", 80: "_80"}[size]
    return (request.getfixturevalue("twin_mesh" + suffix),
            request.getfixturevalue("reference_eq" + suffix))


def _grid_levels(n_grid):
    """The table's contoured levels at 101, else the n_grid - 2 levels
    inside (0, 1) of an n_grid-point grid: 299 at 301, more than 256."""
    return (TABLE_GRID[CONTOURED_ROWS] if n_grid == 101
            else np.linspace(0.0, 1.0, n_grid)[1:-1])


@pytest.mark.parametrize("size, n_grid", [
    pytest.param(20, 101, id="101"), pytest.param(20, 301, id="301"),
    pytest.param(80, 101, id="80x80-101")])
def test_runs_match_masks_on_twin(request, size, n_grid):
    # more than 256 levels to contour take the 16-bit sort; 80x80 is the
    # size of the benchmark's twin rounds
    mesh, eq = _twin(request, size)
    levels, found, *_ = _same_pass(mesh, eq.domain.normalize(eq.psi),
                                   _grid_levels(n_grid), eq.domain.axis)
    assert (len(levels) > 256) == (n_grid == 301) and found.sum() > 90


@pytest.mark.parametrize("size, bound_mb", [(20, 1.1), (80, 3.9)])
def test_table_working_set_is_bounded(request, machine, size, bound_mb):
    """tracemalloc's peak over one profile_table call on the twin.

    The contour pass's outputs take 64 B per segment (level and triangle
    index, two side indices, two points): 2.12 MB for the 33 168 segments
    of the 80x80 table, 0.53 MB for the 8 280 at 20x20.  Beside them the
    pass holds at most the segments' side keys (16 B per segment) and one
    stage's work arrays: the crossing points (16 B per key, about one key
    per segment) or the ray test's temporaries (8 B each per segment).
    The one-cycle test runs before the segments are built, so its per-edge
    and per-triangle arrays (about 1.2 MB for the 12 800 triangles at
    80x80) are freed by then.  The peaks measured are 3.55 MB at 80x80 and
    0.89 MB at 20x20, and the bounds leave about a tenth and a fifth over
    them.  A one-cycle test after the segments peaks at 4.02 MB at 80x80;
    a pass that keeps the interpolation temporaries of every crossed edge,
    or the ranks and sides of every triangle, alive to its end peaks at
    8.5 and 1.8 MB.
    """
    mesh, eq = _twin(request, size)
    args = (mesh, eq.psi, eq.domain, eq.profiles, eq.lam, machine)
    profile_table(*args)        # the mesh's cached tables are built once
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        profile_table(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_levels_must_ascend(mesh24):
    psibar = _circle(mesh24)            # node value 0.5 is raised by 1e-11
    for levels in ([0.3, 0.2], [0.2, 0.2], [0.2, np.nan],
                   [0.5, 0.5 + 5e-12]):
        with pytest.raises(ValueError, match="ascend"):
            _closed_contours(mesh24, psibar, levels, (2.5, 0.0))
    _same_pass(mesh24, psibar, [0.5 - 5e-12, 0.5, 0.5 + 2e-11], (2.5, 0.0))


# ---------------------------------------------------------------------------
# The one-cycle branch and the contour pass
# ---------------------------------------------------------------------------

@pytest.fixture
def branches(monkeypatch):
    """Counts the calls of _closed_contours that take the one-cycle branch
    (its condition held) and those that take the contour pass (they call
    _group_curves)."""
    taken = SimpleNamespace(one_cycle=0, contour=0)
    one_cycle = diagnostics._one_cycle
    group_curves = diagnostics._group_curves

    def spy_one_cycle(*args):
        held = one_cycle(*args)
        taken.one_cycle += held
        return held

    def spy_group_curves(*args):
        taken.contour += 1
        return group_curves(*args)

    monkeypatch.setattr(diagnostics, "_one_cycle", spy_one_cycle)
    monkeypatch.setattr(diagnostics, "_group_curves", spy_group_curves)
    return taken


def test_random_fields_take_both_branches(branches):
    test_runs_match_masks_on_random_fields()
    assert branches.one_cycle > 0 and branches.contour > 0


@pytest.mark.parametrize("n_grid", [101, 301])
def test_twin_table_takes_one_cycle(branches, twin_mesh, reference_eq,
                                    machine, n_grid):
    eq = reference_eq
    if n_grid == 101:
        profile_table(twin_mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                      machine)
    else:
        extract_contour(twin_mesh, eq.domain.normalize(eq.psi),
                        _grid_levels(n_grid), eq.domain.axis, eq.psi)
    assert (branches.one_cycle, branches.contour) == (1, 0)


def _critical_fields(mesh):
    """Fields on mesh24 that break one part of the one-cycle condition at
    the table's top level 0.98."""
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    circle = _circle(mesh)

    def wells(z0, width):
        return 1.0 - np.exp(-((r - 2.5) ** 2 + (z - z0) ** 2) / width) \
            - 0.8 * np.exp(-((r - 2.5) ** 2 + (z + z0) ** 2) / width)

    # the shallow well's bottom flattened to one triangle of equal nodes,
    # which the sign-change counts read as regular
    flat = wells(0.4, 0.02)
    low = np.argmin(np.where(z < 0, flat, np.inf))
    flat[mesh.triangles[(mesh.triangles == low).any(axis=1)][0]] = flat[low]
    return {
        # psi with two maxima: two wells of psibar, a saddle between them
        "two_maxima": wells(0.3, 0.03),
        # one well with a bump on its side: a maximum and a saddle
        "saddle": circle + 0.3 * np.exp(-((r - 2.5) ** 2 + (z - 0.25) ** 2)
                                        / 0.08 ** 2),
        # one well whose level sets reach the boundary from 0.3 on
        "boundary": ((r - 2.5) / 0.5) ** 2 + 0.3 * z ** 2,
        # two wells, their saddle above the top level, one of them flat
        "tied": flat,
    }


@pytest.mark.parametrize("name", ["two_maxima", "saddle", "boundary",
                                  "tied"])
def test_critical_fields_take_contour_pass(branches, mesh24, name):
    psibar = _critical_fields(mesh24)[name]
    grid, at = TABLE_GRID, CONTOURED_ROWS
    top = grid[at][-1]
    edges = mesh24.edge_index()[0]
    tied = (psibar[edges[:, 0]] == psibar[edges[:, 1]]) \
        & (psibar[edges[:, 0]] < top)
    inner = mesh24.interior_nodes()
    changes = ring_sign_changes(mesh24, psibar)[inner[psibar[inner] < top]]
    assert (psibar[mesh24.boundary] < top).any() == (name == "boundary")
    assert tied.any() == (name == "tied")
    if name in ("two_maxima", "saddle"):
        assert (changes == 0).sum() == 2 and (changes >= 4).sum() == 1
    else:                               # only the tie or the boundary tells
        assert (changes != 2).sum() == 1
    axis = tuple(mesh24.nodes[np.argmin(psibar)])
    _, found, *_ = _same_pass(mesh24, psibar, grid[at], axis)
    assert found.any()
    assert (branches.one_cycle, branches.contour) == (0, 1)


def test_nan_field_takes_contour_pass(branches):
    # the level sets stop short of NaN nodes, while the nodes around them
    # read as regular: only the NaN test keeps the field off the branch
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 8, 4)
    psibar = _circle(mesh)
    psibar[[17, 18]] = np.nan           # (2.375, 0) and (2.375, 0.5)
    grid, at = TABLE_GRID, CONTOURED_ROWS
    top = grid[at][-1]
    assert (psibar[mesh.boundary] >= top).all()
    assert (ring_sign_changes(mesh, psibar)[psibar < top] != 2).sum() == 1
    _closed_contours(mesh, psibar, grid[at], (2.5, 0.0))
    assert (branches.one_cycle, branches.contour) == (0, 1)


def test_one_cycle_branch_is_bit_identical(branches, monkeypatch, setup,
                                           clean_measurements, twin_mesh,
                                           reference_eq, machine):
    # criterion 6's set-up with a few replicates, the twin's table and
    # contours, with the branch and then with it forced off
    reconstruct = twin.reconstruct
    eq = reference_eq
    psibar = eq.domain.normalize(eq.psi)

    def run():
        iterations = []

        def recording(*args, **kwargs):
            res = reconstruct(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(twin, "reconstruct", recording)
        out = [iterations]
        for internal, cfg in ((False, RegularizationConfig(eps=5e-2)),
                              (True, RegularizationConfig(eps=5e-2,
                                                          eps_ne=2e-1))):
            st, = twin.replicate_stats(setup, clean_measurements, cfg,
                                       [5e-2], n_replicates=3,
                                       use_internal=internal, seed=777)
            out += [st.n_converged, st.n_failed, st.warm_start]
            out += [getattr(st, f)[k] for f in ("mean", "median", "std")
                    for k in sorted(st.mean)]
        out += list(profile_table(twin_mesh, eq.psi, eq.domain, eq.profiles,
                                  eq.lam, machine).values())
        out += list(extract_contour(twin_mesh, psibar, [0.02, 0.5, 0.98],
                                    eq.domain.axis, psi=eq.psi))
        return out

    fast = run()
    assert branches.one_cycle > 0 and branches.contour == 0
    monkeypatch.setattr(diagnostics, "_one_cycle", lambda *args: False)
    slow = run()
    assert branches.contour > 0 and len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b, equal_nan=True)
