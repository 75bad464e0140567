"""The all-levels contour pass behind ``extract_contour`` and
``profile_table`` against frozen copies of the per-level triangle loop it
replaced."""

from types import SimpleNamespace

import numpy as np
import pytest

import gsrecon
from gsrecon.diagnostics import (FluxContour, _fill_ends, extract_contour,
                                 flux_surface_average, integrate_f,
                                 mean_current_density, profile_table)
from gsrecon.errors import OpenContourError
from gsrecon.mesh import _point_in_polygon


# ---------------------------------------------------------------------------
# Frozen loop versions
# ---------------------------------------------------------------------------

def _extract_contour_loop(mesh, psibar, level, axis, psi=None, scale=None):
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
        raise OpenContourError(f"no crossings for level {level:g}")

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
        if _point_in_polygon(axis_pt, poly):
            chosen = (poly, tris)
            break
    if chosen is None:
        raise OpenContourError(
            f"level {level:g} has no closed contour around the axis")

    poly, tris = chosen
    pts = np.vstack([poly, poly[:1]])
    d = np.diff(pts, axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    seg_mid = 0.5 * (pts[:-1] + pts[1:])

    grads = mesh.grads()
    if psi is not None:
        field = np.asarray(psi, dtype=np.float64)
        factor = 1.0
    elif scale is not None:
        field = psibar
        factor = abs(scale)
    else:
        raise ValueError("pass psi or scale for the poloidal field")
    bp = np.empty(len(seg_len))
    for i, t in enumerate(tris):
        gvec = grads[t] @ field[mesh.triangles[t]]
        bp[i] = factor * np.hypot(gvec[0], gvec[1]) / seg_mid[i, 0]
    return FluxContour(level, pts, seg_mid, seg_len, bp)


def _profile_table_loop(mesh, psi, domain, profiles, lam, machine,
                        n_grid=101, margin=0.02):
    grid = np.linspace(0.0, 1.0, n_grid)
    psibar = domain.normalize(psi)
    inv_r2 = np.full(n_grid, np.nan)
    qgeom = np.full(n_grid, np.nan)
    valid = np.zeros(n_grid, dtype=bool)
    for i, lev in enumerate(grid):
        if not (margin <= lev <= 1.0 - margin):
            continue
        try:
            c = _extract_contour_loop(mesh, psibar, lev, domain.axis, psi=psi)
        except OpenContourError:
            continue
        inv_r2[i] = flux_surface_average(c, lambda r, z: 1.0 / r ** 2)
        qgeom[i] = float((c.seg_len / (c.seg_mid[:, 0] ** 2 * c.bp)).sum())
        valid[i] = True
    inv_r2 = _fill_ends(grid, inv_r2, valid)
    qgeom = _fill_ends(grid, qgeom, valid)

    a_vals = profiles.eval("A", grid)
    b_vals = profiles.eval("B", grid)
    f_vals = integrate_f(b_vals, lam, domain.psi_a, domain.psi_b,
                         machine.b0, machine.r0, machine.mu0, grid)
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
        table["ne"] = profiles.eval("ne", grid)
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


def _same_contour(mesh, psibar, level, axis, **field):
    try:
        ref = _extract_contour_loop(mesh, psibar, level, axis, **field)
    except OpenContourError:
        with pytest.raises(OpenContourError):
            extract_contour(mesh, psibar, level, axis, **field)
        return None
    new = extract_contour(mesh, psibar, level, axis, **field)
    assert new.level == ref.level
    for name in ("points", "seg_mid", "seg_len", "bp"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-12, atol=0)
    return new


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
    for level in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
        assert _same_contour(twin_mesh, psibar, level, eq.domain.axis,
                             psi=eq.psi) is not None
    valid = _same_table(twin_mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                        machine)
    assert valid.sum() >= 90


def test_circle_matches_loop(mesh24, reference_eq, machine):
    psibar = _circle(mesh24)
    for level in (0.01, 0.2, 0.49, 0.8, 0.99):
        assert _same_contour(mesh24, psibar, level, (2.5, 0.0),
                             scale=1.0) is not None
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    _same_table(mesh24, psi, domain, reference_eq.profiles, reference_eq.lam,
                machine)


def test_two_islands_match_loop(mesh24, reference_eq, machine):
    psibar = _two_wells(mesh24)
    axis, other = (2.5, 0.4), (2.5, -0.5)
    # below the saddle both wells hold a closed island; each axis picks its
    # own, and only the first is the flux surface around the plasma axis
    for level in (0.35, 0.5, 0.6):
        mine = _same_contour(mesh24, psibar, level, axis, scale=1.0)
        theirs = _same_contour(mesh24, psibar, level, other, scale=1.0)
        assert mine is not None and theirs is not None
        assert mine.seg_mid[:, 1].min() > theirs.seg_mid[:, 1].max()
    psi, domain = _synthetic_domain(psibar, axis, reference_eq)
    _same_table(mesh24, psi, domain, reference_eq.profiles, reference_eq.lam,
                machine)


def test_nested_cycles_match_loop(mesh24):
    # each level is a ring at rho < 0.2 and one or two rings farther out,
    # all around the axis; the loop took the cycle holding the smallest
    # triangle, which is never the innermost ring here
    r, z = mesh24.nodes[:, 0], mesh24.nodes[:, 1]
    psibar = 0.5 - 0.45 * np.cos(2 * np.pi * np.hypot(r - 2.5, z) / 0.4)
    for level in (0.3, 0.5, 0.7):
        c = _same_contour(mesh24, psibar, level, (2.5, 0.0), scale=1.0)
        assert np.hypot(c.seg_mid[:, 0] - 2.5, c.seg_mid[:, 1]).min() > 0.2


def test_boundary_contours_match_loop(mesh24, reference_eq, machine):
    # above 0.3 the level sets are two arcs from z = -1 to z = 1, and the
    # right one crosses the parity ray from the axis an odd number of times
    r, z = mesh24.nodes[:, 0], mesh24.nodes[:, 1]
    psibar = ((r - 2.5) / 0.5) ** 2 + 0.3 * z ** 2
    for level in (0.2, 0.29, 0.31, 0.6):
        _same_contour(mesh24, psibar, level, (2.5, 0.0), scale=1.0)
    with pytest.raises(OpenContourError):
        extract_contour(mesh24, psibar, 0.6, (2.5, 0.0), scale=1.0)
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    valid = _same_table(mesh24, psi, domain, reference_eq.profiles,
                        reference_eq.lam, machine)
    assert 20 < valid.sum() < 30


def test_nodal_level_matches_loop(mesh24, reference_eq, machine):
    psibar = _circle(mesh24)
    node = int(np.argmin(np.abs(psibar - 0.5)))
    assert psibar[node] == 0.5          # grid level 50 of the table
    c = _same_contour(mesh24, psibar, 0.5, (2.5, 0.0), scale=1.0)
    assert c.level == 0.5 + 1e-11
    psi, domain = _synthetic_domain(psibar, (2.5, 0.0), reference_eq)
    assert domain.normalize(psi)[node] == 0.5
    _same_table(mesh24, psi, domain, reference_eq.profiles, reference_eq.lam,
                machine)
