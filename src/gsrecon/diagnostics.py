"""Derived physics quantities: flux-surface contours and averages, mean
current density, diamagnetic-function integration and the safety factor."""

from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DegeneratePlasmaError, NonPhysicalProfileError
from .geometry import finite_flux, ring_sign_changes
from .mesh import crosses_ray
from .textio import write_rows

# the psibar grid of every profile table, 101 rows, and the rows contoured,
# 2..98 in [0.02, 0.98]; read-only, so the tables share them safely
TABLE_GRID = np.linspace(0.0, 1.0, 101)
CONTOURED_ROWS = np.nonzero((TABLE_GRID >= 0.02)
                            & (TABLE_GRID <= 1.0 - 0.02))[0]
TABLE_GRID.flags.writeable = CONTOURED_ROWS.flags.writeable = False


def _one_cycle(mesh, psibar, top):
    """Whether each level up to top is one closed curve or none (Banchoff
    1967): no NaN node, no boundary node or tied side below top, and no
    PL-critical node below top but the minimum."""
    below = psibar < top
    a, b = np.take(psibar, mesh.edge_index()[0].T)
    return bool(not np.isnan(psibar).any() and not below[mesh.boundary].any()
                and not np.any((a == b) & (a < top))
                and (ring_sign_changes(mesh, psibar)[below] != 2).sum() == 1)


def _closed_contours(mesh, psibar, levels, axis):
    """Segments of the closed contour around the axis at all levels at once.

    The levels must ascend strictly, also once raised by 1e-11 within 1e-14
    of a nodal value (ValueError otherwise), so the levels crossing an edge
    or a triangle are the run lo < L <= hi of its node values, and the work
    grows with the crossings.  A crossed edge is interpolated from its lower
    node, so both its triangles share the point; the keys run edge by edge,
    (L, e) at e's offset plus L.  A crossed triangle joins its two crossed
    sides by a segment.  The joined groups are paths (one key more than
    segments) or cycles, or where :func:`_one_cycle` holds one cycle a level
    without grouping; a level's contour is the cycle around the axis by
    ray-crossing parity, of several the one with the smallest triangle.
    Returns the raised levels, whether each has a contour, and for the
    contours' segments, sorted by level then triangle: level index,
    triangle, (S, 2) crossed sides in the triangle's order and their
    (S, 2, 2) points.
    """
    psibar = np.asarray(psibar, dtype=np.float64)
    given = np.asarray(levels, dtype=np.float64)
    nodal = np.sort(psibar)
    i = np.clip(np.searchsorted(nodal, given), 1, len(nodal) - 1)
    levels = given + 1e-11 * (np.minimum(np.abs(nodal[i - 1] - given),
                                         np.abs(nodal[i] - given)) < 1e-14)
    if not np.all(np.diff([given, levels]) > 0):
        raise ValueError("contour levels must ascend strictly")
    # tested first, so its per-edge arrays are freed before the segments
    one_cycle = _one_cycle(mesh, psibar, levels[-1])

    def crossings(nodes):   # (row, level) row-major; key offset per row
        ends = np.take(psibar, nodes.T)
        start, stop = np.searchsorted(levels, [ends.min(axis=0),
                                               ends.max(axis=0)], "right")
        offset = np.cumsum(stop - start) - stop
        row = np.repeat(np.arange(len(nodes)), stop - start)
        return row, np.arange(len(row)) - offset[row], offset

    def crossing_points(edges):     # key offset per edge, point per key
        key_edge, key_level, key_offset = crossings(edges)
        na, nb = edges[key_edge, 0], edges[key_edge, 1]
        va = psibar[na] - levels[key_level]
        s = va / (va - (psibar[nb] - levels[key_level]))
        xa, xb = (np.take(mesh.nodes, n, axis=0) for n in (na, nb))
        xb -= xa        # xa + s (xb - xa) in place, the same bits: IEEE
        xb *= s[:, None]            # sums and products commute
        return key_offset, np.add(xb, xa, out=xb)

    # np.take and np.compress: row gathers by indexing cost ten times more
    edges, tri_edges = mesh.edge_index()
    key_offset, key_pts = crossing_points(edges)
    seg_tri, seg_level = crossings(mesh.triangles)[:2]
    # level-major order; numpy radix-sorts a narrow unsigned column
    order = np.argsort(seg_level.astype(np.min_scalar_type(len(levels))),
                       kind="stable")
    seg_tri, seg_level = seg_tri[order], seg_level[order]
    # levels up to a triangle's middle value cross the sides at its lowest
    # corner, the rest those at its highest (corner k: sides k - 1 and k)
    rank = np.argsort(np.take(psibar, mesh.triangles), axis=1)
    sides = np.take_along_axis(tri_edges[:, None], np.array(
        [[0, 2], [0, 1], [1, 2]])[rank[:, ::2]], axis=2).reshape(-1, 2)
    mid = np.take(psibar, np.take_along_axis(mesh.triangles, rank[:, 1:2], 1))
    seg_edges = np.take(sides, 2 * seg_tri + (seg_level >= np.take(
        np.searchsorted(levels, mid[:, 0], "right"), seg_tri)), axis=0)
    del order, rank, sides, mid     # each stage frees what it no longer needs
    seg_keys = key_offset[seg_edges] + seg_level[:, None]
    seg_pts = np.take(key_pts, seg_keys, axis=0)
    n_keys = len(key_pts)
    del key_offset, key_pts
    crosses = crosses_ray(seg_pts[:, 0], seg_pts[:, 1], *axis)
    segs = (seg_level, seg_tri, seg_edges, seg_pts)
    if one_cycle:
        del seg_keys
        found = np.bincount(seg_level, weights=crosses,
                            minlength=len(levels)) % 2 == 1
        return levels, found, *(segs if found.all() else (
            np.compress(found[seg_level], a, axis=0) for a in segs))
    n_groups, group = connected_components(sp.coo_matrix(
        (np.ones(len(seg_keys)), (seg_keys[:, 0], seg_keys[:, 1])),
        shape=(n_keys,) * 2), directed=False)
    seg_group = group[seg_keys[:, 0]]
    closed = (np.bincount(group, minlength=n_groups)
              == np.bincount(seg_group, minlength=n_groups))
    odd = np.bincount(seg_group, weights=crosses, minlength=n_groups) % 2 == 1

    # every group has segments; its first one holds its smallest triangle
    _, first = np.unique(seg_group, return_index=True)
    cand = np.sort(first[closed & odd])
    cand = cand[np.unique(seg_level[cand], return_index=True)[1]]
    on = np.bincount(seg_group[cand], minlength=n_groups)[seg_group] > 0
    return (levels, np.bincount(seg_level[cand], minlength=len(levels)) > 0,
            *(np.compress(on, a, axis=0) for a in segs))


def extract_contour(mesh, psibar, levels, axis, psi):
    """Closed contours of the normalized flux around the axis at all
    ``levels`` at once, a nonempty 1-d array strictly ascending inside
    (0, 1) (ValueError otherwise); see :func:`_closed_contours`.

    Returns ``(found, level, mid, dl_bp)``: whether each level has a
    contour, and for the segments of the contours, sorted by level, the
    level index, the midpoint (S, 2) as (r, z) and |segment| / B_p, with B_p
    = |grad psi| / r of the nodal flux ``psi`` at the midpoint.  A psibar not
    finite at every node, or a B_p that vanishes on a contour, raises
    :class:`DegeneratePlasmaError`.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.ndim != 1 or not levels.size or not np.all(
            (levels > 0) & (levels < 1)):
        raise ValueError("contour levels must be 1-d, nonempty, in (0, 1)")
    found, level, tri, pts = itemgetter(1, 2, 3, 5)(_closed_contours(
        mesh, finite_flux(psibar), levels, axis))
    d = pts[:, 1] - pts[:, 0]
    mid = 0.5 * (pts[:, 0] + pts[:, 1])
    g = np.einsum("tij,tj->ti", mesh.grads(),
                  np.asarray(psi, dtype=np.float64)[mesh.triangles])
    # a vanishing B_p makes dl / B_p infinite: refused below, not warned of
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dl_bp = np.hypot(d[:, 0], d[:, 1]) / (
            np.hypot(g[:, 0], g[:, 1])[tri] / mid[:, 0])
    if not np.isfinite(dl_bp).all():
        raise DegeneratePlasmaError("degenerate flux surface (vanishing B_p)")
    return found, level, mid, dl_bp


def _loop_sums(contours, weights):
    """Per level of ``contours`` (see :func:`extract_contour`), the sum of
    per-segment ``weights`` over its contour; NaN where it has none."""
    found, level = contours[:2]
    return np.where(found, np.bincount(level, weights=weights,
                                       minlength=len(found)), np.nan)


def flux_surface_average(contours, quantity):
    """Per level of ``contours`` (see :func:`extract_contour`), the dl/B_p
    weighted average of ``quantity``, a callable of the midpoint arrays
    (r, z); NaN where a level has no contour."""
    _, _, mid, dl_bp = contours
    return (_loop_sums(contours, dl_bp * quantity(mid[:, 0], mid[:, 1]))
            / _loop_sums(contours, dl_bp))


def integrate_f(b_vals, lam, psi_a, psi_b, b0, r0, mu0, grid):
    """Diamagnetic function on the normalized-flux grid.

    (f^2)' = 2 lambda mu0 r0 B as a function of flux; integration runs from
    the plasma boundary (where f = b0*r0 exactly) inward.
    """
    grid = np.asarray(grid, dtype=np.float64)
    b_vals = np.asarray(b_vals, dtype=np.float64)
    dpsi = psi_b - psi_a
    integrand = 2.0 * lam * mu0 * r0 * b_vals * dpsi
    # cumulative trapezoid of integrand over s from 1 down to each grid point
    rev = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[::-1][1:] + integrand[::-1][:-1])
        * np.diff(grid[::-1]))])
    f2 = (b0 * r0) ** 2 + rev[::-1]
    f2[-1] = (b0 * r0) ** 2
    if np.any(f2 < 0):
        raise NonPhysicalProfileError("f^2 became negative")
    sign = -1.0 if b0 * r0 < 0 else 1.0
    f = sign * np.sqrt(f2)
    f[-1] = b0 * r0
    return f


def mean_current_density(lam, a_vals, b_vals, inv_r2, r0):
    """r0 <j/r> = lambda A + lambda r0^2 <1/r^2> B per flux level."""
    return lam * np.asarray(a_vals) + lam * r0 ** 2 * np.asarray(inv_r2) \
        * np.asarray(b_vals)


def safety_factor(contours, f_vals):
    """q = (1/2pi) closed integral of f/(r^2 B_p) dl per level, ``f_vals``
    one f per level.  ``contours`` is the result of :func:`extract_contour`
    (q is NaN where a level has no contour) or the integrals of dl/(r^2 B_p)
    themselves, as :func:`profile_table` passes them filled to its grid."""
    if isinstance(contours, tuple):
        _, _, mid, dl_bp = contours
        contours = _loop_sums(contours, dl_bp / mid[:, 0] ** 2)
    return np.asarray(f_vals, dtype=np.float64) * contours / (2.0 * np.pi)


def _fill_ends(grid, at, vals):
    """``vals`` of the contoured rows ``at`` on the whole grid, the rows
    outside them linearly extrapolated from the two nearest contoured
    levels: NaN where one of those, or a contoured level, has no value."""
    out = np.full(len(grid), np.nan)
    out[at] = vals
    for end, a, b in ((slice(at[0]), at[0], at[1]),
                      (slice(at[-1] + 1, None), at[-1], at[-2])):
        s = (out[a] - out[b]) / (grid[a] - grid[b])
        out[end] = out[a] + s * (grid[end] - grid[a])
    return out


def profile_table(mesh, psi, domain, profiles, lam, machine):
    """The identified and derived profiles on :data:`TABLE_GRID`.

    One :func:`extract_contour` call contours the levels of
    :data:`CONTOURED_ROWS`; <1/r^2> and the integral of dl/(r^2 B_p) of
    the other rows, the ends 0 and 1 among them (degenerate axis contour,
    X-point singularity), are extrapolated linearly from the two nearest
    contoured levels, and q is :func:`safety_factor` of the latter.
    Returns a dict of equal-length arrays, the contour-derived entries NaN
    at a level without a closed contour and at the end rows extrapolated
    from one.  A psi not finite at every node raises
    :class:`DegeneratePlasmaError`.
    """
    grid, at = TABLE_GRID, CONTOURED_ROWS
    contours = extract_contour(mesh, domain.normalize(psi), grid[at],
                               domain.axis, psi)
    _, _, mid, dl_bp = contours
    geom = _loop_sums(contours, dl_bp / mid[:, 0] ** 2)
    inv_r2 = _fill_ends(grid, at, geom / _loop_sums(contours, dl_bp))
    qgeom = _fill_ends(grid, at, geom)

    # one basis evaluation for A, B and n_e
    phi = profiles.basis.eval_many(grid)
    a_vals, b_vals = phi @ profiles.a, phi @ profiles.b
    f_vals = integrate_f(b_vals, lam, domain.psi_a, domain.psi_b,
                         machine.b0, machine.r0, machine.mu0, grid)
    return {
        "psibar": grid,
        "lambdaA": lam * a_vals,
        "lambdaB_weighted": lam * machine.r0 ** 2 * inv_r2 * b_vals,
        "j_mean": mean_current_density(lam, a_vals, b_vals, inv_r2,
                                       machine.r0),
        "q": safety_factor(qgeom, f_vals),
        "f": f_vals,
        "ne": (np.full(len(grid), np.nan) if profiles.c is None
               else phi @ profiles.c),
    }


def write_profile_csv(path, table):
    cols = ["psibar", "lambdaA", "lambdaB_weighted", "j_mean", "q", "f", "ne"]
    write_rows(path, [cols, *zip(*(table[c] for c in cols))], table=True)
