"""Derived physics quantities: flux-surface contours and averages, mean
current density, diamagnetic-function integration and the safety factor."""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DegeneratePlasmaError, NonPhysicalProfileError, OpenContourError


@dataclass
class FluxContour:
    level: float
    points: np.ndarray      # (P+1, 2), closed: first point repeated last
    seg_mid: np.ndarray     # (P, 2)
    seg_len: np.ndarray     # (P,)
    bp: np.ndarray          # (P,) poloidal field |grad psi|/r per segment

    @property
    def length(self):
        return float(self.seg_len.sum())


def _closed_contours(mesh, psibar, levels, axis):
    """Segments of the closed contour around the axis at all levels at once.

    A crossed edge is interpolated from its lower node, so both its
    triangles share the point; a crossed triangle joins its two crossed
    edges by a segment.  The joined groups are paths (one key more than
    segments) or cycles; a level's contour is the cycle around the axis by
    ray-crossing parity, of several the one with the smallest triangle.
    Returns the levels (raised by 1e-11 within 1e-14 of a nodal value),
    whether each has a contour, and for the contours' segments, sorted by
    level then triangle: level index, triangle, (S, 2) crossed sides in the
    triangle's order and their (S, 2, 2) points.
    """
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


def _grad_norm(mesh, field):
    """|grad field| of a nodal field on every triangle."""
    field = np.asarray(field, dtype=np.float64)
    g = np.einsum("tij,tj->ti", mesh.grads(), field[mesh.triangles])
    return np.hypot(g[:, 0], g[:, 1])


def extract_contour(mesh, psibar, level, axis, psi=None, scale=None):
    """Closed level-set polyline of the normalized flux enclosing the axis.

    B_p along the contour needs the physical flux gradient: pass either the
    nodal ``psi`` or the factor ``scale`` = psi_b - psi_a multiplying the
    normalized-flux gradient.
    """
    if not (0 < level < 1):
        raise ValueError("contour level must lie strictly inside (0, 1)")
    if psi is None and scale is None:
        raise ValueError("pass psi or scale for the poloidal field")
    (level,), found, _, tris, ends, pts = _closed_contours(
        mesh, psibar, [level], axis)
    if not found[0]:
        raise OpenContourError(
            f"level {level:g} has no closed contour around the axis")
    # walk the cycle from its smallest triangle, leaving by its second
    # side; an edge is on two segments, so the next is their index sum
    # minus the current one
    at = {}
    for i, e in enumerate(ends.ravel()):
        at[e] = at.get(e, 0) + i // 2
    order, side = [0], [1]
    for _ in range(len(tris) - 1):
        edge = ends[order[-1], side[-1]]
        order.append(at[edge] - order[-1])
        side.append(int(ends[order[-1], 0] == edge))
    pts = np.vstack([pts[0, :1], pts[order, side]])
    d = np.diff(pts, axis=0)
    seg_mid = 0.5 * (pts[:-1] + pts[1:])
    field, factor = (psi, 1.0) if psi is not None else (psibar, abs(scale))
    return FluxContour(level, pts, seg_mid, np.hypot(d[:, 0], d[:, 1]),
                       factor * _grad_norm(mesh, field)[tris[order]]
                       / seg_mid[:, 0])


def flux_surface_average(contour, quantity):
    """dl/B_p weighted contour average of a pointwise quantity.

    ``quantity`` is either a callable of (r, z) or an array of per-segment
    values at the segment midpoints.
    """
    if callable(quantity):
        vals = np.array([quantity(r, z) for r, z in contour.seg_mid])
    else:
        vals = np.asarray(quantity, dtype=np.float64)
    wd = contour.seg_len / contour.bp
    denom = wd.sum()
    if denom <= 0 or not np.isfinite(denom):
        raise DegeneratePlasmaError("degenerate flux surface (vanishing dl/Bp)")
    return float((wd * vals).sum() / denom)


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
    """q = (1/2pi) closed integral of f/(r^2 B_p) dl per flux surface."""
    q = np.full(len(contours), np.nan)
    for i, c in enumerate(contours):
        if c is None:
            continue
        geom = float((c.seg_len / (c.seg_mid[:, 0] ** 2 * c.bp)).sum())
        q[i] = f_vals[i] * geom / (2.0 * np.pi)
    return q


def _fill_ends(grid, vals, valid):
    """Linear extrapolation of missing end entries from the two nearest
    computed levels; interior gaps are interpolated."""
    out = np.array(vals, dtype=np.float64)
    good = np.nonzero(valid)[0]
    if len(good) < 2:
        return out
    out[~valid] = np.interp(grid[~valid], grid[good], out[good])
    lo, hi = good[0], good[-1]
    if lo > 0:
        s = (out[good[1]] - out[lo]) / (grid[good[1]] - grid[lo])
        out[:lo] = out[lo] + s * (grid[:lo] - grid[lo])
    if hi < len(grid) - 1:
        s = (out[hi] - out[good[-2]]) / (grid[hi] - grid[good[-2]])
        out[hi + 1:] = out[hi] + s * (grid[hi + 1:] - grid[hi])
    return out


def profile_table(mesh, psi, domain, profiles, lam, machine, n_grid=101,
                  margin=0.02):
    """Uniform psibar table of the identified and derived profiles.

    Levels outside [margin, 1-margin], and the end levels 0 and 1, are
    linearly extrapolated (degenerate axis contour, X-point singularity).
    Returns a dict of equal-length arrays; entries are NaN where no closed
    contour exists.
    """
    grid = np.linspace(0.0, 1.0, n_grid)
    at = np.nonzero((grid >= margin) & (grid <= 1.0 - margin)
                    & (grid > 0.0) & (grid < 1.0))[0]
    _, found, level, tri, _, pts = _closed_contours(
        mesh, domain.normalize(psi), grid[at], domain.axis)
    d = pts[:, 1] - pts[:, 0]
    r = 0.5 * (pts[:, 0, 0] + pts[:, 1, 0])
    wd = np.hypot(d[:, 0], d[:, 1]) / (_grad_norm(mesh, psi)[tri] / r)
    valid = np.isin(np.arange(n_grid), at[found])
    dl_bp = np.bincount(at[level], weights=wd, minlength=n_grid)
    if not np.all(np.isfinite(dl_bp[valid]) & (dl_bp[valid] > 0)):
        raise DegeneratePlasmaError("degenerate flux surface (vanishing dl/Bp)")
    qgeom = np.where(valid, np.bincount(at[level], weights=wd / r ** 2,
                                        minlength=n_grid), np.nan)
    inv_r2 = _fill_ends(grid, qgeom / dl_bp, valid)
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
    return table


def write_profile_csv(path, table):
    cols = ["psibar", "lambdaA", "lambdaB_weighted", "j_mean", "q", "f", "ne"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(len(table["psibar"])):
            row = []
            for c in cols:
                v = table[c][i]
                row.append("" if not np.isfinite(v) else repr(float(v)))
            writer.writerow(row)
