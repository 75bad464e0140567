import numpy as np
import pytest

import gsrecon
from gsrecon.diagnostics import (CONTOURED_ROWS, TABLE_GRID, extract_contour,
                                 flux_surface_average, integrate_f,
                                 mean_current_density, profile_table,
                                 safety_factor, write_profile_csv)
from gsrecon.errors import DegeneratePlasmaError, NonPhysicalProfileError
from gsrecon.geometry import PlasmaDomain


@pytest.fixture(scope="module")
def circle_case():
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 24, 24)
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psibar = ((r - 2.5) ** 2 + z ** 2) / 0.5 ** 2   # psibar=level: circle
    return mesh, psibar


def test_contour_is_circle(circle_case):
    mesh, psibar = circle_case
    rho = 0.5 * np.sqrt(0.49)
    # with psi = r, |grad psi| = 1 exactly, so dl/B_p = dl r
    found, level, mid, dl_bp = extract_contour(
        mesh, psibar, [0.49], (2.5, 0.0), psi=mesh.nodes[:, 0])
    assert found.tolist() == [True] and not level.any()
    # the polyline is inscribed, so it slightly undershoots the circle
    assert (dl_bp / mid[:, 0]).sum() == pytest.approx(2 * np.pi * rho,
                                                      rel=1e-2)
    # chord midpoints sit a sagitta inside the true circle
    rad = np.hypot(mid[:, 0] - 2.5, mid[:, 1])
    np.testing.assert_allclose(rad, rho, rtol=2e-2)


def test_contour_level_validation(circle_case):
    mesh, psibar = circle_case
    for levels in ([1.5], [0.0, 0.5], [0.5, np.nan], [0.5, 0.4], [0.4, 0.4],
                   [], 0.5, [[0.5]]):
        with pytest.raises(ValueError):
            extract_contour(mesh, psibar, levels, (2.5, 0.0), psi=psibar)


def test_contour_requires_closed_loop(circle_case):
    mesh, psibar = circle_case
    # levels beyond the domain rim cannot close around the axis: they have
    # no segments, and the derived quantities are NaN there
    contours = extract_contour(mesh, 0.05 * psibar, [0.04, 0.9], (2.5, 0.0),
                               psi=0.05 * psibar)
    found, level = contours[:2]
    assert found.tolist() == [True, False] and not level.any()
    avg = flux_surface_average(contours, lambda r, z: r)
    q = safety_factor(contours, [5.0, 5.0])
    assert np.isfinite(avg[0]) and np.isnan(avg[1])
    assert np.isfinite(q[0]) and np.isnan(q[1])


def test_average_of_constant_is_exact(circle_case):
    mesh, psibar = circle_case
    c = extract_contour(mesh, psibar, [0.2, 0.4, 0.6], (2.5, 0.0), psi=psibar)
    np.testing.assert_allclose(flux_surface_average(c, lambda r, z: 4.25),
                               4.25, rtol=0, atol=1e-12)


def test_average_bounded_by_extremes(circle_case):
    mesh, psibar = circle_case
    c = extract_contour(mesh, psibar, [0.2, 0.4, 0.6], (2.5, 0.0), psi=psibar)
    avg = flux_surface_average(c, lambda r, z: r)
    _, level, mid, _ = c
    for i in range(3):
        r = mid[level == i, 0]
        assert r.min() <= avg[i] <= r.max()


def test_diamagnetic_function_boundary_value_exact():
    grid = np.linspace(0.0, 1.0, 11)
    f = integrate_f(np.ones(11), 1e5, 1.0, 0.0, 2.0, 2.5, 4e-7 * np.pi, grid)
    assert f[-1] == 2.0 * 2.5                    # bit-exact at the boundary
    assert np.all(np.diff(np.abs(f)) <= 1e-12)   # |f| decreases outward here


def test_diamagnetic_function_constant_without_source():
    grid = np.linspace(0.0, 1.0, 11)
    f = integrate_f(np.zeros(11), 1e5, 1.0, 0.0, 2.0, 2.5, 4e-7 * np.pi, grid)
    np.testing.assert_allclose(f, 2.0 * 2.5, atol=1e-12)


def test_diamagnetic_function_rejects_negative_square():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(NonPhysicalProfileError):
        integrate_f(-1e3 * np.ones(11), 1e5, 1.0, 0.0, 0.01, 2.5,
                    4e-7 * np.pi, grid)


def test_mean_current_density_formula():
    v = mean_current_density(2.0, np.array([1.0]), np.array([3.0]),
                             np.array([0.16]), 2.5)
    assert v[0] == pytest.approx(2.0 * 1.0 + 2.0 * 2.5 ** 2 * 0.16 * 3.0)


def test_safety_factor_linear_in_f(circle_case):
    mesh, psibar = circle_case
    contours = extract_contour(mesh, psibar, [0.2, 0.4, 0.6], (2.5, 0.0),
                               psi=psibar)
    f = np.array([5.0, 5.0, 5.0])
    q1 = safety_factor(contours, f)
    q2 = safety_factor(contours, 2.0 * f)
    np.testing.assert_allclose(q2, 2.0 * q1, rtol=1e-14)


def test_table_reads_the_contour_functions(twin_mesh, reference_eq, machine,
                                          reference_table):
    # at every contoured level the table's q is safety_factor's bit for
    # bit, and its <1/r^2> (lambdaB_weighted / (lambda r0^2 B)) is
    # flux_surface_average's of 1/r^2 to rounding
    eq, table = reference_eq, reference_table
    grid, at = TABLE_GRID, CONTOURED_ROWS
    contours = extract_contour(twin_mesh, eq.domain.normalize(eq.psi),
                               grid[at], eq.domain.axis, eq.psi)
    assert contours[0].all()
    np.testing.assert_array_equal(table["q"][at],
                                  safety_factor(contours, table["f"][at]))
    inv_r2 = table["lambdaB_weighted"][at] / (
        eq.lam * machine.r0 ** 2
        * (eq.profiles.basis.eval_many(grid[at]) @ eq.profiles.b))
    np.testing.assert_allclose(
        inv_r2, flux_surface_average(contours, lambda r, z: 1.0 / r ** 2),
        rtol=1e-14, atol=0)


def test_profile_table_shapes(reference_table):
    keys = {"psibar", "lambdaA", "lambdaB_weighted", "j_mean", "q", "f", "ne"}
    assert keys <= set(reference_table)
    n = len(reference_table["psibar"])
    for k in keys:
        assert len(reference_table[k]) == n
    interior = slice(5, n - 5)
    for k in ("lambdaA", "lambdaB_weighted", "j_mean", "q", "f"):
        assert np.all(np.isfinite(reference_table[k][interior]))


def test_profile_table_matches_reference_profiles(reference_table,
                                                  reference_eq):
    # lambdaA on the table is lambda * A(psibar) of the stored expansion
    grid = reference_table["psibar"]
    expected = reference_eq.lam * (reference_eq.profiles.basis.eval_many(
        grid) @ reference_eq.profiles.a)
    np.testing.assert_allclose(reference_table["lambdaA"], expected,
                               rtol=1e-12)


def test_profile_csv_roundtrip(tmp_path, reference_table):
    path = tmp_path / "profiles.csv"
    write_profile_csv(path, reference_table)
    import csv
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "psibar"
    assert len(rows) == 1 + len(reference_table["psibar"])
    assert float(rows[1][0]) == 0.0


def test_vanishing_poloidal_field_is_refused_without_warning():
    # a closed level of psibar on a flat psi: B_p = 0 on the whole contour
    # gives the typed error, not a divide-by-zero warning (an error under
    # the suite's warning filter)
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 4, 4)
    psibar = np.hypot(mesh.nodes[:, 0] - 2.5, mesh.nodes[:, 1]) / 0.8
    with pytest.raises(DegeneratePlasmaError, match="vanishing B_p"):
        extract_contour(mesh, psibar, [0.5], (2.5, 0.0),
                        psi=np.zeros(mesh.n_nodes))


def test_non_finite_flux_is_refused_by_name(basis, machine):
    # a bowl with two NaN nodes: the contour pass would meet crossed edges
    # without segments, so both entry points refuse the flux up front
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 8, 8)
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psi = ((r - 2.5) ** 2 + z ** 2) / 0.25
    for at in [(2.125, -0.5), (2.25, 0.0)]:
        psi[np.flatnonzero(np.isclose(r, at[0]) & np.isclose(z, at[1]))] = \
            np.nan
    profiles = gsrecon.ProfileExpansion(basis, np.ones(basis.m),
                                        np.ones(basis.m))
    with pytest.raises(DegeneratePlasmaError, match="not finite at 2 nodes"):
        profile_table(mesh, psi, PlasmaDomain(0.0, 1.0, (2.5, 0.0)),
                      profiles, 1.0, machine)
    for levels in ([0.5], [0.5, 0.98]):
        with pytest.raises(DegeneratePlasmaError,
                           match="not finite at 2 nodes"):
            extract_contour(mesh, psi, levels, (2.5, 0.0), psi=psi)
