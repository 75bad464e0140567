import numpy as np
import pytest

import gsrecon
from gsrecon.diagnostics import (extract_contour, flux_surface_average,
                                 integrate_f, mean_current_density,
                                 profile_table, safety_factor,
                                 write_profile_csv)
from gsrecon.errors import NonPhysicalProfileError, OpenContourError


@pytest.fixture(scope="module")
def circle_case():
    mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 24, 24)
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psibar = ((r - 2.5) ** 2 + z ** 2) / 0.5 ** 2   # psibar=level: circle
    return mesh, psibar


def test_contour_is_circle(circle_case):
    mesh, psibar = circle_case
    c = extract_contour(mesh, psibar, 0.49, (2.5, 0.0), scale=1.0)
    rho = 0.5 * np.sqrt(0.49)
    # the polyline is inscribed, so it slightly undershoots the circle
    assert c.length == pytest.approx(2 * np.pi * rho, rel=1e-2)
    # chord midpoints sit a sagitta inside the true circle
    rad = np.hypot(c.seg_mid[:, 0] - 2.5, c.seg_mid[:, 1])
    np.testing.assert_allclose(rad, rho, rtol=2e-2)


def test_contour_level_validation(circle_case):
    mesh, psibar = circle_case
    with pytest.raises(ValueError):
        extract_contour(mesh, psibar, 1.5, (2.5, 0.0), scale=1.0)
    with pytest.raises(ValueError):
        extract_contour(mesh, psibar, 0.5, (2.5, 0.0))   # no psi, no scale


def test_contour_requires_closed_loop(circle_case):
    mesh, psibar = circle_case
    # levels beyond the domain rim cannot close around the axis
    with pytest.raises(OpenContourError):
        extract_contour(mesh, 0.05 * psibar, 0.9, (2.5, 0.0), scale=1.0)


def test_average_of_constant_is_exact(circle_case):
    mesh, psibar = circle_case
    c = extract_contour(mesh, psibar, 0.4, (2.5, 0.0), scale=1.0)
    assert flux_surface_average(c, lambda r, z: 4.25) \
        == pytest.approx(4.25, abs=1e-12)


def test_average_bounded_by_extremes(circle_case):
    mesh, psibar = circle_case
    c = extract_contour(mesh, psibar, 0.4, (2.5, 0.0), scale=1.0)
    avg = flux_surface_average(c, lambda r, z: r)
    assert c.seg_mid[:, 0].min() <= avg <= c.seg_mid[:, 0].max()


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
    contours = [extract_contour(mesh, psibar, lev, (2.5, 0.0), scale=1.0)
                for lev in (0.2, 0.4, 0.6)]
    f = np.array([5.0, 5.0, 5.0])
    q1 = safety_factor(contours, f)
    q2 = safety_factor(contours, 2.0 * f)
    np.testing.assert_allclose(q2, 2.0 * q1, rtol=1e-14)


def test_safety_factor_skips_missing_contours(circle_case):
    mesh, psibar = circle_case
    c = extract_contour(mesh, psibar, 0.4, (2.5, 0.0), scale=1.0)
    q = safety_factor([c, None], np.array([5.0, 5.0]))
    assert np.isfinite(q[0]) and np.isnan(q[1])


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
    expected = reference_eq.lam * reference_eq.profiles.eval("A", grid)
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


def test_profile_table_margin_zero(twin_mesh, reference_eq, machine,
                                   reference_table):
    # levels 0 and 1 are never contoured; their entries are extrapolated
    eq = reference_eq
    table = profile_table(twin_mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                          machine, margin=0.0)
    inner = slice(2, -2)
    for key in ("lambdaB_weighted", "j_mean", "q", "f"):
        assert np.all(np.isfinite(table[key]))
        np.testing.assert_array_equal(table[key][inner],
                                      reference_table[key][inner])
