import dataclasses

import numpy as np
import pytest

import gsrecon
from gsrecon.basis import SplineBasis
from gsrecon.errors import MeshParseError
from gsrecon.observation import (MeasurementSet, build_chord_geometries,
                                 build_interferometry_matrix,
                                 build_neumann_observer,
                                 build_polarimetry_observer, default_weights,
                                 load_measurements, save_measurements)
from gsrecon.twin import perturb

from conftest import CHORDS


@pytest.fixture(scope="module")
def mesh():
    return gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 16, 16)


def test_chord_quadrature(mesh):
    geoms = build_chord_geometries(mesh, [(2.0, 0.0, 3.0, 0.0)], step=0.07)
    assert len(geoms) == 1 and len(geoms.w) == 15
    assert geoms.w.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(geoms.r) <= 0.07 + 1e-12)
    np.testing.assert_allclose(geoms.normals, [[0.0, 1.0]], atol=1e-14)


@pytest.mark.parametrize("chord", [(2.0, 0.0, 2.0, 0.0),
                                   (2.0, 0.0, np.inf, 0.0),
                                   (2.0, np.nan, 2.5, 0.0)],
                         ids=["zero-length", "infinite", "nan"])
def test_degenerate_chord_rejected(mesh, chord):
    with pytest.raises(ValueError):
        build_chord_geometries(mesh, [(2.1, 0.0, 2.9, 0.0), chord], step=0.1)


def test_chord_geometry_values(mesh):
    p0, p1 = np.array([2.1, -0.5]), np.array([2.9, 0.5])
    geoms = build_chord_geometries(mesh, [(*p0, *p1)])
    pts = geoms.points
    n = len(pts)                                   # fully interior chord
    np.testing.assert_allclose(pts, p0 + ((np.arange(n) + 0.5) / n)[:, None]
                               * (p1 - p0), rtol=0, atol=1e-15)
    field = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1]
    np.testing.assert_allclose(geoms.S @ field, 2.0 * pts[:, 0] - pts[:, 1],
                               atol=1e-10)
    np.testing.assert_array_equal(geoms.r, pts[:, 0])
    np.testing.assert_array_equal(geoms.endpoints, [[*p0, *p1]])


def _polarimetry(geoms, basis, ne_coeffs, psibar, psi):
    """Polarimetry signals of the density ne_coeffs on the flux psi: the
    observer takes its chord-normal derivatives D psi."""
    weights = build_interferometry_matrix(geoms, basis, psibar)[1]
    return build_polarimetry_observer(geoms, weights, ne_coeffs,
                                      geoms.D @ psi)


def _chord_signals(mesh, chords, basis, eq, ne_coeffs):
    geoms = build_chord_geometries(mesh, chords)
    psibar = eq.domain.normalize(eq.psi)
    return (build_interferometry_matrix(geoms, basis, psibar)[0] @ ne_coeffs,
            _polarimetry(geoms, basis, ne_coeffs, psibar, eq.psi))


def test_chord_direction_flips_polarimetry_only(twin_mesh, basis,
                                                reference_eq, ne_coeffs):
    # several chord points of the twin lie on mesh edges or vertices; their
    # chord-normal derivative must not depend on which way the chord runs
    reversed_chords = [(c[2], c[3], c[0], c[1]) for c in CHORDS]
    gamma, alpha = _chord_signals(twin_mesh, CHORDS, basis, reference_eq,
                                  ne_coeffs)
    gamma_rev, alpha_rev = _chord_signals(twin_mesh, reversed_chords, basis,
                                          reference_eq, ne_coeffs)
    assert np.all(np.abs(alpha) > 1e-3 * np.abs(alpha).max())
    np.testing.assert_allclose(alpha_rev, -alpha, rtol=1e-12)
    np.testing.assert_allclose(gamma_rev, gamma, rtol=1e-12)


def test_chord_on_mesh_edge_takes_mean_of_both_triangles(twin_mesh):
    # a horizontal chord along a grid line, sampled at the midpoints of the
    # horizontal mesh edges: every point lies on the edge shared by the
    # triangles above and below it
    mesh = twin_mesh
    z = 0.12
    geoms = build_chord_geometries(mesh, [(2.0, z, 3.0, z)], step=0.05)
    line = np.flatnonzero(np.abs(mesh.nodes[:, 1] - z) < 1e-9)
    line = line[np.argsort(mesh.nodes[line, 0])]
    assert len(line) == 21 and geoms.D.shape[0] == 20
    normal = geoms.normals[0]
    np.testing.assert_array_equal(normal, [-0.0, 1.0])
    tris = mesh.triangles
    for k, (a, b) in enumerate(zip(line[:-1], line[1:])):
        both = np.flatnonzero((tris == a).any(axis=1)
                              & (tris == b).any(axis=1))
        assert len(both) == 2
        expected = np.zeros(mesh.n_nodes)
        for t in both:
            expected[tris[t]] += 0.5 * (normal @ mesh.grads()[t])
        np.testing.assert_allclose(geoms.D[k].toarray().ravel(), expected,
                                   rtol=0, atol=1e-12 * np.abs(expected).max())


def test_chord_outside_domain_warns(mesh):
    with pytest.warns(UserWarning):
        build_chord_geometries(mesh, [(10.0, 0.0, 11.0, 0.0)])


def test_neumann_observer_annihilates_constants(mesh):
    C0, points = build_neumann_observer(mesh)
    assert C0.shape == (len(mesh.boundary), mesh.n_nodes)
    assert len(points) == len(mesh.boundary)
    resid = C0 @ np.ones(mesh.n_nodes)
    assert np.abs(resid).max() < 1e-12


def test_neumann_observer_linear_field(mesh):
    # psi = z: (1/r) dpsi/dn = +-1/r on the horizontal edges
    C0, points = build_neumann_observer(mesh)
    vals = C0 @ mesh.nodes[:, 1]
    on_top = np.isclose(points[:, 1], 1.0) & (points[:, 0] > 2.01) \
        & (points[:, 0] < 2.99)
    on_bot = np.isclose(points[:, 1], -1.0) & (points[:, 0] > 2.01) \
        & (points[:, 0] < 2.99)
    np.testing.assert_allclose(vals[on_top], 1.0 / points[on_top, 0],
                               rtol=1e-9)
    np.testing.assert_allclose(vals[on_bot], -1.0 / points[on_bot, 0],
                               rtol=1e-9)


def _psibar(mesh):
    r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return ((r - 2.5) ** 2 + z ** 2) / 0.16     # unit circle of radius 0.4


def test_interferometry_constant_density_gives_chord_length(mesh):
    basis = SplineBasis(end_constraint=True)
    geoms = build_chord_geometries(mesh, [(2.0, 0.0, 3.0, 0.0)], step=0.01)
    B = build_interferometry_matrix(geoms, basis, _psibar(mesh))[0]
    ones = basis.fit(np.linspace(0, 1, 101), np.ones(101))
    # the chord crosses the plasma disc along a diameter of length 0.8
    assert B @ ones == pytest.approx(0.8, rel=2e-2)


def test_interferometry_skips_vacuum_chord(mesh):
    basis = SplineBasis(end_constraint=True)
    geoms = build_chord_geometries(mesh, [(2.0, 0.9, 3.0, 0.9)], step=0.01)
    B, G = build_interferometry_matrix(geoms, basis, _psibar(mesh))
    assert np.all(B == 0.0) and np.all(G == 0.0)


def test_polarimetry_vanishes_for_constant_flux(mesh):
    basis = SplineBasis(end_constraint=True)
    geoms = build_chord_geometries(mesh, [(2.0, -0.2, 3.0, 0.2)], step=0.01)
    ones = basis.fit(np.linspace(0, 1, 101), np.ones(101))
    vals = _polarimetry(geoms, basis, ones, _psibar(mesh),
                        np.full(mesh.n_nodes, 3.3))
    assert np.abs(vals).max() < 1e-12


def test_polarimetry_linear_in_density(mesh):
    basis = SplineBasis(end_constraint=True)
    geoms = build_chord_geometries(mesh, [(2.0, -0.2, 3.0, 0.2)], step=0.01)
    pb = _psibar(mesh)
    c = basis.fit(np.linspace(0, 1, 101), 1.0 - np.linspace(0, 1, 101) ** 2)
    psi = mesh.nodes[:, 0] + 0.5 * mesh.nodes[:, 1]
    v1 = _polarimetry(geoms, basis, c, pb, psi)
    v2 = _polarimetry(geoms, basis, 2.0 * c, pb, psi)
    np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)


def _measurements(n_mag, alpha, gamma):
    return MeasurementSet(np.zeros(3), np.ones(n_mag), gamma, alpha, 1.0e6,
                          2.0, np.zeros((n_mag, 2)))


def test_default_weights_magnitudes():
    # all-zero chord data: the stated chord sigmas 1e-1 and 1e18
    w = default_weights(_measurements(80, np.zeros(14), np.zeros(14)), 6.0)
    sigma_mag = 0.01 * 4e-7 * np.pi * 1e6 / 6.0
    assert w.w_mag == pytest.approx(1.0 / (np.sqrt(80) * sigma_mag))
    assert w.w_polar == pytest.approx(1.0 / (np.sqrt(14) * 1e-1))
    assert w.w_inter == pytest.approx(1.0 / (np.sqrt(14) * 1e18))
    w = default_weights(_measurements(80, np.zeros(0), np.zeros(0)), 6.0)
    assert (w.w_polar, w.w_inter) == (10.0, 1e-18)


def test_default_weights_track_measurement_scale():
    alpha = np.full(5, 2.0e19)
    gamma = np.full(5, -4.0e19)
    w = default_weights(_measurements(80, alpha, gamma), 6.0)
    assert w.w_polar == pytest.approx(1.0 / (np.sqrt(5) * 0.01 * 2.0e19))
    assert w.w_inter == pytest.approx(1.0 / (np.sqrt(5) * 0.01 * 4.0e19))


def test_default_weights_rejects_bad_boundary():
    with pytest.raises(ValueError):
        default_weights(_measurements(80, np.zeros(5), np.zeros(5)), 0.0)


def test_measurement_set_validation():
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros(4), np.zeros(4), np.zeros(2), np.zeros(3),
                       1e6, 2.0, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        MeasurementSet(np.zeros(4), np.array([np.nan]), np.zeros(0),
                       np.zeros(0), 1e6, 2.0, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="at least one Neumann point"):
        MeasurementSet(np.zeros(4), np.zeros(0), np.zeros(0), np.zeros(0),
                       1e6, 2.0, np.zeros((0, 2)))
    for ip, b0 in [(0.0, 2.0), (np.nan, 2.0), (np.inf, 2.0), (1e6, np.nan)]:
        with pytest.raises(ValueError, match="Ip must be"):
            MeasurementSet(np.zeros(4), np.zeros(1), np.zeros(0),
                           np.zeros(0), ip, b0, np.zeros((1, 2)))
    # one (r, z) point per gN value, all finite
    for pts in (None, np.zeros((3, 2)), np.zeros((4, 3)), np.zeros(8),
                np.array([[2.0, 0.0]] * 3 + [[np.nan, 0.0]])):
        with pytest.raises(ValueError, match="4 gN values need"):
            MeasurementSet(np.zeros(4), np.zeros(4), np.zeros(0),
                           np.zeros(0), 1e6, 2.0, pts)


def test_measurements_roundtrip(tmp_path, clean_measurements, setup):
    path = tmp_path / "ms.txt"
    chords = setup.chord_geoms.endpoints
    save_measurements(clean_measurements, chords, path)
    ms2, chords2 = load_measurements(path)
    np.testing.assert_array_equal(clean_measurements.g_d, ms2.g_d)
    np.testing.assert_array_equal(clean_measurements.g_n, ms2.g_n)
    np.testing.assert_array_equal(clean_measurements.gamma, ms2.gamma)
    np.testing.assert_array_equal(clean_measurements.alpha, ms2.alpha)
    assert ms2.ip == clean_measurements.ip
    np.testing.assert_array_equal(chords2, chords)


@pytest.mark.parametrize("extra", [-1, 1])
def test_save_measurements_refuses_chord_count_mismatch(tmp_path, extra,
                                                       clean_measurements,
                                                       setup):
    # one chord row too few or too many: nothing is written
    chords = setup.chord_geoms.endpoints
    chords = chords[:-1] if extra < 0 else np.vstack([chords, chords[:1]])
    n = len(clean_measurements.gamma)
    path = tmp_path / "ms.txt"
    with pytest.raises(ValueError,
                       match=f"^{n + extra} chord rows, {n} gamma values$"):
        save_measurements(clean_measurements, chords, path)
    assert not path.exists()


def test_save_measurements_refuses_a_set_without_points(
        tmp_path, clean_measurements, setup):
    # the file records each gN value at its point; zero rows could never
    # match a mesh, and a NaN point could not be read back.  The set itself
    # refuses such points when it is built, so nothing is written
    path = tmp_path / "ms.txt"
    nan_point = clean_measurements.gn_points.copy()
    nan_point[3, 1] = np.nan
    for pts in (None, clean_measurements.gn_points[:-1], nan_point):
        with pytest.raises(ValueError, match="gN values need"):
            save_measurements(dataclasses.replace(clean_measurements,
                                                  gn_points=pts),
                              setup.chord_geoms.endpoints, path)
        assert not path.exists()


def test_load_measurements_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Ip 1e6\nB0 2.0\ngD 2\n0.0\nnot_a_number\n")
    with pytest.raises(MeshParseError):
        load_measurements(path)


def test_load_measurements_every_line_prefix(tmp_path, clean_measurements,
                                             setup):
    # a truncated file loads (only when nothing is missing) or raises a
    # GsReconError, never another exception
    path = tmp_path / "ms.txt"
    save_measurements(clean_measurements, setup.chord_geoms.endpoints, path)
    lines = path.read_text().splitlines()
    loaded = []
    for k in range(len(lines) + 1):
        path.write_text("\n".join(lines[:k]))
        try:
            load_measurements(path)
            loaded.append(k)
        except gsrecon.GsReconError:
            pass
    assert loaded == [len(lines)]


@pytest.mark.parametrize("text,line", [
    ("Ip one\nB0 2.0\ngD 0\ngN 0\nchords 0\n", 1),
    ("Ip 1e6\nB0 2.0\ngD two\n", 3),
    ("Ip 1e6\nB0 2.0\ngD 1\n0.0\ngN 1.5\n", 5),
    ("B0 2.0\ngD 1\n0.0\n", 2),
    ("Ip 1e6\ngD 1\n0.0\n", 2),
    ("Ip 1e6\nB0 2.0\ngD 1\n0.0\ngN 1\n2.0 0.0\n", 6),
    ("Ip 1e6\nB0 2.0\ngD 1\n0.0\ngN 1\n2.0 0.0 1.0\n", 7),
    ("Ip 1e6\nB0 2.0\ngD 1\n0.0\ngN 1\n2.0 0.0 nan\nchords 0\n", 6),
    ("B0 2.0\nIp nan\ngD 0\ngN 1\n2.0 0.0 1.0\nchords 0\n", 2),
    ("Ip 0.0\nB0 2.0\ngD 0\ngN 1\n2.0 0.0 1.0\nchords 0\n", None),
])
def test_load_measurements_malformed_lines(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshParseError) as info:
        load_measurements(path)
    assert info.value.line == line


def test_perturb_zero_rate_is_identity(clean_measurements):
    ms = perturb(clean_measurements, 0.0, 0)
    np.testing.assert_array_equal(ms.g_n, clean_measurements.g_n)


def test_perturb_noise_scales_with_magnitude(clean_measurements):
    draws = np.array([perturb(clean_measurements, 0.01, s).g_n
                      for s in range(400)])
    std = draws.std(axis=0)
    target = 0.01 * np.abs(clean_measurements.g_n)
    big = target > 0.1 * target.max()
    np.testing.assert_allclose(std[big], target[big], rtol=0.2)


def test_perturb_rejects_negative_rate(clean_measurements):
    with pytest.raises(ValueError):
        perturb(clean_measurements, -0.1, 0)
