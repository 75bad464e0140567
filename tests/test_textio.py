"""The shared line reader, and the input contract of the measurement file,
the equilibrium file and the configuration: an edited input gives a valid
object or a GsReconError (ConfigError for the configuration), never
another exception."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsrecon
from gsrecon import cli
from gsrecon.errors import MeshParseError
from gsrecon.forward import (Iteration, load_equilibrium, picard,
                             save_equilibrium)
from gsrecon.inverse import RegularizationConfig
from gsrecon.observation import (MeasurementSet, load_measurements,
                                 save_measurements)
from gsrecon.textio import LineReader, write_rows

from conftest import a_ref

# what an edit writes in place of a field
FIELD = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1",
                                   "99999999999999999999"]),
                  st.text(max_size=4))


def _reader(tmp_path, text):
    path = tmp_path / "f.txt"
    path.write_text(text)
    return LineReader(path)


def test_reader_counts_values_and_indices(tmp_path):
    rd = _reader(tmp_path, "3\n1.5 -2\n0 2\n")
    assert rd.count(rd.fields("the count")) == 3
    assert rd.values(rd.fields("the values"), 2) == [1.5, -2.0]
    block = rd.block(1, 2, "index", bound=3)
    assert block.dtype == np.int64 and block.tolist() == [[0, 2]]
    with pytest.raises(MeshParseError, match="file ends") as info:
        rd.fields("a fourth line")
    assert info.value.line == 4          # a missing final line: len + 1


@pytest.mark.parametrize("text,n,bound", [
    ("nan", 1, None), ("-inf", 1, None), ("1e999", 1, None), ("x", 1, None),
    ("1 2", 1, None), ("3", 1, 3), ("-1", 1, 3), ("1.0", 1, 3),
    ("99999999999999999999", 1, 3)])
def test_reader_rejects_value_on_its_line(tmp_path, text, n, bound):
    rd = _reader(tmp_path, "first\n" + text + "\n")
    rd.fields("the first line")
    with pytest.raises(MeshParseError) as info:
        rd.values(rd.fields("the second line"), n, bound)
    assert info.value.line == 2


def test_writer_rule(tmp_path):
    # numpy scalars are written like Python numbers, never as their repr
    row = [np.float64(0.1), np.int64(7), np.bool_(True), 1 / 3, "mode"]
    write_rows(tmp_path / "f.txt", [row])
    assert (tmp_path / "f.txt").read_bytes() == \
        b"0.1 7 1 0.3333333333333333 mode\n"
    write_rows(tmp_path / "f.csv", [["a", "b", "c"], [np.nan, 2.5, -np.inf]],
               table=True)
    assert (tmp_path / "f.csv").read_bytes() == b"a,b,c\r\n,2.5,\r\n"


@pytest.fixture(scope="module")
def saved(tmp_path_factory, clean_measurements, setup, reference_eq,
          ne_coeffs):
    """Lines of a short saved measurement file (3 boundary values, 2
    probes, 2 chords) and equilibrium file (the reference with density
    coefficients, 5 psi values), and a directory to write edits to; short
    so that most edits hit a header or a scalar line."""
    d = tmp_path_factory.mktemp("saved")
    ms = clean_measurements
    save_measurements(
        MeasurementSet(ms.g_d[:3], ms.g_n[:2], ms.gamma[:2], ms.alpha[:2],
                       ms.ip, ms.b0, gn_points=ms.gn_points[:2]),
        setup.chord_geoms.endpoints[:2], d / "ms.txt")
    eq = dataclasses.replace(reference_eq, psi=reference_eq.psi[:5],
                             profiles=dataclasses.replace(
                                 reference_eq.profiles, c=ne_coeffs))
    save_equilibrium(eq, d / "eq.txt")
    return {"dir": d, "ms": (d / "ms.txt").read_text().splitlines(),
            "eq": (d / "eq.txt").read_text().splitlines()}


def _write(saved, lines):
    path = saved["dir"] / "edited.txt"
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("prefix,text", [
    ("lambda ", "lambda nan"), ("psi_a ", "psi_a nan"),
    ("mode ", "mode banana"), ("psi ", "nan"), ("ip ", "ip 0.0 1.0"),
    ("axis ", "lambda 1.0"), ("axis ", "psi_rms 1.0"),
    ("converged ", "converged 2"), ("iterations ", "iterations 1.5")])
def test_load_equilibrium_rejects_line(saved, basis, prefix, text):
    # "psi " edits the first psi value; "lambda 1.0" repeats a field
    lines = list(saved["eq"])
    i = next(k for k, ln in enumerate(lines) if ln.startswith(prefix))
    i += prefix == "psi "
    lines[i] = text
    with pytest.raises(MeshParseError) as info:
        load_equilibrium(_write(saved, lines), basis=basis)
    assert info.value.line == i + 1


def test_load_equilibrium_fields_in_any_order(saved, basis):
    lines = saved["eq"]
    k = next(k for k, ln in enumerate(lines) if ln.startswith("psi "))
    eq = load_equilibrium(_write(saved, lines), basis=basis)
    moved = load_equilibrium(_write(saved, lines[k:] + lines[:k][::-1]),
                             basis=basis)
    for a, b in [(eq.psi, moved.psi), (eq.profiles.c, moved.profiles.c),
                 (eq.domain.axis, moved.domain.axis), (eq.lam, moved.lam)]:
        np.testing.assert_array_equal(a, b)
    with pytest.raises(MeshParseError, match="file ends") as info:
        load_equilibrium(_write(saved, lines[1:]), basis=basis)
    assert info.value.line == len(lines)       # r0 missing: line len + 1


def _edit(draw, items):
    """``items`` (lines, or the fields of a value) with one item dropped or
    duplicated, or one field of one item replaced."""
    i = draw(st.integers(0, len(items) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "replace"]))
    if how == "drop":
        return items[:i] + items[i + 1:]
    if how == "duplicate":
        return items[:i + 1] + items[i:]
    fields = items[i].split()
    fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELD)
    return items[:i] + [" ".join(fields)] + items[i + 1:]


@settings(max_examples=200)
@given(data=st.data())
def test_measurement_file_edits_load_or_raise(saved, data):
    try:
        ms, chords = load_measurements(_write(saved,
                                              _edit(data.draw, saved["ms"])))
    except gsrecon.GsReconError:
        return
    assert all(np.isfinite(v).all() for v in (ms.g_d, ms.g_n, ms.gamma,
                                              ms.alpha, ms.gn_points, chords))
    assert 0 < abs(ms.ip) < np.inf and np.isfinite(ms.b0)
    assert len(chords) == len(ms.gamma) and len(ms.gn_points) == len(ms.g_n)


@settings(max_examples=200)
@given(data=st.data())
def test_equilibrium_file_edits_load_or_raise(saved, data):
    try:
        eq = load_equilibrium(_write(saved, _edit(data.draw, saved["eq"])))
    except gsrecon.GsReconError:
        return
    assert np.isfinite(eq.psi).all() and np.isfinite(eq.lam)
    assert all(np.isfinite(c).all() and len(c) == eq.profiles.basis.m
               for c in (eq.profiles.a, eq.profiles.b, eq.profiles.c)
               if c is not None)
    assert eq.domain.mode in ("limiter", "xpoint")
    assert np.isfinite([eq.domain.psi_a, eq.domain.psi_b, *eq.domain.axis]
                       ).all()


# a configuration with a value for every key but the paths (out_dir,
# mesh_file)
CONFIG = dict({k: v for k, v in cli.DEFAULTS.items() if k != "out_dir"},
              profile_a="1,0.6,0", profile_b="1,0.4,0",
              profile_ne="1.2e19,0.9e19,0.2e19", g_d_const="0.0",
              chord="2.0 -0.9 3.0 0.3")
INT_KEYS = {"nr", "nz", "degree", "m", "max_iter", "realtime_iters", "seed",
            "replicates", "lcurve_points"}
NUMBER_KEYS = set(CONFIG) - {"limiter_rect", "profile_a", "profile_b",
                             "profile_ne", "chord", "eps_list"}


def _config_numbers(cfg):
    """Every number the subcommands read from the configuration, after
    building what they build from it before a solve."""
    mesh = cli._load_mesh(cfg)
    cli._basis(cfg), cli._machine(cfg), cli._reg(cfg)
    xs = np.linspace(0.0, 1.0, 11)
    numbers = [cli._profile_func(cfg, k, a_ref)(xs)
               for k in ("profile_a", "profile_b", "profile_ne")]
    numbers += [cli._boundary_data(cfg, mesh), np.array(cfg["chords"])]
    numbers += [cli._get(cfg, k, int if k in INT_KEYS else float)
                for k in sorted(NUMBER_KEYS)]
    numbers.append(cli._get_list(cfg, "eps_list"))
    for eps in numbers[-1]:       # the configuration of each stats value
        RegularizationConfig(eps=eps)
    # the stop tests of the forward and reconstruct loops, and real-time
    for tol, max_iter in [(cli._get(cfg, "tol"),
                           cli._get(cfg, "max_iter", int)),
                          (0.0, cli._get(cfg, "realtime_iters", int))]:
        picard(lambda psi, _: (psi, Iteration(1.0)), np.ones(1), tol,
               max_iter, [])
    return numbers


@settings(max_examples=200)
@given(key=st.sampled_from(sorted(CONFIG)), data=st.data())
def test_config_edits_give_objects_or_config_error(key, data):
    value = str(CONFIG[key])
    sep = "," if "," in value else " "
    edited = sep.join(_edit(data.draw, re.split("[, ]", value)))
    try:
        cfg = cli.parse_config(None, [f"{k}={v}" for k, v in CONFIG.items()
                                      if k != key] + [f"{key}={edited}"])
        numbers = _config_numbers(cfg)
    except cli.ConfigError:
        return
    assert all(np.isfinite(np.asarray(v, dtype=float)).all() for v in numbers)
