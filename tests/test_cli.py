import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import gsrecon
from gsrecon import cli
from gsrecon.errors import MeshParseError
from gsrecon.inverse import ReconstructionSetup, reconstruct
from gsrecon.mesh import build_rect_mesh, load_mesh, save_mesh
from gsrecon.observation import load_measurements

CONFIG = """\
# desk-scale twin configuration
profile_ne = 1.2e19, 1.17e19, 1.09e19, 0.94e19, 0.73e19, 0.18e19
chord = 2.0 -0.9 3.0 0.3
chord = 2.0 0.9 3.0 -0.3
chord = 2.2 -1.2 2.8 1.2
chord = 2.8 -1.2 2.2 1.2
chord = 2.0 0.55 3.0 0.55
chord = 2.0 -0.55 3.0 -0.55
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config plus the outputs of one forward solve and one twin synthesis."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = ws / "twin.cfg"
    cfg.write_text(CONFIG + f"out_dir = {ws}\n")
    assert cli.main(["forward", "--config", str(cfg)]) == cli.EXIT_OK
    assert cli.main(["twin", "--config", str(cfg), "--noise"]) == cli.EXIT_OK
    return ws, cfg


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = cli.parse_config(None, ["eps = 0.2", "nr=33"])
    assert float(cfg["eps"]) == 0.2
    assert int(cfg["nr"]) == 33
    assert cfg["chords"] == []


def test_parse_config_chords_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nchord = 1 2 3 4\nchord = 5 6 7 8\n\nip=2e6\n")
    cfg = cli.parse_config(str(path))
    assert cfg["chords"] == [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)]
    assert float(cfg["ip"]) == 2e6


def test_parse_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "missing.cfg"))
    path = tmp_path / "bad.cfg"
    path.write_text("no equals sign here\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(path))
    path.write_text("chord = 1 2 3\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(path))
    with pytest.raises(cli.ConfigError, match="unknown key 'nrr'"):
        cli.parse_config(None, ["nrr=5"])


def test_mesh_gen(tmp_path):
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh-gen", "--set", "nr=6", "--set", "nz=6",
                     "--out", str(out)]) == cli.EXIT_OK
    mesh = load_mesh(out)
    assert mesh.n_nodes == 49


def test_mesh_gen_without_limiter_writes_the_inset_ring(tmp_path):
    # limiter_rect = none leaves the limiter to build_rect_mesh
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh-gen", "--set", "limiter_rect=none", "--set", "nr=6",
                     "--set", "nz=6", "--out", str(out)]) == cli.EXIT_OK
    np.testing.assert_array_equal(
        load_mesh(out).limiter,
        build_rect_mesh(2.0, 3.0, -1.2, 1.2, 6, 6).limiter)


def test_mesh_gen_file_solves_like_the_built_mesh(tmp_path):
    # mesh-gen writes the configured mesh, limiter included, so a forward
    # solve on the written file equals the one on the mesh built in memory
    mesh_path = tmp_path / "mesh.txt"
    assert cli.main(["mesh-gen", "--out", str(mesh_path)]) == cli.EXIT_OK
    psi = {}
    for name, extra in (("built", []),
                        ("file", ["--set", f"mesh_file={mesh_path}"])):
        out = tmp_path / name
        assert cli.main(["forward", "--set", f"out_dir={out}"]
                        + extra) == cli.EXIT_OK
        psi[name] = gsrecon.load_equilibrium(out / "equilibrium.txt").psi
    np.testing.assert_array_equal(psi["file"], psi["built"])


def test_forward_outputs(workspace):
    ws, _ = workspace
    assert (ws / "equilibrium.txt").exists()
    assert (ws / "forward_profiles.csv").exists()


def test_twin_outputs(workspace):
    ws, _ = workspace
    assert (ws / "measurements.txt").exists()
    assert (ws / "reference_profiles.csv").exists()


def test_reconstruct_from_measurement_file(workspace):
    ws, cfg = workspace
    code = cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(ws / "measurements.txt"),
                     "--set", f"out_dir={ws / 'rec'}"])
    assert code == cli.EXIT_OK
    summary = (ws / "rec" / "reconstruction_summary.txt").read_text()
    assert "converged True" in summary
    # every number reads back to the bits of the same reconstruction
    # through the API
    conf = cli.parse_config(str(cfg))
    ms, chords = load_measurements(ws / "measurements.txt")
    setup = ReconstructionSetup(cli._load_mesh(conf), cli._machine(conf),
                                chords, basis=cli._basis(conf))
    res = reconstruct(setup, ms, cli._reg(conf), tol=cli._get(conf, "tol"),
                      max_iter=cli._get(conf, "max_iter", int))
    fields = dict(line.split(" ", 1) for line in summary.splitlines())
    numbers = {k: [float(v) for v in fields[k].split()]
               for k in ("lambda", *res.costs, "residuals")}
    assert numbers == {"lambda": [float(res.lam)],
                       **{k: [float(v)] for k, v in res.costs.items()},
                       "residuals": [float(r) for r in res.residuals]}


def test_reconstruct_realtime_runs_two_iterations(workspace, capsys):
    ws, cfg = workspace
    code = cli.main(["reconstruct", "--config", str(cfg), "--realtime",
                     "--measurements", str(ws / "measurements.txt"),
                     "--set", f"out_dir={ws / 'rt'}"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "iteration 2:" in out and "iteration 3:" not in out


def test_reconstruct_without_convergence_exits_2(workspace, tmp_path):
    ws, cfg = workspace
    code = cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(ws / "measurements.txt"),
                     "--set", "max_iter=2", "--set", f"out_dir={tmp_path}"])
    assert code == cli.EXIT_NOCONV
    summary = (tmp_path / "reconstruction_summary.txt").read_text()
    assert "converged False" in summary.splitlines()


def test_reconstruct_failure_exits_2_without_output(workspace, tmp_path,
                                                    capsys):
    # boundary flux values of 1e300 overflow the normal equation: the
    # failure comes back as result.error, and nothing is written
    ws, cfg = workspace
    lines = (ws / "measurements.txt").read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("gD "))
    n = int(lines[k].split()[1])
    lines[k + 1:k + 1 + n] = ["1e300"] * n
    big = tmp_path / "big.txt"
    big.write_text("\n".join(lines))
    out = tmp_path / "out"
    code = cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(big), "--set", f"out_dir={out}"])
    assert code == cli.EXIT_NOCONV
    assert capsys.readouterr().err == ("reconstruction failed: penalized "
                                       "least squares overflow at this data "
                                       "scale\n")
    assert not out.exists()


def test_reconstruct_missing_measurements(workspace):
    _, cfg = workspace
    assert cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", "/nonexistent/ms.txt"]) \
        == cli.EXIT_INPUT


def test_reconstruct_malformed_measurements(workspace, tmp_path):
    _, cfg = workspace
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(bad)]) == cli.EXIT_INPUT


def test_reconstruct_truncated_measurements(workspace, tmp_path):
    ws, cfg = workspace
    lines = (ws / "measurements.txt").read_text().splitlines()
    cut = tmp_path / "cut.txt"
    cut.write_text("\n".join(lines[:40]))
    assert cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(cut)]) == cli.EXIT_INPUT


def test_reconstruct_on_another_box_is_input_error(workspace, tmp_path,
                                                  capsys):
    # the twin's file on a mesh of the same node counts over a larger box:
    # its gN points are not the mesh's boundary nodes
    ws, cfg = workspace
    box = ["r_min=1.9", "r_max=3.1", "z_min=-1.3", "z_max=1.3"]
    assert cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(ws / "measurements.txt"),
                     *(a for kv in box for a in ("--set", kv)),
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gN points" in err
    assert not any(tmp_path.iterdir())


def test_forward_failure_is_nonconvergence(tmp_path):
    # a negative current puts the flux maximum on the boundary in the
    # first iteration: a numerical failure, not an input error
    assert cli.main(["forward", "--set", "ip=-1e6",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_NOCONV


def test_forward_flux_of_rounding_noise_is_nonconvergence(tmp_path, capsys):
    # a boundary flux of 1e150 leaves a plasma well of a few ulps: the
    # domain is refused, not reported as converged
    assert cli.main(["forward", "--set", "g_d_const=1e150",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_NOCONV
    assert "within 1e-12 max|psi|" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_stats_writes_csv(workspace):
    ws, cfg = workspace
    code = cli.main(["stats", "--config", str(cfg),
                     "--set", "replicates=2", "--set", "eps_list=1e-1",
                     "--set", f"out_dir={ws / 'stats'}"])
    assert code == cli.EXIT_OK
    assert (ws / "stats" / "stats_eps_0.1.csv").exists()
    manifest = (ws / "stats" / "stats_manifest.txt").read_text().splitlines()
    # the replicates started from the converged clean reconstruction
    assert manifest[-2:] == ["failed_eps_0.1 = 0", "warm_start_eps_0.1 = 1"]


def test_stats_passes_stop_test_to_replicates(tmp_path, monkeypatch):
    seen = []

    def record(*args, **kwargs):
        seen.append((kwargs["tol"], kwargs["max_iter"]))
        return []

    monkeypatch.setattr(cli, "replicate_stats", record)
    small = ["--set", "nr=12", "--set", "nz=12", "--set", f"out_dir={tmp_path}"]
    assert cli.main(["stats"] + small) == cli.EXIT_OK
    assert cli.main(["stats", "--set", "tol=1e-5", "--set", "max_iter=17"]
                    + small) == cli.EXIT_OK
    assert seen == [(1e-6, 30), (1e-5, 17)]


def test_stats_without_a_converged_replicate_exits_2(tmp_path, capsys):
    # noise of 50 times each measurement: every replicate fails, a
    # numerical failure and not an input error; nothing is written
    assert cli.main(["stats", "--set", "nr=10", "--set", "nz=10",
                     "--set", "replicates=1", "--set", "eps_list=0.05",
                     "--set", "noise_rate=50",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_NOCONV
    err = capsys.readouterr().err
    assert "all 1 replicates failed at eps=0.05" in err
    assert "Traceback" not in err and "forward solve" not in err
    assert not any(tmp_path.iterdir())


def test_stats_manifest_bytes(tmp_path):
    # the configuration as parsed, keys sorted, one line per chord, then
    # the per-eps counts; floats as repr
    cfg = cli.parse_config(None, ["nr=10", "chord = 2.0 -0.9 3.0 0.3"])
    path = tmp_path / "stats_manifest.txt"
    cli._write_manifest(cfg, path, {"failed_eps_0.1": 0,
                                    "warm_start_eps_0.1": 1})
    assert path.read_bytes() == b"""\
alpha_scale = 1e+19
b0 = 2.0
chord = 2.0 -0.9 3.0 0.3
degree = 3
eps = 0.05
eps_list = 1e-2,1e-1,1
eps_ne = 0.01
ip = 1000000.0
lcurve_eps_max = 1.0
lcurve_eps_min = 1e-05
lcurve_points = 13
limiter_rect = 2.1 2.9 1.05
m = 8
max_iter = 30
noise_rate = 0.01
nr = 10
nz = 20
out_dir = .
r0 = 2.5
r_max = 3.0
r_min = 2.0
realtime_iters = 2
replicates = 50
seed = 12345
tol = 1e-06
z_max = 1.2
z_min = -1.2
failed_eps_0.1 = 0
warm_start_eps_0.1 = 1
"""


def test_lcurve_writes_curves(workspace):
    ws, cfg = workspace
    code = cli.main(["lcurve", "--config", str(cfg),
                     "--set", "lcurve_points=7",
                     "--set", f"out_dir={ws / 'lc'}"])
    assert code == cli.EXIT_OK
    assert (ws / "lc" / "lcurve_ne.csv").exists()
    assert (ws / "lc" / "lcurve_ab.csv").exists()


def test_lcurve_requires_density_profile(tmp_path, monkeypatch, capsys):
    # checked before the reference forward solve, which would raise here
    def no_solve(*args, **kwargs):
        raise AssertionError("forward solve before the input check")

    monkeypatch.setattr(cli, "forward_fixed_point", no_solve)
    cfg = tmp_path / "nolc.cfg"
    for text in ("", CONFIG.split("chord")[0]):
        cfg.write_text(text + f"out_dir = {tmp_path}\n")
        assert cli.main(["lcurve", "--config", str(cfg)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: lcurve requires profile_ne and at least one chord\n")


def test_zero_length_chord_in_config_is_input_error(tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match="config line 2"):
        cli.parse_config(None, ["nr=8", "chord = 2.5 0 2.5 0"])
    assert cli.main(["twin", "--set", "chord=2.5 0 2.5 0",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: bad chord") and "Traceback" not in err


def test_zero_length_chord_in_measurements_is_input_error(workspace,
                                                          tmp_path, capsys):
    ws, cfg = workspace
    lines = (ws / "measurements.txt").read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("chords "))
    fields = lines[k + 2].split()
    lines[k + 2] = " ".join(fields[:2] + fields[:2] + fields[4:])
    bad = tmp_path / "zero.txt"
    bad.write_text("\n".join(lines))
    with pytest.raises(MeshParseError) as info:
        load_measurements(bad)
    assert info.value.line == k + 3
    assert cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(bad)]) == cli.EXIT_INPUT
    assert "Traceback" not in capsys.readouterr().err


def test_seeded_stats_are_reproducible(tmp_path):
    # two runs in fresh processes with different hash seeds write
    # byte-identical statistics and manifests (to the same directory, which
    # the manifest names)
    src = os.path.dirname(os.path.dirname(gsrecon.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = tmp_path / "stats"
    cfg = tmp_path / "stats.cfg"
    cfg.write_text(CONFIG + f"out_dir = {out}\n")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "gsrecon.cli", "stats",
                        "--config", str(cfg), "--set", "replicates=2",
                        "--set", "eps_list=1e-1"], env=env, check=True,
                       capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        for p in out.iterdir():
            p.unlink()
    assert sorted(outputs[0]) == ["stats_eps_0.1.csv", "stats_manifest.txt"]
    assert outputs[0] == outputs[1]


def test_mesh_file_without_limiter_is_input_error(tmp_path, capsys):
    path = tmp_path / "mesh.txt"
    save_mesh(build_rect_mesh(2.0, 3.0, -1.2, 1.2, 12, 12), path)
    lines = path.read_text().splitlines()
    header = lines[0].split()
    n_limiter = int(header[-1])
    header[-1] = "0"
    path.write_text("\n".join([" ".join(header)] + lines[1:-n_limiter]))
    assert cli.main(["forward", "--set", f"mesh_file={path}",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: limiter has no points")
    assert "Traceback" not in err


def test_mesh_file_with_triangle_twice_is_input_error(tmp_path, capsys):
    # every edge of a triangle listed twice is in three triangles
    path = tmp_path / "mesh.txt"
    mesh = build_rect_mesh(2.0, 3.0, -1.2, 1.2, 12, 12)
    save_mesh(SimpleNamespace(
        nodes=mesh.nodes, n_nodes=mesh.n_nodes, boundary=mesh.boundary,
        triangles=np.vstack([mesh.triangles, mesh.triangles[100]]),
        limiter=mesh.limiter), path)
    assert cli.main(["forward", "--set", f"mesh_file={path}",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "is in 3 triangles" in err
    assert "Traceback" not in err


def test_bad_config_value_is_input_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ip = not_a_number\n")
    assert cli.main(["forward", "--config", str(cfg)]) == cli.EXIT_INPUT


def test_unknown_config_key_is_input_error(tmp_path):
    assert cli.main(["forward", "--set", "nrr=5",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT


def test_limiter_around_no_source_point_is_input_error(tmp_path, capsys):
    # the cold-start source covers the limiter contour; one that encloses
    # no quadrature point leaves no load, whatever the solver does
    assert cli.main(["forward", "--set", "limiter_rect=2.49 2.51 0.01",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    assert "no quadrature point" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forward", "mesh-gen"])
@pytest.mark.parametrize("override", [
    "eps=abc", "seed=-5", "replicates=0", "eps_list=nan", "lcurve_points=1",
    "alpha_scale=-1", "profile_ne=abc"])
def test_unread_config_value_is_checked(tmp_path, capsys, command, override):
    # every configured value is read before any solve or output, also the
    # ones the subcommand itself never uses
    argv = [command, "--set", override, "--set", f"out_dir={tmp_path}/out"]
    if command == "mesh-gen":
        argv += ["--out", str(tmp_path / "mesh.txt")]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: bad ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", [
    "chord=a b c d", "limiter_rect=a b c", "profile_a=1,x", "nr=-3",
    "profile_a=1", "r0=-1", "m=1", "degree=-1"])
def test_malformed_config_value_is_input_error(tmp_path, capsys, override):
    assert cli.main(["forward", "--set", override,
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: bad ")


@pytest.mark.parametrize("args", [
    ["stats", "--set", "eps_list=-1", "--set", "replicates=1"],
    ["stats", "--set", "eps_list=1e-2,nan"], ["stats", "--set", "eps_list="],
    ["lcurve", "--set", "lcurve_eps_min=-1"],
    ["lcurve", "--set", "lcurve_eps_min=0"],
    ["lcurve", "--set", "lcurve_eps_max=inf"],
    ["lcurve", "--set", "lcurve_eps_min=1e-2", "--set", "lcurve_eps_max=1e-2"]],
    ids=["eps_list=-1", "eps_list=nan", "eps_list=", "lcurve_eps_min=-1",
         "lcurve_eps_min=0", "lcurve_eps_max=inf", "lcurve_empty_range"])
def test_malformed_eps_is_input_error(tmp_path, capsys, args):
    # checked before the forward solve, which therefore does not run
    assert cli.main(args + ["--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: bad ")
    assert not any(tmp_path.iterdir())



@pytest.mark.parametrize("ip", ["0.0", "nan"])
def test_reconstruct_bad_plasma_current_is_input_error(workspace, tmp_path,
                                                       capsys, ip):
    ws, cfg = workspace
    lines = (ws / "measurements.txt").read_text().splitlines()
    assert lines[0].startswith("Ip ")
    bad = tmp_path / "ip.txt"
    bad.write_text("\n".join([f"Ip {ip}"] + lines[1:]))
    assert cli.main(["reconstruct", "--config", str(cfg),
                     "--measurements", str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["forward", "--set", "tol=nan"], ["forward", "--set", "tol=-1"],
    ["forward", "--set", "max_iter=0"],
    ["reconstruct", "--realtime", "--set", "realtime_iters=0"]],
    ids=["tol=nan", "tol=-1", "max_iter=0", "realtime_iters=0"])
def test_bad_stop_test_is_input_error(workspace, capsys, args):
    ws, cfg = workspace
    if args[0] == "reconstruct":
        args = args + ["--measurements", str(ws / "measurements.txt")]
    assert cli.main(args + ["--config", str(cfg),
                            "--set", f"out_dir={ws / 'stop'}"]) \
        == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: bad config value")
