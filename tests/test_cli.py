import numpy as np
import pytest

from gsrecon import cli
from gsrecon.mesh import load_mesh

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
    assert cli.main(["mesh-gen", "--nr", "6", "--nz", "6",
                     "--out", str(out)]) == cli.EXIT_OK
    mesh = load_mesh(out)
    assert mesh.n_nodes == 49


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


def test_reconstruct_realtime_runs_two_iterations(workspace, capsys):
    ws, cfg = workspace
    code = cli.main(["reconstruct", "--config", str(cfg), "--realtime",
                     "--measurements", str(ws / "measurements.txt"),
                     "--set", f"out_dir={ws / 'rt'}"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "iteration 2:" in out and "iteration 3:" not in out


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


def test_forward_failure_is_nonconvergence(tmp_path):
    # a negative current puts the flux maximum on the boundary in the
    # first iteration: a numerical failure, not an input error
    assert cli.main(["forward", "--set", "ip=-1e6",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_NOCONV


def test_stats_writes_csv(workspace):
    ws, cfg = workspace
    code = cli.main(["stats", "--config", str(cfg),
                     "--set", "replicates=2", "--set", "eps_list=1e-1",
                     "--set", f"out_dir={ws / 'stats'}"])
    assert code == cli.EXIT_OK
    assert (ws / "stats" / "stats_eps_0.1.csv").exists()
    assert (ws / "stats" / "stats_manifest.txt").exists()


def test_lcurve_writes_curves(workspace):
    ws, cfg = workspace
    code = cli.main(["lcurve", "--config", str(cfg),
                     "--set", "lcurve_points=7",
                     "--set", f"out_dir={ws / 'lc'}"])
    assert code == cli.EXIT_OK
    assert (ws / "lc" / "lcurve_ne.csv").exists()
    assert (ws / "lc" / "lcurve_ab.csv").exists()


def test_lcurve_requires_density_profile(tmp_path):
    cfg = tmp_path / "nolc.cfg"
    cfg.write_text(f"out_dir = {tmp_path}\n")
    assert cli.main(["lcurve", "--config", str(cfg)]) == cli.EXIT_INPUT


def test_bad_config_value_is_input_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ip = not_a_number\n")
    assert cli.main(["forward", "--config", str(cfg)]) == cli.EXIT_INPUT


def test_unknown_config_key_is_input_error(tmp_path):
    assert cli.main(["forward", "--set", "nrr=5",
                     "--set", f"out_dir={tmp_path}"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("override", [
    "chord=a b c d", "limiter_rect=a b c", "profile_a=1,x", "nr=-3",
    "profile_a=1", "r0=-1", "m=1"])
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
