import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import gsrecon
from gsrecon import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    # every name in __all__ exists, and a star import provides them all
    missing = [name for name in gsrecon.__all__ if not hasattr(gsrecon, name)]
    assert missing == []
    assert len(set(gsrecon.__all__)) == len(gsrecon.__all__)
    namespace = {}
    exec("from gsrecon import *", namespace)
    assert set(gsrecon.__all__) <= namespace.keys()


def test_import_leaves_out_heavy_scipy_modules():
    # the package evaluates its spline basis itself; scipy.interpolate (and
    # with it optimize, spatial, special and fft) loads only for the CLI's
    # tabulated profiles
    heavy = ["scipy.interpolate", "scipy.optimize", "scipy.spatial",
             "scipy.special", "scipy.fft"]
    code = ("import sys, gsrecon, gsrecon.cli; "
            f"print(sorted(set({heavy!r}) & sys.modules.keys()))")
    src = str(Path(gsrecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    # the README's Python API block runs as printed, so a name or keyword
    # it uses cannot leave the API unnoticed; it writes reconstruction.txt
    # into the working directory
    block = README.read_text().split("\n## Python API\n", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    back = gsrecon.load_equilibrium(tmp_path / "reconstruction.txt")
    assert capsys.readouterr().out.split()[0] == str(back.converged)


def test_readme_twin_experiment_runs(tmp_path, monkeypatch, capsys):
    # the README's shell block runs as printed: its here-document is the
    # config file, and each gsrecon command, through cli.main, exits 0 and
    # writes every file that the block names or the command reports
    block = README.read_text().split("\nA minimal twin experiment:\n", 1)[1]
    script = block.split("```sh\n", 1)[1].split("```", 1)[0]
    head, config, commands = re.split(r"<<'EOF'\n|\nEOF\n", script)
    assert shlex.split(head)[:2] == ["cat", ">"]
    monkeypatch.chdir(tmp_path)
    named = {shlex.split(head)[2]}
    Path(shlex.split(head)[2]).write_text(config + "\n")
    argvs = [shlex.split(line, comments=True) for line in
             commands.replace("\\\n", " ").splitlines()]
    for argv in filter(None, argvs):
        assert argv[0] == "gsrecon"
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        named |= {v for k, v in zip(argv, argv[1:])
                  if k in ("--config", "--out", "--measurements")}
    out = capsys.readouterr().out
    files = named | set(re.findall(r"[\w/.]+\.(?:txt|csv)\b", out))
    assert {"mesh.txt", "out/measurements.txt", "out/stats_eps_0.01.csv",
            "out/lcurve_ne.csv", "out/lcurve_ab.csv"} <= files
    assert [f for f in sorted(files) if not (tmp_path / f).is_file()] == []
