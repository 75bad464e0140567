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


def _fresh_python(code):
    """Standard output of ``code`` run in a new interpreter that imports
    the package from this source tree."""
    src = str(Path(gsrecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


def test_import_leaves_out_heavy_scipy_modules():
    # the package evaluates its spline basis itself; scipy.interpolate (and
    # with it optimize, spatial, special and fft) loads only for the CLI's
    # tabulated profiles, and scipy.sparse.csgraph only where contour
    # levels are grouped
    heavy = ["scipy.interpolate", "scipy.optimize", "scipy.spatial",
             "scipy.special", "scipy.fft", "scipy.sparse.csgraph"]
    code = ("import sys, gsrecon, gsrecon.cli; "
            f"print(sorted(set({heavy!r}) & sys.modules.keys()))")
    assert _fresh_python(code) == "[]"


def test_graph_library_loads_only_for_grouped_levels():
    # a bowl, each of whose levels is one closed curve, is contoured
    # without scipy.sparse.csgraph; two wells of psibar (two maxima of psi
    # with a saddle between them) take the grouping, which imports it
    code = """if True:
        import sys
        import numpy as np
        import gsrecon
        from gsrecon.diagnostics import (CONTOURED_ROWS, TABLE_GRID,
                                         _closed_contours)
        mesh = gsrecon.build_rect_mesh(2.0, 3.0, -1.0, 1.0, 24, 24)
        r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]

        def well(z0):
            return np.exp(-((r - 2.5) ** 2 + (z - z0) ** 2) / 0.03)

        loaded = []
        for psibar in (((r - 2.5) ** 2 + z ** 2) / 0.5 ** 2,
                       1.0 - well(0.3) - 0.8 * well(-0.3)):
            found = _closed_contours(mesh, psibar, TABLE_GRID[CONTOURED_ROWS],
                                     tuple(mesh.nodes[np.argmin(psibar)]))[1]
            loaded.append((bool(found.any()),
                           "scipy.sparse.csgraph" in sys.modules))
        print(loaded)
    """
    assert _fresh_python(code) == "[(True, False), (True, True)]"


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
