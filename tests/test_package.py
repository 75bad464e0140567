import os
import subprocess
import sys
from pathlib import Path

import gsrecon


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
