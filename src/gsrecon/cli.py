"""Command-line front end.

Subcommands: mesh-gen, forward, reconstruct, twin, stats, lcurve.
Configuration is a plain-text ``key = value`` file with command-line
overrides (``--set key=value``).  Exit codes: 0 success, 1 input error,
2 numerical non-convergence.
"""

import argparse
import dataclasses
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import forward, mesh as meshmod, twin as twinmod
from .basis import SplineBasis
from .diagnostics import profile_table, write_profile_csv
from .errors import (ConvergenceError, DivergentLambdaError, GsReconError,
                     MeshValidationError)
from .forward import MachineParams, forward_fixed_point
from .inverse import ReconstructionSetup, RegularizationConfig, reconstruct
from .observation import chord_lengths, load_measurements, save_measurements
from .textio import write_rows
from .twin import (l_curves, replicate_stats, synthesize_measurements,
                   write_lcurve_csv, write_stats_csv)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOCONV = 2

DEFAULTS = {
    "r_min": 2.0, "r_max": 3.0, "z_min": -1.2, "z_max": 1.2,
    "nr": 20, "nz": 20,
    "limiter_rect": "2.1 2.9 1.05",   # r_in r_out z_half; "none" disables
    "r0": 2.5, "b0": 2.0, "ip": 1.0e6,
    "degree": 3, "m": 8,
    "eps": 5e-2, "eps_ne": 1e-2,
    "tol": 1e-6, "max_iter": 30, "realtime_iters": 2,
    "noise_rate": 0.01, "seed": 12345, "replicates": 50,
    "eps_list": "1e-2,1e-1,1",
    "lcurve_eps_min": 1e-5, "lcurve_eps_max": 1.0, "lcurve_points": 13,
    "out_dir": ".",
}
# keys without a default; "chord" lines are collected into cfg["chords"]
OPTIONAL_KEYS = {"mesh_file", "profile_a", "profile_b", "profile_ne",
                 "g_d_const"}
# smallest admissible value of the numbers no constructor checks, and the
# regularization values, which must be above 0
AT_LEAST = {"tol": 0, "max_iter": 1, "realtime_iters": 1, "noise_rate": 0,
            "seed": 0, "replicates": 1, "lcurve_points": 3}
POSITIVE = {"eps_list", "lcurve_eps_min", "lcurve_eps_max"}


class ConfigError(GsReconError):
    pass


@contextmanager
def _config_values(what):
    """Raise a ValueError or MeshValidationError from parsing or checking
    config values as the input error :class:`ConfigError`."""
    try:
        yield
    except (ValueError, MeshValidationError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def parse_config(path=None, overrides=()):
    cfg = dict(DEFAULTS)
    cfg["chords"] = []
    lines = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            lines = fh.read().splitlines()
    for ov in overrides:
        lines.append(ov)
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "chord":
            with _config_values(f"chord on config line {ln}"):
                chord = tuple(float(p) for p in val.split())
                if len(chord) != 4 or len(chord_lengths(np.array([chord]))[1]):
                    raise ValueError("needs r1 z1 r2 z2, distinct and finite")
            cfg["chords"].append(chord)
        elif key in DEFAULTS or key in OPTIONAL_KEYS:
            cfg[key] = val
        else:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
    # every value through the reader its subcommands apply, numbers as the
    # type of their default: a bad one is an input error whatever the command
    for key, default in DEFAULTS.items():
        if isinstance(default, (int, float)):
            _get(cfg, key, type(default))
    for key in ("profile_a", "profile_b", "profile_ne"):
        _profile_func(cfg, key)
    if "g_d_const" in cfg:
        _get(cfg, "g_d_const")
    _get_list(cfg, "eps_list"), _limiter(cfg), _machine(cfg), _reg(cfg)
    _basis(cfg)
    return cfg


def _get(cfg, key, conv=float):
    """Config value ``key`` converted by ``conv``: finite, at least its
    ``AT_LEAST`` bound and above 0 if in ``POSITIVE``, else
    :class:`ConfigError`."""
    try:
        value = conv(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value for {key!r}: {exc}")
    if (not -math.inf < value < math.inf or value < AT_LEAST.get(key, value)
            or (key in POSITIVE and value <= 0)):
        raise ConfigError(f"bad config value for {key!r}: {cfg[key]!r}")
    return value


def _get_list(cfg, key):
    """Config value ``key``, comma-separated numbers each checked by
    :func:`_get`."""
    return [_get({key: v}, key) for v in str(cfg[key]).split(",")]


def _profile_func(cfg, key, default=None):
    if key not in cfg:
        return default
    from scipy.interpolate import PchipInterpolator
    with _config_values(key):
        vals = np.array([float(v) for v in str(cfg[key]).split(",")])
        xs = np.linspace(0.0, 1.0, len(vals))
        return PchipInterpolator(xs, vals)


def _limiter(cfg):
    raw = str(cfg.get("limiter_rect", "none")).strip()
    if raw.lower() in ("none", ""):
        return None
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError("limiter_rect needs: r_in r_out z_half (or 'none')")
    with _config_values("limiter_rect"):
        r1, r2, zh = (float(p) for p in parts)
    return np.array([[r1, -zh], [r2, -zh], [r2, zh], [r1, zh]])


def _load_mesh(cfg):
    if "mesh_file" in cfg:
        return meshmod.load_mesh(str(cfg["mesh_file"]))
    with _config_values("mesh"):
        return meshmod.build_rect_mesh(
            _get(cfg, "r_min"), _get(cfg, "r_max"), _get(cfg, "z_min"),
            _get(cfg, "z_max"), _get(cfg, "nr", int), _get(cfg, "nz", int),
            limiter=_limiter(cfg))


def _machine(cfg):
    with _config_values("machine parameters"):
        return MachineParams(_get(cfg, "r0"), _get(cfg, "b0"),
                             _get(cfg, "ip"))


def _reg(cfg):
    with _config_values("regularization"):
        return RegularizationConfig(_get(cfg, "eps"), _get(cfg, "eps_ne"))


def _basis(cfg):
    with _config_values("basis"):
        return SplineBasis(degree=_get(cfg, "degree", int),
                           m=_get(cfg, "m", int), end_constraint=True)


def _out(cfg, name):
    out_dir = str(cfg["out_dir"])
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_manifest(cfg, path, extra):
    rows = []
    for k in sorted(cfg):
        rows += ([["chord", "=", *c] for c in cfg[k]] if k == "chords"
                 else [[k, "=", cfg[k]]])
    write_rows(path, rows + [[k, "=", v] for k, v in extra.items()])


def _settings(args):
    """Configuration, mesh, machine and basis of a subcommand."""
    cfg = parse_config(args.config, args.set or ())
    return cfg, _load_mesh(cfg), _machine(cfg), _basis(cfg)


def _reference_equilibrium(cfg, mesh, machine, basis):
    """Forward solve of the configured profiles; its failure is a numerical
    failure (see :func:`main`)."""
    a_func = _profile_func(cfg, "profile_a",
                           lambda x: (1.0 - x) * (1.0 + 0.3 * x))
    b_func = _profile_func(cfg, "profile_b",
                           lambda x: (1.0 - x) * (1.0 - 0.2 * x))
    g_d = _boundary_data(cfg, mesh)
    return forward_fixed_point(mesh, machine, a_func, b_func, g_d,
                               tol=_get(cfg, "tol"),
                               max_iter=_get(cfg, "max_iter", int),
                               basis=basis)


def _reference_twin(cfg, mesh, machine, basis):
    """The configured twin: reference equilibrium, reconstruction set-up,
    the density coefficients fitted to ``profile_ne`` (None without it)
    and the clean measurements synthesized from them."""
    eq = _reference_equilibrium(cfg, mesh, machine, basis)
    setup = ReconstructionSetup(mesh, machine, cfg["chords"], basis=basis)
    ne_coeffs = None
    if "profile_ne" in cfg:
        xs = np.linspace(0.0, 1.0, 201)
        ne_coeffs = basis.fit(xs, _profile_func(cfg, "profile_ne")(xs))
    return eq, setup, ne_coeffs, synthesize_measurements(setup, eq, ne_coeffs)


def _boundary_data(cfg, mesh):
    if "g_d_const" in cfg:
        return np.full(len(mesh.boundary), _get(cfg, "g_d_const"))
    return np.zeros(len(mesh.boundary))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_mesh_gen(args):
    m = _load_mesh(parse_config(args.config, args.set or ()))
    meshmod.save_mesh(m, args.out)
    print(f"wrote {args.out}: {m.n_nodes} nodes, {len(m.triangles)} triangles")
    return EXIT_OK


def cmd_forward(args):
    cfg, mesh, machine, basis = _settings(args)
    eq = _reference_equilibrium(cfg, mesh, machine, basis)
    eq_path = _out(cfg, "equilibrium.txt")
    forward.save_equilibrium(eq, eq_path)
    table = profile_table(mesh, eq.psi, eq.domain, eq.profiles, eq.lam,
                          machine)
    csv_path = _out(cfg, "forward_profiles.csv")
    write_profile_csv(csv_path, table)
    print(f"converged in {eq.iterations} iterations "
          f"(residual {eq.residuals[-1]:.3e}); lambda = {eq.lam:.6g}")
    print(f"wrote {eq_path} and {csv_path}")
    return EXIT_OK


def cmd_reconstruct(args):
    cfg, mesh, machine, basis = _settings(args)
    ms, chords = load_measurements(args.measurements)
    setup = ReconstructionSetup(mesh, machine, chords, basis=basis)
    reg = _reg(cfg)
    tol, max_iter = ((0.0, _get(cfg, "realtime_iters", int)) if args.realtime
                     else (_get(cfg, "tol"), _get(cfg, "max_iter", int)))
    res = reconstruct(setup, ms, reg, use_internal=not args.magnetics_only,
                      tol=tol, max_iter=max_iter)
    if res.error is not None:
        print(f"reconstruction failed: {res.error}", file=sys.stderr)
        return EXIT_NOCONV
    table = profile_table(mesh, res.psi, res.domain, res.profiles, res.lam,
                          res.machine)
    csv_path = _out(cfg, "reconstruction.csv")
    write_profile_csv(csv_path, table)
    summary = _out(cfg, "reconstruction_summary.txt")
    write_rows(summary, [["converged", str(res.converged)],
                         ["iterations", res.iterations], ["lambda", res.lam],
                         *res.costs.items(), ["residuals", *res.residuals]])
    for i, r in enumerate(res.residuals, 1):
        print(f"iteration {i}: residual {r:.6e}")
    print(f"wrote {csv_path} and {summary}")
    if args.realtime or res.converged:
        return EXIT_OK
    return EXIT_NOCONV


def cmd_twin(args):
    cfg, mesh, machine, basis = _settings(args)
    eq, setup, ne_coeffs, ms = _reference_twin(cfg, mesh, machine, basis)
    if args.noise:
        ms = twinmod.perturb(ms, _get(cfg, "noise_rate"),
                             _get(cfg, "seed", int))
    ms_path = _out(cfg, "measurements.txt")
    save_measurements(ms, setup.chord_geoms.endpoints, ms_path)
    table = profile_table(mesh, eq.psi, eq.domain, dataclasses.replace(
        eq.profiles, c=ne_coeffs), eq.lam, machine)
    ref_path = _out(cfg, "reference_profiles.csv")
    write_profile_csv(ref_path, table)
    print(f"wrote {ms_path} and {ref_path}")
    return EXIT_OK


def cmd_stats(args):
    cfg, mesh, machine, basis = _settings(args)
    eps_values = _get_list(cfg, "eps_list")
    _, setup, ne_coeffs, ms = _reference_twin(cfg, mesh, machine, basis)
    stats = replicate_stats(
        setup, ms, _reg(cfg), eps_values,
        n_replicates=_get(cfg, "replicates", int),
        rate=_get(cfg, "noise_rate"), seed=_get(cfg, "seed", int),
        use_internal=ne_coeffs is not None and len(cfg["chords"]) > 0,
        tol=_get(cfg, "tol"), max_iter=_get(cfg, "max_iter", int))
    extra = {}
    for st in stats:
        path = _out(cfg, f"stats_eps_{st.eps:g}.csv")
        write_stats_csv(path, st)
        extra[f"failed_eps_{st.eps:g}"] = st.n_failed
        extra[f"warm_start_eps_{st.eps:g}"] = int(st.warm_start)
        print(f"eps={st.eps:g}: {st.n_converged}/{st.n_requested} converged "
              f"-> {path}")
    _write_manifest(cfg, _out(cfg, "stats_manifest.txt"), extra)
    return EXIT_OK


def cmd_lcurve(args):
    cfg, mesh, machine, basis = _settings(args)
    lo, hi = _get(cfg, "lcurve_eps_min"), _get(cfg, "lcurve_eps_max")
    if not lo < hi:
        raise ConfigError(f"bad L-curve range: lcurve_eps_min {lo:g} is "
                          f"not below lcurve_eps_max {hi:g}")
    eps_grid = np.logspace(np.log10(lo), np.log10(hi),
                           _get(cfg, "lcurve_points", int))
    if "profile_ne" not in cfg or not cfg["chords"]:
        raise ConfigError("lcurve requires profile_ne and at least one chord")
    eq, setup, _, ms = _reference_twin(cfg, mesh, machine, basis)
    ms = twinmod.perturb(ms, _get(cfg, "noise_rate"), _get(cfg, "seed", int))
    for name, res in zip(("ne", "ab"), l_curves(setup, ms, eq, eps_grid)):
        path = _out(cfg, f"lcurve_{name}.csv")
        write_lcurve_csv(path, res)
        print(f"{name} corner at eps={res.corner_eps:g} (flat={res.flat}) "
              f"-> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="gsrecon", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--set", action="append", metavar="key=value",
                        help="config override")

    pm = sub.add_parser("mesh-gen", help="write the configured mesh to a "
                        "mesh file")
    common(pm)
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_mesh_gen)

    pf = sub.add_parser("forward", help="direct free-boundary solve")
    common(pf)
    pf.set_defaults(func=cmd_forward)

    pr = sub.add_parser("reconstruct", help="identify profiles from a "
                        "measurement file")
    common(pr)
    pr.add_argument("--measurements", required=True)
    pr.add_argument("--realtime", action="store_true",
                    help="cold start cut after realtime_iters iterations, "
                    "n_e from the second (exits 0 unconverged; no warm start)")
    pr.add_argument("--magnetics-only", action="store_true")
    pr.set_defaults(func=cmd_reconstruct)

    pt = sub.add_parser("twin", help="generate synthetic measurements")
    common(pt)
    pt.add_argument("--noise", action="store_true")
    pt.set_defaults(func=cmd_twin)

    ps = sub.add_parser("stats", help="replicate statistics under noise")
    common(ps)
    ps.set_defaults(func=cmd_stats)

    pl = sub.add_parser("lcurve", help="L-curve parameter scan")
    common(pl)
    pl.set_defaults(func=cmd_lcurve)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergentLambdaError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (ConfigError, OSError, GsReconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
