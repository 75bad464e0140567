"""Pipeline benchmark of gsrecon on the desk-scale twin configuration.

    python3 perfbench/run.py --workload realtime-80 --seed 1 --seconds 15 \
        --trace 0

Workloads (see perfbench/README.md for why each one exists):
  stats-20     replicate_stats pairs on the 20x20 twin
  realtime-80  warm two-iteration reconstructions on the 80x80 twin
  twin-80      forward solve, cold reconstruction and profile table rounds
               on the 80x80 mesh

The run sets up the workload several times (the median is setup_s), then
runs operations in a closed loop with one client for --seconds (and at
least the workload's min_ops operations), checks every output against
the workload's correctness gates, and prints one JSON object as its last
line.  Times are scaled to a reference machine
speed measured between steps (calibrate.py).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 every operation runs once untraced
and once traced on the same inputs, the two outputs must be bit-identical,
and it reports the per-layer metrics from the spans plus the tracing
overhead.  Spans are written to perfbench/out/.
"""

import os

# One client and small dense systems: a single BLAS thread (at most nproc)
# keeps the timings steady and the reduction order, hence the results,
# fixed.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import importlib.util
import json
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter as clock

import numpy as np

from calibrate import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Never used while writing a change; re-checked before any claim is made.
HELD_OUT_SEED = 20261017
TINY_MESH = 12


def import_package():
    """Import gsrecon from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import gsrecon
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gsrecon from {SRC}: {exc}")
    if Path(gsrecon.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: gsrecon imported from {gsrecon.__file__}, "
                 f"not from {SRC}")
    return gsrecon


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def run_record(args, state):
    import scipy
    from gsrecon import geometry
    m = state.mesh
    return {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "openblas_threads": openblas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "mesh": {"nodes": int(m.n_nodes), "triangles": len(m.triangles),
                 "quadrature_points": len(geometry.quadrature_points(m)[2])},
    }


def lu_bytes_per_rhs(state):
    """8 * nnz(L + U) of the modified stiffness matrix, factorized the way
    fem.factorize does it."""
    from scipy.sparse.linalg import splu
    from gsrecon import fem
    m = state.mesh
    stiff = fem.impose_dirichlet(
        fem.assemble_stiffness(m, state.machine.mu0), m.boundary)
    lu = splu(stiff.mat.tocsc())
    return 8.0 * (lu.L + lu.U).nnz


def identical(a, b):
    """Bit-identical lists of arrays (NaNs included)."""
    a = [np.ascontiguousarray(x) for x in a]
    b = [np.ascontiguousarray(y) for y in b]
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))


class Stopwatch:
    """Runs named steps, timing each one and calibrating the machine speed
    after it (see calibrate.py)."""

    def __init__(self):
        self.cal = calibrate()
        self.scales = []

    def run(self, steps, error_type=()):
        """(wall seconds, scaled seconds, scaled seconds per step, failure).
        The first step raising ``error_type`` ends the run; its type name is
        the failure."""
        wall = scaled = 0.0
        stages = {}
        for name, fn in steps:
            t0 = clock()
            try:
                fn()
                err = None
            except error_type as exc:
                err = type(exc).__name__
            dt = clock() - t0
            cal = calibrate()
            scale = 2.0 * REFERENCE_S / (self.cal + cal)
            self.cal = cal
            self.scales.append(scale)
            wall += dt
            scaled += dt * scale
            stages[name] = stages.get(name, 0.0) + dt * scale
            if err is not None:
                return wall, scaled, stages, err
        return wall, scaled, stages, None


class Measurement:
    """Closed-loop operations for ``seconds``, with failure accounting."""

    def __init__(self, wl, state, error_type, watch):
        self.wl, self.state, self.error_type = wl, state, error_type
        self.watch = watch
        self.ops = []            # (units, wall s, scaled s, stages) of ops
        # traced runs only: traced minus untraced scaled seconds per op,
        # op units and wall seconds of the traced runs, and each traced
        # run's speed factor (scaled / wall seconds) by op
        self.overheads = []
        self.units = 0
        self.traced_wall = 0.0
        self.scale = {}
        self.attempted = 0
        self.failed_ops = set()
        self.reasons = Counter()

    def fail(self, i, reason):
        self.failed_ops.add(i)
        self.reasons[reason] += 1

    def run(self, seed, seconds, tracer):
        wl = self.wl
        t_start = clock()
        i = 0
        while i < wl.min_ops or clock() - t_start < seconds:
            inp = wl.inputs(seed, i)
            units = wl.units(inp)
            if tracer is None:
                out, steps = wl.op_steps(self.state, inp)
                wall, scaled, stages, err = self.watch.run(steps,
                                                           self.error_type)
            else:
                out, (wall, scaled, stages, err) = self._paired(i, inp,
                                                                tracer)
                self.units += units
            self.attempted += 1
            if err is not None:
                self.fail(i, err)
            else:
                for reason in wl.check(self.state, inp, out):
                    self.fail(i, reason)
                self.ops.append((units, wall, scaled, stages))
            i += 1
        for reason in wl.finish(self.state):
            for j in range(i):
                self.fail(j, reason)

    def _paired(self, i, inp, tracer):
        """Untraced and traced runs on the same inputs, in alternating
        order; returns the untraced output and timing, so the end-to-end
        figures of a traced run are untraced times."""
        wl, err_t = self.wl, self.error_type
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            out, steps = wl.op_steps(self.state, inp)
            if traced:
                with tracer.recording(i):
                    runs[traced] = out, self.watch.run(steps, err_t)
            else:
                runs[traced] = out, self.watch.run(steps, err_t)
        (plain, timing), (traced, traced_timing) = runs[False], runs[True]
        t_wall, t_scaled = traced_timing[:2]
        self.traced_wall += t_wall
        self.scale[i] = t_scaled / t_wall if t_wall > 0 else 1.0
        if timing[3] is None and traced_timing[3] is None:
            self.overheads.append(t_scaled - timing[1])
            same = identical(wl.fingerprint(plain), wl.fingerprint(traced))
        else:
            same = timing[3] == traced_timing[3]
        if not same:
            self.fail(i, "trace_mismatch")
        return plain, timing

    def per_unit(self, scaled=True):
        return [(s if scaled else w) / units for units, w, s, _ in self.ops]

    def stage_median(self, stage):
        """Median over ops of the scaled seconds per op unit in ``stage``."""
        return statistics.median(st[stage] / units
                                 for units, _, _, st in self.ops)


def end_to_end(wl, meas, setup_times):
    """Named end-to-end metrics of this workload: (name, value, unit).
    Times are scaled to the reference machine speed (see calibrate.py)."""
    per_unit = meas.per_unit()
    p50 = statistics.median(per_unit)
    rows = [("setup_s", statistics.median(setup_times), "s"),
            ("op_s_p50", p50, "s")]
    if wl.name == "stats-20":
        rows.append(("replicates_per_s", 1.0 / p50, "1/s"))
    elif wl.name == "realtime-80":
        rows.append(("warm_s_p50", p50, "s"))
        n = len(per_unit)
        if n > 20:
            # highest percentile with at least ten samples beyond it; with
            # 20 samples or fewer (only if over half of the min_ops
            # operations failed) it would not lie above the median
            rows.append(("warm_s_tail", sorted(per_unit)[n - 11], "s"))
            rows.append(("warm_s_tail_percentile", 100.0 * (n - 10) / n,
                         "%"))
    elif wl.name == "twin-80":
        rows += [("forward_s", meas.stage_median("forward"), "s"),
                 ("recon_cold_s", meas.stage_median("recon_cold"), "s"),
                 ("profile_table_s", meas.stage_median("profile_table"),
                  "s")]
    rows += [("op_wall_s_p50", statistics.median(meas.per_unit(False)),
              "s"),
             ("speed_scale_p50", statistics.median(meas.watch.scales),
              "ratio"),
             ("ops", len(per_unit), "count"),
             ("failed_frac", len(meas.failed_ops) / meas.attempted, "ratio"),
             ("peak_rss_mb",
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "MB")]
    return rows


# the gated metrics, in BENCHMARK.json's end_to_end order
REPORTED = ("setup_s", "op_s_p50", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help=f"{TINY_MESH}x{TINY_MESH} meshes, for the self-test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    gsrecon = import_package()
    import workloads
    import spans
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(n=TINY_MESH) if args.tiny else cls()
    tracer = spans.Tracer() if args.trace else None

    watch = Stopwatch()
    setup_times = []
    setup_scale = {}
    for r in range(wl.setup_repeats):
        state, steps = wl.setup_steps()   # each set-up starts from nothing
        if tracer is None:
            wall, scaled, _, _ = watch.run(steps)
        else:
            with tracer.recording(f"setup{r}"):
                wall, scaled, _, _ = watch.run(steps)
        setup_times.append(scaled)
        setup_scale[f"setup{r}"] = scaled / wall
    wl.prepare(state)
    record = run_record(args, state)
    print("record " + json.dumps(record), flush=True)

    meas = Measurement(wl, state, gsrecon.GsReconError, watch)
    meas.run(args.seed, args.seconds, tracer)
    if not meas.ops:
        sys.exit(f"perfbench: every operation failed: {dict(meas.reasons)}")

    rows = end_to_end(wl, meas, setup_times)
    print(f"one op is {wl.op}; op_s_p50 is seconds per {wl.unit}, scaled "
          f"to the reference speed (op_wall_s_p50 is unscaled)")
    for name, value, unit in rows:
        print(f"e2e {name} {value:.6g} {unit}")
    for reason, count in sorted(meas.reasons.items()):
        print(f"failure {reason} {count}")
    for line in wl.gate_lines:
        print(f"gate {line}")
    e2e = {name: (value, unit) for name, value, unit in rows}

    if tracer is None:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]}
                   for k in REPORTED}
    else:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(path)
        overhead = (statistics.median(meas.overheads)
                    / statistics.median(s for _, _, s, _ in meas.ops))
        print(f"tracing overhead {statistics.median(meas.overheads):.6g} s "
              f"per op, scaled ({overhead:.2%} of the untraced op)")
        constants = {"failed_frac": e2e["failed_frac"][0],
                     "trace.overhead_frac": overhead,
                     "fem.lu_bytes_per_rhs": lu_bytes_per_rhs(state)}
        layers = spans.layer_metrics(tracer, meas.units, wl.setup_repeats,
                                     constants, {**setup_scale, **meas.scale})
        for name in tracer.absent:
            print(f"layer {name} absent (no longer in gsrecon)")
        for name, (value, unit) in layers.items():
            moved = []
            for target in spans.targets_of(name, wl.name):
                metric, _, note = target.partition(" ")
                v, u = e2e[metric]
                moved.append(f"{metric}={v:.4g} {u} {note}".rstrip())
            print(f"layer {name} {value:.6g} {unit} -> "
                  f"{', '.join(moved) or '(no change)'}")
        raw = spans.SpanStats(tracer.spans, lambda op: isinstance(op, int),
                              {})
        for name, v in sorted(raw.self_s.items(), key=lambda kv: -kv[1])[:8]:
            print(f"self-time {name} {v / meas.traced_wall:.1%} of the "
                  f"traced op time")
        print(f"spans written to {path}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    failed = len(meas.failed_ops)
    print(json.dumps({"correct": failed == 0, "attempted": meas.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
