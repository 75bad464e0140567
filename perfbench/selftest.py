"""Self-test of the pipeline benchmark.

    python3 perfbench/selftest.py

Checks, on 12x12 meshes so it finishes in about a minute:
  1. for every workload, one operation run untraced and traced on the same
     seed gives bit-identical psi, lambda and profile coefficients, and the
     tracer restores every wrapped attribute afterwards;
  2. BENCHMARK.json lists exactly the metrics the code reports, with the
     same units;
  3. a smoke run of every workload, untraced and traced, exits 0 and
     prints a well-formed result with every named metric and its unit as
     the last line;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Runs every check and exits non-zero if any failed.
"""

import json
import math
import shutil
import subprocess
import sys

import run

ROOT = run.HERE.parent
SEED = 7
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def execute(result_and_steps):
    result, steps = result_and_steps
    for _, fn in steps:
        fn()
    return result


def trace_identity(workloads, spans):
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(n=run.TINY_MESH)
        state = execute(wl.setup_steps())
        wl.prepare(state)
        inp = wl.inputs(SEED, 0)
        plain = execute(wl.op_steps(state, inp))
        tracer = spans.Tracer()
        before = [getattr(owner, key) for owner, key, _, _ in
                  tracer.patches]
        with tracer.recording(0):
            traced = execute(wl.op_steps(state, inp))
        after = [getattr(owner, key) for owner, key, _, _ in
                 tracer.patches]
        check(len(tracer.spans) > 0, f"{name}: traced run recorded spans")
        check(all(a is b for a, b in zip(before, after)),
              f"{name}: tracer restored every wrapped attribute")
        check(run.identical(wl.fingerprint(plain), wl.fingerprint(traced)),
              f"{name}: traced and untraced psi, lambda and coefficients "
              f"are bit-identical")


def declared_metrics(spans):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(list(e2e) == list(run.REPORTED),
          "BENCHMARK.json end_to_end matches the reported metrics")
    code = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    check(layers == code,
          "BENCHMARK.json per_layer matches the traced layer metrics")
    return spec, e2e, layers


def smoke(spec, e2e, layers):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, e2e), (1, layers)):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(SEED), "--seconds", "3", "--trace",
                 str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            what = f"{workload} --trace {trace} smoke run"
            if proc.returncode != 0:
                check(False, f"{what} exits 0: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            # the gates are set for the 20x20 and 80x80 meshes; on the
            # tiny mesh a failed gate is reported, not a self-test failure
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}
                  and 0 <= result["failed"] <= result["attempted"]
                  and result["attempted"] >= 1
                  and result["correct"] == (result["failed"] == 0),
                  f"{what} prints a well-formed result "
                  f"({result['failed']}/{result['attempted']} failed)")
            check(set(metrics) == set(expected) and all(
                metrics[k]["unit"] == u and math.isfinite(metrics[k]["value"])
                for k, u in expected.items()),
                f"{what} emits every named metric with its unit")


def bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stats-20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark exits non-zero and prints no result")


def main():
    run.import_package()
    import spans
    import workloads
    trace_identity(workloads, spans)
    spec, e2e, layers = declared_metrics(spans)
    smoke(spec, e2e, layers)
    bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
