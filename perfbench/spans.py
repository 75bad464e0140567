"""Span tracing of gsrecon from outside the package, and the per-layer
metrics computed from the spans.

Wrappers are installed in the namespace of every call site: a function is
replaced in each ``gsrecon`` module that holds a reference to it (so both
``gsrecon.inverse.make_plasma_domain`` and
``gsrecon.forward.make_plasma_domain`` are traced), and a method is
replaced on its class.  Nothing under
``src/`` changes.  Wrappers are installed only while an operation is being
recorded, so untraced calls run the unmodified code.

A span records its name, start, end, parent span and operation id; the spans
stay in memory and are written out when the run ends.  A span's self time is
its duration minus the durations of its child spans (calls are sequential,
so children never overlap).
"""

import csv
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _found(args, kwargs, result, exc):
    return {"found": int(exc is None and result is not None)}


def _points(args, kwargs, result, exc):
    return {"points": int(np.size(args[1]))}


def _one_column(args, kwargs, result, exc):
    return {"columns": 1}


def _columns(args, kwargs, result, exc):
    shape = np.shape(args[1])
    return {"columns": int(shape[1]) if len(shape) == 2 else 1}


def _iterations(args, kwargs, result, exc):
    if exc is not None:
        return {"iterations": 0, "converged": 0}
    return {"iterations": int(result.iterations),
            "converged": int(bool(result.converged))}


# (defining module, attribute, outcome hook).  A dotted attribute is a
# method "Class.method".  The kernels layer is not wrapped: its functions
# are called only from forward.assemble_source_matrix and
# basis.SplineBasis.eval_many, whose spans contain them.  The cli layer is
# file I/O around the same calls and is not measured.
TARGETS = [
    ("gsrecon.mesh", "build_rect_mesh", None),
    ("gsrecon.mesh", "PointLocator.locate", None),
    ("gsrecon.fem", "factorize", None),
    ("gsrecon.fem", "Factorization.solve", _one_column),
    ("gsrecon.fem", "Factorization.solve_multi", _columns),
    ("gsrecon.basis", "SplineBasis.eval_many", _points),
    ("gsrecon.geometry", "make_plasma_domain", None),
    ("gsrecon.geometry", "find_axis", None),
    ("gsrecon.geometry", "find_xpoint", _found),
    ("gsrecon.geometry", "boundary_flux", None),
    ("gsrecon.forward", "assemble_source_matrix", None),
    ("gsrecon.forward", "assemble_source_vector", None),
    ("gsrecon.forward", "forward_fixed_point", _iterations),
    ("gsrecon.observation", "build_chord_geometries", None),
    ("gsrecon.observation", "build_neumann_observer", None),
    ("gsrecon.observation", "build_interferometry_matrix", None),
    ("gsrecon.observation", "build_polarimetry_observer", None),
    ("gsrecon.inverse", "ReconstructionSetup.__init__", None),
    ("gsrecon.inverse", "reconstruct", _iterations),
    ("gsrecon.inverse", "identify_ab", None),
    ("gsrecon.inverse", "identify_ne", None),
    ("gsrecon.diagnostics", "profile_table", None),
    ("gsrecon.diagnostics", "extract_contour", _found),
    ("gsrecon.twin", "replicate_stats", None),
    ("gsrecon.twin", "synthesize_measurements", None),
]


def span_name(module, attr):
    layer = module.split(".")[-1]
    return f"{layer}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Records spans of the traced gsrecon functions while recording."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, attrs]
        self._stack = []
        self._op = None
        self.patches = []        # (owner, attribute, wrapper, original)
        self.absent = []         # span names whose function no longer exists
        for module, attr, hook in TARGETS:
            name = span_name(module, attr)
            try:
                self.patches += self._plan(module, attr, name, hook)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)

    def _plan(self, module, attr, name, hook):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            return [(cls, meth, self._wrap(name, original, hook), original)]
        original = getattr(mod, attr)
        wrapper = self._wrap(name, original, hook)
        sites = [m for key, m in list(sys.modules.items())
                 if key == "gsrecon" or key.startswith("gsrecon.")]
        return [(m, key, wrapper, original) for m in sites
                for key, value in list(vars(m).items()) if value is original]

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self._op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[5] = {"error": type(exc).__name__}
                if hook is not None:
                    span[5].update(hook(args, kwargs, None, exc))
                raise
            span[2] = clock()
            stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result, None)
            return result

        return wrapper

    @contextmanager
    def recording(self, op):
        """Install the wrappers, tag new spans with ``op``, then restore
        every original attribute."""
        self._op = op
        for owner, key, wrapper, _ in self.patches:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, _, original in self.patches:
                setattr(owner, key, original)
            self._op = None
            self._stack.clear()

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "op",
                          "attrs"])
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                out.writerow([i, name, repr(t0), repr(t1), parent, op,
                              json.dumps(attrs) if attrs else ""])


class SpanStats:
    """Per-name totals over the spans whose op satisfies a predicate, with
    durations scaled by the machine-speed factor of their op."""

    def __init__(self, spans, keep, scale):
        child = np.zeros(len(spans))
        for name, t0, t1, parent, op, attrs in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        in_recon = [False] * len(spans)
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            in_recon[i] = parent >= 0 and (
                spans[parent][0] == "inverse.reconstruct" or in_recon[parent])
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.attrs = defaultdict(float)
        self.lu_in_recon = 0.0
        for i, (name, t0, t1, parent, op, attrs) in enumerate(spans):
            if not keep(op):
                continue
            f = scale.get(op, 1.0)
            self.calls[name] += 1
            self.total[name] += f * (t1 - t0)
            self.self_s[name] += f * (t1 - t0 - child[i])
            for key, value in (attrs or {}).items():
                if key != "error":
                    self.attrs[f"{name}.{key}"] += value
            if in_recon[i] and name.startswith("fem.Factorization.solve"):
                self.lu_in_recon += f * (t1 - t0)


def _ratio(num, den):
    # a layer the workload never calls has no outcome; reported as 0 beside
    # its call count of 0
    return num / den if den else 0.0


# End-to-end metrics (by the names the run prints) that each layer metric
# is expected to move, per workload.  A workload missing from a mapping is
# predicted not to move.
_GEOMETRY = {"realtime-80": ["warm_s_p50"],
             "twin-80": ["recon_cold_s", "forward_s"],
             "stats-20": ["replicates_per_s"]}
_OBSERVER = {"realtime-80": ["warm_s_p50"],
             "stats-20": ["replicates_per_s (internal call only)"]}
_SOURCE = {"realtime-80": ["warm_s_p50"], "twin-80": ["recon_cold_s"]}
_FORWARD = {"twin-80": ["forward_s"]}
_LU = {"twin-80": ["recon_cold_s", "forward_s"]}
_BASIS = {"stats-20": ["replicates_per_s"]}
_INVERSE = {"twin-80": ["recon_cold_s"], "stats-20": ["replicates_per_s"]}
_DIAG = {"stats-20": ["replicates_per_s"], "twin-80": ["profile_table_s"]}
_SETUP = {w: ["setup_s", "peak_rss_mb"]
          for w in ("stats-20", "realtime-80", "twin-80")}
_STATS = {"stats-20": ["replicates_per_s"]}
_NONE = {}

# (metric, unit, phase, span names it needs, targets, value)
# phase "op" divides by the op units measured, "setup" by the set-ups run.
LAYER_METRICS = [
    ("geometry.make_plasma_domain.s", "s", "op",
     ["geometry.make_plasma_domain"], _GEOMETRY,
     lambda s: s.total["geometry.make_plasma_domain"]),
    ("geometry.make_plasma_domain.calls", "count", "op",
     ["geometry.make_plasma_domain"], _GEOMETRY,
     lambda s: s.calls["geometry.make_plasma_domain"]),
    ("geometry.find_xpoint.self_s", "s", "op",
     ["geometry.find_xpoint"], _GEOMETRY,
     lambda s: s.self_s["geometry.find_xpoint"]),
    ("geometry.find_axis.self_s", "s", "op",
     ["geometry.find_axis"], _GEOMETRY,
     lambda s: s.self_s["geometry.find_axis"]),
    ("geometry.boundary_flux.self_s", "s", "op",
     ["geometry.boundary_flux"], _GEOMETRY,
     lambda s: s.self_s["geometry.boundary_flux"]),
    ("geometry.xpoint_found_ratio", "ratio", "ratio",
     ["geometry.find_xpoint"], _NONE,
     lambda s: _ratio(s.attrs["geometry.find_xpoint.found"],
                      s.calls["geometry.find_xpoint"])),
    ("mesh.PointLocator.locate.calls", "count", "op",
     ["mesh.PointLocator.locate"], _GEOMETRY,
     lambda s: s.calls["mesh.PointLocator.locate"]),
    ("observation.build_polarimetry_observer.self_s", "s", "op",
     ["observation.build_polarimetry_observer"], _OBSERVER,
     lambda s: s.self_s["observation.build_polarimetry_observer"]),
    ("observation.build_polarimetry_observer.calls", "count", "op",
     ["observation.build_polarimetry_observer"], _OBSERVER,
     lambda s: s.calls["observation.build_polarimetry_observer"]),
    ("observation.build_interferometry_matrix.self_s", "s", "op",
     ["observation.build_interferometry_matrix"], _OBSERVER,
     lambda s: s.self_s["observation.build_interferometry_matrix"]),
    ("forward.assemble_source_matrix.self_s", "s", "op",
     ["forward.assemble_source_matrix"], _SOURCE,
     lambda s: s.self_s["forward.assemble_source_matrix"]),
    ("forward.assemble_source_matrix.calls", "count", "op",
     ["forward.assemble_source_matrix"], _SOURCE,
     lambda s: s.calls["forward.assemble_source_matrix"]),
    ("forward.assemble_source_vector.self_s", "s", "op",
     ["forward.assemble_source_vector"], _FORWARD,
     lambda s: s.self_s["forward.assemble_source_vector"]),
    ("forward.forward_fixed_point.iterations", "count", "ratio",
     ["forward.forward_fixed_point"], _FORWARD,
     lambda s: _ratio(s.attrs["forward.forward_fixed_point.iterations"],
                      s.calls["forward.forward_fixed_point"])),
    ("fem.Factorization.solve.self_s", "s", "op",
     ["fem.Factorization.solve"], _LU,
     lambda s: s.self_s["fem.Factorization.solve"]),
    ("fem.Factorization.solve.calls", "count", "op",
     ["fem.Factorization.solve"], _LU,
     lambda s: s.calls["fem.Factorization.solve"]),
    ("fem.Factorization.solve_multi.self_s", "s", "op",
     ["fem.Factorization.solve_multi"], _LU,
     lambda s: s.self_s["fem.Factorization.solve_multi"]),
    ("fem.Factorization.solve_multi.calls", "count", "op",
     ["fem.Factorization.solve_multi"], _LU,
     lambda s: s.calls["fem.Factorization.solve_multi"]),
    ("fem.rhs_columns", "count", "op",
     ["fem.Factorization.solve", "fem.Factorization.solve_multi"], _LU,
     lambda s: (s.attrs["fem.Factorization.solve.columns"]
                + s.attrs["fem.Factorization.solve_multi.columns"])),
    ("fem.lu_bytes_per_rhs", "B", "const", [], _LU, None),
    ("fem.solve_share", "ratio", "ratio",
     ["fem.Factorization.solve", "inverse.reconstruct"], _LU,
     lambda s: _ratio(s.lu_in_recon, s.total["inverse.reconstruct"])),
    ("basis.SplineBasis.eval_many.self_s", "s", "op",
     ["basis.SplineBasis.eval_many"], _BASIS,
     lambda s: s.self_s["basis.SplineBasis.eval_many"]),
    ("basis.SplineBasis.eval_many.calls", "count", "op",
     ["basis.SplineBasis.eval_many"], _BASIS,
     lambda s: s.calls["basis.SplineBasis.eval_many"]),
    ("basis.SplineBasis.eval_many.points", "count", "op",
     ["basis.SplineBasis.eval_many"], _BASIS,
     lambda s: s.attrs["basis.SplineBasis.eval_many.points"]),
    ("inverse.reconstruct.s", "s", "op",
     ["inverse.reconstruct"], _INVERSE,
     lambda s: s.total["inverse.reconstruct"]),
    ("inverse.reconstruct.self_s", "s", "op",
     ["inverse.reconstruct"], _INVERSE,
     lambda s: s.self_s["inverse.reconstruct"]),
    ("inverse.reconstruct.calls", "count", "op",
     ["inverse.reconstruct"], _INVERSE,
     lambda s: s.calls["inverse.reconstruct"]),
    ("inverse.iterations", "count", "ratio",
     ["inverse.reconstruct"], _INVERSE,
     lambda s: _ratio(s.attrs["inverse.reconstruct.iterations"],
                      s.calls["inverse.reconstruct"])),
    ("inverse.converged_ratio", "ratio", "ratio",
     ["inverse.reconstruct"], _INVERSE,
     lambda s: _ratio(s.attrs["inverse.reconstruct.converged"],
                      s.calls["inverse.reconstruct"])),
    ("inverse.identify_ab.self_s", "s", "op",
     ["inverse.identify_ab"], _INVERSE,
     lambda s: s.self_s["inverse.identify_ab"]),
    ("inverse.identify_ne.self_s", "s", "op",
     ["inverse.identify_ne"], _INVERSE,
     lambda s: s.self_s["inverse.identify_ne"]),
    ("diagnostics.profile_table.s", "s", "op",
     ["diagnostics.profile_table"], _DIAG,
     lambda s: s.total["diagnostics.profile_table"]),
    ("diagnostics.profile_table.self_s", "s", "op",
     ["diagnostics.profile_table"], _DIAG,
     lambda s: s.self_s["diagnostics.profile_table"]),
    ("diagnostics.extract_contour.self_s", "s", "op",
     ["diagnostics.extract_contour"], _DIAG,
     lambda s: s.self_s["diagnostics.extract_contour"]),
    ("diagnostics.extract_contour.calls", "count", "op",
     ["diagnostics.extract_contour"], _DIAG,
     lambda s: s.calls["diagnostics.extract_contour"]),
    ("diagnostics.contour_found_ratio", "ratio", "ratio",
     ["diagnostics.extract_contour"], _DIAG,
     lambda s: _ratio(s.attrs["diagnostics.extract_contour.found"],
                      s.calls["diagnostics.extract_contour"])),
    ("twin.replicate_stats.s", "s", "op",
     ["twin.replicate_stats"], _STATS,
     lambda s: s.total["twin.replicate_stats"]),
    ("inverse.ReconstructionSetup.s", "s", "setup",
     ["inverse.ReconstructionSetup"], _SETUP,
     lambda s: s.total["inverse.ReconstructionSetup"]),
    ("fem.factorize.s", "s", "setup",
     ["fem.factorize"], _SETUP, lambda s: s.total["fem.factorize"]),
    ("observation.build_chord_geometries.s", "s", "setup",
     ["observation.build_chord_geometries"], _SETUP,
     lambda s: s.total["observation.build_chord_geometries"]),
    ("observation.build_neumann_observer.s", "s", "setup",
     ["observation.build_neumann_observer"], _SETUP,
     lambda s: s.total["observation.build_neumann_observer"]),
    ("mesh.build_rect_mesh.s", "s", "setup",
     ["mesh.build_rect_mesh"], _SETUP,
     lambda s: s.total["mesh.build_rect_mesh"]),
    ("twin.synthesize_measurements.s", "s", "setup",
     ["twin.synthesize_measurements"], _SETUP,
     lambda s: s.total["twin.synthesize_measurements"]),
    ("failed_frac", "ratio", "const", [], _NONE, None),
    ("trace.overhead_frac", "ratio", "const", [], _NONE, None),
]


def layer_metrics(tracer, op_units, n_setups, constants, scale):
    """Per-layer metric values, keyed by name.

    "op" metrics are per op unit (replicate, warm reconstruction or twin
    round), "setup" metrics per set-up; "ratio" metrics divide two op-phase
    totals.  Times are scaled by ``scale[op]``, the machine-speed factor
    measured around the traced run of the same op.  ``constants`` supplies
    the metrics computed outside the spans.  A metric whose traced function
    no longer exists in the package is left out, not reported as zero.
    """
    ops = SpanStats(tracer.spans, lambda op: isinstance(op, int), scale)
    setups = SpanStats(tracer.spans, lambda op: isinstance(op, str), scale)
    absent = set(tracer.absent)
    out = {}
    for name, unit, phase, needs, _, value in LAYER_METRICS:
        if absent.intersection(needs):
            continue
        if phase == "const":
            if name in constants:
                out[name] = (float(constants[name]), unit)
            continue
        if phase == "setup":
            v = value(setups) / n_setups
        elif phase == "op":
            v = value(ops) / op_units
        else:
            v = value(ops)
        out[name] = (float(v), unit)
    return out


def targets_of(metric, workload):
    for name, *_, targets, _ in LAYER_METRICS:
        if name == metric:
            return targets.get(workload, [])
    return []
