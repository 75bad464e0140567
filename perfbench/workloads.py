"""Workloads of the pipeline benchmark, on the desk-scale twin configuration.

The configuration (box, limiter, 14 chords, machine, reference A/B/n_e) is a
copy of the one in tests/conftest.py, so the benchmark does not import the
test suite.  Only the public API of gsrecon is called, always through the
module attribute (``inverse.reconstruct``) so the tracer's wrappers see it.

Each workload is a closed loop with one client: an operation starts when
the previous one has returned.  Inputs come from the benchmark seed only.
A set-up and an operation are lists of named steps; the runner times each
step and calibrates the machine speed between steps.
"""

from types import SimpleNamespace

import numpy as np

from gsrecon import diagnostics, forward, inverse, mesh, twin
from gsrecon.basis import SplineBasis

BOX = (2.0, 3.0, -1.2, 1.2)
LIMITER = np.array([[2.1, -1.05], [2.9, -1.05], [2.9, 1.05], [2.1, 1.05]])
CHORDS = [
    (2.0, -0.9, 3.0, 0.3), (2.0, 0.9, 3.0, -0.3),
    (2.0, -0.3, 3.0, 0.9), (2.0, 0.3, 3.0, -0.9),
    (2.2, -1.2, 2.8, 1.2), (2.8, -1.2, 2.2, 1.2),
    (2.0, 0.55, 3.0, 0.55), (2.0, -0.55, 3.0, -0.55),
    (2.35, -1.2, 2.65, 1.2), (2.65, -1.2, 2.35, 1.2),
    (2.0, -0.75, 3.0, 0.75), (2.0, 0.75, 3.0, -0.75),
    (2.0, 0.15, 3.0, 0.15), (2.0, -0.15, 3.0, -0.15),
]
NOISE_RATE = 0.01


def a_ref(x):
    return (1.0 - x) * (1.0 + 0.3 * x)


def b_ref(x):
    return (1.0 - x) * (1.0 - 0.2 * x)


def ne_ref(x):
    return 1.2e19 * (1.0 - 0.85 * x ** 2)


class ProfilePair:
    """A = (1-x)(1+alpha x), B = (1-x)(1+beta x)."""

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta

    def a(self, x):
        return (1.0 - x) * (1.0 + self.alpha * x)

    def b(self, x):
        return (1.0 - x) * (1.0 + self.beta * x)


def machine():
    return forward.MachineParams(2.5, 2.0, 1.0e6)


def sub_seed(seed, *path):
    """Independent integer seed for one draw of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def mean_rel_error(ref, rec):
    """Criterion 4's error: mean relative error over the grid points where
    both tables are finite and the reference is not negligible."""
    good = (np.isfinite(ref) & np.isfinite(rec)
            & (np.abs(ref) > 1e-3 * np.abs(ref).max()))
    return float(np.mean(np.abs(rec[good] - ref[good]) / np.abs(ref[good])))


def _twin_setup(n, reference=True):
    """Set-up steps shared by the workloads: mesh, reference forward solve,
    ReconstructionSetup and exact synthetic measurements."""
    s = SimpleNamespace(machine=machine(),
                        basis=SplineBasis(end_constraint=True))

    def build_mesh():
        s.mesh = mesh.build_rect_mesh(*BOX, n, n, limiter=LIMITER)

    def reference_solve():
        s.ref_eq = forward.forward_fixed_point(
            s.mesh, s.machine, a_ref, b_ref, np.zeros(len(s.mesh.boundary)),
            basis=s.basis)

    def reconstruction_setup():
        s.setup = inverse.ReconstructionSetup(s.mesh, s.machine, CHORDS,
                                              basis=s.basis)

    def measurements():
        xs = np.linspace(0.0, 1.0, 201)
        s.ms = twin.synthesize_measurements(s.setup, s.ref_eq,
                                            s.basis.fit(xs, ne_ref(xs)))

    if not reference:
        return s, [("mesh", build_mesh),
                   ("reconstruction_setup", reconstruction_setup)]
    return s, [("mesh", build_mesh), ("reference", reference_solve),
               ("reconstruction_setup", reconstruction_setup),
               ("measurements", measurements)]


def _fingerprint_result(res):
    p = res.profiles
    return [res.psi, np.array([res.lam]), p.a, p.b,
            p.c if p.c is not None else np.empty(0)]


class Workload:
    """A workload: ``setup_steps()`` gives (state, steps), ``inputs(seed,
    i)`` the inputs of operation i, ``op_steps(state, inputs)`` gives
    (output, steps), ``check`` and ``finish`` the gates missed by one
    operation and by the whole run, ``fingerprint`` the arrays a traced run
    must reproduce bit for bit.  ``gate_lines`` reports gate values;
    ``min_ops`` is the fewest operations a run makes."""

    gate_lines = ()
    min_ops = 1

    def prepare(self, state):
        """Untimed references for the gates, after the last set-up."""

    def units(self, inputs):
        """Op units (the unit op_s_p50 is per) in one operation."""
        return 1

    def finish(self, state):
        return []


class StatsWorkload(Workload):
    """Noise-replication statistics on the 20x20 twin (criterion 6's set-up).

    One operation is a pair of replicate_stats calls at a fixed eps = 5e-2:
    magnetics only, then internal measurements with eps_ne = 2e-1, each
    over REPLICATES seeded 1 % perturbations.  Criterion 5's band is
    checked on the replicate statistics pooled over the run.
    """

    name = "stats-20"
    op = "a magnetics-only and an internal replicate_stats call"
    unit = "replicate"
    setup_repeats = 5
    REPLICATES = 5
    KINDS = {"magnetics": (inverse.RegularizationConfig(eps=5e-2), False),
             "internal": (inverse.RegularizationConfig(eps=5e-2, eps_ne=2e-1),
                          True)}

    def __init__(self, n=20):
        self.n = n
        self._pooled = {kind: [] for kind in self.KINDS}

    def setup_steps(self):
        return _twin_setup(self.n)

    def prepare(self, state):
        eq = state.ref_eq
        state.ref_table = diagnostics.profile_table(
            state.mesh, eq.psi, eq.domain, eq.profiles, eq.lam, state.machine)

    def inputs(self, seed, i):
        return {kind: sub_seed(seed, i, k)
                for k, kind in enumerate(self.KINDS)}

    def units(self, inp):
        return len(self.KINDS) * self.REPLICATES

    def op_steps(self, state, seeds):
        out = {}

        def call(kind):
            reg, internal = self.KINDS[kind]
            out[kind], = twin.replicate_stats(
                state.setup, state.ms, reg, [reg.eps],
                n_replicates=self.REPLICATES, rate=NOISE_RATE,
                seed=seeds[kind], use_internal=internal)

        return out, [(kind, lambda kind=kind: call(kind))
                     for kind in self.KINDS]

    def check(self, state, inp, out):
        failures = []
        for kind, st in out.items():
            if st.n_failed:
                failures.append(f"nonconverged_replicate_{kind}")
            self._pooled[kind].append(st)
        return failures

    def _pool(self, kind, key):
        """Mean and std of ``key`` over every replicate of the run, from
        the per-call statistics."""
        stats = self._pooled[kind]
        n = np.array([s.n_converged for s in stats], dtype=float)[:, None]
        means = np.array([s.mean[key] for s in stats])
        stds = np.array([s.std[key] for s in stats])
        mean = (n * means).sum(0) / n.sum()
        var = (n * (stds ** 2 + (means - mean) ** 2)).sum(0) / n.sum()
        return mean, np.sqrt(var)

    def finish(self, state):
        """Criterion 5's band on the magnetics-only statistics pooled over
        the run: the reference j_mean lies inside mean +- 2 std on at least
        90 % of the finite grid points.

        The band of the internal statistics and criterion 6's comparison
        (core spread of lambda*A, internal below magnetics-only) are
        reported, not gated: with the 15-25 replicates per kind of one run
        both missed on some seeds when the benchmark was added (see
        README, Findings).
        """
        if not all(self._pooled.values()):
            return []
        ref = state.ref_table["j_mean"]
        band = {}
        for kind in self._pooled:
            mean, std = self._pool(kind, "j_mean")
            good = np.isfinite(ref) & np.isfinite(mean)
            band[kind] = float(np.mean(
                (np.abs(ref - mean) <= 2.0 * std)[good]))
        core = state.ref_table["psibar"] <= 0.5
        spread = {kind: float(self._pool(kind, "lambdaA")[1][core].mean())
                  for kind in self._pooled}
        self.gate_lines = [
            f"band_magnetics {band['magnetics']:.3f} (needs >= 0.90)",
            f"band_internal {band['internal']:.3f} (reported, not gated)",
            f"core_spread_ratio "
            f"{spread['internal'] / spread['magnetics']:.3f} "
            f"(internal over magnetics-only, reported, not gated)"]
        return ["band_magnetics"] if band["magnetics"] < 0.90 else []

    def fingerprint(self, out):
        arrays = []
        for st in out.values():
            for k in sorted(st.mean):
                arrays += [st.mean[k], st.std[k]]
        return arrays


class RealtimeWorkload(Workload):
    """Warm two-iteration regime on the 80x80 twin (criterion 9 at a
    realistic resolution): each operation reconstructs one 1 %-perturbed
    measurement set with internal measurements, warm-started from one fixed
    converged base, with tol = 0 and max_iter = 2.

    A run makes at least ``min_ops`` operations, even past its seconds, so
    that the tail (the 11th-largest time) lies at the 75th percentile or
    above."""

    name = "realtime-80"
    op = "one warm two-iteration reconstruct"
    unit = "warm reconstruction"
    setup_repeats = 2
    min_ops = 40

    def __init__(self, n=80):
        self.n = n
        self.reg = inverse.RegularizationConfig()

    def setup_steps(self):
        state, steps = _twin_setup(self.n)

        def warm_base():
            state.base = inverse.reconstruct(state.setup, state.ms, self.reg,
                                             use_internal=True)

        return state, steps + [("warm_base", warm_base)]

    def inputs(self, seed, i):
        return sub_seed(seed, i)

    def op_steps(self, state, seed):
        ms = twin.perturb(state.ms, NOISE_RATE, seed=seed)
        out = {}

        def warm():
            out["res"] = inverse.reconstruct(
                state.setup, ms, self.reg, use_internal=True,
                warm_start=state.base, tol=0.0, max_iter=2)

        return out, [("warm", warm)]

    def check(self, state, inp, out):
        res = out["res"]
        failures = []
        if res.error is not None:
            failures.append("reconstruct_error")
        if res.iterations != 2:
            failures.append("iterations_not_2")
        if not res.residuals or not res.residuals[-1] <= 5e-3:
            failures.append("residual_above_5e-3")
        return failures

    def fingerprint(self, out):
        return _fingerprint_result(out["res"])


class TwinWorkload(Workload):
    """Twin rounds on the 80x80 mesh: a seeded profile pair, the forward
    fixed point, noise-free magnetics, a cold reconstruction to tol = 1e-6
    with the default RegularizationConfig (magnetics only) and the profile
    table.

    The iteration counts, hence the round times, depend on the pair by
    about +-30 %.  The profile box alpha in [0, 0.6], beta in [-0.4, 0.2]
    is therefore split into 2x2 cells, and one operation is a cycle of four
    rounds, one pair drawn uniformly inside each cell.  Its time per round
    is a stratified mean over the whole box, which keeps the figures of
    different seeds comparable.
    """

    name = "twin-80"
    op = "a cycle of four twin rounds, one per cell of the profile box"
    unit = "twin round"
    setup_repeats = 3
    CELLS = 4

    def __init__(self, n=80):
        self.n = n

    def setup_steps(self):
        state, steps = _twin_setup(self.n, reference=False)

        def adjacency():
            # built lazily by the first flux-map search otherwise
            state.mesh.node_neighbors()

        return state, steps + [("adjacency", adjacency)]

    def inputs(self, seed, i):
        pairs = []
        for cell in range(self.CELLS):
            u, v = np.random.default_rng(sub_seed(seed, i, cell)).random(2)
            pairs.append(ProfilePair(0.3 * (cell % 2 + u),
                                     -0.4 + 0.3 * (cell // 2 + v)))
        return pairs

    def units(self, pairs):
        return len(pairs)

    def op_steps(self, state, pairs):
        rounds = [{} for _ in pairs]
        steps = []
        for pair, out in zip(pairs, rounds):
            steps += self._round(state, pair, out)
        return rounds, steps

    def _round(self, state, pair, out):
        m = state.mesh

        def forward_solve():
            out["eq"] = forward.forward_fixed_point(
                m, state.machine, pair.a, pair.b, np.zeros(len(m.boundary)),
                basis=state.basis)

        def synthesize():
            out["ms"] = twin.synthesize_measurements(state.setup, out["eq"])

        def recon_cold():
            out["res"] = inverse.reconstruct(
                state.setup, out["ms"], inverse.RegularizationConfig(),
                use_internal=False, tol=1e-6)

        def table():
            res = out["res"]
            out["table"] = diagnostics.profile_table(
                m, res.psi, res.domain, res.profiles, res.lam, state.machine)

        return [("forward", forward_solve), ("synthesize", synthesize),
                ("recon_cold", recon_cold), ("profile_table", table)]

    def check(self, state, pairs, rounds):
        failures = []
        for out in rounds:
            eq, res = out["eq"], out["res"]
            if not res.converged:
                failures.append("not_converged")
                continue
            ref = diagnostics.profile_table(state.mesh, eq.psi, eq.domain,
                                            eq.profiles, eq.lam,
                                            state.machine)
            failures += [f"{k}_error_above_0.02" for k in ("j_mean", "q")
                         if not mean_rel_error(ref[k], out["table"][k])
                         <= 0.02]
        return failures

    def fingerprint(self, rounds):
        arrays = []
        for out in rounds:
            eq, res, table = out["eq"], out["res"], out["table"]
            arrays += ([eq.psi, np.array([eq.lam])] + _fingerprint_result(res)
                       + [table[k] for k in sorted(table)])
        return arrays


WORKLOADS = {w.name: w for w in (StatsWorkload, RealtimeWorkload,
                                 TwinWorkload)}
