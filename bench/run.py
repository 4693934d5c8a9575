#!/usr/bin/env python3
"""jumplm benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The jumplm sources are taken from `src/`
next to this directory; nothing needs to be installed.  The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"};
the line before it stamps the machine, versions, seed and sizes.  Both are
also written to bench/out/, with the spans of a traced run.

--trace 0 reports the end-to-end metrics: it runs a set of operation
seeds REPEATS times over, and times set-up in fresh processes between the
passes.  --trace 1 reports the per-layer metrics: it runs each operation
twice, untraced and then traced, and the gap between the two is the
tracing overhead.  See bench/README.md for the workloads and the
definition of every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REPEATS = 4               # passes over the operation seeds of an untraced run
EXPORT_SAMPLE = 3         # CSVs per export read back and re-simulated
DRAWS = 20_000            # jump draws timed per sampler micro-measurement
R_POINTS = (0.5, 0.6, 0.7, 0.8, 0.9)   # u at which quadrature R is timed
EVENT_PATHS = 2000        # paths whose events are counted in a traced run
Z_GATE = 3.0


class OpFailed(Exception):
    """An operation raised or produced output that failed its check."""


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def op_seeds(seed):
    """Engine seeds for operations 0, 1, 2, ... derived from --seed."""
    import numpy as np

    k = 0
    while True:
        yield int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)
        k += 1


def median(xs):
    return statistics.median(xs) if xs else 0.0


def git_sha():
    """HEAD of the repository this benchmark sits in, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    # a checkout that is not a repository may still sit inside another one
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def src_sha256():
    h = hashlib.sha256()
    for f in sorted((SRC / "jumplm").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def stamp(args, wl):
    from importlib.metadata import version

    import numpy
    import scipy

    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "paths_per_op": wl.paths,
        "params": {"x0": wl.x0, "t": wl.t, "u": wl.u, "eps": wl.eps,
                   "cap": wl.cap, "spec": wl.spec, "kind": wl.kind},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "click": version("click"),
        "git_sha": git_sha(), "src_sha256": src_sha256(),
    }


class SetupProbe:
    """Cold set-up and import times, each from a fresh process."""

    def __init__(self, wl, spec_path):
        self.argv = [sys.executable, str(BENCH / "probe.py"), str(SRC), wl.name,
                     str(spec_path)]
        self.setups, self.imports = [], []

    def __call__(self):
        out = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        self.setups.append(rec["setup_s"])
        self.imports.append(rec["import_s"])


class Bench:
    """The loaded workload and the operations the timed loop runs."""

    def __init__(self, wl, work):
        import workloads
        from jumplm import cli, measure, montecarlo, riccati, simulate

        self.wl = wl
        self.work = work
        self.cli, self.measure, self.montecarlo = cli, measure, montecarlo
        self.riccati, self.simulate = riccati, simulate
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(workloads.spec_json(wl, measure)))
        self.spec = measure.spec_from_json(str(self.spec_path))
        workloads.warm(wl, self.spec, measure, riccati)
        self.engine_spec = workloads.engine_spec(wl, self.spec, measure)
        self.tracer = None
        self.second_moment = self.survival = None
        # exact moments, computed once and untimed: var_time uses the exact
        # variance of the estimator, and the export is z-checked against P(tau > t)
        if wl.kind == "mgf":
            self.second_moment = riccati.expected_value(self.spec, wl.x0, wl.t, 2 * wl.u)
        else:
            g = riccati.minimal_solution(measure.tilted_spec(self.engine_spec), wl.t)
            self.survival = math.exp(wl.x0 * (g - 1.0))

    def path_variance(self, theory):
        """Var of one path's sample: e^{uX_t} for mgf, the survival indicator else."""
        if self.wl.kind == "mgf":
            return self.second_moment - theory ** 2
        return theory * (1.0 - theory)

    def config(self, seed):
        return self.simulate.EngineConfig(eps=self.wl.eps, seed=seed,
                                          cap=self.wl.cap)

    # -- operations ---------------------------------------------------------

    def run_op(self, seed, k, traced):
        """Run operation k at `seed`; return (seconds, outcome)."""
        out_dir = self.work / f"op{k:04d}"
        t0 = time.perf_counter()
        if traced:
            with self.tracer.installed(), self.tracer.span("bench.op"):
                result = self._call(seed, out_dir, traced)
        else:
            result = self._call(seed, out_dir, traced)
        seconds = time.perf_counter() - t0
        if self.wl.kind == "export":
            result = self._check_export(seed, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
        elif not all(map(math.isfinite, (result.mean, result.stderr, result.theory))):
            raise OpFailed(f"non-finite estimate {result}")
        return seconds, result

    def _call(self, seed, out_dir, traced):
        wl = self.wl
        if wl.kind == "mgf":
            return self.montecarlo.estimate_mgf(
                self.spec, wl.x0, wl.t, wl.u, wl.paths, self.config(seed))
        if wl.kind == "survival":
            return self.montecarlo.estimate_survival(
                self.engine_spec, wl.x0, wl.t, wl.paths, self.config(seed))
        args = ["simulate", str(self.spec_path), "--explosive",
                "--x0", repr(wl.x0), "--t-end", repr(wl.t), "--eps", repr(wl.eps),
                "--cap", repr(wl.cap), "--seed", str(seed),
                "--paths", str(wl.paths), "--out-dir", str(out_dir)]
        if traced:
            with self.tracer.span("cli.simulate"):
                return self._cli(args)
        return self._cli(args)

    def _cli(self, args):
        try:
            self.cli.main.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise OpFailed(f"jumplm simulate exited with {exc.code}") from None

    # -- export output check ------------------------------------------------

    def _check_export(self, seed, out_dir):
        """Read every CSV's header, round-trip a sample; count bad CSVs."""
        n = self.wl.paths
        sample = set(random.Random(seed).sample(range(n), min(EXPORT_SAMPLE, n)))
        digest = hashlib.sha256()
        bad = alive = nbytes = 0
        for i in range(n):
            try:
                data = (out_dir / f"path_{i:05d}.csv").read_bytes()
                path = _parse_path_csv(data.decode(), self.simulate)
            except (OSError, ValueError, KeyError):
                bad += 1
                continue
            digest.update(data)
            nbytes += len(data)
            alive += not path.exploded
            if i in sample and not self._round_trips(path, seed, i):
                bad += 1
        manifest = out_dir / "manifest.json"
        if not manifest.is_file():
            bad += 1
        else:
            nbytes += manifest.stat().st_size
        return ExportOutcome(bad, alive, n, nbytes, digest.hexdigest())

    def _round_trips(self, path, seed, i):
        """The CSV holds the engine's path to the bit, and evaluate agrees."""
        sim = self.simulate
        ref = sim.simulate_explosive_path(self.engine_spec, self.wl.x0, self.wl.t,
                                          self.config(seed), i, record=True)
        # the CSV carries every field but the terminal value
        if dataclasses.replace(ref, terminal=None) != path:
            return False
        value = sim.evaluate(path, path.t_end)
        if ref.exploded:
            return value is sim.EXPLODED
        return value is not sim.EXPLODED and abs(value - ref.terminal) <= 1e-9 * abs(ref.terminal)


@dataclasses.dataclass(frozen=True)
class ExportOutcome:
    bad: int        # CSVs missing, malformed or failing the round trip
    alive: int      # paths that did not explode
    n: int
    nbytes: int
    digest: str     # SHA-256 over every CSV, for the determinism check


def _parse_path_csv(text, simulate):
    head, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            head[key] = val
        elif line != "time,size":
            t, xi = line.split(",")
            rows.append((float(t), float(xi)))
    if head["exploded"] not in ("true", "false"):
        raise ValueError(f"bad exploded flag {head['exploded']!r}")
    exploded = head["exploded"] == "true"
    return simulate.Path(
        x0=float(head["x0"]), events=rows, decay_rate=float(head["decay_rate"]),
        t_end=float(head["t_end"]), eps=float(head["eps"]), exploded=exploded,
        explosion_time=float(head["explosion_time"]) if exploded else None)


def _same(a, b):
    """Bit-identical outcomes of two operations at the same seed."""
    if isinstance(a, ExportOutcome):
        return a.digest == b.digest
    return (a.mean, a.stderr, a.theory, a.n_paths) == (b.mean, b.stderr, b.theory, b.n_paths)


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    seed: int
    traced: bool
    seconds: float = None     # None when the operation raised
    outcome: object = None    # McEstimate or ExportOutcome
    failed: int = 0           # paths failed, by the operation or a later check


class Ledger:
    """Operations run, with the failures counted in paths per operation."""

    def __init__(self, paths):
        self.paths = paths
        self.ops = []
        self.errors = []
        self.z = None             # pooled z-score, set by check_z

    @property
    def attempted(self):
        return self.paths * len(self.ops)

    @property
    def failed(self):
        return sum(op.failed for op in self.ops)

    def fail_frac(self):
        """Laplace's rule per operation, (f + 1) / (n + 2), averaged.

        With nothing failed this is 1 / (n + 2) whatever the throughput,
        and a single failed operation raises it at once.
        """
        return statistics.fmean((op.failed + 1) / (self.paths + 2) for op in self.ops)

    def _fail(self, ops, paths, why):
        for op in ops:
            op.failed = max(op.failed, paths)
        self.errors.append(why)

    def run(self, bench, seed, traced):
        k = len(self.ops)
        op = Op(seed, traced)
        self.ops.append(op)
        try:
            op.seconds, op.outcome = bench.run_op(seed, k, traced)
        except Exception as exc:  # any error is a failed operation, not a crash
            self._fail([op], self.paths, f"op {k} seed {seed}: {type(exc).__name__}: {exc}")
            return
        if isinstance(op.outcome, ExportOutcome) and op.outcome.bad:
            self._fail([op], op.outcome.bad,
                       f"op {k} seed {seed}: {op.outcome.bad} CSVs failed the check")

    def by_seed(self):
        """The operations that returned, grouped by seed in first-run order."""
        groups = {}
        for k, op in enumerate(self.ops):
            if op.outcome is not None:
                groups.setdefault(op.seed, []).append((k, op))
        return groups

    def check_repeats(self):
        """Operations at the same seed must give bit-identical output."""
        for runs in self.by_seed().values():
            (i, first), rest = runs[0], runs[1:]
            for j, op in rest:
                if not _same(first.outcome, op.outcome):
                    self._fail([op], self.paths,
                               f"ops {i} and {j}: same seed, different output")

    def check_z(self, bench):
        """Pool the distinct-seed operations and gate |z| <= 3 once per run.

        Experiments pool their estimates; exports pool the survival fraction
        of the paths they wrote, against P(tau > t).  The standard error is
        the exact one, from bench.path_variance: the sample variance of
        e^{uX} has no finite variance, and a z-score studentised by it
        falls below -3 on about 2% of 2,000-path experiments.
        """
        pooled = [runs[0][1] for runs in self.by_seed().values()]
        if not pooled:
            return None
        ests = [op.outcome for op in pooled]
        if isinstance(ests[0], ExportOutcome):
            n = sum(e.n for e in ests)
            mean = sum(e.alive for e in ests) / n
            theories = {bench.survival}
        else:
            n = sum(e.n_paths for e in ests)
            mean = sum(e.mean * e.n_paths for e in ests) / n
            theories = {e.theory for e in ests}
        theory = next(iter(theories))
        stderr = math.sqrt(bench.path_variance(theory) / n)
        z = (mean - theory) / stderr if stderr > 0 else math.inf
        if len(theories) != 1 or not abs(z) <= Z_GATE:
            self._fail(pooled, self.paths, f"pooled z={z} over {len(ests)} operations, "
                                           f"theory values {sorted(theories)}")
        return z


def loop(seconds, min_steps, step):
    """Closed loop: call step() until `seconds` have passed and min_steps ran."""
    start = time.perf_counter()
    n = 0
    while n < min_steps or time.perf_counter() - start < seconds:
        step()
        n += 1


def timed_passes(seconds, bench, ledger, seeds, probe):
    """REPEATS passes over one set of seeds, with set-up probes between them.

    The first pass draws new seeds for seconds / REPEATS; the later passes
    run the same seeds again in the same order, so each seed's repeats are
    about a third of the run apart and the determinism check covers every
    operation.  A set-up probe runs before, between and after the passes.
    """
    first = []

    def fresh():
        first.append(next(seeds))
        ledger.run(bench, first[-1], False)

    probe()
    loop(seconds / REPEATS, 1, fresh)
    for _ in range(REPEATS - 1):
        probe()
        for seed in first:
            ledger.run(bench, seed, False)
    probe()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def interquartile_mean(xs):
    """Mean of the middle half: as robust as the median to a few slow
    seeds, and it averages over half of them, not one or two."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut]) if xs else 0.0


def end_to_end(bench, ledger, setup_s):
    groups = ledger.by_seed().values()
    # each seed's fastest repeat: the host's speed switches between two
    # modes some 1.8x apart for seconds at a time, and the minimum keeps a
    # seed out of the slow mode if any of its repeats ran in the fast one
    run_s = interquartile_mean([min(op.seconds for _, op in runs) for runs in groups])
    if bench.wl.kind == "export":
        theory = bench.survival
    else:
        theory = next(iter(groups))[0][1].outcome.theory if groups else 0.0
    # Glynn-Whitt: Var(estimate) * cost, with the exact variance at the
    # stated size (the sample variance of e^{uX} has no finite variance)
    var_time = bench.path_variance(theory) / bench.wl.paths * run_s
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "var_time": (var_time, "s"),
        "fail_frac": (ledger.fail_frac(), "frac"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def cold_ms(fn, *args, clear=()):
    """Median time of the undecorated function, in ms.

    `__wrapped__` skips fn's own lru cache; the caches in `clear` are
    emptied before every call, so the work fn delegates to them is timed too.
    """
    raw = getattr(fn, "__wrapped__", fn)
    times = []
    while len(times) < 5 and (len(times) < 1 or sum(times) < 0.5):
        for cached in clear:
            cached.cache_clear()
        t0 = time.perf_counter()
        raw(*args)
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def draw_us(sampler):
    """Per-draw cost of a jump sampler, in us."""
    import numpy as np

    uniforms = np.random.Generator(np.random.Philox(key=[0, 1])).random(8 * DRAWS)
    next_u = iter(uniforms.tolist()).__next__
    t0 = time.perf_counter()
    for _ in range(DRAWS):
        sampler.sample(next_u)
    return (time.perf_counter() - t0) / DRAWS * 1e6


def tabulated_layers(bench):
    """Quadrature R, table build and table draws on the tabulated spec.

    The 60-point table is no workload of its own (one experiment on it is
    a single 15-20 s `solve`, too long to time steadily), so its layers are
    timed here, cold: (r_quad_ms, table_build_ms, table_draw_us).
    """
    import workloads

    m = bench.measure
    path = bench.work / "tabulated.json"
    path.write_text(json.dumps(workloads.tabulated_json()))
    tab = m.spec_from_json(str(path))
    r_ms = []
    for u in R_POINTS:
        t0 = time.perf_counter()
        m.r_function(tab, u)
        r_ms.append((time.perf_counter() - t0) * 1e3)
    eps = workloads.TABLE_EPS
    build_ms = cold_ms(m._cached_table_sampler, tab, eps, clear=[m.tail_intensity])
    return median(r_ms), build_ms, draw_us(m.make_jump_sampler(tab, eps))


def event_counts(bench, seeds):
    """Events and explosions of every path of the given operations.

    The paths are simulated again with record=True through the public
    single-path API, untraced; the streams are the operations' own, so the
    counts repeat exactly for a fixed --seed.
    """
    wl, sim = bench.wl, bench.simulate
    engine = sim.simulate_path if wl.kind == "mgf" else sim.simulate_explosive_path
    counts, exploded = [], 0
    for seed in seeds:
        cfg = bench.config(seed)
        for i in range(wl.paths):
            path = engine(bench.engine_spec, wl.x0, wl.t, cfg, i, record=True)
            counts.append(len(path.events))
            exploded += path.exploded
    return counts, exploded / len(counts)


def per_layer(bench, ledger, import_s):
    import numpy as np

    import tracer as tracing
    import workloads

    tr, wl = bench.tracer, bench.wl
    names, dur, own = tr.names, tr.durations(), tr.self_times()
    root = []
    for i, p in enumerate(tr.parents):
        root.append(i if p < 0 else root[p])
    op_roots = [i for i, n in enumerate(names) if n == "bench.op"]

    def spans(name):
        return [i for i, n in enumerate(names) if n == name]

    def mean_ms(name):
        ds = [dur[i] for i in spans(name)]
        return sum(ds) / len(ds) / 1e6 if ds else 0.0

    # montecarlo: split each estimate into theory, simulation and the rest
    est = {i: [0, 0] for i, n in enumerate(names) if n.startswith("montecarlo.estimate_")}
    for i, p in enumerate(tr.parents):
        if p in est:
            layer = names[i].split(".")[0]
            if layer in ("riccati", "measure"):
                est[p][0] += dur[i]
            elif layer == "simulate":
                est[p][1] += dur[i]
    theory = [th / 1e9 for th, _ in est.values()]
    sim_s = [sm / 1e9 for _, sm in est.values()]
    agg = [(dur[i] - th - sm) / 1e9 for i, (th, sm) in est.items()]
    pps = [wl.paths / (dur[i] / 1e9) for i in est]

    engine = {"simulate.simulate_path", "simulate.simulate_explosive_path"}
    path_spans = [i for i, n in enumerate(names) if n in engine]
    path_us = np.array([dur[i] / 1e3 for i in path_spans] or [0.0])
    # events of the first traced operations, enough paths for a p99;
    # op_roots[j] is the root span of the j-th traced operation
    traced = [op for op in ledger.ops if op.traced]
    k = min(len(traced), -(-EVENT_PATHS // wl.paths))
    counts, explode_frac = event_counts(bench, [op.seed for op in traced[:k]])
    counted = set(op_roots[:k])
    engine_self_ns = sum(own[i] for i in path_spans if root[i] in counted)
    counts_arr = np.array(counts)

    notes = [tr.notes[i] for i in spans("riccati.solve") if i in tr.notes]
    r_spans = spans("measure.r_function")
    layer_self = {layer: 0 for layer in ("bench",) + tracing.LAYERS}
    for i, n in enumerate(names):
        layer_self[n.split(".")[0]] += own[i]
    wall = sum(dur[i] for i in op_roots)

    checked = workloads.validated_spec(wl, bench.spec)
    m, r = bench.measure, bench.riccati
    r_quad_ms, table_build_ms, table_draw_us = (
        tabulated_layers(bench) if wl.kind == "mgf" else (0.0, 0.0, 0.0))
    cli_spans = [dur[i] for i in spans("cli.simulate")]
    export_bytes = [op.outcome.nbytes for op in traced
                    if isinstance(op.outcome, ExportOutcome)]
    # each traced operation directly follows its untraced twin
    ratios = [b.seconds / a.seconds for a, b in zip(ledger.ops, ledger.ops[1:])
              if b.traced and not a.traced and a.seconds and b.seconds]

    return {
        "measure.r_quad_ms": (r_quad_ms, "ms"),
        "measure.r_calls": (len(r_spans) / len(op_roots), "count"),
        "measure.validate_ms": (cold_ms(m.validate, checked) if checked else 0.0, "ms"),
        "measure.table_build_ms": (table_build_ms, "ms"),
        "measure.jump_draw_us.rejection": (
            draw_us(m.make_jump_sampler(bench.engine_spec, wl.eps)), "us"),
        "measure.jump_draw_us.table": (table_draw_us, "us"),
        "riccati.solve_ms": (mean_ms("riccati.solve"), "ms"),
        "riccati.solve_steps": (sum(notes) / len(notes) if notes else 0.0, "count"),
        "riccati.classify_ms": (cold_ms(r.classify, m.tilted_spec(bench.engine_spec))
                                if wl.kind == "survival" else 0.0, "ms"),
        "riccati.minimal_solution_ms": (mean_ms("riccati.minimal_solution"), "ms"),
        "simulate.event_us": (engine_self_ns / 1e3 / max(sum(counts), 1), "us"),
        "simulate.path_us.p50": (float(np.percentile(path_us, 50)), "us"),
        "simulate.path_us.p99": (float(np.percentile(path_us, 99)), "us"),
        "simulate.events_per_path.p50": (float(np.percentile(counts_arr, 50)), "count"),
        "simulate.events_per_path.p99": (float(np.percentile(counts_arr, 99)), "count"),
        "simulate.events_per_path.mean": (float(counts_arr.mean()), "count"),
        "simulate.explode_frac": (explode_frac, "frac"),
        "montecarlo.sim_s": (median(sim_s), "s"),
        "montecarlo.theory_s": (median(theory), "s"),
        "montecarlo.aggregate_s": (median(agg), "s"),
        "montecarlo.paths_per_s": (median(pps), "1/s"),
        "montecarlo.z": (abs(ledger.z) if ledger.z is not None else 0.0, "sigma"),
        "cli.import_s": (import_s, "s"),
        "cli.export_s": (median(cli_spans) / 1e9, "s"),
        "cli.bytes_written": (median(export_bytes), "bytes"),
        **{f"self_s.{layer}": (ns / 1e9, "s") for layer, ns in layer_self.items()},
        "trace.wall_s": (wall / 1e9, "s"),
        "trace.coverage": (1.0 - layer_self["bench"] / wall if wall else 0.0, "frac"),
        "trace.overhead_frac": (median(ratios) - 1.0 if ratios else 0.0, "frac"),
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    if not (SRC / "jumplm" / "__init__.py").is_file():
        print(f"error: no jumplm sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out = BENCH / "out"
    work = BENCH / "work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)
    try:
        bench = Bench(wl, work)
        meta = stamp(args, wl)
        probe = SetupProbe(wl, bench.spec_path)
        ledger = Ledger(wl.paths)
        seeds = op_seeds(args.seed)
        if args.trace:
            import tracer

            bench.tracer = tracer.Tracer({
                "measure": bench.measure, "riccati": bench.riccati,
                "simulate": bench.simulate, "montecarlo": bench.montecarlo})

            def pair():
                # each seed untraced, then traced: the pair gives the
                # overhead and doubles as the determinism check
                seed = next(seeds)
                ledger.run(bench, seed, False)
                ledger.run(bench, seed, True)

            probe()
            loop(args.seconds, 1, pair)
        else:
            timed_passes(args.seconds, bench, ledger, seeds, probe)
        ledger.check_repeats()
        ledger.z = ledger.check_z(bench)
        setup_s, import_s = median(probe.setups), median(probe.imports)
        if args.trace:
            metrics = per_layer(bench, ledger, import_s)
        else:
            metrics = end_to_end(bench, ledger, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta.update(ops=len(ledger.ops), op_seeds=[op.seed for op in ledger.ops],
                op_seconds=[op.seconds for op in ledger.ops], errors=ledger.errors,
                pooled_z=ledger.z, setup_s=setup_s, import_s=import_s)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{tag}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    if args.trace:
        (out / f"{tag}.spans.json").write_text(json.dumps(bench.tracer.dump()))
        (out / f"{tag}.layers.json").write_text(
            json.dumps(bench.tracer.summary(), indent=1, sort_keys=True))
    for e in ledger.errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
