#!/usr/bin/env python3
"""The repository benchmark: one closed-loop client, one process.

Run from the repository root::

    python3 perfbench/run.py --workload grid-cold --seed 7 --seconds 30 --trace 0

Workloads (see README.md): ``grid-cold`` (the 72-point paper grid
simulated into a fresh store, one op per point), ``grid-warm`` (a cheap
grid of the same shape replayed from a warm store, one op per replay
pass) and ``fuzz`` (differential fuzzing, one op per generated program).

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program: the op list runs in rounds (at least two, and more while
one more is expected to end within ``--seconds``) and each op's time is
its fastest run, scaled to a reference machine speed (see ``measure``).
``--trace 1`` runs one round three times --
plain, under layer spans, and under spans plus cProfile -- and reports
the per-layer metrics.  Either way every op is checked against the
goldens in ``goldens.json`` and the program's own invariants; the last
line of standard output is one JSON object.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-cold", "grid-warm", "fuzz")
#: Scratch stores and corpora (removed at exit) and traced-run output,
#: both under the directory the benchmark runs from.
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
#: Re-imports of the program's own modules per set-up sample; see
#: ``SetUp``.
IMPORT_REPEATS = 6
#: Rounds an untraced run makes at least; an op's time is its fastest.
MIN_ROUNDS = 2
#: Machine-speed calibration: a fixed slice of pure-Python work runs
#: after every op.  Each op time is scaled by REFERENCE_S over the
#: fastest reference run among its neighbours (CALIBRATION_WINDOW ops
#: either side), i.e. to the speed of the 2-core box the bounds were set
#: on, where one reference run took 0.16 ms at best.  Imports and
#: set-ups are followed by CALIBRATION_SAMPLES reference runs each.
REFERENCE_S = 0.16e-3
CALIBRATION_WINDOW = 8
CALIBRATION_SAMPLES = 30
#: Re-imports the program's own modules (``repro.*``) in a child
#: interpreter whose first import has already loaded their third-party
#: and standard-library dependencies; prints each re-import's time and
#: the fastest reference run after it.
REIMPORT = """
import json, sys, time
from run import CALIBRATION_SAMPLES, reference_seconds
times, refs = [], []
for _ in range(int(sys.argv[1]) + 1):
    for name in [n for n in sys.modules if n.split(".")[0] == "repro"]:
        del sys.modules[name]
    start = time.perf_counter()
    import repro.api.sweep, repro.fuzz.harness, repro.analysis.report
    times.append(time.perf_counter() - start)
    refs.append(min(reference_seconds() for _ in range(CALIBRATION_SAMPLES)))
print(json.dumps([times[1:], refs[1:]]))
"""
#: The tail percentile per workload: the highest of p85/p90/p95 with at
#: least ten ops beyond it (grid-cold has 72 ops, grid-warm 100, fuzz 200).
TAIL_PERCENTILE = {"grid-cold": 85.0, "grid-warm": 90.0, "fuzz": 95.0}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "sim_events_per_s": "events/s",
    "peak_rss_mb": "MB",
}

SIMULATED = (
    "sim.events", "sim.cycles", "memory.l1.hit_rate",
    "memory.l1.back_invalidations", "memory.llc.hit_rate",
    "memory.llc.flushed_lines", "memory.llc.scan_latency",
    "memory.llc.skipped_set_ratio", "memory.mc.requests_served",
    "memory.mc.queue_length_at_arrival", "pim.ops_executed",
    "pim.buffer_len_at_arrival", "host.loads", "host.stores",
    "host.pim_ops", "host.stale_reads",
)
STALLS = ("mshr_full", "fence_wait", "pim_busy", "crossbar_contention")


def per_layer_units():
    """Name -> unit of every ``--trace 1`` metric, in report order."""
    from spans import PROFILED_MODULES

    units = {
        "api.spec_hash_us": "us", "api.store_get_us": "us",
        "api.store_put_ms": "ms", "api.sweep_points_ms": "ms",
        "api.campaign_digest_ms": "ms", "api.runner_other_ms": "ms",
        "analysis.report_ms": "ms",
        "workloads.build_ms": "ms", "workloads.compile_ms": "ms",
        "system.build_ms": "ms", "system.run_ms": "ms",
        "system.collect_ms": "ms", "system.host_us_per_event": "us",
        "fuzz.generate_ms": "ms", "fuzz.oracle_ms": "ms",
        "fuzz.controls_ms": "ms", "fuzz.corpus_ms": "ms",
        "fuzz.timing_ms": "ms",
        "trace.op_ms": "ms", "trace.uncovered_ms": "ms",
        "trace.overhead_ratio": "ratio",
    }
    for module in PROFILED_MODULES + ("other",):
        units[f"self_share.{module}"] = "ratio"
    for module in PROFILED_MODULES + ("other",):
        units[f"calls_per_event.{module}"] = "calls/event"
    for name in SIMULATED:
        units[name] = "ratio" if name.endswith(("_rate", "_ratio")) \
            else "cycles" if name in ("sim.cycles", "memory.llc.scan_latency") \
            else "count"
    for reason in STALLS:
        units[f"stall.{reason}"] = "count"
    return units


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


class Workload:
    """One benchmark workload: a fixed list of ``size`` ops, run in
    rounds.  ``op(index)`` is what the clock times; ``check(index,
    outcome)`` judges it afterwards and returns ``(ok, simulated
    events)``."""

    size = 100

    def __init__(self, seed: int, work: str, goldens) -> None:
        self.seed = seed
        self.work = work
        self.goldens = goldens
        self.trace = None

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.work)

    def setup(self) -> None:
        """Build the inputs (repeated; the last set-up is the one used)."""

    def reset(self) -> None:
        """Start a measured phase: forget what earlier phases saw."""
        self.digests = {}

    def begin_round(self) -> None:
        """Called before each round's first op."""

    def same_as_first_round(self, index: int, digest: str) -> bool:
        return self.digests.setdefault(index, digest) == digest

    def simulated_events(self, counted: int) -> int:
        """Simulated events of one round, given those ``check`` counted."""
        return counted

    def finish(self) -> bool:
        """Whole-phase checks after the last op; False on a mismatch."""
        return True

    def results(self):
        """One round's simulation results (for the simulated metrics)."""
        return []


class GridCold(Workload):
    """The paper grid simulated point by point into a fresh store."""

    size = 72

    def setup(self) -> None:
        from specs import grid_campaign

        self.campaign = grid_campaign(self.seed)
        self.points = self.campaign.points()
        self.hashes = [p.experiment.spec_hash() for p in self.points]
        self.size = len(self.points)

    def reset(self) -> None:
        super().reset()
        self.outcomes = {}
        self.store = None

    def begin_round(self) -> None:
        from repro.api.runner import Runner

        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        self.store = self.fresh_dir("store-")
        self.runner = Runner(store=self.store)

    def op(self, index: int):
        return self.runner.run_settled([self.points[index].experiment],
                                       trace=self.trace)[0]

    def check(self, index: int, outcome):
        from specs import CORRECT_MODELS, point_digest

        point = self.points[index]
        result, error = outcome
        if error is not None:
            print(f"FAIL {point.name}: {error.splitlines()[-1]}")
            return False, 0
        self.outcomes.setdefault(index, outcome)
        digest = point_digest(result)
        golden = self.goldens["points"].get(self.hashes[index])
        ok = self.same_as_first_round(index, digest) \
            and golden in (None, digest) \
            and not (point.coords["model"] in CORRECT_MODELS
                     and result.stale_reads)
        if not ok:
            print(f"FAIL {point.name}: digest {digest[:16]} golden "
                  f"{str(golden)[:16]} stale {result.stale_reads}")
        return ok, result.events

    def finish(self) -> bool:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        if len(self.outcomes) < self.size:
            return True
        digest = self.campaign_digest()
        golden = self.goldens["cold_campaign"].get(str(self.seed))
        print(f"grid-cold campaign digest {digest} "
              f"(golden {golden or 'none at this seed'})")
        return golden in (None, digest)

    def campaign_digest(self) -> str:
        """``CampaignResult.digest()`` of the first round."""
        from repro.api.sweep import CampaignResult, PointResult

        return CampaignResult(self.campaign, [
            PointResult(name=p.name, sweep=p.sweep, coords=p.coords,
                        experiment=p.experiment, result=self.outcomes[i][0],
                        error=self.outcomes[i][1])
            for i, p in enumerate(self.points)]).digest()

    def results(self):
        return [self.outcomes[i][0] for i in sorted(self.outcomes)]


class GridWarm(Workload):
    """A cheap grid simulated once at set-up, then replayed warm; every
    op is the same replay pass."""

    def setup(self) -> None:
        from specs import grid_campaign
        from repro.analysis.report import campaign_markdown
        from repro.api.sweep import run_campaign

        self.campaign = grid_campaign(self.seed, size="cheap")
        self.store = self.fresh_dir("store-")
        populated = run_campaign(self.campaign, store=self.store)
        self.population = populated
        self.digest = populated.digest()
        self.report = campaign_markdown(populated)
        self.events = sum(p.result.events for p in populated.ok_points)
        self.setup_ok = not populated.failed_points

    def op(self, index: int):
        import repro.analysis.report as report
        from repro.api.runner import Runner
        from repro.api.sweep import run_campaign

        runner = Runner(store=self.store)
        result = run_campaign(self.campaign, runner=runner)
        return (runner.dispatch_count, len(result.failed_points),
                result.digest(), report.campaign_markdown(result))

    def check(self, index: int, outcome):
        dispatched, failed, digest, report = outcome
        ok = (self.setup_ok and dispatched == 0 and failed == 0
              and digest == self.digest and report == self.report)
        if not ok:
            print(f"FAIL replay pass {index}: dispatched {dispatched}, "
                  f"failed {failed}, digest {digest[:16]} vs "
                  f"{self.digest[:16]}, report equal {report == self.report}")
        return ok, self.events

    def finish(self) -> bool:
        seed = str(self.seed)
        golden = self.goldens["warm_campaign"].get(seed)
        report = hashlib.sha256(self.report.encode("utf-8")).hexdigest()
        golden_report = self.goldens["warm_report"].get(seed)
        print(f"grid-warm campaign digest {self.digest} "
              f"(golden {golden or 'none at this seed'})")
        return golden in (None, self.digest) \
            and golden_report in (None, report)

    def results(self):
        return [p.result for p in self.population.ok_points]


class Fuzz(Workload):
    """``fuzz_run`` one generated program per op; each round starts from
    a fresh store and corpus, so every round simulates again.  Many
    programs per round keep a run's work from swinging with the seed."""

    size = 200

    def begin_round(self) -> None:
        self.store = self.fresh_dir("store-")
        self.corpus = self.fresh_dir("corpus-")

    def op(self, index: int):
        from specs import FUZZ_KNOBS, fuzz_op_seed
        from repro.fuzz.harness import fuzz_run

        return fuzz_run(fuzz_op_seed(self.seed, index), programs=1,
                        knobs=FUZZ_KNOBS, store=self.store,
                        corpus_root=self.corpus)

    def check(self, index: int, outcome):
        from specs import CORRECT_MODELS, fuzz_op_seed

        op_seed = fuzz_op_seed(self.seed, index)
        golden = self.goldens["fuzz"].get(str(op_seed))
        stale = (outcome.get("timing") or {}).get("stale_reads") or {}
        ok = (not outcome["violations"]
              and self.same_as_first_round(index, outcome["digest"])
              and golden in (None, outcome["digest"])
              and not any(stale.get(m) for m in CORRECT_MODELS))
        if not ok:
            print(f"FAIL fuzz op {op_seed}: digest {outcome['digest']} "
                  f"golden {golden} violations {len(outcome['violations'])}")
        return ok, 0

    def simulated_events(self, counted: int) -> int:
        return sum(r.events for r in self.results())

    def results(self):
        from repro.api.store import ResultStore

        store = ResultStore(self.store)
        return [store.get(entry.spec_hash) for entry in store.entries()]


WORKLOAD_CLASSES = {"grid-cold": GridCold, "grid-warm": GridWarm,
                    "fuzz": Fuzz}


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #


def reference() -> int:
    """The calibration work: dict updates and list appends, the kind of
    work the simulator's own Python does."""
    table = {}
    items = []
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0) + i
        items.append(i % 7)
    return len(items)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def at_reference_speed(times, refs, window: int):
    """Each of ``times`` scaled by REFERENCE_S over the fastest of the
    reference runs ``refs[i]`` within ``window`` places of it."""
    return [t * REFERENCE_S / min(refs[max(0, i - window):i + window + 1])
            for i, t in enumerate(times)]


class Phase:
    """What one measured phase saw.  ``times`` holds each op's fastest
    run at the reference speed, ``raw_times`` its fastest run as
    measured; ``events`` the simulated events of one round."""

    def __init__(self) -> None:
        self.times = []
        self.raw_times = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.events = 0
        self.ok = True
        self.wall = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.times)


def measure(wl: Workload, seconds: float = 0.0, min_rounds: int = 1,
            rounds=None, limit=None, spans=None,
            between_rounds=None) -> Phase:
    """Run the op list in rounds: ``min_rounds`` rounds, then more while
    one more is expected to end within ``seconds`` of the start -- or
    exactly ``rounds`` rounds, if given.  ``between_rounds()`` is called
    after each round, untimed but inside ``seconds``.

    An op's time is the fastest of its runs, each scaled to the
    reference speed by the calibration runs around it: interference
    from other work on the host only ever adds time, and slows the
    calibration with the op.  Only the ops are timed; calibration,
    checks and round boundaries are not.  ``limit`` runs a prefix of
    the op list.
    """
    size = wl.size if limit is None else min(limit, wl.size)
    clock = time.perf_counter
    phase = Phase()
    best = [math.inf] * size
    best_raw = [math.inf] * size
    wl.reset()
    began = clock()

    def another_round() -> bool:
        if rounds is not None:
            return phase.rounds < rounds
        if phase.rounds < min_rounds:
            return True
        elapsed = clock() - began
        return elapsed * (phase.rounds + 1) / phase.rounds <= seconds

    while another_round():
        wl.begin_round()
        times, refs = [], []
        for index in range(size):
            start = clock()
            if spans is None:
                outcome = wl.op(index)
            else:
                outcome = spans.op_span(index, wl.op, index)
            times.append(clock() - start)
            refs.append(reference_seconds())
            ok, events = wl.check(index, outcome)
            phase.attempted += 1
            phase.failed += not ok
            if not phase.rounds:
                phase.events += events
        scaled = at_reference_speed(times, refs, CALIBRATION_WINDOW)
        best = [min(pair) for pair in zip(best, scaled)]
        best_raw = [min(pair) for pair in zip(best_raw, times)]
        phase.rounds += 1
        if between_rounds is not None:
            between_rounds()
    phase.times, phase.raw_times = best, best_raw
    phase.wall = clock() - began
    phase.events = wl.simulated_events(phase.events)
    phase.ok = wl.finish()
    return phase


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def simulated_metrics(results, stalls: bool = False):
    """The simulated (modelled-machine) per-layer counts of ``results``."""
    from repro.obs.trace import stall_totals

    total = {name: 0.0 for name in SIMULATED}
    weights = {}
    l1_hits = l1_accesses = 0.0

    def weighted(name, group, stat):
        count = group.get(f"{stat}_count", 0)
        acc, n = weights.get(name, (0.0, 0))
        weights[name] = (acc + group.get(stat, 0.0) * count, n + count)

    for r in results:
        total["sim.events"] += r.events
        total["sim.cycles"] += r.run_time
        llc, mc, pim = r.stats["llc"], r.stats["mc"], r.stats["pim"]
        total["memory.llc.hit_rate"] += llc.get("hit_rate", 0.0)
        total["memory.llc.flushed_lines"] += llc.get("flushed_lines", 0)
        total["memory.llc.skipped_set_ratio"] += \
            llc.get("skipped_set_ratio", 0.0)
        weighted("memory.llc.scan_latency", llc, "scan_latency")
        total["memory.mc.requests_served"] += mc.get("requests_served", 0)
        weighted("memory.mc.queue_length_at_arrival", mc,
                 "queue_length_at_arrival")
        total["pim.ops_executed"] += pim.get("ops_executed", 0)
        weighted("pim.buffer_len_at_arrival", pim, "buffer_len_at_arrival")
        for name, group in r.stats.items():
            if name.startswith("l1."):
                l1_hits += group.get("hits", 0)
                l1_accesses += group.get("hits", 0) + group.get("misses", 0)
                total["memory.l1.back_invalidations"] += \
                    group.get("back_invalidations", 0)
            elif name.startswith("core."):
                for stat in ("loads", "stores", "pim_ops", "stale_reads"):
                    total[f"host.{stat}"] += group.get(stat, 0)
    if results:
        total["memory.llc.hit_rate"] /= len(results)
        total["memory.llc.skipped_set_ratio"] /= len(results)
    total["memory.l1.hit_rate"] = l1_hits / l1_accesses if l1_accesses \
        else 0.0
    for name, (acc, n) in weights.items():
        total[name] = acc / n if n else 0.0
    if stalls:
        for reason in STALLS:
            total[f"stall.{reason}"] = 0
        for r in results:
            for reason, amount in stall_totals(r.obs or {}).items():
                if reason in STALLS:
                    total[f"stall.{reason}"] += amount
    return total


def run_untraced(name: str, wl: Workload, seconds: int, setup: "SetUp"):
    phase = measure(wl, seconds=seconds, min_rounds=MIN_ROUNDS,
                    between_rounds=setup.sample)
    setup_s = setup.seconds
    times_ms = [t * 1e3 for t in phase.times]
    q = TAIL_PERCENTILE[name]
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": len(times_ms) / phase.seconds,
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_tail": percentile(times_ms, q),
        "sim_events_per_s": phase.events / phase.seconds,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{name}: {phase.rounds} rounds of {len(times_ms)} ops in "
          f"{phase.wall:.1f} s; an op's "
          f"time is its fastest run at the reference speed; op_ms_tail is "
          f"p{q:g} over {len(times_ms)} ops; error_rate "
          f"{phase.failed / phase.attempted:.4f} (ratio, "
          f"{phase.failed}/{phase.attempted})")
    raw_ms = [t * 1e3 for t in phase.raw_times]
    print(f"as measured, unscaled: {len(raw_ms) / sum(phase.raw_times):.4g} "
          f"ops/s, p50 {statistics.median(raw_ms):.4g} ms, "
          f"p{q:g} {percentile(raw_ms, q):.4g} ms")
    print(f"setup {setup_s:.4f} s: fastest import of the program "
          f"{min(setup.imports):.4f} s + fastest set-up "
          f"{min(setup.setups):.4f} s, of {len(setup.setups)} samples")
    print("simulated digest " + simulated_digest(wl.results()))
    return metrics, END_TO_END, phase


def simulated_digest(results) -> str:
    values = simulated_metrics(results)
    return hashlib.sha256(json.dumps(values, sort_keys=True)
                          .encode("utf-8")).hexdigest()[:16]


def run_traced(name: str, wl: Workload, out_dir: str):
    from spans import Spans
    from repro.sim.config import TraceConfig

    ops = wl.size
    # A short warm-up, so no phase pays the first-call costs.
    warmup = measure(wl, rounds=1, limit=ops // 6)
    plain = measure(wl, rounds=1)
    plain_sim = simulated_metrics(wl.results())
    print("simulated digest " + simulated_digest(wl.results()))

    spans = Spans()
    spans.install()
    try:
        spanned = measure(wl, rounds=1, spans=spans)
    finally:
        spans.uninstall()
    spanned_sim = simulated_metrics(wl.results())

    profile = Spans(profile=True)
    wl.trace = TraceConfig(enabled=True, ring_size=0)
    profile.install()
    try:
        profiled = measure(wl, rounds=1, spans=profile)
    finally:
        profile.uninstall()
        wl.trace = None
    profiled_sim = simulated_metrics(wl.results(), stalls=True)

    same = plain_sim == spanned_sim == {
        k: v for k, v in profiled_sim.items() if not k.startswith("stall.")}
    if not same:
        print("FAIL simulated counts differ between traced and untraced "
              "phases")
    metrics = spans.layer_metrics()
    run_spans = [r for r in spans.records if r[3] == "system.run"]
    run_s = sum(end - start for *_rest, start, end in run_spans)
    metrics["system.host_us_per_event"] = (
        run_s * 1e6 / spanned.events if spanned.events and run_spans
        else 0.0)
    metrics["trace.overhead_ratio"] = plain.seconds / spanned.seconds
    metrics.update(profile.profile_metrics())
    metrics.update(profiled_sim)

    path = os.path.join(out_dir, f"spans-{name}.json")
    spans.write(path)
    op_ms = metrics["trace.op_ms"]
    print(f"{name}: traced {ops} ops in each of 3 phases; spans written "
          f"to {path}")
    print(f"uncovered by spans: {metrics['trace.uncovered_ms']:.3f} ms of "
          f"{op_ms:.3f} ms per op "
          f"({metrics['trace.uncovered_ms'] / op_ms:.2%})")
    print(f"tracing overhead: spans {spanned.seconds / plain.seconds:.3f}x, "
          f"spans+cProfile {profiled.seconds / plain.seconds:.3f}x "
          f"the untraced time")
    phase = Phase()
    for p in (warmup, plain, spanned, profiled):
        phase.attempted += p.attempted
        phase.failed += p.failed
        phase.ok = phase.ok and p.ok
    phase.ok = phase.ok and same
    return metrics, per_layer_units(), phase


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #


class SetUp:
    """Set-up time, sampled before the first round and after each round.

    A sample is one child interpreter re-importing the program's own
    modules IMPORT_REPEATS times, then one set-up of the workload; both
    at the reference speed.  ``seconds`` is the fastest import plus the
    fastest set-up, by the rule the ops follow.  Samples spread over the
    run, because a slow spell of the host outlasts a few seconds of
    back-to-back repeats.  Interpreter start-up and the import of numpy
    and the standard library are left out: fresh interpreters swing by a
    third between runs a minute apart, which the reference speed does
    not follow.
    """

    def __init__(self, wl: Workload, src: str) -> None:
        self.wl = wl
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, HERE)))
        self.imports = []
        self.setups = []

    def sample(self) -> None:
        done = subprocess.run(
            [sys.executable, "-c", REIMPORT, str(IMPORT_REPEATS)],
            env=self.env, check=True, capture_output=True, text=True)
        times, refs = json.loads(done.stdout)
        self.imports.append(min(at_reference_speed(times, refs, 2)))
        start = time.perf_counter()
        self.wl.setup()
        seconds = time.perf_counter() - start
        floor = min(reference_seconds() for _ in range(CALIBRATION_SAMPLES))
        self.setups.append(seconds * REFERENCE_S / floor)

    @property
    def seconds(self) -> float:
        return min(self.imports) + min(self.setups)


def bootstrap(root: str) -> bool:
    """Put the checkout's ``src`` and this directory on the path."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: specs.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not bootstrap(root):
        print(f"perfbench: no program sources under {root}/src "
              f"(run from the repository root)", file=sys.stderr)
        return 2
    import specs

    seed = specs.DEFAULT_SEED if args.seed is None else args.seed
    goldens = specs.load_goldens()
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR))
    try:
        wl = WORKLOAD_CLASSES[args.workload](seed, work, goldens)
        setup = SetUp(wl, os.path.join(root, "src"))
        setup.sample()
        print(f"{args.workload} seed {seed}")
        if args.trace:
            metrics, units, phase = run_traced(
                args.workload, wl, os.path.join(root, OUT_DIR))
        else:
            metrics, units, phase = run_untraced(
                args.workload, wl, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run is still using it
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": phase.ok and phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
