"""Tracked kernel-throughput benchmarks (``repro-bench perf``).

The simulator's performance trajectory is measured on a small set of
*pinned* configurations -- YCSB-C (read-only scans, the paper's hottest
sweep point shape), the default YCSB mix, one TPC-H query and the litmus
workload -- chosen to exercise every consistency-model code path at a
size that finishes in well under a second.

For each configuration the harness:

* builds the system and compiles the workload *outside* the timed
  region, then times :meth:`System.run` only -- events/sec measures the
  event kernel, not workload generation;
* runs the simulation ``repeats`` times and asserts **determinism**:
  every repeat must produce byte-identical statistics (``stats`` dict,
  ``run_time``, ``events``, ``stale_reads``);
* records a canonical SHA-256 digest of the results.  The digest is
  machine-independent, so a checked-in baseline (``BENCH_kernel.json``)
  pins the *simulation results* as well as the throughput: any change
  that alters what the simulator computes -- not just how fast -- trips
  the digest comparison.

``BENCH_kernel.json`` at the repo root stores the numbers for the
current kernel next to the pre-optimization baseline, so future PRs can
tell whether they moved the needle (and in which direction).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.experiment import Experiment

#: Schema tag stored in benchmark JSON files.
SCHEMA = "repro-bench-perf/v1"

#: The tracked benchmark file at the repo root; ``repro-bench perf``
#: reads it for the trajectory columns when no ``--check`` is given.
TRACKED_FILE = "BENCH_kernel.json"

#: The pinned benchmark points.  Do not retune these casually: the
#: checked-in baseline numbers (and result digests) are tied to them.
PERF_CONFIGS: Dict[str, dict] = {
    "ycsb-c": {
        "workload": "ycsb",
        "params": {"num_ops": 60, "num_records": 8000, "scan_fraction": 1.0,
                   "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 4},
        "variant": "perf",
    },
    "ycsb-mix": {
        "workload": "ycsb",
        "params": {"num_ops": 40, "num_records": 4000, "seed": 7},
        "config": {"preset": "scaled", "model": "scope-relaxed",
                   "num_scopes": 8},
        "variant": "perf",
    },
    "tpch-q6": {
        "workload": "tpch",
        "params": {"query": "q6", "scale": 0.015625},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 32},
        "variant": "perf",
    },
    "litmus": {
        "workload": "litmus",
        "params": {"rounds": 50, "threads": 4},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 4},
        "variant": "perf",
    },
    # Scaled-up points: the seed-sized configs above stay pinned for
    # trajectory continuity; these two track the kernel at higher core
    # counts and bigger working sets, where queue depths, MSHR pressure
    # and the wheel/heap mix differ from the small configs.
    "ycsb-c-8core": {
        "workload": "ycsb",
        "params": {"num_ops": 64, "num_records": 16000,
                   "scan_fraction": 1.0, "threads": 8, "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 8,
                   "cores": {"num_cores": 8}},
        "variant": "perf",
    },
    "tpch-q6-sf2": {
        "workload": "tpch",
        "params": {"query": "q6", "scale": 0.03125, "threads": 6},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 64},
        "variant": "perf",
    },
    # ycsb-c with the MSHR knobs explicitly on (same size/seed as the
    # pinned ycsb-c): gates the hit-path overhead of the MshrFile
    # bookkeeping + mshr_* stats against the silent-default twin.
    "ycsb-c-mshr8": {
        "workload": "ycsb",
        "params": {"num_ops": 60, "num_records": 8000, "scan_fraction": 1.0,
                   "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 4,
                   "l1": {"mshr_entries": 8},
                   "llc": {"mshr_entries": 64}},
        "variant": "perf",
    },
    # ycsb-c driven open-loop near its saturation knee: gates the
    # admission-queue + latency-histogram path (ARRIVE markers, arrival
    # catch-up, per-request settle) and pins the traffic stats digest.
    "ycsb-c-openloop": {
        "workload": "ycsb",
        "params": {"num_ops": 60, "num_records": 8000, "scan_fraction": 1.0,
                   "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 4,
                   "traffic": {"arrival": "poisson", "offered_load": 0.3,
                               "queue_depth": 16}},
        "variant": "perf",
    },
}

#: Configurations the ``--quick`` smoke run measures.
QUICK_CONFIGS = ("ycsb-c", "litmus")


class PerfDivergence(AssertionError):
    """Raised when repeated runs of one pinned config disagree."""


def _result_fingerprint(result) -> dict:
    """Everything that must be byte-identical between repeats."""
    return {
        "run_time": result.run_time,
        "events": result.events,
        "stale_reads": result.stale_reads,
        "stats": result.stats,
    }


def _digest(fingerprint: dict) -> str:
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_config(name: str, repeats: int = 3) -> dict:
    """Measure one pinned configuration.

    Returns a record with throughput (best of ``repeats``) and the
    result digest.  Raises :class:`PerfDivergence` if any repeat's
    results differ from the first run's -- the determinism guarantee the
    kernel optimizations must preserve.
    """
    from repro.system.builder import System
    from repro.system.simulation import collect_result

    spec = PERF_CONFIGS[name]
    experiment = Experiment.from_dict(spec)
    fingerprint = None
    best_wall = None
    for _ in range(max(1, repeats)):
        workload = experiment.build_workload()
        system = System(experiment.config)
        programs = workload.compile(system)
        system.load_programs(programs)
        start = time.perf_counter()
        run_time = system.run(max_events=experiment.max_events)
        wall = time.perf_counter() - start
        result = collect_result(system, run_time)
        current = _result_fingerprint(result)
        if fingerprint is None:
            fingerprint = current
        elif current != fingerprint:
            raise PerfDivergence(
                f"perf config {name!r}: repeated runs diverged "
                f"(run_time {current['run_time']} vs "
                f"{fingerprint['run_time']}, events {current['events']} vs "
                f"{fingerprint['events']})"
            )
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "events": fingerprint["events"],
        "run_time": fingerprint["run_time"],
        "stale_reads": fingerprint["stale_reads"],
        "stats_sha256": _digest(fingerprint),
        "wall_s": round(best_wall, 6),
        "events_per_sec": round(fingerprint["events"] / best_wall),
    }


def profile_config(name: str, top: int = 25, sort: str = "cumulative",
                   stream=None) -> None:
    """Run one pinned configuration under :mod:`cProfile`.

    Prints the ``top`` entries by the given sort key (build and compile
    happen outside the profiled region, like the timed runs), so perf
    work starts from measured hot spots instead of guesses::

        repro-bench perf --profile ycsb-c
    """
    import cProfile
    import pstats

    from repro.system.builder import System

    spec = PERF_CONFIGS[name]
    experiment = Experiment.from_dict(spec)
    workload = experiment.build_workload()
    system = System(experiment.config)
    programs = workload.compile(system)
    system.load_programs(programs)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(max_events=experiment.max_events)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)


def measure_store_lookup(config: str = "litmus", lookups: int = 200,
                         repeats: int = 5) -> dict:
    """Measure the persistent store's hit path on one pinned config.

    Simulates the config once, persists it into a throwaway
    :class:`~repro.api.store.ResultStore`, then times ``lookups`` warm
    ``get`` calls (full read: open, JSON parse, digest verification,
    result rebuild), best of ``repeats`` passes.  This is the per-point
    overhead a fully warm campaign pays instead of a simulation, tracked
    in ``BENCH_kernel.json``'s ``store`` section so cache-path
    regressions are visible next to kernel throughput.
    """
    import os
    import tempfile

    from repro.api.backends import execute_experiment
    from repro.api.store import ResultStore

    experiment = Experiment.from_dict(PERF_CONFIGS[config])
    result = execute_experiment(experiment)
    spec_hash = experiment.spec_hash()
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        path = store.put(spec_hash, result, experiment)
        entry_bytes = os.path.getsize(path)
        best = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for _ in range(lookups):
                hit = store.get(spec_hash)
            elapsed = time.perf_counter() - start
            if hit is None:
                raise AssertionError("store lookup missed its own entry")
            if best is None or elapsed < best:
                best = elapsed
    return {
        "config": config,
        "entry_bytes": entry_bytes,
        "lookups": lookups,
        "lookup_us": round(best / lookups * 1e6, 1),
        "lookups_per_sec": round(lookups / best),
    }


def run_suite(names: Optional[Iterable[str]] = None,
              repeats: int = 3) -> dict:
    """Measure a set of pinned configurations (all of them by default)."""
    names = list(names) if names is not None else list(PERF_CONFIGS)
    unknown = [n for n in names if n not in PERF_CONFIGS]
    if unknown:
        raise KeyError(
            f"unknown perf configs {unknown}; "
            f"pinned: {', '.join(PERF_CONFIGS)}"
        )
    return {
        "schema": SCHEMA,
        "configs": {name: run_config(name, repeats=repeats)
                    for name in names},
    }


def check_against_baseline(current: dict, baseline: dict,
                           tolerance: float = 0.30) -> List[str]:
    """Compare a fresh measurement against a checked-in baseline.

    Returns a list of human-readable failures:

    * a config's result digest changed (the simulation now computes
      different results -- machine-independent, always an error);
    * a config's events/sec dropped more than ``tolerance`` below the
      baseline (machine-dependent; gate CI runners accordingly).
    """
    failures = []
    for name, cur in current["configs"].items():
        base = baseline.get("configs", {}).get(name)
        if base is None:
            continue
        if cur["stats_sha256"] != base.get("stats_sha256"):
            failures.append(
                f"{name}: simulation results changed "
                f"(digest {cur['stats_sha256'][:12]} != "
                f"baseline {base.get('stats_sha256', '?')[:12]})"
            )
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if cur["events_per_sec"] < floor:
            failures.append(
                f"{name}: events/sec regressed to {cur['events_per_sec']:,} "
                f"(baseline {base['events_per_sec']:,}, floor {floor:,.0f})"
            )
    return failures


def _speedup_sections(baseline: Optional[dict]) -> List:
    """The (label, configs) speedup columns a baseline record provides.

    A tracked file (``BENCH_kernel.json``) carries the seed measurement
    in ``baseline`` and one snapshot per past optimization PR in
    ``history``; each becomes a column, plus the file's current
    ``configs`` as ``vs-last`` -- the per-config trajectory.  A plain
    measurement record (``--output`` of an earlier run) yields the
    single classic ``speedup`` column.
    """
    if baseline is None:
        return []
    sections = []
    base_configs = baseline.get("baseline", {}).get("configs")
    history = baseline.get("history", {})
    if base_configs or history:
        if base_configs:
            sections.append(("vs-seed", base_configs))
        for key in sorted(history):
            configs = history[key].get("configs")
            if configs:
                sections.append((f"vs-{key}", configs))
        if baseline.get("configs"):
            sections.append(("vs-last", baseline["configs"]))
    elif baseline.get("configs"):
        sections.append(("speedup", baseline["configs"]))
    return sections


def format_report(record: dict, baseline: Optional[dict] = None) -> str:
    """A fixed-width table of one measurement (vs. a baseline if given).

    With a tracked baseline file the table grows one speedup column per
    stored section (seed baseline, each ``history`` snapshot, the last
    recorded measurement), so ``repro-bench perf`` shows where each
    config's throughput stands in the kernel's PR-by-PR trajectory.
    Ratios against checked-in numbers are machine-dependent; they are
    only exact when the sections were measured on this machine.
    """
    sections = _speedup_sections(baseline)
    lines = [f"{'config':<16} {'events':>10} {'run_time':>10} "
             f"{'wall (s)':>9} {'events/sec':>12}"
             + "".join(f"  {label:>8}" for label, _ in sections)]
    for name, cur in record["configs"].items():
        cells = ""
        for _, configs in sections:
            base = configs.get(name)
            if base and base.get("events_per_sec"):
                ratio = cur["events_per_sec"] / base["events_per_sec"]
                cells += f"  {ratio:>7.2f}x"
            else:
                cells += f"  {'-':>8}"
        lines.append(
            f"{name:<16} {cur['events']:>10,} {cur['run_time']:>10,} "
            f"{cur['wall_s']:>9.3f} {cur['events_per_sec']:>12,}{cells}"
        )
    return "\n".join(lines)


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_record(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def update_tracked_file(path: str, record: dict) -> dict:
    """Refresh the tracked benchmark file (``BENCH_kernel.json``) in place.

    Preserves the file's ``description`` and ``baseline`` section,
    merges the new measurements over any configs not re-measured, and
    recomputes ``speedup_vs_baseline`` -- so the checked-in schema that
    ``benchmarks/perf/test_perf.py`` requires can be regenerated with
    ``repro-bench perf --update BENCH_kernel.json``.
    """
    try:
        existing = load_baseline(path)
    except FileNotFoundError:
        existing = {}
    merged = dict(existing.get("configs", {}))
    merged.update(record["configs"])
    out = {"schema": SCHEMA, "configs": merged}
    # Preserve every hand-maintained section (description, baseline,
    # history, ...); only the fresh measurements are regenerated.
    for key, value in existing.items():
        if key not in ("schema", "configs"):
            out[key] = value
    base_configs = out.get("baseline", {}).get("configs", {})
    for name, cur in merged.items():
        base = base_configs.get(name)
        # A speedup only compares runs of the same simulation: a config
        # whose digest moved since the baseline gets no ratio.
        if (base and base.get("events_per_sec")
                and base.get("stats_sha256") == cur["stats_sha256"]):
            cur["speedup_vs_baseline"] = round(
                cur["events_per_sec"] / base["events_per_sec"], 2)
        else:
            cur.pop("speedup_vs_baseline", None)
    write_record(path, out)
    return out


def build_perf_parser():
    """The ``repro-bench perf`` argument parser (shared with the CLI's
    help snapshot, see :func:`repro.api.cli.help_snapshot`)."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro-bench perf")
    parser.add_argument("--quick", action="store_true",
                        help="measure only the smoke configs "
                             f"({', '.join(QUICK_CONFIGS)})")
    parser.add_argument("--configs", default=None,
                        help="comma-separated pinned config names")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--check", metavar="BASELINE_JSON", default=None,
                        help="fail if results diverge from, or events/sec "
                             "regresses more than --tolerance below, this "
                             "baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional events/sec regression "
                             "for --check (default 0.30)")
    parser.add_argument("--output", metavar="JSON", default=None,
                        help="write the raw measurement record to this file")
    parser.add_argument("--update", metavar="TRACKED_JSON", default=None,
                        help="refresh a tracked benchmark file in place, "
                             "preserving its baseline section and "
                             "recomputing speedups (use for "
                             "BENCH_kernel.json)")
    parser.add_argument("--profile", metavar="CONFIG", default=None,
                        help="run one pinned config under cProfile and "
                             "print the top --profile-top entries by "
                             "cumulative time, then exit")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="entries to print with --profile (default 25)")
    parser.add_argument("--store-bench", action="store_true",
                        help="measure the persistent store's hit-path "
                             "lookup latency instead of kernel "
                             "throughput; with --update, refreshes only "
                             "the tracked file's 'store' section")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-bench perf`` subcommand."""
    parser = build_perf_parser()
    args = parser.parse_args(argv)

    if args.store_bench:
        bench = measure_store_lookup(repeats=max(1, args.repeats))
        print(f"store-hit lookup ({bench['config']} entry, "
              f"{bench['entry_bytes']:,} bytes): "
              f"{bench['lookup_us']} us/lookup, "
              f"{bench['lookups_per_sec']:,} lookups/sec")
        if args.output:
            write_record(args.output, {"schema": SCHEMA, "store": bench})
            print(f"wrote {args.output}")
        if args.update:
            try:
                tracked = load_baseline(args.update)
            except FileNotFoundError:
                tracked = {"schema": SCHEMA, "configs": {}}
            tracked["store"] = bench
            write_record(args.update, tracked)
            print(f"updated {args.update} (store section only)")
        return 0

    if args.profile:
        if args.profile not in PERF_CONFIGS:
            parser.error(f"unknown perf config {args.profile!r}; "
                         f"pinned: {', '.join(PERF_CONFIGS)}")
        profile_config(args.profile, top=args.profile_top)
        return 0

    if args.configs:
        names = [n.strip() for n in args.configs.split(",") if n.strip()]
    elif args.quick:
        names = list(QUICK_CONFIGS)
    else:
        names = list(PERF_CONFIGS)

    record = run_suite(names, repeats=args.repeats)
    baseline = load_baseline(args.check) if args.check else None
    display = baseline
    if display is None:
        # Default trajectory view: the tracked file's baseline/history
        # sections, when it is present where the command runs.
        try:
            display = load_baseline(TRACKED_FILE)
        except (FileNotFoundError, ValueError):
            display = None
    print(format_report(record, display))
    if display is not None and display is not baseline \
            and _speedup_sections(display):
        print(f"(speedup columns from {TRACKED_FILE} sections; ratios "
              f"are machine-dependent)")
    if args.output:
        write_record(args.output, record)
        print(f"wrote {args.output}")
    if args.update:
        update_tracked_file(args.update, record)
        print(f"updated {args.update}")
        print("note: speedup_vs_baseline compares against the stored "
              "baseline measurements; ratios are only meaningful when "
              "the baseline was measured on this machine (ideally "
              "interleaved in the same session).")
    if baseline is not None:
        failures = check_against_baseline(record, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(f"ok: within {args.tolerance:.0%} of {args.check}")
    return 0
