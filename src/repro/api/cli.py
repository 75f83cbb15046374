"""``repro-bench``: run experiment sweeps from the command line.

The subcommands (``--log-level LEVEL`` before any of them, or
``$REPRO_LOG``, tunes the ``repro`` logger hierarchy)::

    repro-bench list
        Show the registered workloads and their parameters.

    repro-bench sweep list
    repro-bench sweep list-points CAMPAIGN
    repro-bench sweep run CAMPAIGN [--jobs N|auto] [--output FILE]
                          [--report FILE] [--store DIR]
                          [--timeout-s N] [--trace] [--no-progress]
        Declarative campaigns: expand a registered campaign (or a JSON
        campaign file) into its experiment grid and execute it with
        per-point failure isolation.  ``--output`` writes the campaign
        JSON artifact (results + digest), ``--report`` renders the
        figure-grade Markdown report (EXPERIMENTS.md).  ``--store DIR``
        (default: ``$REPRO_STORE``) attaches the persistent result
        store: points already on disk hydrate without simulating, fresh
        points persist as they finish, so any campaign resumes across
        sessions and only missing or previously failed points simulate.
        ``--timeout-s`` bounds each point's wall clock (a hung point
        fails settled instead of wedging the batch).  ``--trace``
        overlays stall-attribution tracing on execution (spec hashes,
        store keys and the campaign digest are unchanged; observation
        never perturbs results) so the report gains a per-point stall
        table; a progress line with ETA streams to stderr unless
        ``--no-progress``.

    repro-bench trace run WORKLOAD [--model NAME] [--num-scopes N]
                          [--param key=value ...] [--preset scaled|paper]
                          [--ring N] [--flight] [--max-events N]
                          [--output FILE]
    repro-bench trace report DUMP.json
    repro-bench trace export DUMP.json [--output FILE] [--validate]
        Observability (:mod:`repro.obs`): ``run`` executes one
        experiment with the event ring enabled and writes a trace dump
        (spec + obs payload: per-event records and stall attribution);
        ``report`` summarizes a dump as text tables (ring retention,
        stalls per component); ``export`` converts a dump to Chrome
        trace-event JSON loadable in Perfetto / ``chrome://tracing``
        (``--validate`` schema-checks the result, as CI does).  See
        ``docs/observability.md``.

    repro-bench fuzz run [--seed N] [--programs N] [--max-ops N]
                         [--rounds N] [--jobs N|auto] [--store DIR]
                         [--artifacts DIR] [--output FILE] [--no-timing]
                         [--no-corpus] [--weaken MODE] [--trace]
    repro-bench fuzz replay [--store DIR] [--artifacts DIR] [--jobs N]
                            [--no-timing]
    repro-bench fuzz corpus [--store DIR] [--artifacts DIR]
        Differential litmus fuzzing (:mod:`repro.fuzz`): ``run``
        generates a seeded scenario batch, checks the strength-lattice,
        happens-before and simulator-agreement invariants, shrinks any
        violation to a minimal JSON repro under ``DIR/fuzz/repros/``
        and banks surviving scenarios with their outcome fingerprints
        into the ``DIR/fuzz/corpus/`` regression corpus; the report is
        byte-identical across backends for a fixed seed.  ``replay``
        re-checks every banked entry and exits nonzero on drift;
        ``corpus`` summarizes what is banked.  ``--weaken`` breaks a
        mechanism on purpose (oracle self-test).  ``--trace`` arms the
        flight recorder: each shrunk timing violation re-runs with the
        event ring on and the snapshot leading up to the firing
        invariant lands under ``DIR/fuzz/flight/``.

    repro-bench store stats|verify [--store DIR]
    repro-bench store prune [--store DIR] [--max-age-days N] [--stale]
                            [--fingerprint FP]
        Inspect the persistent store, or garbage-collect it by age or by
        code fingerprint.

Examples::

    repro-bench sweep run smoke --jobs 2 --output smoke.json
    repro-bench sweep run paper-grid --jobs auto --report EXPERIMENTS.md
    repro-bench sweep run paper-grid --store ~/.cache/repro-store
    repro-bench store stats --store ~/.cache/repro-store
    repro-bench trace run tpch --param query=q6 --param scale=0.015625

For YCSB, ``trace run`` defaults ``num_records`` to ``2000 *
num_scopes`` (the benchmark harness's scaled sweep density) unless given
via ``--param``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Dict, List, Optional, Sequence

from repro.api.backends import backend_for
from repro.api.experiment import Experiment
from repro.api.registry import REGISTRY
from repro.core.models import ConsistencyModel

#: Figure order for --model all (the six models of the evaluation sweeps).
DEFAULT_MODELS = ["naive", "sw-flush", "atomic", "store", "scope",
                  "scope-relaxed"]

#: Records per scope used when a YCSB trace doesn't pin num_records.
YCSB_RECORDS_PER_SCOPE = 2000


def _parse_value(text: str):
    """Best-effort literal parsing: ints, floats, bools, None, else str."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _parse_models(text: str) -> List[ConsistencyModel]:
    names = DEFAULT_MODELS if text == "all" else [
        t.strip() for t in text.split(",") if t.strip()
    ]
    try:
        return [ConsistencyModel(name) for name in names]
    except ValueError as exc:
        raise SystemExit(
            f"{exc}; valid models: "
            f"{', '.join(m.value for m in ConsistencyModel)}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run PIM consistency-model experiment sweeps.",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        choices=("debug", "info", "warning", "error",
                                 "critical"),
                        help="verbosity of the 'repro' logger hierarchy "
                             "(overrides $REPRO_LOG; default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads")

    sweep = sub.add_parser("sweep", help="declarative campaign sweeps")
    ssub = sweep.add_subparsers(dest="sweep_command", required=True)
    ssub.add_parser("list", help="list registered campaigns")
    points = ssub.add_parser("list-points",
                             help="show a campaign's expanded points")
    points.add_argument("campaign",
                        help="registered campaign name or JSON campaign file")
    srun = ssub.add_parser("run", help="execute a campaign")
    srun.add_argument("campaign",
                      help="registered campaign name or JSON campaign file")
    srun.add_argument("--jobs", default="1", metavar="N|auto",
                      help="worker processes; 'auto' uses every core")
    srun.add_argument("--output", default=None, metavar="FILE",
                      help="write the campaign JSON artifact "
                           "(results + digest)")
    srun.add_argument("--report", default=None, metavar="FILE",
                      help="write the Markdown report (EXPERIMENTS.md)")
    srun.add_argument("--append", action="store_true",
                      help="append to --report instead of overwriting "
                           "(stacks several campaigns into one file)")
    srun.add_argument("--store", default=None, metavar="DIR",
                      help="persistent result store directory (default: "
                           "$REPRO_STORE); stored points hydrate without "
                           "simulating, fresh points persist as they "
                           "finish")
    srun.add_argument("--timeout-s", type=float, default=None, metavar="N",
                      help="per-point wall-clock budget; a hung point "
                           "fails settled instead of wedging the batch")
    srun.add_argument("--trace", action="store_true",
                      help="overlay stall-attribution tracing on "
                           "execution (no event ring; spec hashes and "
                           "the campaign digest are unchanged) and add "
                           "the stall table to the output and --report")
    srun.add_argument("--no-progress", action="store_true",
                      help="suppress the stderr progress line "
                           "(points done/total with ETA)")

    trace = sub.add_parser("trace",
                           help="record, report and export simulation "
                                "traces (repro.obs)")
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    trun = tsub.add_parser("run",
                           help="run one experiment with tracing on "
                                "and write the trace dump JSON")
    trun.add_argument("workload", help="registered workload name")
    trun.add_argument("--model", default="atomic",
                      help="consistency model for the traced run")
    trun.add_argument("--num-scopes", type=int, default=None, metavar="N",
                      help="scope count (default: 4; for tpch, the "
                           "query's scaled scope count)")
    trun.add_argument("--param", action="append", default=[],
                      metavar="KEY=VALUE", help="workload parameter")
    trun.add_argument("--preset", default="scaled",
                      choices=("scaled", "paper"),
                      help="base system configuration")
    trun.add_argument("--ring", type=int, default=65536, metavar="N",
                      help="event ring capacity (oldest records drop "
                           "when full; 0 keeps stalls only)")
    trun.add_argument("--flight", action="store_true",
                      help="arm the flight recorder: snapshot the ring "
                           "the first time an invariant fires")
    trun.add_argument("--max-events", type=int, default=200_000_000)
    trun.add_argument("--variant", default="cli")
    trun.add_argument("--output", default="trace.json", metavar="FILE",
                      help="trace dump file to write")
    treport = tsub.add_parser("report",
                              help="summarize a trace dump as text "
                                   "tables")
    treport.add_argument("dump", help="trace dump file (from trace run)")
    texport = tsub.add_parser("export",
                              help="convert a trace dump to Chrome "
                                   "trace-event JSON (Perfetto)")
    texport.add_argument("dump", help="trace dump file (from trace run)")
    texport.add_argument("--output", default=None, metavar="FILE",
                         help="Chrome trace file to write (default: "
                              "<dump>.chrome.json)")
    texport.add_argument("--validate", action="store_true",
                         help="schema-check the exported file (the CI "
                              "trace-smoke gate)")

    from repro.fuzz.oracle import WEAKEN_CHOICES

    fuzz = sub.add_parser("fuzz",
                          help="differential litmus fuzzing of the "
                               "consistency models")
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)
    frun = fsub.add_parser("run",
                           help="generate scenarios, check invariants, "
                                "shrink violations, bank survivors")
    frun.add_argument("--seed", type=int, default=0, metavar="N",
                      help="root generator seed (the whole run is a "
                           "pure function of it)")
    frun.add_argument("--programs", type=int, default=50, metavar="N",
                      help="scenario batch size")
    frun.add_argument("--max-ops", type=int, default=None, metavar="N",
                      help="cap each scenario's operation count")
    frun.add_argument("--rounds", type=int, default=2, metavar="N",
                      help="timing-workload repetitions per scenario")
    frun.add_argument("--jobs", default="1", metavar="N|auto",
                      help="worker processes for the timing leg")
    frun.add_argument("--store", default=None, metavar="DIR",
                      help="result store directory (default: "
                           "$REPRO_STORE); also the default corpus root")
    frun.add_argument("--artifacts", default=None, metavar="DIR",
                      help="corpus/repro root (default: the store root)")
    frun.add_argument("--output", default=None, metavar="FILE",
                      help="write the deterministic JSON run report")
    frun.add_argument("--no-timing", action="store_true",
                      help="skip the timing-simulator agreement leg")
    frun.add_argument("--no-corpus", action="store_true",
                      help="do not bank survivors or repros on disk")
    frun.add_argument("--weaken", default=None, choices=WEAKEN_CHOICES,
                      help="deliberately break a mechanism (oracle "
                           "self-test; violations are expected and the "
                           "command exits nonzero)")
    frun.add_argument("--trace", action="store_true",
                      help="flight-recorder mode: re-run each shrunk "
                           "timing violation with the event ring armed "
                           "and dump the snapshot under "
                           "<artifacts>/fuzz/flight/")
    freplay = fsub.add_parser("replay",
                              help="re-check every banked corpus entry "
                                   "(regression suite)")
    freplay.add_argument("--store", default=None, metavar="DIR",
                         help="store directory (default: $REPRO_STORE)")
    freplay.add_argument("--artifacts", default=None, metavar="DIR",
                         help="corpus root (default: the store root)")
    freplay.add_argument("--jobs", default="1", metavar="N|auto",
                         help="worker processes for timing re-runs")
    freplay.add_argument("--no-timing", action="store_true",
                         help="skip re-simulating recorded stale counts")
    fcorpus = fsub.add_parser("corpus",
                              help="summarize the banked corpus and "
                                   "minimal repros")
    fcorpus.add_argument("--store", default=None, metavar="DIR",
                         help="store directory (default: $REPRO_STORE)")
    fcorpus.add_argument("--artifacts", default=None, metavar="DIR",
                         help="corpus root (default: the store root)")

    store = sub.add_parser("store",
                           help="inspect and maintain the persistent "
                                "result store")
    stsub = store.add_subparsers(dest="store_command", required=True)
    for name, doc in (("stats", "entry counts, size, fingerprints"),
                      ("verify", "check every entry's integrity"),
                      ("prune", "garbage-collect entries")):
        sp = stsub.add_parser(name, help=doc)
        sp.add_argument("--store", default=None, metavar="DIR",
                        help="store directory (default: $REPRO_STORE)")
        if name == "prune":
            sp.add_argument("--max-age-days", type=float, default=None,
                            metavar="N",
                            help="remove entries older than N days")
            sp.add_argument("--stale", action="store_true",
                            help="remove entries written by other code "
                                 "fingerprints (results the current "
                                 "simulator can never serve)")
            sp.add_argument("--fingerprint", default=None, metavar="FP",
                            help="remove entries written under exactly "
                                 "this code fingerprint")
            sp.add_argument("--dry-run", action="store_true",
                            help="list what would be pruned without "
                                 "removing anything")
    return parser


def help_snapshot() -> str:
    """Every ``repro-bench`` help screen as one Markdown document.

    Rendered at a pinned 80-column width (argparse wraps at the terminal
    width, which ``COLUMNS`` overrides) so the output is byte-stable
    across machines.  ``docs/cli.md`` is this snapshot checked in;
    ``tests/docs`` regenerates it in memory and fails on drift, so a
    flag change cannot land without its documentation.
    """
    import os

    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        lines: List[str] = [
            "# `repro-bench` command reference",
            "",
            "Generated from the argparse definitions -- do not edit by",
            "hand.  Regenerate (under Python 3.11) with:",
            "",
            "```",
            "PYTHONPATH=src python -c \"from repro.api.cli import "
            "write_help_snapshot; write_help_snapshot('docs/cli.md')\"",
            "```",
            "",
        ]

        def emit(parser: argparse.ArgumentParser) -> None:
            lines.extend([f"## `{parser.prog}`", "", "```",
                          parser.format_help().rstrip("\n"), "```", ""])
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        emit(sub)

        emit(_build_parser())
        return "\n".join(lines)
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved


def write_help_snapshot(path: str) -> None:
    """Write :func:`help_snapshot` to ``path`` (see ``docs/cli.md``)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(help_snapshot())


def _cmd_list() -> int:
    descriptions = REGISTRY.describe()
    width = max(len(name) for name in descriptions)
    print("Registered workloads:")
    for name, doc in descriptions.items():
        print(f"  {name:<{width}}  {doc}")
    return 0


def _default_scopes(workload: str, params: Dict[str, object]) -> int:
    """A scope count that actually fits the workload's parameters.

    TPC-H queries pin their own scope need (Table IV x scale), so a
    traced system must have at least that many; everything else
    defaults to 4.
    """
    if workload == "tpch":
        workload_obj = REGISTRY.create("tpch", params)
        return workload_obj.scaled_scopes()
    return 4


def _load_campaign(name: str):
    """A campaign by registered name, or from a JSON campaign file."""
    import json
    import os

    from repro.api.sweep import Campaign, campaign_names, get_campaign

    if os.path.exists(name) or name.endswith(".json"):
        try:
            with open(name, "r", encoding="utf-8") as handle:
                return Campaign.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load campaign file {name!r}: {exc}") \
                from None
    try:
        return get_campaign(name)
    except ValueError:
        raise SystemExit(
            f"unknown campaign {name!r}; registered: "
            f"{', '.join(campaign_names())} (or pass a JSON campaign file)"
        ) from None


def _parse_jobs(text: str) -> int:
    import os

    if text == "auto":
        return os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        raise SystemExit(f"--jobs expects an integer or 'auto', got {text!r}")
    if jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    return jobs


def _cmd_sweep_list() -> int:
    from repro.api.sweep import campaign_names, get_campaign

    print("Registered campaigns:")
    width = max(len(name) for name in campaign_names())
    for name in campaign_names():
        campaign = get_campaign(name)
        print(f"  {name:<{width}}  {len(campaign.points())} points -- "
              f"{campaign.title}")
    return 0


def _cmd_sweep_list_points(args: argparse.Namespace) -> int:
    campaign = _load_campaign(args.campaign)
    points = campaign.points()
    seen: Dict[str, str] = {}
    print(f"{campaign.name}: {len(points)} points")
    for point in points:
        spec = point.experiment.spec_hash()
        dup = f"  (= {seen[spec]})" if spec in seen else ""
        seen.setdefault(spec, point.name)
        print(f"  {spec}  {point.name}{dup}")
    return 0


def _store_from_args(args: argparse.Namespace):
    """The ResultStore selected by --store or $REPRO_STORE, or None."""
    from repro.api.store import ResultStore

    if getattr(args, "store", None):
        return ResultStore(args.store)
    return ResultStore.from_env()


def _require_store(args: argparse.Namespace):
    store = _store_from_args(args)
    if store is None:
        raise SystemExit(
            "no store selected: pass --store DIR or set $REPRO_STORE")
    return store


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import (campaign_markdown, format_table,
                                       latency_table, stalls_table)
    from repro.api.runner import Runner
    from repro.api.sweep import run_campaign
    from repro.sim.config import TraceConfig

    campaign = _load_campaign(args.campaign)
    jobs = _parse_jobs(args.jobs)
    points = campaign.points()
    hashes = {p.experiment.spec_hash() for p in points}
    store = _store_from_args(args)
    backend = backend_for(jobs, timeout_s=args.timeout_s)
    print(f"campaign {campaign.name}: {len(points)} points "
          f"({len(hashes)} unique) on the {backend.name} backend"
          + (f", store {store.root}" if store is not None else ""))

    # Stall attribution only: no event ring, so traced store entries
    # stay small.  Execution-side overlay -- spec hashes, store keys
    # and the campaign digest are identical traced or not.
    trace = TraceConfig(enabled=True, ring_size=0) if args.trace else None
    progress = None if args.no_progress else _sweep_progress(len(points))

    runner = Runner(backend=backend, store=store)
    result = run_campaign(campaign, runner=runner, trace=trace,
                          progress=progress)
    headers, rows = result.table()
    print(format_table(headers, rows, title=f"{campaign.name} campaign"))
    latency = latency_table(result)
    if latency is not None:
        print(format_table(latency[0], latency[1],
                           title="arrival-to-settle latency [cycles]"))
    stalls = stalls_table(result)
    if stalls is not None:
        print(format_table(stalls[0], stalls[1],
                           title="stall attribution per traced point"))
    if campaign.slo is not None:
        slo_headers, slo_rows = result.slo_table(campaign.slo)
        if slo_rows:
            print(format_table(slo_headers, slo_rows,
                               title=campaign.slo.title))
    print(f"digest: {result.digest()}")
    if store is not None:
        print(f"store: {runner.store_hits} points hydrated from "
              f"{store.root}")
        if runner.reconciled:
            print(f"store: {runner.reconciled} failed points reconciled "
                  f"from concurrent writers")
    print(f"backend dispatches: {runner.dispatch_count}")

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_json_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote artifact {args.output}")
    if args.report is not None:
        mode = "a" if args.append else "w"
        with open(args.report, mode, encoding="utf-8") as handle:
            handle.write(campaign_markdown(result))
        verb = "appended" if args.append else "wrote"
        print(f"{verb} report {args.report}")

    for point in result.failed_points:
        last = (point.error or "").strip().splitlines()
        print(f"FAILED {point.name}: {last[-1] if last else 'unknown'}")
    return 1 if result.failed_points else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep_command == "list":
        return _cmd_sweep_list()
    if args.sweep_command == "list-points":
        return _cmd_sweep_list_points(args)
    return _cmd_sweep_run(args)


def _configure_logging(flag: Optional[str]) -> None:
    """Tune the ``repro`` logger hierarchy (idempotent, never the root).

    Precedence: ``--log-level`` beats ``$REPRO_LOG`` beats warning.
    """
    from repro.obs.logconf import configure_logging

    try:
        configure_logging(flag)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def _sweep_progress(total: int, stream=None):
    """A ``progress(n)`` callback printing done/total + ETA to stderr.

    ETA comes from a moving average over the most recent settled points
    (the first batch is usually an instant flood of cache hits, which
    the window ages out).  On a terminal the line redraws in place;
    otherwise it prints at most every couple of seconds so CI logs stay
    readable.
    """
    import collections
    import time

    stream = stream if stream is not None else sys.stderr
    live = stream.isatty()
    window = collections.deque(maxlen=32)  # (monotonic ts, points)
    state = {"done": 0, "printed": -1e9, "width": 0}

    def tick(n: int) -> None:
        now = time.monotonic()
        state["done"] += n
        done = state["done"]
        window.append((now, n))
        final = done >= total
        if not live and not final and now - state["printed"] < 2.0:
            return
        state["printed"] = now
        eta = ""
        if not final and len(window) >= 2:
            span = now - window[0][0]
            recent = sum(c for _, c in list(window)[1:])
            if span > 0 and recent > 0:
                eta = f", eta {_fmt_eta((total - done) * span / recent)}"
        line = f"sweep: {done}/{total} points{eta}"
        if live:
            state["width"] = max(state["width"], len(line))
            stream.write("\r" + line.ljust(state["width"]))
            if final:
                stream.write("\n")
        else:
            stream.write(line + "\n")
        stream.flush()

    return tick


#: Schema tag of the JSON file ``trace run`` writes.
TRACE_DUMP_SCHEMA = "repro-trace-dump/1"


def _cmd_trace_run(args: argparse.Namespace) -> int:
    import json

    from repro.api.backends import execute_experiment
    from repro.obs.trace import stall_totals
    from repro.sim.config import TraceConfig

    if args.workload not in REGISTRY.names():
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"registered: {', '.join(REGISTRY.names())}")
    models = _parse_models(args.model)
    if len(models) != 1:
        raise SystemExit("trace run traces exactly one model; pass "
                         "--model NAME (got {})".format(args.model))
    model = models[0]
    params = _parse_params(args.param)
    try:
        num_scopes = (args.num_scopes if args.num_scopes is not None
                      else _default_scopes(args.workload, params))
        if args.workload == "ycsb" and "num_records" not in params:
            params["num_records"] = YCSB_RECORDS_PER_SCOPE * num_scopes
        experiment = Experiment.from_dict({
            "workload": args.workload,
            "params": params,
            "config": {"preset": args.preset, "model": model.value,
                       "num_scopes": num_scopes},
            "variant": args.variant,
            "max_events": args.max_events,
        })
        experiment.build_workload()
    except (TypeError, KeyError, ValueError) as exc:
        raise SystemExit(
            f"invalid parameters for workload {args.workload!r}: {exc}"
        ) from None

    # Tracing rides as an execution overlay: the spec (and its hash)
    # stays exactly what an untraced run would use.
    trace = TraceConfig(enabled=True, ring_size=args.ring,
                        flight=args.flight)
    result = execute_experiment(experiment, trace=trace)
    obs = result.obs or {}
    dump = {
        "schema": TRACE_DUMP_SCHEMA,
        "spec": experiment.to_dict(),
        "spec_hash": experiment.spec_hash(),
        "result": {"run_time": result.run_time, "events": result.events,
                   "stale_reads": result.stale_reads},
        "obs": obs,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(dump, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"traced {args.workload} [{model.value}, {num_scopes} scopes]: "
          f"run_time {result.run_time}, {result.events} events, "
          f"{result.stale_reads} stale reads")
    if "events_recorded" in obs:
        print(f"ring: {len(obs.get('events', []))} records kept of "
              f"{obs['events_recorded']} recorded "
              f"({obs.get('events_dropped', 0)} dropped)")
    totals = stall_totals(obs)
    if totals:
        print("stalls: " + ", ".join(f"{r}={n}" for r, n in totals.items()))
    if obs.get("flight_triggers"):
        flight = obs.get("flight") or {}
        where = (f", snapshot at cycle {flight.get('cycle')} "
                 f"({flight.get('trigger')} in {flight.get('component')})"
                 if flight else "")
        print(f"flight recorder: {obs['flight_triggers']} trigger(s)"
              + where)
    print(f"wrote trace dump {args.output}")
    return 0


def _load_trace_dump(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load trace dump {path!r}: {exc}") \
            from None
    if not isinstance(dump, dict) or dump.get("schema") != TRACE_DUMP_SCHEMA:
        raise SystemExit(
            f"{path!r} is not a trace dump (expected schema "
            f"{TRACE_DUMP_SCHEMA!r}; write one with: repro-bench trace "
            f"run WORKLOAD --output {path})")
    return dump


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.obs.trace import STALL_REASONS

    dump = _load_trace_dump(args.dump)
    spec = dump.get("spec", {})
    config = spec.get("config", {})
    result = dump.get("result", {})
    obs = dump.get("obs", {})
    print(f"trace dump {args.dump}: {spec.get('workload', '?')} "
          f"[{config.get('model', '?')}, "
          f"{config.get('num_scopes', '?')} scopes], "
          f"spec {str(dump.get('spec_hash', '?'))[:12]}")
    print(f"result: run_time {result.get('run_time', '?')}, "
          f"{result.get('events', '?')} events, "
          f"{result.get('stale_reads', '?')} stale reads")

    if "events_recorded" in obs:
        print(f"ring: {len(obs.get('events', []))} records kept of "
              f"{obs['events_recorded']} recorded "
              f"({obs.get('events_dropped', 0)} dropped)")

    stalls = obs.get("stalls") or {}
    if stalls:
        reasons = sorted(
            {r for bucket in stalls.values() for r in bucket},
            key=lambda r: (STALL_REASONS.index(r)
                           if r in STALL_REASONS else len(STALL_REASONS),
                           r))
        rows = [[component] + [bucket.get(r, 0) for r in reasons]
                for component, bucket in sorted(stalls.items())]
        print(format_table(
            ["component"] + list(reasons), rows,
            title="stall attribution (cycles or incident counts; "
                  "see docs/observability.md)"))
    else:
        print("no stalls recorded")

    if obs.get("flight_triggers"):
        print(f"flight triggers: {obs['flight_triggers']}")
    flight = obs.get("flight")
    if flight:
        print(f"flight snapshot: {flight.get('trigger')} at cycle "
              f"{flight.get('cycle')} in {flight.get('component')} "
              f"(op {flight.get('op_id')}, "
              f"{len(flight.get('events', []))} ring records)")
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs.chrome import chrome_trace, validate_file

    dump = _load_trace_dump(args.dump)
    try:
        trace = chrome_trace(dump.get("obs") or {})
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    output = args.output
    if output is None:
        base = args.dump[:-5] if args.dump.endswith(".json") else args.dump
        output = base + ".chrome.json"
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
        handle.write("\n")
    print(f"wrote Chrome trace {output} "
          f"({len(trace['traceEvents'])} trace events; load it in "
          f"https://ui.perfetto.dev or chrome://tracing)")
    if args.validate:
        try:
            validate_file(output)
        except ValueError as exc:
            print(f"INVALID: {exc}")
            return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    return {
        "run": _cmd_trace_run,
        "report": _cmd_trace_report,
        "export": _cmd_trace_export,
    }[args.trace_command](args)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    stats = _require_store(args).stats()
    print(f"store {stats['root']}")
    print(f"  code fingerprint : {stats['fingerprint']}")
    print(f"  entries          : {stats['entries']} "
          f"({stats['current_entries']} current, "
          f"{stats['stale_entries']} stale)")
    print(f"  size             : {stats['size_bytes']:,} bytes")
    for fingerprint, count in stats["by_fingerprint"].items():
        marker = "  (current)" if fingerprint == stats["fingerprint"] else ""
        # Torn files and other layouts' entries have no fingerprint.
        label = fingerprint or "(no entry header)"
        print(f"  {label} : {count} entries{marker}")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    import os

    store = _require_store(args)
    problems = store.verify()
    quarantined = store.quarantined()
    total = sum(1 for _ in store.paths())
    if not problems and not quarantined:
        print(f"ok: {total} entries verified in {store.root}")
        return 0
    for path, problem in problems:
        print(f"BAD {path}: {problem}")
    for name in quarantined:
        print(f"QUARANTINED {name}")
    if problems:
        print(f"{len(problems)} of {total} entries failed verification")
    if quarantined:
        print(f"{len(quarantined)} corrupt entries were quarantined into "
              f"{os.path.join(store.root, 'quarantine')}; inspect them, "
              f"then remove that directory to clear this report")
    return 1


def _cmd_store_prune(args: argparse.Namespace) -> int:
    if (args.max_age_days is None and not args.stale
            and args.fingerprint is None):
        raise SystemExit(
            "nothing to prune: pass --max-age-days N, --stale "
            "and/or --fingerprint FP")
    store = _require_store(args)
    if args.dry_run:
        candidates = store.prune_candidates(
            max_age_days=args.max_age_days, stale=args.stale,
            fingerprint=args.fingerprint)
        for entry in candidates:
            print(f"would prune {entry.path}")
        print(f"would prune {len(candidates)} entries from {store.root}")
        return 0
    removed = store.prune(max_age_days=args.max_age_days, stale=args.stale,
                          fingerprint=args.fingerprint)
    print(f"pruned {removed} entries from {store.root}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    return {
        "stats": _cmd_store_stats,
        "verify": _cmd_store_verify,
        "prune": _cmd_store_prune,
    }[args.store_command](args)


def _fuzz_root(args: argparse.Namespace, store) -> Optional[str]:
    """Where fuzz artifacts live: --artifacts beats the store root."""
    if getattr(args, "artifacts", None):
        return args.artifacts
    return store.root if store is not None else None


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz.harness import fuzz_run

    store = _store_from_args(args)
    corpus_root = None if args.no_corpus else _fuzz_root(args, store)
    report = fuzz_run(
        seed=args.seed, programs=args.programs, max_ops=args.max_ops,
        jobs=_parse_jobs(args.jobs), store=store, corpus_root=corpus_root,
        timing=not args.no_timing, rounds=args.rounds, weaken=args.weaken,
        flight=args.trace)
    print(f"fuzz run: seed {report['seed']}, "
          f"{report['programs']} scenarios "
          f"({report['distinct_programs']} distinct, "
          f"{report['ops_total']} ops)"
          + (f", weakened: {args.weaken}" if args.weaken else ""))
    controls = report["controls_cyclic"]
    print(f"controls (expected-violating): "
          + ", ".join(f"{m} cyclic on {n}" for m, n in controls.items()))
    if report["timing"] is not None:
        stale = report["timing"]["stale_reads"] or {}
        print("timing stale reads: "
              + ", ".join(f"{m}={stale[m]}" for m in stale))
    print(f"{report['clean_programs']} scenarios clean, "
          f"{report['corpus_added']} banked to corpus, "
          f"{len(report['violations'])} violations")
    for violation in report["violations"]:
        print(f"VIOLATION {violation['invariant']} under "
              f"{violation['model']}: shrunk to {violation['op_count']} "
              f"ops ({violation['shrink_checks']} checks), program "
              f"{json.dumps(violation['program']['threads'])}")
    if corpus_root is not None and report["violations"]:
        print(f"minimal repros under {corpus_root}/fuzz/repros/")
    if report.get("flight_dumps"):
        print(f"{len(report['flight_dumps'])} flight-recorder dumps "
              f"under {corpus_root}/fuzz/flight/")
    print(f"report digest: {report['digest']}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report {args.output}")
    return 1 if report["violations"] else 0


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz.harness import replay_corpus

    store = _store_from_args(args)
    root = _fuzz_root(args, store)
    if root is None:
        raise SystemExit("no corpus selected: pass --store DIR, "
                         "--artifacts DIR or set $REPRO_STORE")
    report = replay_corpus(root, jobs=_parse_jobs(args.jobs), store=store,
                           timing=not args.no_timing)
    if not report["entries"]:
        print(f"corpus under {root}/fuzz/corpus is empty")
        return 0
    mismatches = report["mismatches"]
    for digest, lines in mismatches.items():
        for line in lines:
            print(f"MISMATCH {digest}: {line}")
    print(f"replayed {report['entries']} corpus entries: "
          f"{len(mismatches)} mismatched")
    return 1 if mismatches else 0


def _cmd_fuzz_corpus(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.fuzz.corpus import FuzzCorpus
    from repro.fuzz.program import FuzzProgram

    store = _store_from_args(args)
    root = _fuzz_root(args, store)
    if root is None:
        raise SystemExit("no corpus selected: pass --store DIR, "
                         "--artifacts DIR or set $REPRO_STORE")
    corpus = FuzzCorpus(root)
    rows = []
    for entry in corpus.entries():
        program = FuzzProgram.from_dict(entry["program"])
        timing = entry.get("timing_stale_reads")
        rows.append([
            entry["digest"], entry.get("seed", "?"),
            len(program.threads), len(program.slots), program.op_count,
            len(entry.get("fingerprints") or {}),
            "yes" if timing is not None else "no",
        ])
    if rows:
        print(format_table(
            ["digest", "seed", "threads", "scopes", "ops", "legs",
             "timing"],
            rows, title=f"fuzz corpus ({corpus.corpus_dir})"))
    else:
        print(f"corpus under {corpus.corpus_dir} is empty")
    repros = list(corpus.repros())
    for repro in repros:
        print(f"repro {repro['digest']}: {repro['invariant']} under "
              f"{repro['model']}, {repro['op_count']} ops "
              f"(seed {repro.get('seed', '?')})")
    flights = list(corpus.flights())
    for dump in flights:
        snapshot = dump.get("flight") or {}
        print(f"flight {dump['digest']}: {dump.get('invariant', '?')} "
              f"under {dump.get('model', '?')}, "
              f"{len(snapshot.get('events', []))} ring records")
    print(f"{len(rows)} corpus entries, {len(repros)} minimal repros, "
          f"{len(flights)} flight dumps")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    return {
        "run": _cmd_fuzz_run,
        "replay": _cmd_fuzz_replay,
        "corpus": _cmd_fuzz_corpus,
    }[args.fuzz_command](args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    if args.command == "list":
        return _cmd_list()
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "trace":
        return _cmd_trace(args)
    return _cmd_fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
