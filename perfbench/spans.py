"""Traced mode: spans around the public calls into each layer, plus a
per-module cProfile split of the simulation phase.

Nothing here edits the program.  :class:`Spans` installs wrappers from
outside (class methods and module attributes the program looks up at
call time) and removes them again; untraced runs never install any.
Spans live in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Modules of the simulation phase whose self time and call counts the
#: traced run reports; every other frame is grouped as ``other``.
PROFILED_MODULES = (
    "sim.kernel", "sim.component", "sim.messages", "sim.stats",
    "memory.l1", "memory.llc", "memory.mshr", "memory.cache",
    "memory.memory_controller", "memory.versioned", "memory.scope_buffer",
    "host.core", "host.entry_point", "host.program", "host.policies",
    "pim.module", "pim.crossbar", "pim.database",
    "core.scope", "core.litmus", "core.models", "builtins",
)


def module_of(filename: str) -> str:
    """The :data:`PROFILED_MODULES` name a profiled frame belongs to."""
    if filename == "~":
        return "builtins"
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    name = filename[at + len(marker):]
    if name.endswith(".py"):
        name = name[:-3]
    name = name.replace(os.sep, ".")
    return name if name in PROFILED_MODULES else "other"


# One span: (op id, span id, parent span id, name, start s, end s).
Span = Tuple[int, int, int, str, float, float]


class Spans:
    """An in-memory span recorder with the wrappers that feed it.

    ``profile=True`` also runs the calls named as simulation phase under
    one :class:`cProfile.Profile` (enabled on the outermost such call,
    so nested calls do not switch it off early).
    """

    def __init__(self, profile: bool = False) -> None:
        self.records: List[Span] = []
        self._stack: List[int] = [0]
        self._next = 1
        self._undo: List[Tuple[object, str, object]] = []
        self.op = 0
        self._in_op = False
        self.profiler = cProfile.Profile() if profile else None
        self._profiling = 0
        self.profiled_any = False
        #: Simulated events inside the profiled section.
        self.profiled_events = 0

    # -- recording ------------------------------------------------------- #

    def call(self, name: str, fn: Callable, *args, profiled: bool = False,
             **kwargs):
        """Run ``fn`` inside a span named ``name`` (only within an op:
        calls the benchmark itself makes between ops are not recorded)."""
        if not self._in_op:
            return fn(*args, **kwargs)
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        profile = profiled and self.profiler is not None
        if profile:
            if not self._profiling:
                self.profiler.enable()
                self.profiled_any = True
            self._profiling += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if profile:
                self._profiling -= 1
                if not self._profiling:
                    self.profiler.disable()
            self._stack.pop()
            self.records.append((self.op, sid, parent, name, start, end))

    def wrap(self, owner, attr: str, name: str, profiled: bool = False,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, args)`` runs on the result inside the span, for
        wrappers that must also instrument what the call returns.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if after is None:
                return self.call(name, original, *args, profiled=profiled,
                                 **kwargs)

            def body():
                result = original(*args, **kwargs)
                after(result, args)
                return result
            return self.call(name, body, profiled=profiled)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public calls into each layer of the program."""
        import repro.analysis.report as report
        import repro.fuzz.corpus as corpus
        import repro.fuzz.harness as harness
        import repro.fuzz.oracle as oracle
        import repro.system.simulation as simulation
        from repro.api.experiment import Experiment
        from repro.api.runner import Runner
        from repro.api.store import ResultStore
        from repro.api.sweep import Campaign, CampaignResult
        from repro.system.builder import System

        def wrap_compile(workload, _args) -> None:
            workload.compile = functools.partial(
                self.call, "workloads.compile", workload.compile)

        def count_events(_cycle, args) -> None:
            self.profiled_events += args[0].sim.events_executed

        self.wrap(Experiment, "spec_hash", "api.spec_hash")
        self.wrap(ResultStore, "get", "api.store_get")
        self.wrap(ResultStore, "put", "api.store_put")
        self.wrap(Campaign, "points", "api.sweep_points")
        self.wrap(CampaignResult, "digest", "api.campaign_digest")
        self.wrap(Runner, "run_settled", "api.runner")
        self.wrap(Runner, "run_all", "api.runner")
        self.wrap(report, "campaign_markdown", "analysis.report")
        self.wrap(Experiment, "build_workload", "workloads.build",
                  after=wrap_compile)
        self.wrap(System, "run", "system.run", profiled=True,
                  after=count_events)
        self.wrap(System, "load_programs", "system.load")
        self.wrap(simulation, "System", "system.build")
        self.wrap(simulation, "collect_result", "system.collect")
        self.wrap(harness, "generate_batch", "fuzz.generate")
        self.wrap(oracle, "check_program", "fuzz.oracle", profiled=True)
        self.wrap(oracle, "check_coherence", "fuzz.coherence",
                  profiled=True)
        self.wrap(harness, "corpus_entry", "fuzz.corpus", profiled=True)
        self.wrap(corpus.FuzzCorpus, "add", "fuzz.corpus_write")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def op_span(self, op: int, fn: Callable, *args):
        """Run one benchmark op as the root span of its own id."""
        self.op = op
        self._in_op = True
        try:
            return self.call("op", fn, *args)
        finally:
            self._in_op = False

    # -- analysis -------------------------------------------------------- #

    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus the time its children cover.

        Children of one span run one after another (one thread), so
        their durations add without overlap.
        """
        child = {}
        for _op, _sid, parent, _name, start, end in self.records:
            child[parent] = child.get(parent, 0.0) + (end - start)
        return {sid: (end - start) - child.get(sid, 0.0)
                for _op, sid, _parent, _name, start, end in self.records}

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer span metrics (see README.md).

        Per-call means for calls into a layer; per-op means for the
        runner's own time and what no span covers; per-program means
        for the fuzz legs (zero when no program ran).
        """
        total: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        roots = {sid for _op, sid, _p, name, _s, _e in self.records
                 if name == "op"}
        controls = 0.0
        for _op, _sid, parent, name, start, end in self.records:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if name == "fuzz.coherence" and parent in roots:
                controls += end - start
        selfs = self.self_times()
        runner_self = sum(selfs[sid] for _op, sid, _p, name, _s, _e
                          in self.records if name == "api.runner")
        uncovered = sum(selfs[sid] for sid in roots)
        programs = calls.get("fuzz.generate", 0)

        def per_call(name: str, scale: float) -> float:
            return total.get(name, 0.0) * scale / calls[name] \
                if calls.get(name) else 0.0

        def per_op(seconds: float) -> float:
            return seconds * 1e3 / len(roots) if roots else 0.0

        def per_program(seconds: float) -> float:
            return seconds * 1e3 / programs if programs else 0.0

        return {
            "api.spec_hash_us": per_call("api.spec_hash", 1e6),
            "api.store_get_us": per_call("api.store_get", 1e6),
            "api.store_put_ms": per_call("api.store_put", 1e3),
            "api.sweep_points_ms": per_call("api.sweep_points", 1e3),
            "api.campaign_digest_ms": per_call("api.campaign_digest", 1e3),
            "api.runner_other_ms": per_op(runner_self),
            "analysis.report_ms": per_call("analysis.report", 1e3),
            "workloads.build_ms": per_call("workloads.build", 1e3),
            "workloads.compile_ms": per_call("workloads.compile", 1e3),
            "system.build_ms": per_call("system.build", 1e3),
            "system.run_ms": per_call("system.run", 1e3),
            "system.collect_ms": per_call("system.collect", 1e3),
            "fuzz.generate_ms": per_call("fuzz.generate", 1e3),
            "fuzz.oracle_ms": per_call("fuzz.oracle", 1e3),
            "fuzz.controls_ms": per_program(controls),
            "fuzz.corpus_ms": per_program(total.get("fuzz.corpus", 0.0)),
            "fuzz.timing_ms": per_program(total.get("api.runner", 0.0)),
            "trace.uncovered_ms": per_op(uncovered),
            "trace.op_ms": per_op(total.get("op", 0.0)),
        }

    def profile_metrics(self) -> Dict[str, float]:
        """``self_share.<module>`` and ``calls_per_event.<module>``."""
        self_time = {m: 0.0 for m in PROFILED_MODULES + ("other",)}
        calls = {m: 0 for m in self_time}
        if self.profiled_any:
            stats = pstats.Stats(self.profiler).stats
            for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) \
                    in stats.items():
                module = module_of(filename)
                self_time[module] += tt
                calls[module] += nc
        grand = sum(self_time.values())
        events = self.profiled_events
        out: Dict[str, float] = {}
        for module in self_time:
            out[f"self_share.{module}"] = \
                self_time[module] / grand if grand else 0.0
        for module in calls:
            out[f"calls_per_event.{module}"] = \
                calls[module] / events if events else 0.0
        return out

    def write(self, path: str) -> None:
        """Write every span once, as a JSON list (times in microseconds)."""
        t0 = min((r[4] for r in self.records), default=0.0)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([
                {"op": op, "id": sid, "parent": parent, "name": name,
                 "start_us": round((start - t0) * 1e6, 1),
                 "end_us": round((end - t0) * 1e6, 1)}
                for op, sid, parent, name, start, end in self.records
            ], handle)
            handle.write("\n")
