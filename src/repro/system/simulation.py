"""Run harness: execute a compiled workload and collect the paper's stats.

A *workload* object must provide::

    compile(system) -> list[ThreadProgram]   # also registers result lines

:func:`run_workload` builds the system, compiles, runs, and returns a
:class:`SimulationResult` holding the run time and every statistic the
evaluation figures need (scope-buffer hit rate, LLC scan latency, SBV
skip ratio, PIM buffer occupancy, stale reads, ...).

.. note::
   :mod:`repro.api` is the canonical front door for running experiments:
   ``Runner().run(Experiment(...))`` replaces direct ``run_workload``
   calls and adds workload registration, spec-hash caching and parallel
   backends.  ``run_workload`` remains as the single-run engine the
   backends execute (and as a compatibility shim for older callers).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.sim.config import SystemConfig, config_from_dict, config_to_dict
from repro.sim.stats import StatGroup, StatsView
from repro.system.builder import System

#: Schema tag of the serialized :class:`SimulationResult` form.  Bump it
#: whenever the dict shape changes incompatibly: deserialization rejects
#: any other tagged version, which is what keeps an on-disk result store
#: from silently serving records written by an older format.
RESULT_SCHEMA = "repro-simulation-result/1"


def result_digest(payload: Mapping[str, object]) -> str:
    """Canonical SHA-256 of one serialized result payload.

    The digest is computed over the sorted, separator-normalized JSON
    encoding, so it is independent of dict ordering, whitespace and the
    machine that produced it; the result store verifies it on every read.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run.

    Statistics are exposed two ways:

    * **typed views** -- ``result.llc``, ``result.pim``, ``result.mc``
      and the per-core/per-L1 accessors return :class:`StatsView`
      namespaces (``result.llc.hit_rate``, ``result.pim.ops_executed``,
      ``result.core(0).pim_ops``); a statistic or component the run
      never recorded reads as ``0.0``;
    * **the raw dict** -- ``result.stats`` keeps the string-keyed
      snapshot for serialization and older callers.
    """

    config: SystemConfig
    run_time: int
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    stale_reads: int = 0
    events: int = 0
    #: Observability side channel (``Tracer.export()`` payload) -- only
    #: present when the run traced.  Deliberately *not* part of any
    #: result digest: campaign digests, perfbench's goldens and the
    #: pinned default digests all hash the simulation outputs above,
    #: so tracing on or off leaves them byte-identical.
    obs: Optional[Dict[str, object]] = None

    @property
    def model_name(self) -> str:
        return self.config.model.value

    # -- typed stat views ------------------------------------------------ #

    def group(self, name: str) -> StatsView:
        """The named component's statistics (empty view if absent)."""
        return StatsView(name, self.stats.get(name))

    @property
    def llc(self) -> StatsView:
        return self.group("llc")

    @property
    def mc(self) -> StatsView:
        return self.group("mc")

    @property
    def pim(self) -> StatsView:
        return self.group("pim")

    @property
    def traffic(self) -> StatsView:
        """Merged open-loop traffic stats (empty under the closed loop).

        ``result.traffic.latency_p99``, ``.req_dropped``, ... -- the
        per-core histograms merged into one distribution plus summed
        admission counters (see ``repro.traffic``).
        """
        return self.group("traffic")

    def core(self, core_id: int) -> StatsView:
        return self.group(f"core.{core_id}")

    def l1(self, core_id: int) -> StatsView:
        return self.group(f"l1.{core_id}")

    @property
    def cores(self) -> List[StatsView]:
        """Per-core views, ordered by core id."""
        ids = sorted(int(name.split(".", 1)[1]) for name in self.stats
                     if name.startswith("core."))
        return [self.core(i) for i in ids]

    # -- the paper's headline statistics (shims over the typed views) --- #

    @property
    def scope_buffer_hit_rate(self) -> float:
        """Fig. 9: LLC scope-buffer hit rate."""
        return self.llc.hit_rate

    @property
    def llc_scan_latency(self) -> float:
        """Fig. 10c: mean LLC scan latency (scope-buffer hits count as 0)."""
        return self.llc.scan_latency

    @property
    def sbv_skip_ratio(self) -> float:
        """Fig. 10d: mean ratio of LLC sets skipped during a scan."""
        return self.llc.skipped_set_ratio

    @property
    def pim_buffer_mean_len(self) -> float:
        """Fig. 10a: mean PIM-module buffer length at op arrival."""
        return self.pim.buffer_len_at_arrival

    @property
    def pim_unique_scopes(self) -> float:
        """Fig. 10b: mean unique scopes in the PIM buffer at op arrival."""
        return self.pim.unique_scopes_at_arrival

    @property
    def pim_ops_executed(self) -> int:
        return int(self.pim.ops_executed)

    # -- versioned dict round trip (stdlib JSON, no pickle) -------------- #

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe snapshot that :meth:`from_dict` restores exactly.

        Covers every field a consumer reads: the full system config, the
        run time, all stats groups (including the per-core and per-L1
        views, which live in ``stats`` under their component names), the
        stale-read count and the event count.
        """
        data: Dict[str, object] = {
            "schema": RESULT_SCHEMA,
            "config": config_to_dict(self.config),
            "run_time": self.run_time,
            "stats": self.stats,
            "stale_reads": self.stale_reads,
            "events": self.events,
        }
        if self.obs is not None:
            data["obs"] = self.obs
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationResult":
        """Rebuild a result from its :meth:`to_dict` form.

        An explicit ``schema`` tag other than :data:`RESULT_SCHEMA` is
        rejected; a missing tag is accepted for campaign artifacts
        written before the tag existed.
        """
        schema = data.get("schema")
        if schema is not None and schema != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported result schema {schema!r} "
                f"(expected {RESULT_SCHEMA!r})")
        return cls(
            config=config_from_dict(data["config"]),
            run_time=data["run_time"],
            stats={name: dict(group)
                   for name, group in data["stats"].items()},
            stale_reads=data["stale_reads"],
            events=data["events"],
            obs=data.get("obs"),
        )


def run_workload(
    config: SystemConfig,
    workload,
    max_events: Optional[int] = None,
) -> SimulationResult:
    """Build a system, compile and run ``workload`` on it."""
    system = System(config)
    programs = workload.compile(system)
    system.load_programs(programs)
    run_time = system.run(max_events=max_events)
    return collect_result(system, run_time)


def collect_result(system: System, run_time: int) -> SimulationResult:
    """Snapshot a finished system's statistics."""
    stats: Dict[str, Dict[str, float]] = {
        "llc": system.llc.stats.as_dict(),
        "mc": system.mc.stats.as_dict(),
        "pim": system.pim_module.stats.as_dict(),
    }
    for l1 in system.l1s:
        stats[l1.name] = l1.stats.as_dict()
    for core in system.cores:
        stats[core.name] = core.stats.as_dict()
    if system.traffic_sources:
        # Merge the per-core admission queues into one "traffic" group:
        # histograms merge exactly (bucket-count addition), counters sum.
        merged = StatGroup("traffic")
        latency = merged.histogram("latency")
        depth = merged.histogram("queue_depth")
        offered = merged.counter("req_offered")
        admitted = merged.counter("req_admitted")
        dropped = merged.counter("req_dropped")
        completed = merged.counter("req_completed")
        for source in system.traffic_sources:
            latency.merge(source.latency)
            depth.merge(source.queue_depth)
            offered.value += source.offered
            admitted.value += source.admitted
            dropped.value += source.dropped
            completed.value += source.completed
        stats["traffic"] = merged.as_dict()
    tracer = getattr(system, "tracer", None)
    return SimulationResult(
        config=system.config,
        run_time=run_time,
        stats=stats,
        stale_reads=system.total_stale_reads,
        events=system.sim.events_executed,
        obs=tracer.export() if tracer is not None else None,
    )
