"""Builds the simulated system of Fig. 5.

::

    core --> entry point --> L1 --+
    core --> entry point --> L1 --+--> request network --> LLC --> mem
                                                           link --> MC --> PIM module
                                                                       '--> DRAM
    responses:  MC / LLC --> response network --> dispatcher --> reply_to

The builder also owns the pieces the components share: the scope map, the
version-tagged memory image, the per-scope PIM version counters (bumped
when the PIM module executes an op -- the stale-read detector's ground
truth), and the barrier controller used by multi-threaded workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.models import ConsistencyModel
from repro.core.scope import ScopeMap
from repro.host.core import Core
from repro.host.entry_point import EntryPoint
from repro.host.policies import IssuePolicy
from repro.host.program import ThreadOpKind, ThreadProgram
from repro.memory.l1 import L1Cache
from repro.memory.llc import LastLevelCache
from repro.memory.memory_controller import MemoryController
from repro.memory.versioned import VersionedMemory
from repro.obs.trace import Tracer
from repro.pim.module import PimModule
from repro.sim.component import Link, ResponseDispatcher
from repro.sim.config import SystemConfig
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.traffic import AdmissionQueue, arrival_times


class Barrier:
    """Releases all participating cores once every one has arrived."""

    def __init__(self, participants: int) -> None:
        self.participants = participants
        self._arrived: List[Core] = []
        self.crossings = 0

    def arrive(self, core: Core) -> None:
        self._arrived.append(core)
        if len(self._arrived) >= self.participants:
            waiting, self._arrived = self._arrived, []
            self.crossings += 1
            for c in waiting:
                c.release_barrier()


class System:
    """A fully wired simulated machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.sim = Simulator()
        # Fresh op-id sequence per system: experiments in one process
        # (and forked pool workers) must be byte-identical, down to the
        # op ids in trace payloads and flight dumps.
        self.sim.reset_ids()
        self.policy = IssuePolicy(config.model)
        self.scope_map = ScopeMap(
            pim_base=config.pim_base,
            scope_bytes=config.scope_bytes,
            num_scopes=config.num_scopes,
        )
        self.memory = VersionedMemory(config.llc.line_bytes)

        # Response path: anything below the L1s answers through here.
        self._dispatcher = ResponseDispatcher(self.sim, "resp-dispatch")
        self.resp_net = Link(
            self.sim, "resp-net", self._dispatcher,
            latency=config.network.latency,
            service_interval=config.network.service_interval,
            capacity=None,
        )

        # Memory side.
        self.mc = MemoryController(
            self.sim, "mc", config.memory, self.memory, self.resp_net
        )
        self.pim_module = PimModule(
            self.sim, "pim", config.pim,
            memory=self.memory,
            resp_net=self.resp_net,
            access_latency=config.memory.dram_latency,
            latency_fn=self._pim_latency,
            on_execute=self._on_pim_execute,
            result_lines_fn=self._result_lines_of,
        )
        self.pim_module.mc = self.mc
        self.mc.pim_module = self.pim_module

        mem_link = Link(self.sim, "mem-link", self.mc, latency=6, capacity=8)
        # MSHR knobs: an explicit entry count selects the size *and*
        # turns the mshr_* statistics on; None keeps the level's legacy
        # default file silent, which is what keeps default-config result
        # digests byte-identical.
        llc_mshr = config.llc.mshr_entries
        self.llc = LastLevelCache(
            self.sim, "llc", config.llc, config.llc_scope_buffer,
            mem_link, self.resp_net,
            mshr_count=64 if llc_mshr is None else llc_mshr,
            coalescing=config.llc.coalescing,
            emit_mshr_stats=llc_mshr is not None or not config.llc.coalescing,
            scope_buffer_enabled=config.scope_buffer_enabled,
            sbv_enabled=config.sbv_enabled,
        )
        self.req_net = Link(
            self.sim, "req-net", self.llc,
            latency=config.network.latency,
            service_interval=config.network.service_interval,
            capacity=config.network.queue_capacity,
        )

        # Core side.
        scope_relaxed = config.model is ConsistencyModel.SCOPE_RELAXED
        self.l1s: List[L1Cache] = []
        self.entry_points: List[EntryPoint] = []
        self.cores: List[Core] = []
        self.barrier: Optional[Barrier] = None
        self._active_cores: List[Core] = []
        #: Per-core admission queues (open-loop traffic only; empty for
        #: the closed loop, which is what keeps snapshots key-stable).
        self.traffic_sources: List[AdmissionQueue] = []
        #: Active cores whose ``done`` has not yet fired (run loop stop).
        self._unfinished = 0
        l1_mshr = config.l1.mshr_entries
        for core_id in range(config.cores.num_cores):
            l1 = L1Cache(
                self.sim, f"l1.{core_id}", core_id, config.l1,
                self.scope_map, self.req_net,
                scope_buffer_cfg=config.l1_scope_buffer if scope_relaxed else None,
                mshr_count=8 if l1_mshr is None else l1_mshr,
                coalescing=config.l1.coalescing,
                emit_mshr_stats=l1_mshr is not None or not config.l1.coalescing,
            )
            ep = EntryPoint(
                self.sim, f"ep.{core_id}", core_id, self.policy, l1,
                self.req_net, depth=config.cores.entry_point_depth,
            )
            core = Core(
                self.sim, f"core.{core_id}", core_id, self.policy, ep,
                max_outstanding_loads=config.cores.max_outstanding_loads,
                barrier_cb=self._barrier_arrive,
                done_cb=self._core_finished,
            )
            self.l1s.append(l1)
            self.entry_points.append(ep)
            self.cores.append(core)
        self.llc.l1s = self.l1s

        # PIM result-line registry: scope id -> line addresses a PIM op
        # rewrites, and the per-scope executed-op counter that defines the
        # version its results carry.
        self._result_lines: Dict[int, Sequence[int]] = {}
        self._result_line_sets: Dict[int, frozenset] = {}
        self.pim_execution_counts: Dict[int, int] = {}
        #: Optional per-op latency override: scope -> host cycles.
        self.pim_latency_by_scope: Dict[int, int] = {}
        #: Workload-provided default PIM op latency (host cycles), e.g.
        #: derived from compiled microcode lengths; ``None`` falls back to
        #: the config value.  ``zero_logic`` overrides both (Fig. 11b).
        self.pim_op_latency_override: Optional[int] = None

        #: Observability: one Tracer per traced run, else None.  Stall
        #: buckets attach whenever tracing is enabled (they're cheap);
        #: event-record hooks only when a ring is configured.  Tracing
        #: never touches simulation state, so results are byte-identical
        #: either way.
        self.tracer: Optional[Tracer] = None
        if config.trace.enabled:
            self.tracer = tracer = Tracer(
                ring_size=config.trace.ring_size,
                flight=config.trace.flight,
            )
            self.mc._stalls = tracer.stall_bucket(self.mc.name)
            self.pim_module._stalls = tracer.stall_bucket(
                self.pim_module.name)
            self.llc._stalls = tracer.stall_bucket(self.llc.name)
            for l1 in self.l1s:
                l1._stalls = tracer.stall_bucket(l1.name)
            for core in self.cores:
                core._stalls = tracer.stall_bucket(core.name)
            if tracer.recording:
                for component in (self.mc, self.pim_module, self.llc,
                                  self.resp_net, self.req_net, mem_link,
                                  *self.l1s, *self.entry_points,
                                  *self.cores):
                    component._trace = tracer

    # ------------------------------------------------------------------ #
    # PIM execution effects
    # ------------------------------------------------------------------ #

    def register_pim_result_lines(self, scope_id: int, line_addrs: Sequence[int]) -> None:
        """Declare which lines PIM ops to ``scope_id`` rewrite."""
        self._result_lines[scope_id] = list(line_addrs)
        self._result_line_sets[scope_id] = frozenset(a & ~63 for a in line_addrs)

    def _result_lines_of(self, scope_id: int) -> frozenset:
        return self._result_line_sets.get(scope_id, frozenset())

    def _on_pim_execute(self, msg: Message) -> None:
        scope = msg.scope
        count = self.pim_execution_counts.get(scope, 0) + 1
        self.pim_execution_counts[scope] = count
        lines = self._result_lines.get(scope)
        if lines:
            self.memory.bump_lines(lines, count)

    def _pim_latency(self, msg: Message) -> int:
        if self.config.pim.zero_logic:
            return 0
        override = self.pim_latency_by_scope.get(msg.scope)
        if override is not None:
            return override
        if self.pim_op_latency_override is not None:
            return self.pim_op_latency_override
        return self.config.pim.op_latency

    # ------------------------------------------------------------------ #
    # running programs
    # ------------------------------------------------------------------ #

    def _barrier_arrive(self, core: Core) -> None:
        if self.barrier is None:
            raise RuntimeError("barrier reached but no program set loaded")
        self.barrier.arrive(core)

    def load_programs(self, programs: Sequence[ThreadProgram]) -> None:
        """Assign programs to cores 0..n-1 and set up the barrier."""
        if len(programs) > len(self.cores):
            raise ValueError("more programs than cores")
        self.barrier = Barrier(len(programs))
        self._active_cores = []
        traffic = self.config.traffic
        for core, program in zip(self.cores, programs):
            if traffic.open:
                requests = program.count(ThreadOpKind.ARRIVE)
                if requests == 0:
                    raise ValueError(
                        f"open-loop traffic ({traffic.arrival!r}) needs a "
                        f"workload that emits admission requests; "
                        f"{program.name!r} has none"
                    )
                # The schedule is seeded per run, not per core: one
                # client stream fans out to every shard, so all cores
                # share one arrival array (shard-level admission).
                core.traffic = source = AdmissionQueue(
                    arrival_times(traffic, requests),
                    traffic.queue_depth, core.stats,
                )
                self.traffic_sources.append(source)
            core.run_program(program)
            self._active_cores.append(core)

    def _core_finished(self, core: Core) -> None:
        """A core's ``done`` just turned true: count down toward the stop.

        Replaces the old ``stop_when=lambda: all(c.done ...)`` predicate
        the kernel had to re-evaluate after *every* event -- the cores
        notify once each instead, and the last one flips the kernel's
        stop flag from inside its own event, which stops the run at
        exactly the same cycle the polling version did.
        """
        self._unfinished -= 1
        if self._unfinished <= 0:
            self.sim.stop()

    def run(self, max_events: Optional[int] = None) -> int:
        """Run to completion of all loaded programs; returns the cycle."""
        if not self._active_cores:
            raise RuntimeError(
                "no programs loaded: call load_programs() before run()"
            )
        active = self._active_cores
        unfinished = 0
        for core in active:
            if core.done:
                core._done_notified = True
            else:
                unfinished += 1
        self._unfinished = unfinished
        if unfinished:
            self.sim.run(max_events=max_events)
        if not all(c.done for c in active):
            stuck = [c.name for c in active if not c.done]
            raise RuntimeError(
                f"simulation drained its event queue with cores stuck: {stuck} "
                f"(cycle {self.sim.now})"
            )
        return self.sim.now

    # ------------------------------------------------------------------ #

    @property
    def total_stale_reads(self) -> int:
        return sum(c.stale_reads for c in self.cores)
