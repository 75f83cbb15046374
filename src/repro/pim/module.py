"""The PIM module's timing model.

The module is the *memory* for PIM-enabled scopes: besides PIM ops it
services the host's loads, stores and writebacks to those addresses.  Per
scope, everything is processed in arrival order -- a read that arrived
after a PIM op waits for that op to finish executing, because the crossbar
arrays are occupied for the whole operation (Section III).  Different
scopes are independent crossbar groups and proceed in parallel.

Capacity model (the source of the back-pressure shaping Figs. 7/10/11a):

* PIM ops occupy the module's **op buffer** (``buffer_capacity``; ``None``
  reproduces Fig. 11a's unbounded buffer) from arrival until their
  execution *starts*;
* plain accesses occupy a separate, larger access queue
  (``access_queue_capacity``), standing in for the module's internal
  bank queues.

When either queue is full the memory controller keeps the message and
retries, propagating back-pressure toward the host.

On completing a PIM op the module notifies the MC (which may have ops
waiting for buffer space) and invokes the system's ``on_execute`` callback
to bump the result lines' version tags -- the stale-read detector's ground
truth.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Tuple

from repro.memory.versioned import VersionedMemory
from repro.sim.component import Component
from repro.sim.config import PimModuleConfig
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.sim.stats import StatGroup

_LOAD = MessageType.LOAD
_STORE = MessageType.STORE
_WRITEBACK = MessageType.WRITEBACK
_PIM_OP = MessageType.PIM_OP


class PimModule(Component):
    """Per-scope in-order execution engine of the bulk-bitwise module."""

    #: Service time of a plain access once the scope's arrays are free.
    ACCESS_SERVICE_INTERVAL = 4

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: PimModuleConfig,
        memory: VersionedMemory,
        resp_net: Component,
        access_latency: int = 180,
        access_queue_capacity: int = 512,
        latency_fn: Optional[Callable[[Message], int]] = None,
        on_execute: Optional[Callable[[Message], None]] = None,
        result_lines_fn: Optional[Callable[[int], frozenset]] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.memory = memory
        self.resp_net = resp_net
        self.access_latency = access_latency
        self.access_queue_capacity = access_queue_capacity
        self.latency_fn = latency_fn
        self.on_execute = on_execute
        #: scope id -> line addresses its PIM ops write.  Accesses to
        #: *other* lines of the scope (record data) target crossbar
        #: arrays the op does not modify, so they are served without
        #: waiting for queued ops -- serving them early is unobservable.
        #: ``None`` falls back to conservatively ordering everything.
        self.result_lines_fn = result_lines_fn
        self.mc = None  # set by the system builder
        #: Per-scope FIFO of pending messages (arrival order = dependency
        #: order; Section V-A).
        self._scope_queues: Dict[int, deque] = {}
        #: scope -> queued (not yet started) PIM ops in that scope's FIFO,
        #: maintained incrementally so the Fig. 10b statistic doesn't
        #: rescan every queue on every op arrival.
        self._queued_ops_by_scope: Dict[int, int] = {}
        self._scopes_with_queued_ops = 0
        #: Scopes whose head item is currently being processed.
        self._busy_scopes: Dict[int, Message] = {}
        self._buffered_ops = 0
        self._queued_accesses = 0
        #: Scopes whose head PIM op is waiting on max_concurrent_scopes.
        self._throttled: set = set()
        # Insertion-ordered dedup of parked senders (O(1) membership).
        self._waiting_senders: dict = {}
        self.stats = StatGroup(name)
        self._buffer_at_arrival = self.stats.mean("buffer_len_at_arrival",
                                                  extremes=False)
        self._scopes_at_arrival = self.stats.mean("unique_scopes_at_arrival",
                                                  extremes=False)
        # Batched as plain ints, synced into the StatGroup at snapshot.
        self._executed = 0
        self._accesses = 0
        self.stats.register_flush(self._flush_stats)
        # Pre-bound callables for the per-access hot path.
        self._resp_offer = resp_net.offer
        self._serve_access_bound = self._serve_access
        self._scope_done_bound = self._scope_done
        self._advance_scope_bound = self._advance_scope
        self._complete_op_bound = self._complete_op
        #: Stall-attribution bucket (Tracer-owned dict) when tracing.
        self._stalls = None

    def _flush_stats(self) -> None:
        stats = self.stats
        stats.counter("ops_executed").value = self._executed
        stats.counter("accesses_served").value = self._accesses

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    @property
    def occupancy(self) -> int:
        """Buffered (not yet executing) PIM ops."""
        return self._buffered_ops

    def admission(self) -> Tuple[bool, bool]:
        """(op-buffer room, access-queue room): what may be offered now.

        The MC reads this once per pick, not once per queued message.
        """
        cap = self.config.buffer_capacity
        return (cap is None or self._buffered_ops < cap,
                self._queued_accesses < self.access_queue_capacity)

    #: Message kinds the module services (it is the memory for PIM scopes).
    ACCEPTED_TYPES = frozenset({
        MessageType.PIM_OP, MessageType.LOAD, MessageType.STORE,
        MessageType.WRITEBACK, MessageType.FLUSH,
    })

    def offer(self, msg: Message, sender: Optional[Component] = None) -> bool:
        if msg.mtype not in self.ACCEPTED_TYPES:
            raise ValueError(f"the PIM module cannot service {msg.mtype}")
        op_room, access_room = self.admission()
        if not (op_room if msg.mtype is _PIM_OP else access_room):
            if sender is not None:
                self._waiting_senders[sender] = None
            return False
        trace = self._trace
        if trace is not None:
            trace.record(self.sim.now, self.name, msg.mtype.name, msg.op_id)
        if msg.mtype is _PIM_OP:
            # Fig. 10a/b statistics: sampled at op arrival, before insertion.
            stat = self._buffer_at_arrival
            stat.total += self._buffered_ops
            stat.count += 1
            stat = self._scopes_at_arrival
            stat.total += self._scopes_with_queued_ops
            stat.count += 1
            self._buffered_ops += 1
            count = self._queued_ops_by_scope.get(msg.scope, 0)
            self._queued_ops_by_scope[msg.scope] = count + 1
            if count == 0:
                self._scopes_with_queued_ops += 1
        elif not self._conflicts_with_ops(msg):
            # Record-data access: its arrays are not written by PIM ops;
            # serve it directly at the access rate.
            self.sim.schedule(self.ACCESS_SERVICE_INTERVAL,
                              self._serve_access_bound, msg)
            return True
        else:
            self._queued_accesses += 1
        queue = self._scope_queues.setdefault(msg.scope, deque())
        queue.append(msg)
        if msg.scope not in self._busy_scopes:
            self.sim.call_at_now(self._advance_scope_bound, msg.scope)
        return True

    def _conflicts_with_ops(self, msg: Message) -> bool:
        """Must this access order behind the scope's queued PIM ops?"""
        if self.result_lines_fn is None:
            return True
        result_lines = self.result_lines_fn(msg.scope)
        return (msg.addr & ~63) in result_lines

    # ------------------------------------------------------------------ #
    # per-scope in-order processing
    # ------------------------------------------------------------------ #

    def _advance_scope(self, scope: int) -> None:
        if scope in self._busy_scopes:
            return
        queue = self._scope_queues.get(scope)
        if not queue:
            return
        msg = queue[0]
        if msg.mtype is MessageType.PIM_OP and self._at_concurrency_limit():
            stalls = self._stalls
            if stalls is not None:
                # One contention incident per head op parked at the
                # max_concurrent_scopes crossbar limit.
                stalls["crossbar_contention"] = \
                    stalls.get("crossbar_contention", 0) + 1
            self._throttled.add(scope)
            return
        queue.popleft()
        self._busy_scopes[scope] = msg
        if msg.mtype is _PIM_OP:
            self._buffered_ops -= 1
            count = self._queued_ops_by_scope[scope] - 1
            self._queued_ops_by_scope[scope] = count
            if count == 0:
                self._scopes_with_queued_ops -= 1
            if self._waiting_senders:
                self._wake_senders()
            # Op execution is long (microseconds): usually a heap delay,
            # so the generic schedule() picks the tier.
            self.sim.schedule(self._latency_of(msg), self._complete_op_bound, msg)
        else:
            self._queued_accesses -= 1
            if self._waiting_senders:
                self._wake_senders()
            self._serve_access(msg)
            self.sim.schedule(self.ACCESS_SERVICE_INTERVAL,
                              self._scope_done_bound, scope)

    def _serve_access(self, msg: Message) -> None:
        self._accesses += 1
        mtype = msg.mtype
        if mtype is _LOAD:
            version = self.memory.read(msg.addr)
            resp = msg.make_response(MessageType.LOAD_RESP, version=version)
        elif mtype is _STORE:
            version = self.memory.bump(msg.addr)
            resp = msg.make_response(MessageType.STORE_ACK, version=version)
        elif mtype is _WRITEBACK:
            self.memory.write(msg.addr, msg.version)
            return
        elif mtype is MessageType.FLUSH:
            resp = msg.make_response(MessageType.FLUSH_ACK)
        else:  # pragma: no cover - defensive
            raise ValueError(f"PIM module cannot serve {mtype}")
        self.sim.schedule(self.access_latency, self._resp_offer, resp, None)

    def _latency_of(self, msg: Message) -> int:
        if self.config.zero_logic:
            return 0
        if self.latency_fn is not None:
            return max(0, self.latency_fn(msg))
        return self.config.op_latency

    def _at_concurrency_limit(self) -> bool:
        limit = self.config.max_concurrent_scopes
        if limit is None:
            return False
        running_ops = sum(
            1 for m in self._busy_scopes.values()
            if m.mtype is MessageType.PIM_OP
        )
        return running_ops >= limit

    def _complete_op(self, msg: Message) -> None:
        self._executed += 1
        trace = self._trace
        if trace is not None:
            trace.record(self.sim.now, self.name, "PIM_OP_DONE", msg.op_id)
        if self.on_execute is not None:
            self.on_execute(msg)
        if self.mc is not None:
            # The MC retries what the full op buffer held back.
            self.mc.unblock()
        self._scope_done(msg.scope)
        if self._throttled:
            throttled, self._throttled = self._throttled, set()
            for other in throttled:
                self._advance_scope(other)

    def _scope_done(self, scope: int) -> None:
        self._busy_scopes.pop(scope, None)
        self._advance_scope(scope)

    def _wake_senders(self) -> None:
        waiters = self._waiting_senders
        self._waiting_senders = {}
        for waiter in waiters:
            waiter.unblock()
