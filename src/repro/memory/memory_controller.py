"""The host memory controller.

Per Section V-A the memory controller may reorder operations **but does
not violate data dependencies**: accesses to the same line stay in arrival
order, and nothing addressing a scope reorders with a PIM op to that
scope.  This makes PIM-op arrival at the MC the global ordering point --
the MC therefore sends the PIM ACK the moment a PIM op is enqueued
(Fig. 6a/6b).

Routing: messages addressing PIM scopes are handed to the PIM module
(which is the memory for those addresses and enforces per-scope arrival
order internally); everything else is serviced by the DRAM stage (one
service resource; bank-level parallelism folded into a service rate).
A message headed for the PIM module waits in the MC queue while the
module's corresponding queue is full -- this is where the PIM module's
back-pressure reaches the host (Section VII).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.memory.versioned import VersionedMemory
from repro.sim.component import Component
from repro.sim.config import MemoryConfig
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.sim.stats import Number, mean_into

_LOAD = MessageType.LOAD
_STORE = MessageType.STORE
_WRITEBACK = MessageType.WRITEBACK
_PIM_OP = MessageType.PIM_OP


class MemoryController(Component):
    """Reordering memory controller with dependency preservation."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: MemoryConfig,
        memory: VersionedMemory,
        resp_net: Component,
        pim_module=None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.memory = memory
        self.resp_net = resp_net
        self.pim_module = pim_module
        self._queue: List[Message] = []
        #: PIM ops in ``_queue``.  When they are all it holds and the
        #: module's op buffer is full, ``_pick`` has nothing to try.
        self._queued_ops = 0
        # Insertion-ordered dedup of parked senders (O(1) membership).
        self._waiting_senders: dict = {}
        self._busy = False
        # Plain-int counters (one attribute bump each), read by snapshot().
        self._served = 0
        self._pim_forwarded = 0
        self._arrivals = 0
        self._queue_len_total = 0
        # DRAM timing, read once per served message.
        self._dram_interval = config.dram_service_interval
        self._dram_latency = config.dram_latency
        # Burst batching (off at the default length of 1: the hot path
        # below stays bit-for-bit the one-access-per-interval stage).
        burst_len = config.dram_burst_len
        self._burst_len = burst_len
        self._burst_enabled = burst_len > 1
        #: Aligned-window mask: two accesses whose line addresses share
        #: ``addr & mask`` fuse into the same burst transaction.
        self._burst_mask = ~(64 * burst_len - 1)
        self._bursts = 0
        self._burst_msgs = 0
        # Pre-bound callables for the per-request hot path.
        self._serve_bound = self._serve
        self._service_done_bound = self._service_done
        self._resp_offer = resp_net.offer
        #: Stall-attribution bucket (Tracer-owned dict) when tracing.
        self._stalls = None

    def snapshot(self) -> Dict[str, Number]:
        """This controller's statistics as one flat dict."""
        out: Dict[str, Number] = {}
        mean_into(out, "queue_length_at_arrival", self._queue_len_total,
                  self._arrivals)
        if self._burst_enabled:
            # Opt-in: new snapshot keys re-baseline result digests, so
            # only burst-enabled configurations export them.
            out["bursts_issued"] = self._bursts
            mean_into(out, "burst_length", self._burst_msgs, self._bursts)
        out["requests_served"] = self._served
        out["pim_ops_forwarded"] = self._pim_forwarded
        return out

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #

    def offer(self, msg: Message, sender: Optional[Component] = None) -> bool:
        queue = self._queue
        if len(queue) >= self.config.queue_capacity:
            if sender is not None:
                self._waiting_senders[sender] = None
            return False
        self._queue_len_total += len(queue)
        self._arrivals += 1
        queue.append(msg)
        if msg.mtype is _PIM_OP:
            # Arrival at the MC is the ordering point: ACK now (Fig. 6a-b).
            self._queued_ops += 1
            if msg.reply_to is not None:
                ack = msg.make_response(MessageType.PIM_ACK)
                self._resp_offer(ack, None)
        self.sim.call_at_now(self._serve_bound)
        return True

    # ------------------------------------------------------------------ #
    # service loop
    # ------------------------------------------------------------------ #

    def _serve(self) -> None:
        queue = self._queue
        trace = self._trace
        while queue:
            index = self._pick()
            if index is None:
                return
            msg = queue[index]
            if msg.scope is not None and self.pim_module is not None:
                # PIM-memory traffic: hand over to the module (its queues
                # were checked by _pick, so this cannot fail).
                queue.pop(index)
                if trace is not None:
                    trace.record(self.sim.now, self.name, msg.mtype.name, msg)
                self.pim_module.offer(msg, self)
                if msg.mtype is _PIM_OP:
                    self._pim_forwarded += 1
                    self._queued_ops -= 1
                self._served += 1
                if self._waiting_senders:
                    self._wake_senders()
                continue
            if self._busy:
                return
            # DRAM service: one message (or one fused burst) per
            # service interval.
            queue.pop(index)
            self._served += 1
            if trace is not None:
                trace.record(self.sim.now, self.name, msg.mtype.name, msg)
            batch = self._collect_burst(msg) if self._burst_enabled else None
            if self._waiting_senders:
                self._wake_senders()
            self._busy = True
            self.sim.schedule(self._dram_interval, self._service_done_bound)
            self._service_dram(msg)
            if batch:
                for fused in batch:
                    if trace is not None:
                        trace.record(self.sim.now, self.name,
                                     fused.mtype.name, fused)
                    self._service_dram(fused)
            return

    def _collect_burst(self, first: Message) -> Optional[List[Message]]:
        """Pull queued accesses in ``first``'s burst window (arrival order).

        Contiguity rule: a DRAM access fuses with the burst when its
        line falls in the same aligned ``dram_burst_len``-line window.
        Taking window matches in queue order preserves the Section V-A
        dependency rules: same-line accesses keep their relative order
        (a pair is either fused in order or the younger one stays
        queued), and PIM-scope traffic never fuses.
        """
        queue = self._queue
        mask = self._burst_mask
        window = first.addr & mask
        room = self._burst_len - 1
        batch: Optional[List[Message]] = None
        i = 0
        while i < len(queue) and room:
            msg = queue[i]
            if msg.scope is None and msg.addr & mask == window:
                queue.pop(i)
                if batch is None:
                    batch = []
                batch.append(msg)
                room -= 1
            else:
                i += 1
        self._bursts += 1
        if batch:
            fused = len(batch)
            self._served += fused
            self._burst_msgs += 1 + fused
        else:
            self._burst_msgs += 1
        return batch

    def _service_dram(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is _WRITEBACK:
            self.memory.write(msg.addr, msg.version)
            return  # terminal: writebacks get no response
        if mtype is _LOAD:
            version = self.memory.read(msg.addr)
            resp = msg.make_response(MessageType.LOAD_RESP, version=version)
        elif mtype is _STORE:
            version = self.memory.bump(msg.addr)
            resp = msg.make_response(MessageType.STORE_ACK, version=version)
        elif mtype is MessageType.FLUSH:
            resp = msg.make_response(MessageType.FLUSH_ACK)
        else:  # pragma: no cover - defensive
            raise ValueError(f"MC cannot service {mtype}")
        self.sim.schedule(self._dram_latency, self._resp_offer, resp, None)

    def _service_done(self) -> None:
        self._busy = False
        self._serve()

    def _pick(self) -> Optional[int]:
        """First serviceable request in arrival order (reorder window).

        Dependency rules (Section V-A): same-line DRAM accesses stay
        FIFO; PIM-scope messages stay FIFO per scope (they are handed to
        the PIM module, which preserves arrival order per scope) and are
        only picked when the module's corresponding queue has room.

        The module's admission is read once per pick, and a queue of
        nothing but PIM ops facing a full op buffer is held back without
        a walk: that is the retry the module's back-pressure repeats.
        Otherwise the dependency context (lines / scopes already seen)
        accumulates in one forward walk instead of re-scanning the queue
        prefix per candidate -- this loop runs for every message the MC
        serves.
        """
        queue = self._queue
        module = self.pim_module
        stalls = self._stalls
        if module is not None:
            op_room, access_room = module.admission()
            if not op_room and self._queued_ops == len(queue):
                if stalls is not None:
                    # One pim_busy incident per held-back message.
                    stalls["pim_busy"] = stalls.get("pim_busy", 0) + len(queue)
                return None
        busy = self._busy
        seen_lines = None  # line addrs of earlier non-scope messages
        seen_scopes = None  # scopes of earlier scope-carrying messages
        for i, msg in enumerate(queue):
            scope = msg.scope
            if scope is not None and module is not None:
                if op_room if msg.mtype is _PIM_OP else access_room:
                    if seen_scopes is None or scope not in seen_scopes:
                        return i
                elif stalls is not None:
                    # Held back because the module's queue is full: one
                    # pim_busy incident per passed-over pick attempt.
                    stalls["pim_busy"] = stalls.get("pim_busy", 0) + 1
            elif not busy and (seen_lines is None
                               or (msg.addr & ~63) not in seen_lines):
                return i
            # Passed over: record the ordering constraints it imposes on
            # everything younger (same-line FIFO for DRAM traffic,
            # same-scope FIFO for PIM-memory traffic).
            if scope is None:
                if seen_lines is None:
                    seen_lines = {msg.addr & ~63}
                else:
                    seen_lines.add(msg.addr & ~63)
            elif seen_scopes is None:
                seen_scopes = {scope}
            else:
                seen_scopes.add(scope)
        return None

    # ------------------------------------------------------------------ #
    # PIM module callbacks
    # ------------------------------------------------------------------ #

    def unblock(self) -> None:
        """The PIM module freed queue space or finished an op: retry."""
        self.sim.call_at_now(self._serve_bound)

    def _wake_senders(self) -> None:
        waiters = self._waiting_senders
        self._waiting_senders = {}
        for waiter in waiters:
            waiter.unblock()
