"""Private first-level caches.

Each core owns one L1.  Loads and stores arrive from the core's entry
point; misses allocate MSHRs and fetch from the LLC over the shared
request network.  The LLC (the inclusive directory) may *back-invalidate*
lines at any time -- modelled as a zero-latency state change whose cost is
folded into the LLC-side scan/flush latency, a deliberate
cycle-approximate simplification (DESIGN.md).

Under the scope-relaxed model the L1 also hosts a scope buffer and SBV and
participates in scope-fence scans (Section V-E); under all other models
PIM ops bypass the L1 entirely.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple, Union

from repro.core.scope import ScopeMap
from repro.memory.cache import CacheArray
from repro.memory.mesi import MesiState, state_on_fill
from repro.memory.mshr import MshrFile
from repro.memory.scope_buffer import ScopeBuffer
from repro.memory.sbv import ScopeBitVector
from repro.sim.component import Component, QueuedComponent
from repro.sim.config import CacheConfig, ScopeBufferConfig
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.sim.stats import Number, mean_into

#: Store-hit fast path: IntEnum ordering makes "writable" a plain int
#: compare (EXCLUSIVE=2, MODIFIED=3; lookup() never returns INVALID).
_EXCLUSIVE = MesiState.EXCLUSIVE
_LOAD = MessageType.LOAD
_STORE = MessageType.STORE
_LOAD_RESP = MessageType.LOAD_RESP
_STORE_ACK = MessageType.STORE_ACK


class L1Cache(QueuedComponent):
    """One core's private L1.

    Args:
        req_net: the shared request network toward the LLC.
        scope_map: address-to-scope mapping (marks PIM-enabled lines).
        scope_buffer_cfg: present only under the scope-relaxed model.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        core_id: int,
        config: CacheConfig,
        scope_map: ScopeMap,
        req_net: Component,
        scope_buffer_cfg: Optional[ScopeBufferConfig] = None,
        mshr_count: int = 8,
        queue_capacity: int = 8,
        coalescing: bool = True,
        emit_mshr_stats: bool = False,
    ) -> None:
        super().__init__(sim, name, capacity=queue_capacity, service_interval=1)
        self.core_id = core_id
        self.config = config
        self.scope_map = scope_map
        self.req_net = req_net
        self.array = CacheArray(config.num_sets, config.ways, config.line_bytes)
        self.mshr_count = mshr_count
        self.mshr_file = MshrFile(mshr_count, coalescing)
        #: Hot-path alias of the MSHR file's entry map.
        self._mshrs = self.mshr_file.entries
        # Opt-in: the extra snapshot keys re-baseline result digests, so
        # only non-default MSHR configurations export them.
        self._emit_mshr_stats = emit_mshr_stats
        # Plain-int counters (one attribute bump each), read by snapshot().
        self._hits = 0
        self._misses = 0
        self._back_invalidations = 0
        self._scan_cycles = 0
        self._scans = 0
        self.scope_buffer: Optional[ScopeBuffer] = None
        self.sbv: Optional[ScopeBitVector] = None
        if scope_buffer_cfg is not None:
            self.scope_buffer = ScopeBuffer(scope_buffer_cfg.sets,
                                            scope_buffer_cfg.ways)
            self.sbv = ScopeBitVector(config.num_sets)
        self._hit_latency = config.hit_latency
        # Writebacks and upgrade re-fetches waiting for network space
        # (fill-path actions cannot block the response path, so they
        # drain opportunistically).
        self._wb_queue: deque = deque()
        self._refetch_queue: deque = deque()
        # Multi-phase state for the head-of-queue scope fence.
        self._head_scanned = False
        # Pre-bound callable for the miss/forward hot path.
        self._req_offer = req_net.offer
        #: Stall-attribution bucket (Tracer-owned dict) when tracing.
        self._stalls = None

    def snapshot(self) -> Dict[str, Number]:
        """This cache's statistics as one flat dict."""
        out: Dict[str, Number] = {}
        if self._emit_mshr_stats:
            self.mshr_file.snapshot(out)
        out["back_invalidations"] = self._back_invalidations
        if self.scope_buffer is not None:
            out["hit_rate"] = self.scope_buffer.hit_rate
            out["skipped_set_ratio"] = self.sbv.mean_skipped_ratio
        mean_into(out, "scan_latency", self._scan_cycles, self._scans)
        out["hits"] = self._hits
        out["misses"] = self._misses
        return out

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    def handle(self, msg: Message) -> Union[bool, int]:
        mtype = msg.mtype
        # Loads and stores are the simulator's hottest messages: their
        # hit paths are flattened here rather than dispatched through
        # the per-type helpers.
        if mtype is _LOAD:
            line = self.array.lookup(msg.addr)
            if line is None:
                return self._miss(msg, False)
            self._hits += 1
            if self._mshrs:
                self.mshr_file.hit_under_miss += 1
            resp = msg.make_response(_LOAD_RESP, line.version)
            self.sim.schedule(self._hit_latency,
                              resp.reply_to.receive_response, resp)
            return True
        if mtype is _STORE:
            line = self.array.lookup(msg.addr)
            if line is not None and line.state >= _EXCLUSIVE:
                self._hits += 1
                if self._mshrs:
                    self.mshr_file.hit_under_miss += 1
                line.state = MesiState.MODIFIED
                line.version += 1
                resp = msg.make_response(_STORE_ACK, line.version)
                self.sim.schedule(self._hit_latency,
                                  resp.reply_to.receive_response, resp)
                return True
            # Shared hit (upgrade) or miss: fetch exclusive ownership.
            return self._miss(msg, True)
        if mtype is MessageType.FLUSH:
            return self._handle_flush(msg)
        if mtype is MessageType.PIM_OP:
            # Scope-relaxed routes PIM ops through every cache level
            # without flushing them (Fig. 6c); other models never send
            # PIM ops here.
            return self._forward(msg)
        if mtype is MessageType.SCOPE_FENCE:
            return self._handle_scope_fence(msg)
        raise ValueError(f"L1 cannot handle {mtype}")

    def _miss(self, msg: Message, exclusive: bool) -> Union[bool, int]:
        self._misses += 1
        line_addr = self.array.line_addr(msg.addr)
        mshr_file = self.mshr_file
        mshr = self._mshrs.get(line_addr)
        if mshr is not None:
            # Secondary miss: piggyback on the in-flight fill (an
            # exclusive need on a shared fetch re-requests at fill
            # time).  With coalescing disabled the line is "busy":
            # back-pressure until the refill lands.
            if mshr_file.coalesce(mshr, msg, exclusive):
                return True
            return 4
        if mshr_file.full:
            stalls = self._stalls
            if stalls is not None:
                stalls["mshr_full"] = stalls.get("mshr_full", 0) + 4
            return 4  # all MSHRs busy; retry shortly
        fill_req = Message(MessageType.LOAD, line_addr, msg.scope,
                           self.core_id, self, exclusive)
        if not self._req_offer(fill_req, self):
            return False
        mshr_file.allocate(line_addr, exclusive).waiters.append(msg)
        return True

    def _handle_flush(self, msg: Message) -> Union[bool, int]:
        """clflush: drop the local copy and forward to the LLC."""
        line = self.array.lookup(msg.addr, touch=False)
        if line is not None:
            if line.dirty:
                # Carry the dirty version with the flush; the LLC merges it
                # into its own copy before writing back to memory.
                msg.version = max(msg.version, line.version)
            self._invalidate_line(line)
        return self._forward(msg)

    def _handle_scope_fence(self, msg: Message) -> Union[bool, int]:
        """Scope-fence: scan/flush this cache, then continue to the LLC."""
        if not self._head_scanned:
            self._head_scanned = True
            latency, wbs = self._scan_and_flush_scope(msg.scope)
            self._wb_queue.extend(wbs)
            if latency:
                return latency
        if not self._drain_writebacks():
            return False
        return self._forward(msg)

    def _forward(self, msg: Message) -> bool:
        return self._req_offer(msg, self)

    def on_dequeue(self) -> None:
        self._head_scanned = False

    # ------------------------------------------------------------------ #
    # scan/flush machinery (scope-relaxed model only)
    # ------------------------------------------------------------------ #

    def _scan_and_flush_scope(self, scope: int) -> Tuple[int, List[Message]]:
        """Returns ``(scan_latency, writeback messages)``."""
        self._scans += 1
        if self.scope_buffer is not None and self.scope_buffer.lookup(scope):
            return 0, []
        if self.sbv is not None:
            set_indices = self.sbv.sets_to_scan()
            self.sbv.record_scan(len(set_indices))
        else:
            set_indices = list(range(self.array.num_sets))
        latency = max(1, len(set_indices) * self.config.scan_cycles_per_set)
        self._scan_cycles += latency
        wbs = []
        take = self.array.take_scope_lines
        for index in set_indices:
            flushed, has_pim = take(index, scope)
            for line in flushed:
                if line.dirty:
                    wbs.append(self._writeback_msg(line))
            if self.sbv is not None:
                self.sbv.update_on_eviction(index, has_pim)
        if self.scope_buffer is not None:
            self.scope_buffer.insert(scope)
        return latency, wbs

    def _writeback_msg(self, line) -> Message:
        return Message(
            MessageType.WRITEBACK,
            addr=line.addr,
            scope=line.scope,
            core=self.core_id,
            version=line.version,
        )

    def _drain_writebacks(self) -> bool:
        while self._wb_queue:
            if not self._req_offer(self._wb_queue[0], self):
                return False
            self._wb_queue.popleft()
        return True

    def _drain_refetches(self) -> bool:
        while self._refetch_queue:
            if not self._req_offer(self._refetch_queue[0], self):
                return False
            self._refetch_queue.popleft()
        return True

    def unblock(self) -> None:
        # The network freed space: first flush pending writebacks and
        # upgrade re-fetches, then resume normal service.
        self._drain_writebacks()
        self._drain_refetches()
        super().unblock()

    # ------------------------------------------------------------------ #
    # fill path (responses from the LLC)
    # ------------------------------------------------------------------ #

    def receive_response(self, resp: Message) -> None:
        """A fill from the LLC: install the line and release waiters."""
        line_addr = resp.addr
        mshr = self.mshr_file.complete(line_addr)
        if mshr is None:
            return  # fill for a line whose waiters were already satisfied
        req = resp.req
        exclusive = req.exclusive if req is not None else mshr.exclusive
        scope = resp.scope
        self._install(line_addr, scope, resp.version, exclusive)
        retry: List[Message] = []
        line = self.array.lookup(line_addr, touch=False)
        for waiter in mshr.waiters:
            if waiter.mtype is _LOAD:
                self._respond(waiter, _LOAD_RESP, line.version)
            elif line is not None and line.state.writable:
                line.state = MesiState.MODIFIED
                line.version += 1
                self._respond(waiter, _STORE_ACK, line.version)
            else:
                retry.append(waiter)  # needed exclusivity, fill was shared
        if retry:
            # Upgrade: re-fetch the line with ownership for the stranded
            # store waiters (a shared fill raced a piggybacked store).
            self.mshr_file.allocate(line_addr, True).waiters = retry
            fill_req = Message(
                MessageType.LOAD,
                addr=line_addr,
                scope=scope,
                core=self.core_id,
                reply_to=self,
                exclusive=True,
            )
            self._refetch_queue.append(fill_req)
            self._drain_refetches()

    def _install(self, line_addr: int, scope: Optional[int], version: int,
                 exclusive: bool) -> None:
        victim = self.array.victim(line_addr)
        if victim is not None:
            if victim.dirty:
                self._wb_queue.append(self._writeback_msg(victim))
                self._drain_writebacks()
            self._invalidate_line(victim)
        pim = scope is not None
        self.array.fill(line_addr, state_on_fill(exclusive), version, scope, pim)
        if pim:
            if self.sbv is not None:
                self.sbv.mark(self.array.set_index(line_addr))
            if self.scope_buffer is not None:
                self.scope_buffer.invalidate(scope)

    def _invalidate_line(self, line) -> None:
        index = self.array.set_index(line.addr)
        self.array.remove(line.addr)
        if self.sbv is not None and line.pim:
            self.sbv.update_on_eviction(index, self.array.set_has_pim_line(index))

    # ------------------------------------------------------------------ #
    # directory-initiated actions (called by the LLC)
    # ------------------------------------------------------------------ #

    def back_invalidate(self, addr: int) -> Tuple[bool, int]:
        """Invalidate a line on the directory's order.

        Returns ``(was_dirty, version)`` so the LLC can merge modified
        data.  Zero-latency by design (see module docstring).
        """
        line = self.array.lookup(addr, touch=False)
        if line is None:
            return False, 0
        self._back_invalidations += 1
        self._invalidate_line(line)
        return line.dirty, line.version

    def downgrade_to_shared(self, addr: int) -> Tuple[bool, int]:
        """M/E -> S on the directory's order; returns ``(was_dirty, version)``."""
        line = self.array.lookup(addr, touch=False)
        if line is None:
            return False, 0
        was_dirty, version = line.dirty, line.version
        line.state = MesiState.SHARED
        return was_dirty, version

    # ------------------------------------------------------------------ #

    def _respond(self, req: Message, mtype: MessageType, version: int) -> None:
        resp = req.make_response(mtype, version)
        self.sim.schedule(self._hit_latency, resp.reply_to.receive_response,
                          resp)
