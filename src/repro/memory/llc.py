"""The shared, inclusive last-level cache.

The LLC is the system's coherence directory (MESI, Table II) and the place
where the paper's coherency mechanism lives (Section IV): PIM ops arriving
at the LLC look up the *scope buffer*; on a miss they scan the cache --
visiting only the sets marked in the *scope bit-vector* (SBV) -- flushing
every line of their scope (invalidating L1 copies through the inclusive
directory and writing dirty data back to memory) before being forwarded to
the memory controller.  The scan blocks the LLC for its duration, exactly
the cost the scope buffer and SBV exist to avoid.

Scope fences (scope-relaxed model) run the same scan/flush and terminate
here with an ACK (Fig. 6d).  Naive/SW-Flush PIM ops pass through untouched
(``direct`` flag).  Uncacheable accesses pass through to the memory
controller without allocating.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.memory.cache import CacheArray, CacheLine
from repro.memory.mesi import MesiState
from repro.memory.mshr import MshrFile
from repro.memory.scope_buffer import ScopeBuffer
from repro.memory.sbv import ScopeBitVector
from repro.sim.component import Component, QueuedComponent
from repro.sim.config import CacheConfig, ScopeBufferConfig
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.sim.stats import StatGroup

_LOAD = MessageType.LOAD
_LOAD_RESP = MessageType.LOAD_RESP


class LastLevelCache(QueuedComponent):
    """Shared inclusive LLC with MESI directory, scope buffer and SBV."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: CacheConfig,
        scope_buffer_cfg: ScopeBufferConfig,
        mem_link: Component,
        resp_net: Component,
        mshr_count: int = 64,
        queue_capacity: int = 16,
        scope_buffer_enabled: bool = True,
        sbv_enabled: bool = True,
        coalescing: bool = True,
        emit_mshr_stats: bool = False,
    ) -> None:
        super().__init__(sim, name, capacity=queue_capacity, service_interval=1)
        self.config = config
        self.mem_link = mem_link
        self.resp_net = resp_net
        self.array = CacheArray(config.num_sets, config.ways, config.line_bytes)
        self.stats = StatGroup(name)
        # Hit/miss counters are batched as plain ints and synced into the
        # StatGroup at snapshot time.
        self._hits = 0
        self._misses = 0
        self.stats.register_flush(self._flush_stats)
        self._scan_latency = self.stats.mean("scan_latency")
        self._flushed_lines = self.stats.counter("flushed_lines")
        self._hit_latency = config.hit_latency
        # Pre-bound callables for the per-request hot path.
        self._resp_offer = resp_net.offer
        self._mem_offer = mem_link.offer
        self.scope_buffer = ScopeBuffer(
            scope_buffer_cfg.sets, scope_buffer_cfg.ways, self.stats
        )
        self.sbv = ScopeBitVector(config.num_sets, self.stats)
        #: Ablation switches (Section IV motivates both structures by
        #: what scans cost without them).
        self.scope_buffer_enabled = scope_buffer_enabled
        self.sbv_enabled = sbv_enabled
        #: Private caches above this LLC, indexed by core id (set by the
        #: system builder; the directory back-invalidates through these).
        self.l1s: List = []
        self._dir: Dict[int, Set[int]] = {}
        self.mshr_count = mshr_count
        self.mshr_file = MshrFile(mshr_count, coalescing)
        #: Hot-path alias of the MSHR file's entry map.
        self._mshrs = self.mshr_file.entries
        #: scope -> outstanding fetches carrying it: the scope tag
        #: ``_install`` gives the line and ``take_scope_lines`` flushes
        #: by, kept at MSHR allocate/complete for the flush point.
        self._scope_fetches: Dict[int, int] = {}
        if emit_mshr_stats:
            # Opt-in: the extra snapshot keys re-baseline result digests,
            # so only non-default MSHR configurations export them.
            self.mshr_file.attach_stats(self.stats)
        self._pending_wbs: deque = deque()
        self._head_scanned = False
        #: Stall-attribution bucket (Tracer-owned dict) when tracing.
        self._stalls = None

    def _flush_stats(self) -> None:
        stats = self.stats
        stats.counter("hits").value = self._hits
        stats.counter("misses").value = self._misses

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    def handle(self, msg: Message) -> Union[bool, int]:
        mtype = msg.mtype
        if mtype is _LOAD:
            if msg.uncacheable:
                return self._forward_mem(msg)
            # Flattened fetch-hit path (the LLC's hottest message).
            line = self.array.lookup(msg.addr)
            if line is None:
                return self._fetch_miss(msg)
            self._hits += 1
            if self._mshrs:
                self.mshr_file.hit_under_miss += 1
            sharers = self._dir.setdefault(line.addr, set())
            if msg.exclusive:
                self._invalidate_sharers(line, except_core=msg.core)
                sharers.clear()
                sharers.add(msg.core)
            else:
                # A modified owner must supply fresh data and downgrade.
                for core in list(sharers):
                    if core != msg.core:
                        dirty, version = self.l1s[core].downgrade_to_shared(
                            line.addr)
                        if dirty and version > line.version:
                            line.version = version
                            line.state = MesiState.MODIFIED
                sharers.add(msg.core)
            resp = msg.make_response(_LOAD_RESP, line.version)
            self.sim.schedule(self._hit_latency, self._resp_offer, resp, None)
            return True
        if mtype is MessageType.STORE:
            # Cached stores never reach the LLC as STOREs (they become
            # exclusive LOAD fetches at the L1); only uncacheable stores do.
            return self._forward_mem(msg)
        if mtype is MessageType.WRITEBACK:
            return self._handle_writeback(msg)
        if mtype is MessageType.FLUSH:
            return self._handle_flush(msg)
        if mtype is MessageType.PIM_OP:
            if msg.direct:
                return self._forward_mem(msg)
            return self._handle_pim_op(msg)
        if mtype is MessageType.SCOPE_FENCE:
            return self._handle_scope_fence(msg)
        raise ValueError(f"LLC cannot handle {mtype}")

    # -- loads / fetches (GetS / GetM from the L1s) --------------------- #

    def _fetch_miss(self, msg: Message) -> Union[bool, int]:
        self._misses += 1
        line_addr = self.array.line_addr(msg.addr)
        mshr_file = self.mshr_file
        mshr = self._mshrs.get(line_addr)
        if mshr is not None:
            # Secondary miss: coalesce onto the in-flight memory fetch
            # (works even with the file full -- no new entry needed);
            # with coalescing off the line is busy until its refill.
            if mshr_file.coalesce(mshr, msg, msg.exclusive):
                return True
            return 4
        if mshr_file.full:
            stalls = self._stalls
            if stalls is not None:
                stalls["mshr_full"] = stalls.get("mshr_full", 0) + 4
            return 4
        fetch = Message(MessageType.LOAD, line_addr, msg.scope, msg.core,
                        self)
        if not self._mem_offer(fetch, self):
            return False
        mshr_file.allocate(line_addr, msg.exclusive).waiters.append(msg)
        scope = msg.scope
        if scope is not None:
            fetches = self._scope_fetches
            fetches[scope] = fetches.get(scope, 0) + 1
        return True

    def receive_response(self, resp: Message) -> None:
        """A memory fill: install, then answer the waiting L1 fetches."""
        line_addr = resp.addr
        mshr = self.mshr_file.complete(line_addr)
        if mshr is None:
            return
        scope = resp.scope
        if scope is not None:
            fetches = self._scope_fetches
            count = fetches[scope] - 1
            if count:
                fetches[scope] = count
            else:
                del fetches[scope]
        line = self._install(line_addr, scope, resp.version)
        sharers = self._dir.setdefault(line_addr, set())
        for waiter in mshr.waiters:
            if waiter.mtype is _LOAD and not waiter.exclusive:
                sharers.add(waiter.core)
                self._respond(waiter, _LOAD_RESP, line.version)
            else:
                self._invalidate_sharers(line, except_core=waiter.core)
                sharers.clear()
                sharers.add(waiter.core)
                self._respond(waiter, _LOAD_RESP, line.version)

    def _install(self, line_addr: int, scope: Optional[int], version: int) -> CacheLine:
        victim = self.array.victim(line_addr)
        if victim is not None:
            self._evict(victim)
        pim = scope is not None
        line = self.array.fill(line_addr, MesiState.EXCLUSIVE, version, scope, pim)
        if pim:
            self.sbv.mark(self.array.set_index(line_addr))
            # A line of this scope is cached again: the scope buffer entry
            # is no longer a valid "scope is flushed" witness.
            self.scope_buffer.invalidate(scope)
        return line

    def _evict(self, victim: CacheLine) -> None:
        """Inclusive eviction: purge L1 copies, write back if dirty."""
        dirty, version = self._recall_line(victim)
        index = self.array.set_index(victim.addr)
        self.array.remove(victim.addr)
        self._dir.pop(victim.addr, None)
        if victim.pim:
            self.sbv.update_on_eviction(index, self.array.set_has_pim_line(index))
        if dirty:
            self._queue_writeback(victim.addr, victim.scope, version)

    def _recall_line(self, line: CacheLine) -> Tuple[bool, int]:
        """Invalidate all L1 copies; merge any modified data."""
        version = line.version
        dirty = line.dirty
        for core in self._dir.get(line.addr, ()):
            l1_dirty, l1_version = self.l1s[core].back_invalidate(line.addr)
            if l1_dirty and l1_version > version:
                version = l1_version
                dirty = True
        return dirty, version

    def _invalidate_sharers(self, line: CacheLine, except_core: int) -> None:
        sharers = self._dir.get(line.addr, set())
        for core in list(sharers):
            if core == except_core:
                continue
            dirty, version = self.l1s[core].back_invalidate(line.addr)
            if dirty and version > line.version:
                line.version = version
                line.state = MesiState.MODIFIED
            sharers.discard(core)

    # -- writebacks and flushes ----------------------------------------- #

    def _handle_writeback(self, msg: Message) -> bool:
        line = self.array.lookup(msg.addr, touch=False)
        if line is not None:
            if msg.version > line.version:
                line.version = msg.version
            line.state = MesiState.MODIFIED
            sharers = self._dir.get(line.addr)
            if sharers is not None:
                sharers.discard(msg.core)
            return True  # absorbed: writebacks get no response
        # Inclusive-violation race (we already evicted): pass to memory.
        return self._forward_mem(msg)

    def _handle_flush(self, msg: Message) -> Union[bool, int]:
        """clflush: purge the line everywhere, write back, ACK the core."""
        line = self.array.lookup(msg.addr, touch=False)
        version = msg.version  # dirty data the L1 attached, if any
        dirty = version > 0
        if line is not None:
            line_dirty, line_version = self._recall_line(line)
            index = self.array.set_index(line.addr)
            self.array.remove(line.addr)
            self._dir.pop(line.addr, None)
            if line.pim:
                self.sbv.update_on_eviction(index, self.array.set_has_pim_line(index))
            if line_dirty and line_version > version:
                version = line_version
            dirty = dirty or line_dirty
        if dirty:
            wb = Message(MessageType.WRITEBACK, addr=msg.addr,
                         scope=msg.scope, core=msg.core, version=version)
            if not self._mem_offer(wb, self):
                return False
        self._respond(msg, MessageType.FLUSH_ACK, version)
        return True

    # -- PIM ops and scope fences (Section IV) --------------------------- #

    def _handle_pim_op(self, msg: Message) -> Union[bool, int]:
        if not self._head_scanned:
            if self._scope_fetch_in_flight(msg.scope):
                return 4
            self._head_scanned = True
            latency = self._scan_or_skip(msg.scope)
            if latency:
                return latency
        if not self._drain_writebacks():
            return False
        if not self._mem_offer(msg, self):
            return False
        return True

    def _handle_scope_fence(self, msg: Message) -> Union[bool, int]:
        if not self._head_scanned:
            if self._scope_fetch_in_flight(msg.scope):
                return 4
            self._head_scanned = True
            latency = self._scan_or_skip(msg.scope)
            if latency:
                return latency
        if not self._drain_writebacks():
            return False
        # The scope-fence terminates at the LLC (Fig. 6d).
        self._respond(msg, MessageType.SCOPE_FENCE_ACK, 0)
        return True

    def _scope_fetch_in_flight(self, scope: int) -> bool:
        """Is a memory fetch for a line of ``scope`` still outstanding?

        The scan/flush must cover such lines, but they are not in the
        array yet -- their fill would re-install pre-PIM data *after*
        the flush and serve it to post-flush readers (a stale-read
        window a racing core opens; the issuing core itself drains its
        same-scope accesses before a PIM op or fence).  The flush point
        therefore stalls at the head of the queue until those fills
        land; fills bypass the service queue, so the wait always
        terminates, and no new fetch can slip in past the blocked head.
        A fetch carries its line's scope, so a per-scope count answers
        without walking the MSHR file.
        """
        return scope in self._scope_fetches

    def _scan_or_skip(self, scope: int) -> int:
        """Scope-buffer lookup; on miss, scan+flush and return the latency.

        The flush's directory work happens here (state changes are
        immediate); the returned latency models the set-by-set scan that
        blocks the LLC (Fig. 10c counts scope-buffer hits as zero-cycle
        scans).
        """
        if self.scope_buffer_enabled and self.scope_buffer.lookup(scope):
            self._scan_latency.sample(0)
            return 0
        if self.sbv_enabled:
            set_indices = self.sbv.sets_to_scan()
        else:
            set_indices = list(range(self.array.num_sets))
        self.sbv.record_scan(len(set_indices))
        latency = max(1, len(set_indices) * self.config.scan_cycles_per_set)
        self._scan_latency.sample(latency)
        take = self.array.take_scope_lines
        update = self.sbv.update_on_eviction
        for index in set_indices:
            flushed, has_pim = take(index, scope)
            for line in flushed:
                dirty, version = self._recall_line(line)
                self._dir.pop(line.addr, None)
                self._flushed_lines.value += 1
                if dirty:
                    self._queue_writeback(line.addr, line.scope, version)
            update(index, has_pim)
        self.scope_buffer.insert(scope)
        return latency

    def on_dequeue(self) -> None:
        self._head_scanned = False

    # -- plumbing --------------------------------------------------------- #

    def _queue_writeback(self, addr: int, scope: Optional[int], version: int) -> None:
        self._pending_wbs.append(
            Message(MessageType.WRITEBACK, addr=addr, scope=scope,
                    version=version)
        )
        self._drain_writebacks()

    def _drain_writebacks(self) -> bool:
        while self._pending_wbs:
            if not self._mem_offer(self._pending_wbs[0], self):
                return False
            self._pending_wbs.popleft()
        return True

    def unblock(self) -> None:
        self._drain_writebacks()
        super().unblock()

    def _forward_mem(self, msg: Message) -> bool:
        return self._mem_offer(msg, self)

    def _respond(self, req: Message, mtype: MessageType, version: int) -> None:
        resp = req.make_response(mtype, version)
        self.sim.schedule(self._hit_latency, self._resp_offer, resp, None)
