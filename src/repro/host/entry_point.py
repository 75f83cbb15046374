"""The memory-subsystem entry point (the write buffer of Fig. 6b).

Every memory operation a core commits enters the memory subsystem here.
The entry point enforces the per-model ordering rules on PIM ops: it
withholds the operations its :class:`~repro.host.policies.IssuePolicy`
says must wait for a pending PIM-op ACK (store model: everything but
other-scope loads; scope model: only same-scope operations -- a non-FIFO
write buffer; scope-relaxed and the baselines: nothing), and it tracks
scope-fence ACKs for the scope-relaxed model.

Routing: loads/stores/flushes go to the core's L1 (or, uncacheable,
straight onto the request network); PIM ops bypass the L1 except under
scope-relaxed, where they traverse it (Fig. 6c); scope fences always
traverse the L1 (they must scan it, Fig. 6d).

Under the open-loop traffic model a second, *logical* queue sits ahead
of this one: the per-core bounded admission queue
(:class:`repro.traffic.AdmissionQueue`).  Requests arrive on a
precomputed seeded schedule, are shed past the configured depth, and
their latency is measured from arrival to settle -- the entry point
itself is unchanged; it just sees each admitted request's operations
when the core starts serving it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.core.models import ConsistencyModel
from repro.host.policies import IssuePolicy
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.sim.stats import StatGroup

#: Module-level aliases: the serve loop tests message kinds per queue
#: entry, and a global load is cheaper than the enum attribute lookup.
_LOAD = MessageType.LOAD
_STORE = MessageType.STORE
_FLUSH = MessageType.FLUSH
_PIM_OP = MessageType.PIM_OP
_SCOPE_FENCE = MessageType.SCOPE_FENCE


class EntryPoint(Component):
    """Per-core entry point enforcing PIM-op ordering (Section V)."""

    __slots__ = ("core_id", "policy", "l1", "req_net", "depth", "_queue",
                 "_core", "_serving", "pending_pim_scopes",
                 "pending_pim_acks", "fenced_scopes", "pending_scope_fences",
                 "stats", "_forwarded", "_holds_free", "_holds_stores",
                 "_pim_reorders", "_serve_bound", "_l1_offer", "_req_offer")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        core_id: int,
        policy: IssuePolicy,
        l1: Component,
        req_net: Component,
        depth: int = 16,
    ) -> None:
        super().__init__(sim, name)
        self.core_id = core_id
        self.policy = policy
        self.l1 = l1
        self.req_net = req_net
        self.depth = depth
        self._queue: deque = deque()
        self._core = None  # set by the system builder (wake callback)
        self._serving = False
        #: scope -> count of forwarded, un-ACKed PIM ops.
        self.pending_pim_scopes: Dict[int, int] = {}
        #: PIM ops forwarded and not yet ACKed (all scopes).
        self.pending_pim_acks = 0
        #: scopes with an outstanding (un-ACKed) scope-fence.
        self.fenced_scopes: Set[int] = set()
        self.pending_scope_fences = 0
        self.stats = StatGroup(name)
        # Batched as a plain int (one attribute bump per forward) and
        # synced into the StatGroup only when a snapshot is taken.
        self._forwarded = 0
        self.stats.register_flush(self._flush_stats)
        # Policy traits predigested for the per-cycle serve loop (the
        # loop inlines IssuePolicy.may_forward; these avoid re-deriving
        # the per-model facts on every queue scan).
        # Pre-bound callables for the per-forward hot path.
        self._serve_bound = self._serve
        self._l1_offer = l1.offer
        self._req_offer = req_net.offer
        props_holds = policy.props.entry_point_holds
        self._holds_free = props_holds in ("none", "all")
        self._holds_stores = props_holds == "stores"
        self._pim_reorders = policy.model is ConsistencyModel.SCOPE_RELAXED

    def attach_core(self, core) -> None:
        self._core = core

    def _flush_stats(self) -> None:
        self.stats.counter("ops_forwarded").value = self._forwarded

    # ------------------------------------------------------------------ #
    # core side
    # ------------------------------------------------------------------ #

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.depth

    @property
    def drained(self) -> bool:
        return not self._queue

    def offer(self, msg: Message, sender: Optional[Component] = None) -> bool:
        queue = self._queue
        if len(queue) >= self.depth:
            return False
        queue.append(msg)
        if not self._serving:
            self._serving = True
            self.sim.schedule(1, self._serve_bound)
        return True

    # ------------------------------------------------------------------ #
    # service: forward the first permitted message
    # ------------------------------------------------------------------ #

    def _schedule_serve(self) -> None:
        # The entry point forwards at most one message per cycle (offer
        # and the head fast path of _serve repeat this body inline).
        if not self._serving:
            self._serving = True
            self.sim.schedule(1, self._serve_bound)

    def _serve(self) -> None:
        self._serving = False
        # One forward per cycle; scan for the first permitted message.
        # This loop inlines :meth:`IssuePolicy.may_forward` (it runs for
        # every entry-point cycle), and the ordering context each
        # candidate sees -- "an older store/flush to my line sits
        # ahead", "an older PIM op / scope-fence to my scope sits ahead"
        # -- accumulates incrementally in one queue walk instead of
        # re-scanning the prefix per candidate (the old O(n^2) shape).
        queue = self._queue
        if not queue:
            return
        pending = self.pending_pim_scopes
        fenced = self.fenced_scopes
        # Head fast path: the queue head sees no older-message ordering
        # context, so in-order traffic (the overwhelmingly common case)
        # skips the scanning loop entirely.  A blocked head falls
        # through to the full scan, which re-derives the same verdict.
        msg = queue[0]
        mtype = msg.mtype
        scope = msg.scope
        allowed = True
        if (scope is not None and mtype is not _PIM_OP
                and scope in fenced):
            allowed = False
        if allowed and not self._holds_free:
            if self._holds_stores:
                if pending:
                    if mtype is _LOAD:
                        allowed = scope not in pending
                    else:
                        allowed = False
            else:
                allowed = scope not in pending
        if allowed:
            if mtype is _PIM_OP or mtype is _SCOPE_FENCE:
                accepted = self._forward(msg)
            elif msg.uncacheable:
                accepted = self._req_offer(msg, self)
            else:
                accepted = self._l1_offer(msg, self)
            if accepted:
                queue.popleft()
                self._forwarded += 1
                trace = self._trace
                if trace is not None:
                    trace.record(self.sim.now, self.name, mtype.name,
                                 msg.op_id)
                if self._core is not None:
                    self._core.on_entry_point_progress()
                if queue and not self._serving:
                    self._serving = True
                    self.sim.schedule(1, self._serve_bound)
            return
        store_lines = None  # lines of earlier stores/flushes (lazy)
        pim_scopes = None  # scopes of earlier queued PIM ops (lazy)
        fence_scopes = None  # scopes of earlier queued scope-fences
        forwarded = False
        pim_op = _PIM_OP
        holds_free = self._holds_free
        holds_stores = self._holds_stores
        pim_reorders = self._pim_reorders
        for i, msg in enumerate(self._queue):
            mtype = msg.mtype
            scope = msg.scope
            allowed = True
            if (mtype is _LOAD and store_lines is not None
                    and (msg.addr & ~63) in store_lines):
                # Store-to-load order: an older store/flush to the same
                # line sits in the entry point.
                allowed = False
            elif scope is not None and mtype is not pim_op:
                # A held PIM op behaves like an un-ACKed one for
                # ordering: a younger same-scope access jumping over it
                # would read pre-PIM data (the Fig. 1 race, reproduced
                # inside the write buffer).  Whether the PIM op blocks
                # the younger access is the policy's call (scope-relaxed
                # permits the reorder); a queued or un-ACKed scope-fence
                # blocks same-scope accesses under every model --
                # ordering is its entire purpose.
                if fence_scopes is not None and scope in fence_scopes:
                    allowed = False
                elif (not pim_reorders and pim_scopes is not None
                        and scope in pim_scopes):
                    allowed = False
                elif scope in fenced:
                    allowed = False
            if allowed and not holds_free:
                # Pending-ACK holds (store model: everything but
                # other-scope loads; scope model: same-scope only).
                if holds_stores:
                    if pending:
                        if mtype is _LOAD:
                            allowed = scope not in pending
                        else:
                            allowed = False
                else:
                    allowed = scope not in pending
            if allowed:
                # Plain loads/stores/flushes route straight to the L1
                # (or, uncacheable, the request network); PIM ops and
                # scope fences take the bookkeeping path in _forward().
                if mtype is pim_op or mtype is _SCOPE_FENCE:
                    accepted = self._forward(msg)
                elif msg.uncacheable:
                    accepted = self._req_offer(msg, self)
                else:
                    accepted = self._l1_offer(msg, self)
                if accepted:
                    if i:
                        del self._queue[i]
                    else:
                        self._queue.popleft()
                    forwarded = True
                    trace = self._trace
                    if trace is not None:
                        trace.record(self.sim.now, self.name, mtype.name,
                                     msg.op_id)
                break
            # Not forwardable: record the ordering constraints this
            # message imposes on everything younger.
            if mtype is _STORE or mtype is _FLUSH:
                if store_lines is None:
                    store_lines = {msg.addr & ~63}
                else:
                    store_lines.add(msg.addr & ~63)
            elif mtype is _SCOPE_FENCE:
                if fence_scopes is None:
                    fence_scopes = {scope}
                else:
                    fence_scopes.add(scope)
            elif mtype is pim_op:
                if pim_scopes is None:
                    pim_scopes = {scope}
                else:
                    pim_scopes.add(scope)
        if forwarded:
            self._forwarded += 1
            if self._core is not None:
                self._core.on_entry_point_progress()
            if self._queue:
                self._schedule_serve()

    def _forward(self, msg: Message) -> bool:
        mtype = msg.mtype
        if mtype is _PIM_OP:
            msg.direct = self.policy.pim_is_direct
            target = self.l1 if self.policy.routes_pim_through_l1 else self.req_net
            if not target.offer(msg, self):
                return False
            if not self.policy.blocks_commit:
                # The MC ACKs every PIM op; when the core is not itself
                # waiting (every model but atomic), the ACK lands here.
                # ``pending_pim_acks`` backs the dedicated PIM fence;
                # ``pending_pim_scopes`` additionally drives the store/
                # scope models' holds.
                self.pending_pim_acks += 1
                if self.policy.props.entry_point_holds in ("stores", "same-scope"):
                    scope_count = self.pending_pim_scopes.get(msg.scope, 0)
                    self.pending_pim_scopes[msg.scope] = scope_count + 1
            return True
        if mtype is _SCOPE_FENCE:
            if not self.l1.offer(msg, self):
                return False
            self.fenced_scopes.add(msg.scope)
            self.pending_scope_fences += 1
            return True
        target = self.req_net if msg.uncacheable else self.l1
        return target.offer(msg, self)

    def unblock(self) -> None:
        self._schedule_serve()

    # ------------------------------------------------------------------ #
    # ACKs from the memory subsystem
    # ------------------------------------------------------------------ #

    def receive_response(self, resp: Message) -> None:
        if resp.mtype is MessageType.PIM_ACK:
            self.pending_pim_acks -= 1
            if resp.scope in self.pending_pim_scopes:
                count = self.pending_pim_scopes[resp.scope] - 1
                if count <= 0:
                    del self.pending_pim_scopes[resp.scope]
                else:
                    self.pending_pim_scopes[resp.scope] = count
        elif resp.mtype is MessageType.SCOPE_FENCE_ACK:
            self.pending_scope_fences -= 1
            self.fenced_scopes.discard(resp.scope)
        else:  # pragma: no cover - defensive
            raise ValueError(f"entry point got {resp.mtype}")
        self._schedule_serve()
        if self._core is not None:
            self._core.on_subsystem_ack(resp)
