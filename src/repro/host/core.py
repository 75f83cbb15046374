"""Host cores.

A core executes its :class:`~repro.host.program.ThreadProgram` in commit
order: memory operations are handed to the entry point at commit, loads
may overlap up to a memory-level-parallelism limit, and fences block
until the relevant outstanding operations complete.  PIM ops follow the
active consistency model:

* **atomic** -- the core behaves as if the PIM op were wrapped in fences:
  it quiesces, issues the op, and withholds commit until the MC's ACK
  (Fig. 6a).
* **store / scope** -- the op is issued and committed immediately; the
  entry point does the holding (Fig. 6b).
* **scope-relaxed / baselines** -- the op is issued and committed; nothing
  waits (Fig. 6c).

The core is also where stale reads are detected: each load op may carry
the minimum version a correct execution must observe, and the response's
observed version is checked against it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.models import ModelProperties
from repro.host.entry_point import EntryPoint
from repro.host.program import ThreadOp, ThreadOpKind, ThreadProgram
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.sim.stats import Number

#: Module-level aliases for the per-step dispatch (a global load is
#: cheaper than the enum attribute lookup on every committed op).
_LOAD = ThreadOpKind.LOAD
_COMPUTE = ThreadOpKind.COMPUTE
_STORE = ThreadOpKind.STORE
_FLUSH = ThreadOpKind.FLUSH
_PIM_OP = ThreadOpKind.PIM_OP
_SCOPE_FENCE = ThreadOpKind.SCOPE_FENCE
_MEM_FENCE = ThreadOpKind.MEM_FENCE
_PIM_FENCE = ThreadOpKind.PIM_FENCE
_BARRIER = ThreadOpKind.BARRIER
_ARRIVE = ThreadOpKind.ARRIVE
_MT_LOAD_RESP = MessageType.LOAD_RESP
_MT_STORE_ACK = MessageType.STORE_ACK
_MT_FLUSH_ACK = MessageType.FLUSH_ACK
_MT_PIM_ACK = MessageType.PIM_ACK


class Core(Component):
    """One host core running one thread program."""

    __slots__ = ("core_id", "props", "entry_point", "max_outstanding_loads",
                 "issue_interval", "barrier_cb", "stale_cb", "done_cb",
                 "_done_notified", "program", "_ops", "pc", "_exhausted",
                 "outstanding_loads", "outstanding_stores",
                 "outstanding_flushes", "outstanding_by_scope",
                 "_waiting_pim_ack", "_at_barrier", "_step_scheduled",
                 "_stale_reads", "_loads", "_stores", "_pim_ops",
                 "finish_time", "_step_bound", "_ep_offer", "traffic",
                 "_stalls", "_fence_wait_since")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        core_id: int,
        props: ModelProperties,
        entry_point: EntryPoint,
        max_outstanding_loads: int = 8,
        issue_interval: int = 1,
        barrier_cb: Optional[Callable[["Core"], None]] = None,
        stale_cb: Optional[Callable[["Core", Message], None]] = None,
        done_cb: Optional[Callable[["Core"], None]] = None,
    ) -> None:
        super().__init__(sim, name)
        self.core_id = core_id
        self.props = props
        self.entry_point = entry_point
        entry_point.attach_core(self)
        self.max_outstanding_loads = max_outstanding_loads
        self.issue_interval = issue_interval
        self.barrier_cb = barrier_cb
        self.stale_cb = stale_cb
        #: Invoked once, the moment :attr:`done` first turns true.  The
        #: system's run loop counts these down instead of re-evaluating
        #: every core's ``done`` predicate after every kernel event.
        self.done_cb = done_cb
        self._done_notified = False
        self.program: Optional[ThreadProgram] = None
        self._ops = ()
        self.pc = 0
        self._exhausted = False
        self.outstanding_loads = 0
        self.outstanding_stores = 0
        self.outstanding_flushes = 0
        #: Outstanding loads/stores/flushes per scope (scope-model PIM
        #: issue and scope-fence issue wait on their own scope only).
        self.outstanding_by_scope: Dict[int, int] = {}
        self._waiting_pim_ack = False
        self._at_barrier = False
        self._step_scheduled = False
        # Pre-bound callables for the per-op hot path.
        self._step_bound = self._step
        self._ep_offer = entry_point.offer
        # Plain-int counters (one attribute bump per op), read by
        # snapshot().
        self._stale_reads = 0
        self._loads = 0
        self._stores = 0
        self._pim_ops = 0
        self.finish_time: Optional[int] = None
        #: Open-loop admission queue (``repro.traffic``); ``None`` keeps
        #: the legacy closed loop with zero overhead outside the rare
        #: BARRIER/ARRIVE branches.
        self.traffic = None
        #: Stall-attribution bucket (a Tracer-owned dict) when this run
        #: traces, else None; reasons: admission_wait/admission_shed
        #: (ARRIVE verdicts) and fence_wait (blocked fence cycles).
        self._stalls = None
        self._fence_wait_since: Optional[int] = None

    def snapshot(self) -> Dict[str, Number]:
        """This core's statistics as one flat dict (plus its admission
        queue's under open-loop traffic)."""
        out: Dict[str, Number] = {}
        if self.traffic is not None:
            self.traffic.snapshot(out)
        out["stale_reads"] = self._stale_reads
        out["loads"] = self._loads
        out["stores"] = self._stores
        out["pim_ops"] = self._pim_ops
        return out

    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """Program exhausted *and* every outstanding operation completed.

        A thread is only finished once its loads returned, its stores and
        flushes were acknowledged and nothing is left in the entry point
        -- otherwise run time would stop short of the memory system's
        actual work.
        """
        return (
            self._exhausted
            and not self._at_barrier
            and self.outstanding_loads == 0
            and self.outstanding_stores == 0
            and self.outstanding_flushes == 0
            and not self._waiting_pim_ack
            and self.entry_point.drained
            and self.entry_point.pending_pim_acks == 0
            and self.entry_point.pending_scope_fences == 0
        )

    def run_program(self, program: ThreadProgram) -> None:
        self.program = program
        self._ops = program.ops
        self.pc = 0
        self._exhausted = len(program) == 0
        self._done_notified = False
        self._schedule_step(0)

    def _schedule_step(self, delay: int = 0) -> None:
        if not self._step_scheduled and not self._exhausted:
            self._step_scheduled = True
            self.sim.schedule(delay, self._step_bound)

    def _step(self) -> None:
        self._step_scheduled = False
        if self._exhausted or self._at_barrier or self._waiting_pim_ack:
            return
        op = self._ops[self.pc]
        kind = op.kind
        # Dispatch ordered by issue frequency: loads dominate every
        # workload in the sweep, then modelled compute, then stores.
        if kind is _LOAD:
            self._issue_load(op)
        elif kind is _COMPUTE:
            self._advance()
            # Schedule unconditionally (not via _schedule_step) so a
            # trailing COMPUTE still advances the clock before `done`.
            self._step_scheduled = True
            self.sim.schedule(max(1, op.cycles), self._step_bound)
        elif kind is _STORE:
            self._issue_simple(op, MessageType.STORE)
        elif kind is _FLUSH:
            self._issue_simple(op, MessageType.FLUSH)
        elif kind is _PIM_OP:
            self._issue_pim(op)
        elif kind is _SCOPE_FENCE:
            self._issue_scope_fence(op)
        elif kind is _MEM_FENCE:
            self._mem_fence()
        elif kind is _PIM_FENCE:
            self._pim_fence()
        elif kind is _BARRIER:
            # A barrier models the workload client finishing an operation
            # (results consumed): the thread's outstanding accesses must
            # have completed before it reports in.  PIM ACKs are not
            # awaited -- execution may still be in flight in the module.
            if not self._quiesced(include_pim=False):
                return  # woken by response completions
            if self.traffic is not None:
                # The final open-loop request settles here, at the
                # trailing barrier, rather than at a next ARRIVE marker.
                self.traffic.settle(self.sim.now)
            self._advance()
            self._at_barrier = True
            if self.barrier_cb is not None:
                self.barrier_cb(self)
        elif kind is _ARRIVE:
            self._arrive(op)
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"core cannot execute {kind}")
        if self._exhausted and not self._done_notified:
            self._maybe_finish()

    def _advance(self) -> None:
        self.pc += 1
        if self.pc >= len(self._ops):
            self._exhausted = True
            self.finish_time = self.sim.now

    def _arrive(self, op: ThreadOp) -> None:
        """Open-loop request boundary (``repro.traffic``).

        The core is a single server: it first settles the previous
        request (arrival-to-settle latency), then asks the admission
        queue for a verdict on this one -- start it, sleep until its
        precomputed arrival cycle, or skip its body if the bounded
        queue shed it while the core was busy.
        """
        if not self._quiesced(include_pim=False):
            return  # woken by response completions
        traffic = self.traffic
        if traffic is None:
            raise RuntimeError(
                f"{self.name}: ARRIVE op without an admission queue "
                "(open-loop program under closed-loop traffic config?)")
        now = self.sim.now
        traffic.settle(now)
        verdict = traffic.poll(op.addr, now)
        if verdict > 0:  # not yet arrived: one wake-up at arrival time
            stalls = self._stalls
            if stalls is not None:
                stalls["admission_wait"] = \
                    stalls.get("admission_wait", 0) + verdict
            self._step_scheduled = True
            self.sim.schedule(verdict, self._step_bound)
            return
        if verdict < 0:  # shed: skip the request body in O(1)
            stalls = self._stalls
            if stalls is not None:
                stalls["admission_shed"] = stalls.get("admission_shed", 0) + 1
            self.pc += 1 + op.cycles
            if self.pc >= len(self._ops):
                self._exhausted = True
                self.finish_time = now
            self._schedule_step(0)
            return
        self._advance()
        self._schedule_step(0)

    # -- issuing --------------------------------------------------------- #

    def _issue_load(self, op: ThreadOp) -> None:
        if self.outstanding_loads >= self.max_outstanding_loads:
            return  # woken by a load completion
        if op.uncacheable and not self._uncacheable_ready():
            return  # UC accesses are strongly ordered (no overlap)
        msg = Message(MessageType.LOAD, op.addr, op.scope, self.core_id,
                      self, False, op.uncacheable, False, op.expect_version)
        if not self._ep_offer(msg):
            return  # woken by entry-point progress
        self.outstanding_loads += 1
        scope = op.scope
        if scope is not None:
            # Inlined _track_scope(scope, +1): one bump per scoped load.
            by_scope = self.outstanding_by_scope
            by_scope[scope] = by_scope.get(scope, 0) + 1
        self._loads += 1
        # Inlined _advance(): loads are the hottest committed op.
        self.pc = pc = self.pc + 1
        if pc >= len(self._ops):
            self._exhausted = True
            self.finish_time = self.sim.now
        self._schedule_step(self.issue_interval)

    def _track_scope(self, scope: Optional[int], delta: int) -> None:
        if scope is None:
            return
        count = self.outstanding_by_scope.get(scope, 0) + delta
        if count <= 0:
            self.outstanding_by_scope.pop(scope, None)
        else:
            self.outstanding_by_scope[scope] = count

    def _uncacheable_ready(self) -> bool:
        """x86 UC semantics: uncacheable accesses are strongly ordered
        and non-speculative -- no overlap with any outstanding access.
        This serialization (not the raw miss latency) is the main cost
        of the uncacheable coherency approach in Fig. 3."""
        return not (self.outstanding_loads or self.outstanding_stores
                    or self.outstanding_flushes)

    def _issue_simple(self, op: ThreadOp, mtype: MessageType) -> None:
        if op.uncacheable and not self._uncacheable_ready():
            return  # woken by response completions
        msg = Message(mtype, op.addr, op.scope, self.core_id, self,
                      False, op.uncacheable)
        if not self._ep_offer(msg):
            return
        if mtype is MessageType.STORE:
            self.outstanding_stores += 1
            self._stores += 1
        else:
            self.outstanding_flushes += 1
        if op.scope is not None:
            self._track_scope(op.scope, +1)
        self._advance()
        self._schedule_step(self.issue_interval)

    def _issue_pim(self, op: ThreadOp) -> None:
        # Commit-order semantics: wait for whatever earlier operations
        # this model forbids a PIM op to reorder with (see
        # _pim_issue_ready); without this an in-flight fill can
        # reinstall pre-PIM data after the op's flush -- the Fig. 1 race.
        if not self._pim_issue_ready(op):
            return
        blocks_commit = self.props.blocks_commit
        msg = Message(
            MessageType.PIM_OP, op.addr, op.scope, self.core_id,
            self if blocks_commit else self.entry_point,
        )
        if not self._ep_offer(msg):
            return
        self._pim_ops += 1
        if blocks_commit:
            # ...and no commit until the MC ACKs (Fig. 6a).
            self._waiting_pim_ack = True
        self._advance()
        self._schedule_step(self.issue_interval)

    def _pim_issue_ready(self, op: ThreadOp) -> bool:
        """May the PIM op issue now?  It waits for the earlier operations
        its model's entry point would hold behind it:

        * ``"all"`` (atomic) -- everything, PIM ACKs included (plus the
          post-issue ACK wait),
        * ``"stores"`` (store) -- all memory operations (TSO: stores
          pass nothing),
        * ``"same-scope"`` (scope) -- operations to the op's own scope,
        * ``"none"`` (scope-relaxed and the baselines) -- nothing; the
          scope-fence is the tool that restores same-scope order when
          software needs it.
        """
        holds = self.props.entry_point_holds
        if holds == "all":
            return self._quiesced()
        if holds == "stores":
            return not (self.outstanding_loads or self.outstanding_stores
                        or self.outstanding_flushes)
        if holds == "same-scope":
            return self.outstanding_by_scope.get(op.scope, 0) == 0
        return True

    def _issue_scope_fence(self, op: ThreadOp) -> None:
        # The fence may not pass (or be passed by) same-scope operations
        # in any path; in-flight fills to its scope must land first.
        if self.outstanding_by_scope.get(op.scope, 0) != 0:
            self._fence_blocked()
            return  # woken by response completions
        msg = Message(
            MessageType.SCOPE_FENCE,
            addr=op.addr,
            scope=op.scope,
            core=self.core_id,
            reply_to=self.entry_point,
        )
        if not self._ep_offer(msg):
            self._fence_blocked()
            return
        self._fence_unblocked()
        self._advance()
        self._schedule_step(self.issue_interval)

    def _mem_fence(self) -> None:
        # Under the atomic and store models PIM ops are ordinary memory
        # operations, so a MemFence waits for their ACKs; under the scope
        # models only the dedicated fences order PIM ops (Section III).
        holds = self.props.entry_point_holds
        if not self._quiesced(include_pim=holds == "all" or holds == "stores"):
            self._fence_blocked()
            return
        self._fence_unblocked()
        self._advance()
        self._schedule_step(self.issue_interval)

    def _pim_fence(self) -> None:
        ep = self.entry_point
        pim_queued = any(
            m.mtype in (MessageType.PIM_OP, MessageType.SCOPE_FENCE)
            for m in ep._queue
        )
        if pim_queued or ep.pending_pim_acks > 0 or ep.pending_scope_fences > 0:
            self._fence_blocked()
            return  # woken by subsystem ACKs / entry-point progress
        self._fence_unblocked()
        self._advance()
        self._schedule_step(self.issue_interval)

    def _fence_blocked(self) -> None:
        """Stall attribution: a fence could not commit this step."""
        if self._stalls is not None and self._fence_wait_since is None:
            self._fence_wait_since = self.sim.now

    def _fence_unblocked(self) -> None:
        """Flush the blocked-fence wait into the stall bucket."""
        since = self._fence_wait_since
        if since is not None:
            self._fence_wait_since = None
            stalls = self._stalls
            stalls["fence_wait"] = \
                stalls.get("fence_wait", 0) + (self.sim.now - since)

    def _quiesced(self, include_pim: bool = True) -> bool:
        if (self.outstanding_loads or self.outstanding_stores
                or self.outstanding_flushes or not self.entry_point.drained):
            return False
        if include_pim and self.entry_point.pending_pim_acks > 0:
            return False
        return True

    # -- wake-ups --------------------------------------------------------- #

    def receive_response(self, resp: Message) -> None:
        mtype = resp.mtype
        trace = self._trace
        if trace is not None:
            # Key the settle record on the *request* (a response is a
            # message of its own), so one request's hops share one span.
            req = resp.req
            trace.record(self.sim.now, self.name, mtype.name,
                         req if req is not None else resp)
        if mtype is _MT_LOAD_RESP:
            self.outstanding_loads -= 1
            scope = resp.scope
            if scope is not None:
                # Inlined _track_scope(scope, -1).
                by_scope = self.outstanding_by_scope
                count = by_scope.get(scope, 0) - 1
                if count <= 0:
                    by_scope.pop(scope, None)
                else:
                    by_scope[scope] = count
            expected = resp.req.version if resp.req is not None else 0
            if expected and resp.version < expected:
                self._stale_reads += 1
                if trace is not None:
                    # Invariant fired: snapshot the flight ring (the
                    # last N events leading up to this stale read).
                    trace.flight_trigger("stale_read", self.sim.now,
                                         self.name, resp.req)
                if self.stale_cb is not None:
                    self.stale_cb(self, resp)
        elif mtype is _MT_STORE_ACK:
            self.outstanding_stores -= 1
            if resp.scope is not None:
                self._track_scope(resp.scope, -1)
        elif mtype is _MT_FLUSH_ACK:
            self.outstanding_flushes -= 1
            if resp.scope is not None:
                self._track_scope(resp.scope, -1)
        elif mtype is _MT_PIM_ACK:
            # Atomic model: the op may now commit.  The PIM op itself is
            # still travelling toward the module -- only the ACK is dead.
            self._waiting_pim_ack = False
        else:  # pragma: no cover - defensive
            raise ValueError(f"core got {mtype}")
        # Inlined _schedule_step(0): one wake-up per response delivered.
        if not self._step_scheduled and not self._exhausted:
            self._step_scheduled = True
            self.sim.call_at_now(self._step_bound)
        elif self._exhausted and not self._done_notified:
            self._maybe_finish()

    def on_entry_point_progress(self) -> None:
        # Inlined _schedule_step(0): one wake-up per entry-point forward.
        if not self._step_scheduled and not self._exhausted:
            self._step_scheduled = True
            self.sim.call_at_now(self._step_bound)
        elif self._exhausted and not self._done_notified:
            self._maybe_finish()

    def on_subsystem_ack(self, resp: Message) -> None:
        self._schedule_step(0)
        if self._exhausted and not self._done_notified:
            self._maybe_finish()

    def release_barrier(self) -> None:
        self._at_barrier = False
        self._schedule_step(0)
        if self._exhausted and not self._done_notified:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        """Fire ``done_cb`` exactly once, when :attr:`done` first holds.

        ``done`` is monotonic once the program is exhausted (nothing can
        issue anymore, so outstanding work only drains), which is what
        makes the one-shot notification equivalent to polling ``done``
        after every kernel event.
        """
        if self.done:
            self._done_notified = True
            if self.done_cb is not None:
                self.done_cb(self)

    @property
    def stale_reads(self) -> int:
        return self._stale_reads
