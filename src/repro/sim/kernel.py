"""Event queue and simulator loop: a three-tier scheduler.

The simulator is a discrete-event kernel; time is measured in *clock
cycles* of the host processor (3.6 GHz in the paper's Table II) and
converting to seconds is the job of the reporting layer.  Pending events
live in one of three tiers, picked by their delay at scheduling time:

* **ring** (delay 0) -- the continuation trampolines that dominate
  pipeline simulations (``offer`` -> ``_serve``, ``unblock`` -> retry)
  go onto an immediate-dispatch FIFO drained at the current cycle;
* **wheel** (delay 1..255) -- a timing wheel of ``WHEEL_SLOTS`` per-cycle
  buckets indexed by ``cycle & WHEEL_MASK``.  Service intervals, link and
  cache latencies and DRAM/PIM access times all land here, so the
  short-delay traffic that used to dominate the heap is O(1) to insert
  and O(1) to drain;
* **heap** (delay >= ``WHEEL_SLOTS``) -- far-future events (PIM op
  execution, long scans) fall back to a classic ``(time, seq, callback,
  args)`` priority queue.

Global event order is byte-identical to a pure-heap kernel: every event
carries the global sequence number, and the run loop merges wheel and
heap entries at the current cycle in sequence order before draining the
ring.  (Ring entries are always youngest -- zero-delay events can only
be scheduled *at* the current cycle, so their sequence numbers exceed
those of any wheel or heap entry landing on it.)

Because a wheel insert never reaches delay ``WHEEL_SLOTS``, a bucket
only ever holds entries for one cycle at a time, and the time-advance
scan visits each passed slot exactly once -- O(total cycles) over a run,
bounded by the heap head when the wheel is sparse.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Optional

#: Timing-wheel size (power of two).  Delays 1..WHEEL_SLOTS-1 ride the
#: wheel; the bound must stay above the largest common latency in the
#: timing model (DRAM/PIM accesses: 200 cycles).  Components schedule
#: only through :meth:`Simulator.schedule` / :meth:`Simulator.call_at_now`,
#: so the tiers and the ``(seq, callback, args)`` entry shape are private
#: to this module.
WHEEL_SLOTS = 256
WHEEL_MASK = WHEEL_SLOTS - 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


class Simulator:
    """Discrete-event simulator with integer cycle timestamps.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5, hits.append, "a")
    >>> sim.schedule(3, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    5
    """

    __slots__ = ("now", "_queue", "_ring", "_wheel", "_wheel_count", "_seq",
                 "_events_executed", "_running", "_stop")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list = []
        self._ring: deque = deque()
        self._wheel: list = [deque() for _ in range(WHEEL_SLOTS)]
        self._wheel_count: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._running = False
        self._stop = False

    @property
    def events_executed(self) -> int:
        """Number of events the kernel has executed so far.

        The run loop batches this counter and syncs it on exit; a
        component callback reading it *mid-run* sees the value as of the
        start of the run.
        """
        return self._events_executed

    def schedule(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        Events scheduled at the same cycle run in scheduling order (the
        sequence number breaks ties), which keeps runs deterministic.
        The delay picks the tier: 0 -> ring, 1..WHEEL_SLOTS-1 -> wheel,
        anything further -> heap.
        """
        if delay <= 0:
            # Debug-only guard (compiled out under ``python -O``, like an
            # assert): a negative delay is always a component bug, and
            # the optimized run loop should not pay for the check.
            if __debug__ and delay < 0:
                raise SimulationError(f"negative delay {delay!r}")
            self._seq = seq = self._seq + 1
            self._ring.append((seq, callback, args))
            return
        self._seq = seq = self._seq + 1
        if delay < WHEEL_SLOTS:
            self._wheel[(self.now + delay) & WHEEL_MASK].append(
                (seq, callback, args))
            self._wheel_count += 1
        else:
            heapq.heappush(self._queue, (self.now + delay, seq, callback, args))

    def call_at_now(self, callback: Callable, *args: Any) -> None:
        """Fast path for ``schedule(0, ...)``: no delay validation at all.

        Service kick-offs and wake-ups (``QueuedComponent.offer`` /
        ``unblock``, core steps, the MC's serve loop) go through here.
        """
        self._seq = seq = self._seq + 1
        self._ring.append((seq, callback, args))

    def stop(self) -> None:
        """Stop the run loop after the event currently executing.

        Callers that know the stopping condition flipped (e.g. the last
        core finished) set the flag from inside their event, so the loop
        polls no predicate.
        """
        self._stop = True

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queues drain, a bound is hit or
        :meth:`stop` is called.

        Args:
            until: stop once the next event would be later than this cycle.
            max_events: safety valve against runaway simulations.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            # Local aliases: this loop is the hottest code in the package.
            queue = self._queue
            ring = self._ring
            wheel = self._wheel
            mask = WHEEL_MASK
            pop = heapq.heappop
            ring_popleft = ring.popleft
            events = self._events_executed
            now = self.now
            limit = sys.maxsize if max_events is None else max_events
            # Within one cycle the three tiers drain in global sequence
            # order: the current wheel bucket merged with heap entries at
            # `now` (both scheduled in earlier cycles), then the ring
            # (whose entries are created at `now` and therefore youngest).
            # `heap_at_now` turns False the moment the heap head moves
            # past `now` -- callbacks can never push a heap (or wheel)
            # entry at the *current* cycle, so the flag only flips back
            # when time advances and the common ring-only stretch runs
            # with no heap peeking at all.  For the same reason the
            # current bucket's size is fixed once its cycle starts, so
            # `_wheel_count` is deducted once per cycle (and leftover
            # entries are restored on an early exit) instead of per pop.
            bucket = wheel[now & mask]
            self._wheel_count -= len(bucket)
            heap_at_now = True
            if until is not None and now > until:
                return
            while True:
                # -- select exactly one event ------------------------- #
                if bucket:
                    if heap_at_now and queue:
                        head = queue[0]
                        if head[0] != now:
                            heap_at_now = False
                            _, cb, args = bucket.popleft()
                        elif head[1] < bucket[0][0]:
                            pop(queue)
                            cb = head[2]
                            args = head[3]
                        else:
                            _, cb, args = bucket.popleft()
                    else:
                        heap_at_now = False
                        _, cb, args = bucket.popleft()
                elif heap_at_now:
                    if queue and queue[0][0] == now:
                        head = pop(queue)
                        cb = head[2]
                        args = head[3]
                    else:
                        heap_at_now = False
                        continue
                elif ring:
                    _, cb, args = ring_popleft()
                else:
                    # -- advance time (or finish) --------------------- #
                    # (`bucket` itself is only reassigned past the
                    # `until` check: the early return must leave the
                    # drained current bucket for the exit bookkeeping.)
                    if self._wheel_count:
                        # The next nonempty bucket is at most
                        # WHEEL_SLOTS-1 slots ahead; stop early at the
                        # heap head so a sparse wheel never over-scans.
                        t = now + 1
                        nxt = wheel[t & mask]
                        if queue:
                            heap_time = queue[0][0]
                            while not nxt and t != heap_time:
                                t += 1
                                nxt = wheel[t & mask]
                        else:
                            while not nxt:
                                t += 1
                                nxt = wheel[t & mask]
                    elif queue:
                        t = queue[0][0]
                        nxt = wheel[t & mask]
                    else:
                        return
                    if until is not None and t > until:
                        self.now = until
                        return
                    self.now = now = t
                    bucket = nxt
                    self._wheel_count -= len(bucket)
                    heap_at_now = True
                    continue
                # -- dispatch + the one shared post-event epilogue ---- #
                # (Most callbacks are zero-arg service/step trampolines;
                # the plain call skips the *-unpack calling convention.)
                if args:
                    cb(*args)
                else:
                    cb()
                events += 1
                if events >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at cycle {self.now}"
                    )
                if self._stop:
                    self._stop = False
                    return
        finally:
            # Synced once on exit (normal, stop, or an exception out of a
            # callback): nothing in the timing model reads these mid-run,
            # and the per-event attribute stores are measurable at this
            # loop's temperature.  Un-executed entries of the current
            # bucket (early stop) are re-counted.
            self._events_executed = events
            self._wheel_count += len(bucket)
            self._running = False

    def pending_events(self) -> int:
        """Number of events waiting (dispatch ring + wheel + heap)."""
        count = len(self._queue) + len(self._ring) + self._wheel_count
        if self._running:
            # The run loop pre-deducts the current cycle's bucket from
            # the wheel count; its un-executed entries are still queued.
            count += len(self._wheel[self.now & WHEEL_MASK])
        return count
