"""Per-core bounded admission queue with arrival-to-settle accounting.

One :class:`AdmissionQueue` sits logically in front of each core's entry
point.  The core's program carries one ``ARRIVE`` marker per request;
when the core reaches a marker it settles the previous request, then
asks the queue what to do with the next one:

* **admit** -- the request arrived and survived the depth bound; the
  core starts its body and the queue records the admission-time depth;
* **wait** -- the request hasn't arrived yet; the core sleeps until the
  precomputed arrival cycle (one timing-wheel/heap event, no polling);
* **drop** -- the bounded queue shed the request while the core was
  busy; the core skips the request body in O(1) (the marker carries the
  body length).

The queue counts in plain ints (``offered``, ``admitted``, ``dropped``,
``completed``) and two histograms (``latency``, ``queue_depth``), and
:meth:`AdmissionQueue.snapshot` adds them to the core's snapshot as
``req_*``, ``latency_*`` and ``queue_depth_*``.  Queues exist only when
traffic is open, so closed-loop snapshots gain no keys and default
digests hold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.sim.stats import HistogramStat, Number

#: ``poll`` verdicts: admitted now / shed; positive values are a wait.
ADMIT = 0
DROP = -1


class AdmissionQueue:
    """FIFO admission over a precomputed arrival schedule.

    Requests are identified by their index into the arrival array; the
    core presents them in order, so the FIFO discipline reduces to
    integer bookkeeping -- no deque of request objects, just a count of
    arrivals examined, a waiting counter, and the set of shed indices.
    """

    __slots__ = ("arrivals", "depth", "latency", "queue_depth",
                 "offered", "admitted", "dropped", "completed",
                 "_next", "_waiting", "_shed", "_in_service",
                 "_service_arrival")

    def __init__(self, arrivals: List[int], depth: Optional[int]) -> None:
        self.arrivals = arrivals
        self.depth = depth
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        self.completed = 0
        self.latency = HistogramStat("latency")
        self.queue_depth = HistogramStat("queue_depth")
        self._next = 0          # first arrival not yet examined
        self._waiting = 0       # arrived, not shed, not yet in service
        self._shed: Set[int] = set()
        self._in_service = -1   # request index in service (-1: none)
        self._service_arrival = 0

    def _catch_up(self, now: int) -> None:
        """Account every arrival up to ``now`` (enqueue or shed)."""
        arrivals = self.arrivals
        n = len(arrivals)
        nxt = self._next
        while nxt < n and arrivals[nxt] <= now:
            self.offered += 1
            if self.depth is not None and self._waiting >= self.depth:
                self._shed.add(nxt)
                self.dropped += 1
            else:
                self._waiting += 1
            nxt += 1
        self._next = nxt

    def poll(self, request: int, now: int) -> int:
        """The core is free and at request ``request``'s ARRIVE marker.

        Returns :data:`ADMIT` (start the body now), :data:`DROP` (the
        bounded queue shed it; skip the body), or a positive cycle count
        to sleep until the request's arrival.
        """
        self._catch_up(now)
        if request in self._shed:
            self._shed.discard(request)
            return DROP
        if request >= self._next:
            return self.arrivals[request] - now
        # Arrived and queued; FIFO order is the program order, so this
        # is the head.  Sample depth including the departing request.
        self.queue_depth.record(self._waiting)
        self._waiting -= 1
        self.admitted += 1
        self._in_service = request
        self._service_arrival = self.arrivals[request]
        return ADMIT

    def settle(self, now: int) -> None:
        """The in-service request's last memory op completed at ``now``.

        Idempotent: called at the next ARRIVE marker *and* at the final
        barrier, whichever comes first.
        """
        if self._in_service >= 0:
            self.latency.record(now - self._service_arrival)
            self.completed += 1
            self._in_service = -1

    def snapshot(self, out: Dict[str, Number]) -> None:
        """Add the ``req_*`` counters and both histograms to ``out``."""
        out["req_offered"] = self.offered
        out["req_admitted"] = self.admitted
        out["req_dropped"] = self.dropped
        out["req_completed"] = self.completed
        self.latency.snapshot(out)
        self.queue_depth.snapshot(out)
