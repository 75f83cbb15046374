"""The trace recorder: bounded event ring, stalls, flight snapshots.

One :class:`Tracer` instance rides along with one
:class:`~repro.system.builder.System` when its config carries an enabled
:class:`~repro.sim.config.TraceConfig`.  Components record through two
kinds of hook, both dormant behind a ``None`` attribute when tracing is
off:

* **event records** -- ``tracer.record(cycle, component, kind, msg)``
  appends a ``(cycle, component, kind, op_id)`` 4-tuple to a bounded
  ring (:class:`collections.deque` with ``maxlen``); once full, the
  oldest records fall off and ``events_dropped`` counts them.
  ``ring_size=0`` disables event recording entirely (stall attribution
  still runs), which is what campaign-level tracing uses to keep store
  entries small.
* **stall buckets** -- ``tracer.stall_bucket(component)`` hands the
  component a plain dict it increments in place
  (``bucket[reason] = bucket.get(reason, 0) + n``), so the hot path
  pays one dict update and no method call.

The **flight recorder** (``TraceConfig.flight``) snapshots the ring the
first time an invariant trips mid-run -- today the trigger is a stale
read observed by a core -- so a fuzz violation carries the last N events
leading up to it (:func:`repro.fuzz.harness.fuzz_run` with tracing).

Op ids are numbered per run, by the tracer: a message is created with
``op_id == 0``, and the tracer gives it the next number from its own
counter the first time it records the message.  So two runs of one spec
number their events alike whatever ran before them in the process, and
untraced runs touch no counter at all.

Everything here is observational: a tracer never schedules events and
touches no simulation state (``op_id`` is read by nothing but the
tracer), which is why result digests are byte-identical with tracing on
or off.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

#: Schema tag of the obs payload attached to a SimulationResult.
OBS_SCHEMA = "repro-obs/1"

#: The stall taxonomy (see docs/observability.md for each unit).  Values
#: are cycles (waits with a known duration, retry delays) or counts
#: (incidents, pick attempts).
STALL_REASONS = (
    "mshr_full",          # miss bounced off a full MSHR file: 4 retry
                          # cycles per bounce, not a bounce count
    "admission_wait",     # core arrival delayed by the admission queue
    "admission_shed",     # core arrival dropped (count, not cycles)
    "fence_wait",         # core blocked in a memory/PIM/scope fence
    "pim_busy",           # MC passed over a PIM op (module buffer full):
                          # one per held-back message per pick, not cycles
    "crossbar_contention",  # PIM scope throttled at max_concurrent_scopes
)


class Tracer:
    """Per-run trace recorder (see module docstring).

    Args:
        ring_size: event ring capacity; 0 records no events.
        flight: arm the flight recorder (first trigger snapshots the
            ring; later triggers only bump the trigger count).
    """

    __slots__ = ("ring", "ring_size", "appended", "flight_armed",
                 "flight", "flight_triggers", "_stalls", "_last_op_id")

    def __init__(self, ring_size: int = 65536, flight: bool = False) -> None:
        self.ring_size = ring_size
        self.ring = deque(maxlen=ring_size) if ring_size > 0 else None
        self.appended = 0
        self.flight_armed = flight
        self.flight: Optional[dict] = None
        self.flight_triggers = 0
        self._stalls: Dict[str, Dict[str, int]] = {}
        self._last_op_id = 0

    # -- event records --------------------------------------------------- #

    @property
    def recording(self) -> bool:
        """Whether event records are kept (components hook only then)."""
        return self.ring is not None

    def op_id(self, msg) -> int:
        """``msg``'s op id, numbering it first if this run has not yet."""
        op_id = msg.op_id
        if not op_id:
            self._last_op_id = op_id = self._last_op_id + 1
            msg.op_id = op_id
        return op_id

    def record(self, cycle: int, component: str, kind: str, msg) -> None:
        """Append one event record for message ``msg`` to the ring."""
        self.appended += 1
        self.ring.append((cycle, component, kind, self.op_id(msg)))

    @property
    def events_dropped(self) -> int:
        return self.appended - len(self.ring) if self.ring is not None else 0

    # -- stall attribution ----------------------------------------------- #

    def stall_bucket(self, component: str) -> Dict[str, int]:
        """The (shared, mutable) stall dict for one component."""
        bucket = self._stalls.get(component)
        if bucket is None:
            bucket = {}
            self._stalls[component] = bucket
        return bucket

    # -- flight recorder ------------------------------------------------- #

    def flight_trigger(self, reason: str, cycle: int, component: str,
                       msg) -> None:
        """An invariant fired on message ``msg``: snapshot the ring
        (first trigger only)."""
        self.flight_triggers += 1
        if not self.flight_armed or self.flight is not None:
            return
        self.flight = {
            "trigger": reason,
            "cycle": cycle,
            "component": component,
            "op_id": self.op_id(msg),
            "events": [list(r) for r in self.ring] if self.ring else [],
        }

    # -- export ----------------------------------------------------------- #

    def export(self) -> dict:
        """The obs payload riding on a :class:`SimulationResult`.

        Deterministic for a deterministic simulation: insertion orders
        are execution orders and stall dicts serialize sorted, so two
        runs of one spec -- on any backend -- export byte-identical
        payloads (the property the store's idempotent writes and the
        campaign report gates rely on).
        """
        out: dict = {
            "schema": OBS_SCHEMA,
            "stalls": {name: dict(sorted(bucket.items()))
                       for name, bucket in sorted(self._stalls.items())
                       if bucket},
        }
        if self.ring is not None:
            out["events"] = [list(r) for r in self.ring]
            out["events_recorded"] = self.appended
            out["events_dropped"] = self.events_dropped
        if self.flight_triggers:
            out["flight_triggers"] = self.flight_triggers
        if self.flight is not None:
            out["flight"] = self.flight
        return out


def stall_totals(obs: dict) -> Dict[str, int]:
    """Sum one obs payload's stalls across components, by reason."""
    totals: Dict[str, int] = {}
    for bucket in (obs.get("stalls") or {}).values():
        for reason, amount in bucket.items():
            totals[reason] = totals.get(reason, 0) + amount
    return dict(sorted(totals.items()))
