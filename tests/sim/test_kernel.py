"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    SimulationError,
    Simulator,
    WHEEL_MASK,
    WHEEL_SLOTS,
)


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5, order.append, "late")
    sim.schedule(1, order.append, "early")
    sim.schedule(3, order.append, "mid")
    sim.run()
    assert order == ["early", "mid", "late"]
    assert sim.now == 5


def test_same_cycle_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(7, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_schedule_during_run():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(2, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 6


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_clock():
    sim = Simulator()
    hits = []
    sim.schedule(5, hits.append, "a")
    sim.schedule(50, hits.append, "b")
    sim.run(until=10)
    assert hits == ["a"]
    assert sim.now == 10
    assert sim.pending_events() == 1
    sim.run()
    assert hits == ["a", "b"]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, nested)
    sim.run()


# --------------------------------------------------------------------- #
# zero-delay fast-dispatch ring
# --------------------------------------------------------------------- #


def test_zero_delay_events_skip_the_heap():
    sim = Simulator()
    sim.schedule(0, lambda: None)
    sim.call_at_now(lambda: None)
    assert sim.pending_events() == 2
    assert len(sim._queue) == 0  # both went to the dispatch ring
    sim.run()
    assert sim.events_executed == 2
    assert sim.now == 0


def test_ring_events_interleave_with_heap_in_scheduling_order():
    """Same-cycle events run in global scheduling order even when some
    sit in the heap (scheduled earlier with a delay) and some on the
    immediate-dispatch ring (scheduled at the cycle itself)."""
    sim = Simulator()
    order = []

    def runner():
        order.append("runner")
        sim.schedule(0, order.append, "ring")  # after the heap's a, b

    sim.schedule(5, runner)
    sim.schedule(5, order.append, "a")
    sim.schedule(5, order.append, "b")
    sim.run()
    assert order == ["runner", "a", "b", "ring"]


def test_call_at_now_chains_run_before_time_advances():
    sim = Simulator()
    order = []

    def chain(n):
        order.append(n)
        if n < 2:
            sim.call_at_now(chain, n + 1)

    sim.schedule(3, chain, 0)
    sim.schedule(4, order.append, "later")
    sim.run()
    assert order == [0, 1, 2, "later"]
    assert sim.now == 4


def test_ring_respects_until_bound():
    sim = Simulator()
    hits = []
    sim.schedule(0, hits.append, "now")
    sim.schedule(50, hits.append, "later")
    sim.run(until=10)
    assert hits == ["now"]
    assert sim.now == 10


def test_stop_flag_halts_after_current_event():
    sim = Simulator()
    hits = []
    sim.schedule(1, hits.append, "a")
    sim.schedule(2, lambda: (hits.append("stop"), sim.stop()))
    sim.schedule(3, hits.append, "c")
    sim.run()
    assert hits == ["a", "stop"]
    # The flag is consumed: a later run resumes normally.
    sim.run()
    assert hits == ["a", "stop", "c"]


def test_max_events_counts_ring_events():
    sim = Simulator()

    def forever():
        sim.call_at_now(forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=50)
    assert sim.events_executed == 50


def test_delay_tiers_route_to_wheel_and_heap():
    sim = Simulator()
    sim.schedule(WHEEL_SLOTS - 1, lambda: None)  # largest wheel delay
    assert len(sim._queue) == 0 and sim._wheel_count == 1
    sim.schedule(WHEEL_SLOTS, lambda: None)  # first heap delay
    assert len(sim._queue) == 1 and sim._wheel_count == 1
    assert sim.pending_events() == 2
    sim.run()
    assert sim.now == WHEEL_SLOTS
    assert sim.pending_events() == 0


def test_wheel_rollover_past_horizon():
    """A chain of max-wheel-delay hops wraps every bucket index at least
    twice; order and timestamps must survive the rollover."""
    sim = Simulator()
    ticks = []

    def hop(n):
        ticks.append((n, sim.now))
        if n < 5:
            sim.schedule(WHEEL_SLOTS - 1, hop, n + 1)

    sim.schedule(WHEEL_SLOTS - 1, hop, 0)
    sim.run()
    assert ticks == [(i, (i + 1) * (WHEEL_SLOTS - 1)) for i in range(6)]
    assert sim.now == 6 * (WHEEL_SLOTS - 1)


def test_same_slot_different_cycles_do_not_collide():
    """Two events whose cycles map to the same wheel slot (delay d now,
    delay d again d cycles later) execute at their own cycles."""
    sim = Simulator()
    hits = []
    d = 10

    def first():
        hits.append(sim.now)
        sim.schedule(d, lambda: hits.append(sim.now))

    sim.schedule(d, first)
    sim.run()
    assert hits == [d, 2 * d]


def test_run_until_inside_wheel_horizon():
    """``until`` landing between two wheel entries stops the clock there
    and leaves the later entry pending for the next run."""
    sim = Simulator()
    hits = []
    sim.schedule(5, hits.append, "early")
    sim.schedule(50, hits.append, "late")  # both within the wheel
    sim.run(until=10)
    assert hits == ["early"]
    assert sim.now == 10
    assert sim.pending_events() == 1
    sim.run()
    assert hits == ["early", "late"]
    assert sim.now == 50


def test_schedule_at_current_cycle_rides_the_ring():
    sim = Simulator()
    order = []

    def at_five():
        order.append("event")
        sim.schedule(0, order.append, "same-cycle")

    sim.schedule(5, at_five)
    sim.schedule(6, order.append, "next-cycle")
    sim.run()
    assert order == ["event", "same-cycle", "next-cycle"]


def test_wheel_heap_and_ring_interleave_in_scheduling_order():
    """At one cycle, events from all three tiers run in global
    scheduling (sequence) order: the wheel and heap entries -- scheduled
    in earlier cycles -- merge by sequence number, and ring entries
    (created at the cycle itself) come last."""
    sim = Simulator()
    target = WHEEL_SLOTS + 7  # reachable by both heap and wheel delays
    order = []

    def runner():
        order.append("wheel-early")
        sim.schedule(0, order.append, "ring")  # youngest: runs last

    def trampoline():
        sim.schedule(target - sim.now, runner)

    # Scheduled first (lowest seq), lands on the heap (delay > horizon).
    sim.schedule(target - sim.now, order.append, "heap-a")
    # Scheduled second, via the wheel (delay < horizon after advancing).
    sim.schedule(WHEEL_SLOTS - 3, trampoline)
    # Scheduled third, another heap entry at the same cycle.
    sim.schedule(target - sim.now, order.append, "heap-b")
    sim.run()
    # Sequence numbers: heap-a and heap-b drew theirs at cycle 0; the
    # wheel entry drew its own only at cycle WHEEL_SLOTS-3 (when the
    # trampoline scheduled it), so it is younger than both heap entries;
    # the ring entry, created at `target` itself, is youngest.
    assert order == ["heap-a", "heap-b", "wheel-early", "ring"]
    assert sim.now == target


def test_stop_mid_cycle_preserves_wheel_entries():
    """stop() between two same-cycle wheel events must not lose the
    second one (exercises the run loop's leftover-bucket bookkeeping)."""
    sim = Simulator()
    hits = []
    sim.schedule(3, lambda: (hits.append("a"), sim.stop()))
    sim.schedule(3, hits.append, "b")
    sim.run()
    assert hits == ["a"]
    assert sim.pending_events() == 1
    sim.run()
    assert hits == ["a", "b"]
    assert sim.now == 3


def test_pending_events_mid_run_counts_current_bucket():
    """pending_events() called from inside an event must include the
    un-executed remainder of the current cycle's wheel bucket."""
    sim = Simulator()
    seen = []
    sim.schedule(3, lambda: seen.append(sim.pending_events()))
    sim.schedule(3, lambda: None)
    sim.schedule(3, lambda: None)
    sim.run()
    assert seen == [2]


def test_events_executed_is_deterministic_across_runs():
    """The same schedule replayed on a fresh simulator executes the same
    number of events, with service chains coalesced the same way."""

    def build_and_run():
        sim = Simulator()
        hits = []

        def serve(n):
            hits.append(sim.now)
            if n:
                sim.schedule(2, serve, n - 1)
                sim.call_at_now(hits.append, sim.now)

        sim.schedule(1, serve, 20)
        sim.schedule(WHEEL_SLOTS + 5, hits.append, "far")
        sim.run()
        return sim.events_executed, hits

    first_events, first_hits = build_and_run()
    second_events, second_hits = build_and_run()
    assert first_events == second_events
    assert first_hits == second_hits

