"""The MSHR file: coalescing, hit-under-miss, backpressure, races.

Edge cases mirror the reference non-blocking D-cache verification
(synapse32): same-line coalescing while the file is full, a refill
racing a new miss into the same cache set, a dirty victim written back
while refills are outstanding, and stall-only-when-exhausted
backpressure -- plus determinism of the whole subsystem across the
Serial and ProcessPool backends, and a call-count bound on what the
explicit MSHR stats cost a whole ycsb-c run.
"""

import pytest

# tests/ is on sys.path (tests/conftest.py), so the pinned specs are
# imported from the digest gate rather than duplicated here.
from api.test_default_digests import _PINNED_CONFIGS
from helpers import (CaptureSink, ResponseCollector, make_load, make_store,
                     profile_run)

from repro.memory.l1 import L1Cache
from repro.memory.mshr import MshrFile
from repro.sim.config import CacheConfig
from repro.sim.messages import Message, MessageType
from repro.sim.stats import StatGroup

#: 4 KiB / 4 ways / 64 B lines -> 16 sets; +0x400 is the same-set stride.
SET_STRIDE = 0x400


def _l1(sim, scope_map, mshr_count=8, coalescing=True, net=None,
        emit_mshr_stats=True):
    net = net or CaptureSink(sim, "net")
    l1 = L1Cache(
        sim, "l1.0", 0,
        CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=2),
        scope_map, net,
        mshr_count=mshr_count,
        coalescing=coalescing,
        emit_mshr_stats=emit_mshr_stats,
    )
    return l1, net


def _fill(l1, fill_req, version=1):
    l1.receive_response(
        fill_req.make_response(MessageType.LOAD_RESP, version=version))


# ---------------------------------------------------------------------- #
# MshrFile unit behavior
# ---------------------------------------------------------------------- #


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        MshrFile(0)


def test_allocate_complete_roundtrip_and_occupancy():
    f = MshrFile(4)
    f.allocate(0x1000, exclusive=False)
    f.allocate(0x2000, exclusive=True)
    assert not f.full
    assert f.get(0x1000) is not None
    # Occupancy sampled after each insertion: 1 then 2.
    assert (f.occupancy_total, f.occupancy_samples) == (3, 2)
    entry = f.complete(0x1000)
    assert entry.line_addr == 0x1000
    assert f.get(0x1000) is None
    assert f.refills == 1
    assert f.complete(0x1000) is None  # raced away: no double count
    assert f.refills == 1


def test_coalesce_marks_exclusive_and_counts():
    f = MshrFile(2)
    entry = f.allocate(0x1000, exclusive=False)
    msg = make_load(0x1000)
    assert f.coalesce(entry, msg, exclusive=True)
    assert entry.exclusive
    assert entry.waiters == [msg]
    assert f.coalesced_misses == 1


def test_coalesce_refused_when_disabled():
    f = MshrFile(2, coalescing=False)
    entry = f.allocate(0x1000, exclusive=False)
    assert not f.coalesce(entry, make_load(0x1000), exclusive=False)
    assert entry.waiters == []
    assert f.coalesced_misses == 0


def test_attach_stats_exports_counters():
    f = MshrFile(2)
    stats = StatGroup("l1.0")
    f.attach_stats(stats)
    entry = f.allocate(0x1000, False)
    f.coalesce(entry, make_load(0x1000), False)
    f.hit_under_miss = 3
    f.complete(0x1000)
    snap = stats.as_dict()
    assert snap["mshr_refills"] == 1
    assert snap["coalesced_misses"] == 1
    assert snap["hit_under_miss"] == 3
    assert snap["mshr_occupancy"] == 1.0


def test_stats_silent_without_attach():
    f = MshrFile(2)
    stats = StatGroup("l1.0")
    f.allocate(0x1000, False)
    assert not any("mshr" in k for k in stats.as_dict())


# ---------------------------------------------------------------------- #
# cache-level edge cases
# ---------------------------------------------------------------------- #


def test_coalescing_works_while_file_is_full(sim, scope_map):
    """A secondary miss needs no free entry: it rides the existing one
    even when every MSHR is allocated."""
    l1, net = _l1(sim, scope_map, mshr_count=2)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    l1.offer(make_load(0x2000, reply_to=core))
    sim.run()
    assert l1.mshr_file.full
    l1.offer(make_load(0x1010, reply_to=core))  # same line as 0x1000
    sim.run()
    assert len(net.of_type(MessageType.LOAD)) == 2  # no third fetch
    assert l1.mshr_file.coalesced_misses == 1
    for req in net.of_type(MessageType.LOAD):
        _fill(l1, req)
    sim.run()
    assert len(core.of_type(MessageType.LOAD_RESP)) == 3


def test_full_file_backpressures_only_new_lines(sim, scope_map):
    """Stall only when exhausted: with every entry busy a miss to a NEW
    line waits, and the moment one refill lands it proceeds."""
    l1, net = _l1(sim, scope_map, mshr_count=2)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    l1.offer(make_load(0x2000, reply_to=core))
    l1.offer(make_load(0x3000, reply_to=core))  # third line: no MSHR free
    sim.run(until=50)  # bounded: the stalled miss retries until a refill
    fetches = net.of_type(MessageType.LOAD)
    assert [m.addr for m in fetches] == [0x1000, 0x2000]
    _fill(l1, fetches[0])
    sim.run()  # retry timer fires, freed entry is claimed
    assert [m.addr for m in net.of_type(MessageType.LOAD)] \
        == [0x1000, 0x2000, 0x3000]
    _fill(l1, net.of_type(MessageType.LOAD)[1])
    _fill(l1, net.of_type(MessageType.LOAD)[2])
    sim.run()
    assert len(core.of_type(MessageType.LOAD_RESP)) == 3


def test_hit_under_miss_is_served_and_counted(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    sim.run()
    _fill(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    l1.offer(make_load(0x2000, reply_to=core))  # miss: occupies an MSHR
    l1.offer(make_load(0x1000, reply_to=core))  # hit while it is in flight
    sim.run()
    assert l1.mshr_file.hit_under_miss == 1
    assert len(core.of_type(MessageType.LOAD_RESP)) == 2  # hit not stalled
    _fill(l1, net.of_type(MessageType.LOAD)[1])
    sim.run()
    assert len(core.of_type(MessageType.LOAD_RESP)) == 3


def test_coalescing_off_blocks_secondary_miss_until_refill(sim, scope_map):
    l1, net = _l1(sim, scope_map, coalescing=False)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    l1.offer(make_load(0x1020, reply_to=core))  # same line: must wait
    sim.run(until=50)  # bounded: the busy line retries until the refill
    assert len(net.of_type(MessageType.LOAD)) == 1
    assert len(core.of_type(MessageType.LOAD_RESP)) == 0
    _fill(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    # After the refill the blocked request retries and hits in the array.
    assert len(net.of_type(MessageType.LOAD)) == 1
    assert len(core.of_type(MessageType.LOAD_RESP)) == 2
    assert l1.mshr_file.coalesced_misses == 0


def test_refill_racing_new_miss_to_same_set(sim, scope_map):
    """Two outstanding misses whose lines index the same set; the
    refills land out of order and both waiters settle correctly."""
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    l1.offer(make_load(0x1000 + SET_STRIDE, reply_to=core))
    sim.run()
    fetches = net.of_type(MessageType.LOAD)
    assert len(fetches) == 2
    _fill(l1, fetches[1], version=9)  # younger fill lands first
    _fill(l1, fetches[0], version=5)
    sim.run()
    versions = {m.addr: m.version for m in core.of_type(MessageType.LOAD_RESP)}
    assert versions == {0x1000: 5, 0x1000 + SET_STRIDE: 9}
    assert l1.array.lookup(0x1000, touch=False) is not None
    assert l1.array.lookup(0x1000 + SET_STRIDE, touch=False) is not None


def test_writeback_during_refill(sim, scope_map):
    """A refill whose victim is dirty emits the writeback while other
    misses are still outstanding."""
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    # Dirty the four ways of one set.
    for way in range(4):
        l1.offer(make_store(0x1000 + way * SET_STRIDE, reply_to=core))
    sim.run()
    for req in net.of_type(MessageType.LOAD):
        _fill(l1, req)
    sim.run()
    assert len(core.of_type(MessageType.STORE_ACK)) == 4
    # Fifth line in the set misses; keep a second miss outstanding too.
    l1.offer(make_load(0x1000 + 4 * SET_STRIDE, reply_to=core))
    l1.offer(make_load(0x5040, reply_to=core))  # different line and set
    sim.run()
    outstanding = len(l1.mshr_file.entries)
    assert outstanding == 2
    fetch = [m for m in net.of_type(MessageType.LOAD)
             if m.addr == 0x1000 + 4 * SET_STRIDE][0]
    _fill(l1, fetch)
    wbs = net.of_type(MessageType.WRITEBACK)
    assert len(wbs) == 1 and wbs[0].addr & ~(SET_STRIDE - 1) in \
        {0x1000 + way * SET_STRIDE for way in range(4)} | {0x1000}
    assert len(l1.mshr_file.entries) == 1  # the other miss still in flight
    sim.run()


def test_refill_past_wheel_horizon_routes_to_heap(sim, scope_map):
    """Regression for the scheduler tiers: an MSHR refill whose response
    latency exceeds the 255-cycle wheel horizon must heap-route
    (Simulator.schedule picks the tier from the delay)."""
    net = CaptureSink(sim, "net")
    l1 = L1Cache(
        sim, "l1.0", 0,
        CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=300),
        scope_map, net,
    )
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    sim.run()
    fetch = net.of_type(MessageType.LOAD)[0]
    _fill(l1, fetch)
    start = sim.now
    assert sim._wheel_count == 0  # 300-cycle delay must not ride the wheel
    assert len(sim._queue) == 1
    sim.run()
    assert core.of_type(MessageType.LOAD_RESP)
    assert sim.now >= start + 300


# ---------------------------------------------------------------------- #
# whole-system determinism
# ---------------------------------------------------------------------- #


def test_mshr_config_deterministic_across_backends():
    """A non-default MSHR/coalescing/burst configuration produces
    byte-identical results on the Serial and ProcessPool backends."""
    from repro.api import Experiment, ProcessPoolBackend, SerialBackend

    exps = [
        Experiment.from_dict({
            "workload": "ycsb",
            "params": {"num_records": 8000, "num_ops": 8, "threads": 4,
                       "seed": 11},
            "config": {"preset": "scaled", "model": model, "num_scopes": 4,
                       "l1": {"mshr_entries": 4, "coalescing": coalescing},
                       "llc": {"mshr_entries": 16},
                       "memory": {"dram_burst_len": 4}},
            "max_events": 50_000_000,
        })
        for model, coalescing in (("scope", True), ("atomic", False))
    ]
    serial = SerialBackend().run_all_settled(exps)
    pooled = ProcessPoolBackend(jobs=2).run_all_settled(exps)
    for s, p in zip(serial, pooled):
        assert p.run_time == s.run_time
        assert p.events == s.events
        assert p.stats == s.stats


#: The stats an explicitly configured MSHR file adds to its cache's group.
MSHR_STATS = ("mshr_occupancy", "mshr_occupancy_count", "mshr_refills",
              "coalesced_misses", "hit_under_miss")


def test_explicit_mshr_config_adds_stats_but_no_calls():
    """ycsb-c-mshr8 sets ycsb-c's MSHR sizes explicitly.  It must
    simulate the same run, add only the mshr_* stats, and cost at most
    1.25x the profiled calls per event of the silent default (the old
    0.8x-throughput floor, restated as a count that does not depend on
    the machine)."""
    silent, silent_profile = profile_run(_PINNED_CONFIGS["ycsb-c"][0])
    explicit, explicit_profile = profile_run(
        _PINNED_CONFIGS["ycsb-c-mshr8"][0])
    assert (explicit.run_time, explicit.events) \
        == (silent.run_time, silent.events)

    def flat(stats):
        return {(group, key): value for group, values in stats.items()
                for key, value in values.items()}

    silent_stats, explicit_stats = flat(silent.stats), flat(explicit.stats)
    caches = ["llc"] + [group for group in silent.stats
                        if group.startswith("l1.")]
    added = {(group, key) for group in caches for key in MSHR_STATS}
    assert len(added) == 35  # the llc and six l1 groups
    assert set(explicit_stats) == set(silent_stats) | added
    assert {key: explicit_stats[key] for key in silent_stats} \
        == silent_stats

    ratio = ((explicit_profile.total_calls / explicit.events)
             / (silent_profile.total_calls / silent.events))
    assert ratio <= 1.25, f"MSHR bookkeeping: {ratio:.3f}x calls per event"
