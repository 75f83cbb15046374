"""Scope-buffer/SBV ablation switches on the LLC."""

from helpers import CaptureSink, DirectDispatcher, make_pim

from repro.core.scope import ScopeMap
from repro.memory.llc import LastLevelCache
from repro.sim.config import CacheConfig, ScopeBufferConfig


def _llc(sim, scope_map, scope_buffer_enabled=True, sbv_enabled=True):
    mem = CaptureSink(sim, "mem")
    llc = LastLevelCache(
        sim, "llc",
        CacheConfig(size_bytes=64 << 10, ways=4, hit_latency=2),
        ScopeBufferConfig(sets=8, ways=2),
        mem, DirectDispatcher(sim, "resp"),
        scope_buffer_enabled=scope_buffer_enabled,
        sbv_enabled=sbv_enabled,
    )
    return llc, mem


def test_disabled_scope_buffer_scans_every_op(sim, scope_map):
    llc, _ = _llc(sim, scope_map, scope_buffer_enabled=False)
    for _ in range(3):
        llc.offer(make_pim(0))
        sim.run()
    stats = llc.snapshot()
    assert stats["scan_latency_count"] == 3
    # no zero-cost hits: the scope buffer was never consulted
    assert llc.scope_buffer.lookups == 0
    assert stats["hit_rate"] == 0.0
    assert stats["scan_latency"] >= 1


def test_disabled_sbv_scans_all_sets(sim, scope_map):
    llc, _ = _llc(sim, scope_map, sbv_enabled=False)
    llc.offer(make_pim(0))
    sim.run()
    stats = llc.snapshot()
    # one scan, over every set
    assert stats["scan_latency_count"] == 1
    assert stats["scan_latency"] >= llc.array.num_sets
    # and the skip ratio is zero: nothing was skipped
    assert stats["skipped_set_ratio"] == 0.0


def test_enabled_is_default(sim, scope_map):
    llc, _ = _llc(sim, scope_map)
    llc.offer(make_pim(0))
    llc.offer(make_pim(0))
    sim.run()
    stats = llc.snapshot()
    # the second op hit the scope buffer
    assert llc.scope_buffer.lookups == 2
    assert stats["hit_rate"] == 0.5
    assert stats["scan_latency_count"] == 2
