"""The inclusive LLC: directory, scan/flush engine, scope buffer, SBV."""

import pytest
from helpers import CaptureSink, DirectDispatcher, ResponseCollector, make_load, make_pim

from repro.memory.l1 import L1Cache
from repro.memory.llc import LastLevelCache
from repro.memory.mesi import MesiState
from repro.sim.config import CacheConfig, ScopeBufferConfig
from repro.sim.messages import Message, MessageType


class Responder:
    """Collects responses routed through a zero-latency dispatcher."""


def _llc(sim, scope_map, mem=None):
    mem = mem or CaptureSink(sim, "mem")
    llc = LastLevelCache(
        sim, "llc",
        CacheConfig(size_bytes=64 << 10, ways=4, hit_latency=2),
        ScopeBufferConfig(sets=8, ways=2),
        mem, DirectDispatcher(sim, "resp"),
    )
    return llc, mem


def _l1_for(sim, scope_map, llc, core_id=0):
    l1 = L1Cache(sim, f"l1.{core_id}", core_id,
                 CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=2),
                 scope_map, CaptureSink(sim, "n"))
    llc.l1s.append(l1)
    return l1


def _serve_mem(llc, mem, version=1):
    """Answer every outstanding memory fetch."""
    for fetch in mem.of_type(MessageType.LOAD):
        resp = fetch.make_response(MessageType.LOAD_RESP, version=version)
        llc.receive_response(resp)
    mem.received = [m for m in mem.received if m.mtype is not MessageType.LOAD]


def test_miss_fetch_fill_then_hit(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    llc.offer(make_load(0x1000, reply_to=requester, core=0))
    sim.run()
    assert len(mem.of_type(MessageType.LOAD)) == 1
    _serve_mem(llc, mem, version=9)
    sim.run()
    assert requester.of_type(MessageType.LOAD_RESP)[0].version == 9
    llc.offer(make_load(0x1000, reply_to=requester, core=0))
    sim.run()
    assert len(requester.responses) == 2
    assert llc.stats.as_dict()["hits"] == 1


def test_exclusive_fetch_invalidates_other_sharers(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    l1a = _l1_for(sim, scope_map, llc, 0)
    l1b = _l1_for(sim, scope_map, llc, 1)
    requester = ResponseCollector()
    llc.offer(make_load(0x2000, reply_to=requester, core=0))
    sim.run()
    _serve_mem(llc, mem)
    sim.run()
    # core 0 holds the line in its L1 too
    l1a.array.fill(0x2000, MesiState.SHARED, 1, None, False)
    # core 1 wants it exclusive
    llc.offer(make_load(0x2000, reply_to=requester, core=1, exclusive=True))
    sim.run()
    assert l1a.array.lookup(0x2000, touch=False) is None  # back-invalidated
    assert 1 in llc._dir[0x2000] and 0 not in llc._dir[0x2000]


def test_writeback_updates_version_and_dirty(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    llc.offer(make_load(0x3000, reply_to=requester, core=0))
    sim.run()
    _serve_mem(llc, mem, version=1)
    sim.run()
    llc.offer(Message(MessageType.WRITEBACK, addr=0x3000, core=0, version=5))
    sim.run()
    line = llc.array.lookup(0x3000, touch=False)
    assert line.version == 5 and line.dirty


def test_pim_op_scan_flushes_scope_and_inserts_scope_buffer(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    l1 = _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    scope0 = scope_map.scope(0)
    for off in (0, 64, 128):
        llc.offer(make_load(scope0.base + off, scope=0, reply_to=requester, core=0))
        sim.run()
        _serve_mem(llc, mem, version=1)
        sim.run()
    assert len(llc.array.scope_lines(0)) == 3
    pim = make_pim(0, addr=scope0.base)
    llc.offer(pim)
    sim.run()
    assert pim in mem.received  # forwarded after the scan
    assert not llc.array.scope_lines(0)
    assert llc.scope_buffer.lookup(0, record=False)
    stats = llc.stats.as_dict()
    assert stats["flushed_lines"] == 3
    assert stats["scan_latency"] > 0


def test_scope_buffer_hit_skips_scan(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    scope0 = scope_map.scope(0)
    llc.offer(make_pim(0, addr=scope0.base))
    sim.run()
    scans_after_first = llc.stats.as_dict()["scan_latency_count"]
    llc.offer(make_pim(0, addr=scope0.base))
    sim.run()
    stats = llc.stats.as_dict()
    assert stats["scan_latency_count"] == scans_after_first + 1
    assert stats["hit_rate"] == 0.5  # miss then hit
    # the hit was recorded as a zero-cycle scan (Fig. 10c convention)
    assert llc._scan_latency.min == 0


def test_line_fill_invalidates_scope_buffer_entry(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    scope0 = scope_map.scope(0)
    llc.offer(make_pim(0, addr=scope0.base))
    sim.run()
    assert llc.scope_buffer.lookup(0, record=False)
    llc.offer(make_load(scope0.base, scope=0, reply_to=requester, core=0))
    sim.run()
    _serve_mem(llc, mem)
    sim.run()
    assert not llc.scope_buffer.lookup(0, record=False)


def test_sbv_guides_scan(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    scope0 = scope_map.scope(0)
    llc.offer(make_load(scope0.base, scope=0, reply_to=requester, core=0))
    sim.run()
    _serve_mem(llc, mem)
    sim.run()
    assert llc.sbv.popcount() == 1
    llc.offer(make_pim(0, addr=scope0.base))
    sim.run()
    stats = llc.stats.as_dict()
    # the scan visited 1 of num_sets sets
    assert stats["skipped_set_ratio"] == pytest.approx(
        1 - 1 / llc.array.num_sets)
    assert llc.sbv.popcount() == 0  # flushed line cleared the bit


def test_direct_pim_op_bypasses_everything(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    scope0 = scope_map.scope(0)
    llc.offer(make_load(scope0.base, scope=0, reply_to=requester, core=0))
    sim.run()
    _serve_mem(llc, mem)
    sim.run()
    pim = make_pim(0, addr=scope0.base, direct=True)
    llc.offer(pim)
    sim.run()
    assert pim in mem.received
    assert llc.array.scope_lines(0)  # nothing flushed (naive/SW-flush)
    assert llc.stats.as_dict().get("scan_latency_count", 0) == 0


def test_scope_fence_terminates_with_ack(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    scope0 = scope_map.scope(0)
    fence = Message(MessageType.SCOPE_FENCE, addr=scope0.base, scope=0,
                    reply_to=requester)
    llc.offer(fence)
    sim.run()
    assert requester.of_type(MessageType.SCOPE_FENCE_ACK)
    assert fence not in mem.received  # terminates at the LLC (Fig. 6d)


def test_flush_acks_and_writes_back(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    llc.offer(make_load(0x7000, reply_to=requester, core=0))
    sim.run()
    _serve_mem(llc, mem, version=2)
    sim.run()
    llc.offer(Message(MessageType.WRITEBACK, addr=0x7000, core=0, version=6))
    sim.run()
    flush = Message(MessageType.FLUSH, addr=0x7000, core=0, reply_to=requester)
    llc.offer(flush)
    sim.run()
    assert requester.of_type(MessageType.FLUSH_ACK)
    wbs = mem.of_type(MessageType.WRITEBACK)
    assert wbs and wbs[-1].version == 6
    assert llc.array.lookup(0x7000, touch=False) is None


def test_inclusive_eviction_back_invalidates_l1(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    l1 = _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    # fill one LLC set (4 ways) then one more to force eviction
    stride = llc.array.num_sets * 64
    addrs = [0x8000 + i * stride for i in range(5)]
    for i, addr in enumerate(addrs):
        llc.offer(make_load(addr, reply_to=requester, core=0))
        sim.run()
        if i == 0:
            # core 0's L1 holds the first line while it is still in the LLC
            l1.array.fill(addrs[0], MesiState.SHARED, 1, None, False)
        _serve_mem(llc, mem)
        sim.run()
    # victim of the last fill was the LRU line addrs[0]
    assert llc.array.lookup(addrs[0], touch=False) is None
    assert l1.array.lookup(addrs[0], touch=False) is None  # inclusion held


def test_uncacheable_load_passes_through(sim, scope_map):
    llc, mem = _llc(sim, scope_map)
    _l1_for(sim, scope_map, llc)
    requester = ResponseCollector()
    msg = make_load(scope_map.scope(1).base, scope=1, reply_to=requester,
                    uncacheable=True)
    llc.offer(msg)
    sim.run()
    assert msg in mem.received
    assert llc.array.occupancy() == 0
