"""Private L1 cache component."""

from helpers import (CaptureSink, ResponseCollector, buffered_scopes, make_load,
                     make_store)

from repro.memory.l1 import L1Cache
from repro.memory.mesi import MesiState
from repro.sim.config import CacheConfig, ScopeBufferConfig
from repro.sim.messages import Message, MessageType


def _l1(sim, scope_map, net=None, scope_buffer=False):
    net = net or CaptureSink(sim, "net")
    l1 = L1Cache(
        sim, "l1.0", 0, CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=2),
        scope_map, net,
        scope_buffer_cfg=ScopeBufferConfig(sets=8, ways=1) if scope_buffer else None,
    )
    return l1, net


def _fill_response(l1, fill_req, version=1):
    resp = fill_req.make_response(MessageType.LOAD_RESP, version=version)
    l1.receive_response(resp)


def test_load_miss_fetches_then_hits(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    sim.run()
    fetches = net.of_type(MessageType.LOAD)
    assert len(fetches) == 1 and fetches[0].addr == 0x1000
    assert not fetches[0].exclusive
    _fill_response(l1, fetches[0], version=4)
    sim.run()
    assert core.of_type(MessageType.LOAD_RESP)[0].version == 4
    # second load: hit, no new fetch
    l1.offer(make_load(0x1008, reply_to=core))
    sim.run()
    assert len(net.of_type(MessageType.LOAD)) == 1
    assert len(core.responses) == 2


def test_secondary_miss_coalesces(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_load(0x1000, reply_to=core))
    l1.offer(make_load(0x1020, reply_to=core))  # same line
    sim.run()
    assert len(net.of_type(MessageType.LOAD)) == 1
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    assert len(core.of_type(MessageType.LOAD_RESP)) == 2


def test_store_miss_fetches_exclusive(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_store(0x2000, reply_to=core))
    sim.run()
    fetch = net.of_type(MessageType.LOAD)[0]
    assert fetch.exclusive
    _fill_response(l1, fetch, version=7)
    sim.run()
    ack = core.of_type(MessageType.STORE_ACK)[0]
    assert ack.version == 8  # store bumped the filled version
    line = l1.array.lookup(0x2000, touch=False)
    assert line.state is MesiState.MODIFIED


def test_hit_latency_beyond_the_wheel_responds_exactly(sim, scope_map):
    """Hit latencies of WHEEL_SLOTS or more are scheduled on the heap:
    the refill answer and both hit paths land exactly on time."""
    net = CaptureSink(sim, "net")
    l1 = L1Cache(
        sim, "l1.0", 0,
        CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=300),
        scope_map, net,
    )
    arrivals = []

    class Timed:
        def receive_response(self, msg):
            arrivals.append((msg.mtype, sim.now))

    core = Timed()
    l1.offer(make_store(0x1000, reply_to=core))
    sim.run()
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])  # exclusive fill
    sim.run()
    l1.offer(make_load(0x1008, reply_to=core))
    l1.offer(make_store(0x1000, reply_to=core))
    sim.run()
    assert arrivals == [(MessageType.STORE_ACK, 300),
                        (MessageType.LOAD_RESP, 600),
                        (MessageType.STORE_ACK, 601)]


def test_store_hit_on_exclusive_completes_locally(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_store(0x2000, reply_to=core))
    sim.run()
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    l1.offer(make_store(0x2000, reply_to=core))
    sim.run()
    assert len(core.of_type(MessageType.STORE_ACK)) == 2
    assert len(net.of_type(MessageType.LOAD)) == 1  # no extra traffic


def test_shared_hit_store_upgrades(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_load(0x3000, reply_to=core))
    sim.run()
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])  # shared fill
    sim.run()
    line = l1.array.lookup(0x3000, touch=False)
    line.state = MesiState.SHARED  # directory granted shared
    l1.offer(make_store(0x3000, reply_to=core))
    sim.run()
    upgrades = [m for m in net.of_type(MessageType.LOAD) if m.exclusive]
    assert len(upgrades) == 1


def test_eviction_writes_back_dirty(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    # fill a whole set (4 ways) with dirty lines, then one more
    set_stride = l1.array.num_sets * 64
    addrs = [0x4000 + i * set_stride for i in range(5)]
    for addr in addrs:
        l1.offer(make_store(addr, reply_to=core))
        sim.run()
        fetch = net.of_type(MessageType.LOAD)[-1]
        _fill_response(l1, fetch)
        sim.run()
    wbs = net.of_type(MessageType.WRITEBACK)
    assert len(wbs) == 1
    assert wbs[0].addr == addrs[0]  # LRU victim


def test_back_invalidate_returns_dirty_version(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_store(0x5000, reply_to=core))
    sim.run()
    _fill_response(l1, net.of_type(MessageType.LOAD)[0], version=3)
    sim.run()
    dirty, version = l1.back_invalidate(0x5000)
    assert dirty and version == 4
    assert l1.array.lookup(0x5000, touch=False) is None
    assert l1.back_invalidate(0x5000) == (False, 0)


def test_flush_removes_line_and_forwards(sim, scope_map):
    l1, net = _l1(sim, scope_map)
    core = ResponseCollector()
    l1.offer(make_load(0x6000, reply_to=core))
    sim.run()
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    flush = Message(MessageType.FLUSH, addr=0x6000, reply_to=core)
    l1.offer(flush)
    sim.run()
    assert l1.array.lookup(0x6000, touch=False) is None
    assert flush in net.of_type(MessageType.FLUSH)


def test_scope_fence_scans_and_flushes_scope(sim, scope_map):
    l1, net = _l1(sim, scope_map, scope_buffer=True)
    core = ResponseCollector()
    scope0 = scope_map.scope(0)
    # cache two lines of scope 0
    for off in (0, 64):
        l1.offer(make_load(scope0.base + off, scope=0, reply_to=core))
        sim.run()
        _fill_response(l1, net.of_type(MessageType.LOAD)[-1])
        sim.run()
    fence = Message(MessageType.SCOPE_FENCE, addr=scope0.base, scope=0,
                    reply_to=core)
    l1.offer(fence)
    sim.run()
    assert not l1.array.scope_lines(0)
    assert fence in net.received  # forwarded toward the LLC
    # scope buffer now remembers the flush: next fence skips the scan
    assert 0 in buffered_scopes(l1.scope_buffer)


def test_pim_op_passes_through_untouched(sim, scope_map):
    l1, net = _l1(sim, scope_map, scope_buffer=True)
    core = ResponseCollector()
    scope0 = scope_map.scope(0)
    l1.offer(make_load(scope0.base, scope=0, reply_to=core))
    sim.run()
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    pim = Message(MessageType.PIM_OP, addr=scope0.base, scope=0)
    l1.offer(pim)
    sim.run()
    assert pim in net.received
    # scope-relaxed: PIM ops do NOT flush lower levels (Fig. 6c)
    assert l1.array.scope_lines(0)


def test_mshr_exhaustion_retries(sim, scope_map):
    net = CaptureSink(sim, "net")
    from repro.sim.config import CacheConfig
    l1 = L1Cache(sim, "l1.0", 0,
                 CacheConfig(size_bytes=4 << 10, ways=4, hit_latency=2),
                 scope_map, net, mshr_count=2)
    core = ResponseCollector()
    for i in range(3):
        l1.offer(make_load(0x1000 + i * 4096, reply_to=core))
    sim.run(until=50)
    assert len(net.of_type(MessageType.LOAD)) == 2  # third waits
    _fill_response(l1, net.of_type(MessageType.LOAD)[0])
    sim.run()
    assert len(net.of_type(MessageType.LOAD)) == 3
