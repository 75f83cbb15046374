"""The memory controller: ACK-at-arrival, dependency rules, routing."""

from hypothesis import given, settings, strategies as st

from api.test_default_digests import _PINNED_CONFIGS
from helpers import (DirectDispatcher, ResponseCollector, make_load, make_pim,
                     make_store, profile_run)

from repro.memory.memory_controller import MemoryController
from repro.memory.versioned import VersionedMemory
from repro.pim.module import PimModule
from repro.sim.config import MemoryConfig, PimModuleConfig
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType


def _mc(sim, buffer_capacity=4, op_latency=100, queue_capacity=8,
        dram_burst_len=1):
    memory = VersionedMemory()
    resp = DirectDispatcher(sim, "resp")
    mc = MemoryController(sim, "mc",
                          MemoryConfig(dram_latency=20, dram_service_interval=2,
                                       queue_capacity=queue_capacity,
                                       dram_burst_len=dram_burst_len),
                          memory, resp)
    module = PimModule(sim, "pim",
                       PimModuleConfig(buffer_capacity=buffer_capacity,
                                       op_latency=op_latency),
                       memory, resp, access_latency=20)
    module.mc = mc
    mc.pim_module = module
    return mc, module, memory


def test_pim_ack_sent_at_arrival(sim):
    """Fig. 6a/6b: the ACK is sent when the op reaches the MC, not when
    it executes."""
    mc, module, _ = _mc(sim, op_latency=10_000)
    requester = ResponseCollector()
    mc.offer(make_pim(0, reply_to=requester))
    assert requester.of_type(MessageType.PIM_ACK)  # immediate


def test_dram_load_roundtrip(sim):
    mc, _, memory = _mc(sim)
    memory.write(0x9000, 3)
    requester = ResponseCollector()
    mc.offer(make_load(0x9000, reply_to=requester))
    sim.run()
    resp = requester.of_type(MessageType.LOAD_RESP)[0]
    assert resp.version == 3


def test_uncacheable_store_bumps_memory(sim):
    mc, _, memory = _mc(sim)
    requester = ResponseCollector()
    mc.offer(make_store(0xA000, reply_to=requester))
    sim.run()
    assert memory.read(0xA000) == 1
    assert requester.of_type(MessageType.STORE_ACK)


def test_same_line_dram_accesses_stay_fifo(sim):
    mc, _, memory = _mc(sim)
    requester = ResponseCollector()
    wb = Message(MessageType.WRITEBACK, addr=0xB000, version=7)
    mc.offer(wb)
    mc.offer(make_load(0xB000, reply_to=requester))
    sim.run()
    # the load observed the writeback's data
    assert requester.of_type(MessageType.LOAD_RESP)[0].version == 7


def test_pim_scope_load_waits_for_pim_execution(sim, scope_map):
    """Reads of a scope's results arrive at the module after its PIM op
    and are served only once the op executed (Section V-A)."""
    mc, module, memory = _mc(sim, op_latency=500)
    scope0 = scope_map.scope(0)
    result_line = scope0.base + 4096
    module.result_lines_fn = lambda s: frozenset({result_line})

    def bump(msg):
        memory.write(result_line, 42)
    module.on_execute = bump

    requester = ResponseCollector()
    mc.offer(make_pim(0, addr=scope0.base, reply_to=requester))
    mc.offer(make_load(result_line, scope=0, reply_to=requester))
    sim.run()
    resp = requester.of_type(MessageType.LOAD_RESP)[0]
    assert resp.version == 42  # saw the post-PIM value
    assert sim.now >= 500


def test_non_result_access_bypasses_execution(sim, scope_map):
    """Record-data reads don't wait for the scope's queued PIM ops."""
    mc, module, memory = _mc(sim, op_latency=100_000)
    scope0 = scope_map.scope(0)
    module.result_lines_fn = lambda s: frozenset({scope0.base + 4096})
    requester = ResponseCollector()
    mc.offer(make_pim(0, addr=scope0.base, reply_to=requester))
    mc.offer(make_load(scope0.base + 64, scope=0, reply_to=requester))
    sim.run(until=1000)
    assert requester.of_type(MessageType.LOAD_RESP)  # long before 100K


def test_module_backpressure_fills_mc_queue(sim, scope_map):
    """When the PIM buffer is full, PIM ops pile up in the MC; when the
    MC queue is full too, offers are rejected (back-pressure to the
    host, Section VII)."""
    mc, module, _ = _mc(sim, buffer_capacity=1, op_latency=100_000,
                        queue_capacity=4)
    requester = ResponseCollector()
    accepted = 0
    for _ in range(10):
        if mc.offer(make_pim(0, reply_to=requester)):
            accepted += 1
        sim.run(until=sim.now + 5)
    # 1 executing + 1 buffered + 4 in the MC queue
    assert accepted == 6
    assert mc.occupancy == 4
    # Only PIM ops wait on the full buffer: _pick returns without a walk.
    assert mc._queued_ops == 4
    sim.run()
    assert mc._queued_ops == 0


def test_pim_ops_to_distinct_scopes_flow_to_module(sim):
    mc, module, _ = _mc(sim, buffer_capacity=8, op_latency=50)
    requester = ResponseCollector()
    for scope in range(4):
        mc.offer(make_pim(scope, reply_to=requester))
    sim.run()
    assert module.stats.as_dict()["ops_executed"] == 4
    assert sim.now < 4 * 50  # scopes executed in parallel


def test_queue_length_stat_sampled_at_arrival(sim):
    mc, _, _ = _mc(sim)
    requester = ResponseCollector()
    mc.offer(make_load(0x100, reply_to=requester))
    mc.offer(make_load(0x200, reply_to=requester))
    assert mc.stats.as_dict()["queue_length_at_arrival_count"] == 2


# ---------------------------------------------------------------------- #
# DRAM burst batching (dram_burst_len > 1)
# ---------------------------------------------------------------------- #


def test_burst_fuses_same_window_accesses(sim):
    """Queued accesses in one aligned burst window ride one service
    interval; an access outside the window waits for the next."""
    mc, _, memory = _mc(sim, dram_burst_len=4)
    for addr in (0x9000, 0x9040, 0x9080):  # one 4-line window
        memory.write(addr, 2)
    requester = ResponseCollector()
    for addr in (0x9000, 0x10000, 0x9040, 0x9080):
        mc.offer(make_load(addr, reply_to=requester))
    sim.run()
    assert len(requester.of_type(MessageType.LOAD_RESP)) == 4
    snap = mc.stats.as_dict()
    # Window trio fused into one burst, the outlier issued alone.
    assert snap["bursts_issued"] == 2
    assert snap["burst_length"] == 2.0  # (3 + 1) / 2
    # Fusing saved a service interval: trio at t=0, outlier at t=2.
    assert sim.now == 2 + 20  # second interval + DRAM latency


def test_burst_preserves_same_line_order(sim):
    """A writeback and a younger load to the same line fuse in queue
    order, so the load observes the written version."""
    mc, _, memory = _mc(sim, dram_burst_len=4)
    requester = ResponseCollector()
    mc.offer(Message(MessageType.WRITEBACK, addr=0xB000, version=7))
    mc.offer(make_load(0xB000, reply_to=requester))
    sim.run()
    assert requester.of_type(MessageType.LOAD_RESP)[0].version == 7


def test_burst_skips_pim_scope_traffic(sim, scope_map):
    """PIM-memory messages never fuse into a DRAM burst even when their
    addresses fall inside the window."""
    mc, module, memory = _mc(sim, dram_burst_len=4, op_latency=5)
    scope0 = scope_map.scope(0)
    requester = ResponseCollector()
    mc.offer(make_load(scope0.base & ~0xFF, reply_to=requester))
    mc.offer(make_load(scope0.base + 64, scope=0, reply_to=requester))
    sim.run()
    assert len(requester.of_type(MessageType.LOAD_RESP)) == 2
    assert mc.stats.as_dict()["burst_length"] == 1.0


def test_default_burst_len_emits_no_burst_stats(sim):
    mc, _, _ = _mc(sim)
    requester = ResponseCollector()
    mc.offer(make_load(0x9000, reply_to=requester))
    sim.run()
    snap = mc.stats.as_dict()
    assert "bursts_issued" not in snap and "burst_length" not in snap


# ---------------------------------------------------------------------- #
# the pick under PIM back-pressure
# ---------------------------------------------------------------------- #

_PIM_BASE = 1 << 30
_SCOPE_BYTES = 128 << 10

#: DRAM loads/stores over 4 lines, and module-bound loads/stores/PIM
#: ops over 3 scopes x 4 lines.
_QUEUED = st.one_of(
    st.tuples(st.sampled_from(["load", "store"]), st.none(),
              st.integers(0, 3)),
    st.tuples(st.sampled_from(["load", "store", "pim"]), st.integers(0, 2),
              st.integers(0, 3)),
)


def _queued_message(kind, scope, line):
    if scope is None:
        addr = 0x9000 + 64 * line
    else:
        addr = _PIM_BASE + scope * _SCOPE_BYTES + 64 * line
    if kind == "pim":
        return make_pim(scope, addr=addr)
    make = make_load if kind == "load" else make_store
    return make(addr, scope=scope)


def _reference_pick(queue, busy, op_room, access_room, stalls):
    """The per-message walk ``_pick`` replaced: one ``can_accept`` per
    queued module-bound message, one pim_busy per message held back."""
    seen_lines, seen_scopes = set(), set()
    for i, msg in enumerate(queue):
        scope = msg.scope
        if scope is not None:
            if msg.mtype is MessageType.PIM_OP:
                can_accept = op_room
            else:
                can_accept = access_room
            if can_accept:
                if scope not in seen_scopes:
                    return i
            elif stalls is not None:
                stalls["pim_busy"] = stalls.get("pim_busy", 0) + 1
        elif not busy and msg.addr & ~63 not in seen_lines:
            return i
        if scope is None:
            seen_lines.add(msg.addr & ~63)
        else:
            seen_scopes.add(scope)
    return None


@settings(max_examples=400, deadline=None)
@given(queued=st.lists(_QUEUED, min_size=1, max_size=12),
       op_full=st.booleans(), access_full=st.booleans(),
       busy=st.booleans(), traced=st.booleans(),
       earlier_pim_busy=st.integers(0, 3))
def test_pick_matches_the_per_message_reference(queued, op_full, access_full,
                                                busy, traced,
                                                earlier_pim_busy):
    """``_pick`` reads the module's admission once per pick, and skips
    the walk when only PIM ops face a full op buffer.  Index and
    pim_busy count must match the per-message walk.  The queue is
    never empty: ``_serve`` picks only from a non-empty queue."""
    mc, module, _ = _mc(Simulator(), buffer_capacity=2, queue_capacity=16)
    for item in queued:
        assert mc.offer(_queued_message(*item))
    module._buffered_ops = 2 if op_full else 0
    module._queued_accesses = (module.access_queue_capacity if access_full
                               else 0)
    mc._busy = busy
    stalls = expected = None
    if traced:
        stalls = {"pim_busy": earlier_pim_busy} if earlier_pim_busy else {}
        expected = dict(stalls)
        mc._stalls = stalls
    index = _reference_pick(list(mc._queue), busy, not op_full,
                            not access_full, expected)
    assert mc._pick() == index
    assert stalls == expected


def test_pick_reads_admission_once_per_pick():
    """``tpch-q6-sf2`` back-pressures the host on a full op buffer.  A
    pick makes at most one call into the PIM module, however long the
    MC queue: the per-message ``can_accept`` walk made 132,575 over
    20,887 picks.  Only the ratio is asserted; counts vary by Python
    version."""
    _, stats = profile_run(_PINNED_CONFIGS["tpch-q6-sf2"][0])
    code = MemoryController._pick.__code__
    pick = (code.co_filename, code.co_firstlineno, code.co_name)
    module_file = PimModule.offer.__code__.co_filename
    module_calls = sum(callers[pick][0]
                       for func, (_, _, _, _, callers) in stats.stats.items()
                       if func[0] == module_file and pick in callers)
    assert 0 < module_calls <= stats.stats[pick][1]
