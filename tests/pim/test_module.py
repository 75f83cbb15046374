"""The PIM module's timing model."""

import pytest
from helpers import DirectDispatcher, ResponseCollector, make_load, make_pim

from repro.memory.versioned import VersionedMemory
from repro.pim.module import PimModule
from repro.sim.component import Component
from repro.sim.config import PimModuleConfig
from repro.sim.messages import MessageType


def _module(sim, capacity=4, op_latency=100, **kwargs):
    memory = VersionedMemory()
    module = PimModule(sim, "pim",
                       PimModuleConfig(buffer_capacity=capacity,
                                       op_latency=op_latency, **kwargs),
                       memory, DirectDispatcher(sim, "resp"),
                       access_latency=10)
    return module, memory


def test_same_scope_ops_serialize(sim):
    module, _ = _module(sim, op_latency=100)
    executed = []
    module.on_execute = lambda msg: executed.append(sim.now)
    for _ in range(3):
        module.offer(make_pim(0))
    sim.run()
    assert executed == [100, 200, 300]


def test_different_scopes_execute_in_parallel(sim):
    module, _ = _module(sim, op_latency=100)
    executed = []
    module.on_execute = lambda msg: executed.append((msg.scope, sim.now))
    for scope in range(3):
        module.offer(make_pim(scope))
    sim.run()
    assert [t for _, t in executed] == [100, 100, 100]


def test_buffer_capacity_backpressure_and_wakeup(sim):
    """A full op buffer refuses offers and parks nobody; each finished
    op wakes the MC, which re-reads admission() and retries."""
    module, _ = _module(sim, capacity=2, op_latency=100)

    class Controller(Component):
        def __init__(self):
            super().__init__(sim, "mc")
            self.woken = []

        def unblock(self):
            self.woken.append(sim.now)

    module.mc = controller = Controller()
    accepted = [module.offer(make_pim(0), controller)]
    sim.run(until=1)  # first op moves from buffer to execution
    # two more fill the buffer; the fourth bounces
    accepted += [module.offer(make_pim(0), controller) for _ in range(3)]
    sim.run(until=50)
    accepted.append(module.offer(make_pim(0), controller))
    assert accepted == [True, True, True, False, False]
    assert module.admission() == (False, True)
    sim.run()  # executions drain the buffer, waking the MC per op
    assert controller.woken == [100, 200, 300]
    assert module.admission() == (True, True)


def test_unbounded_buffer(sim):
    """Fig. 11a: buffer_capacity=None accepts everything."""
    module, _ = _module(sim, capacity=None, op_latency=10)
    assert all(module.offer(make_pim(0)) for _ in range(500))
    assert module.admission() == (True, True)
    sim.run()
    assert module.snapshot()["ops_executed"] == 500


def test_zero_logic_latency(sim):
    """Fig. 11b: PIM execution takes zero time."""
    module, _ = _module(sim, op_latency=12345, zero_logic=True)
    executed = []
    module.on_execute = lambda msg: executed.append(sim.now)
    module.offer(make_pim(0))
    sim.run()
    assert executed == [0]


def test_max_concurrent_scopes(sim):
    module, _ = _module(sim, op_latency=100, max_concurrent_scopes=1)
    executed = []
    module.on_execute = lambda msg: executed.append(sim.now)
    module.offer(make_pim(0))
    module.offer(make_pim(1))
    sim.run()
    assert executed == [100, 200]  # serialized by the concurrency limit


def test_access_waits_behind_same_scope_op_on_result_line(sim):
    module, memory = _module(sim, op_latency=200)
    module.result_lines_fn = lambda s: frozenset({0x1000})
    module.on_execute = lambda msg: memory.write(0x1000, 9)
    requester = ResponseCollector()
    module.offer(make_pim(0))
    module.offer(make_load(0x1000, scope=0, reply_to=requester))
    sim.run()
    assert requester.of_type(MessageType.LOAD_RESP)[0].version == 9


def test_non_result_access_served_immediately(sim):
    module, _ = _module(sim, op_latency=100_000)
    module.result_lines_fn = lambda s: frozenset({0x1000})
    requester = ResponseCollector()
    module.offer(make_pim(0))
    module.offer(make_load(0x2000, scope=0, reply_to=requester))
    sim.run(until=100)
    assert requester.of_type(MessageType.LOAD_RESP)


def test_conservative_ordering_without_result_lines(sim):
    """With no result-line registry everything orders behind ops."""
    module, _ = _module(sim, op_latency=300)
    requester = ResponseCollector()
    module.offer(make_pim(0))
    module.offer(make_load(0x2000, scope=0, reply_to=requester))
    sim.run(until=100)
    assert not requester.responses
    sim.run()
    assert requester.responses


def test_buffer_stats_sampled_at_arrival(sim):
    module, _ = _module(sim, capacity=8, op_latency=1000)
    for i in range(4):
        module.offer(make_pim(i % 2))
    stats = module.snapshot()
    assert stats["buffer_len_at_arrival_count"] == 4
    # arrivals saw 0, 1, 2, 3 queued... minus dispatched; mean is small
    assert 0 <= stats["buffer_len_at_arrival"] <= 3


def test_store_and_writeback_update_memory(sim):
    from helpers import make_store
    from repro.sim.messages import Message
    module, memory = _module(sim)
    requester = ResponseCollector()
    module.offer(make_store(0x3000, scope=0, reply_to=requester))
    module.offer(Message(MessageType.WRITEBACK, addr=0x3040, scope=0, version=5))
    sim.run()
    assert memory.read(0x3000) == 1
    assert memory.read(0x3040) == 5
    assert requester.of_type(MessageType.STORE_ACK)


def _state(module):
    """Everything an offer may change: counters, queues, scheduled work."""
    return (module.snapshot(), module._buffered_ops, module._queued_accesses,
            dict(module._queued_ops_by_scope),
            {scope: list(queue)
             for scope, queue in module._scope_queues.items()},
            module.sim.pending_events())


def test_rejects_non_pim_message_types(sim):
    """PIM ops, loads, stores, writebacks and flushes are accepted; any
    other kind raises ValueError and leaves the module untouched."""
    from repro.sim.messages import Message

    accepted = {MessageType.PIM_OP, MessageType.LOAD, MessageType.STORE,
                MessageType.WRITEBACK, MessageType.FLUSH}
    module, _ = _module(sim)
    requester = ResponseCollector()
    for mtype in MessageType:
        msg = Message(mtype, addr=0x40, scope=0, reply_to=requester)
        if mtype in accepted:
            assert module.offer(msg)
            continue
        before = _state(module)
        with pytest.raises(ValueError, match="cannot service"):
            module.offer(msg)
        assert _state(module) == before
    sim.run()
    assert module.snapshot()["ops_executed"] == 1


def test_full_queues_refuse_offers_without_side_effects(sim):
    """An op facing a full op buffer and an access facing a full access
    queue are refused; neither counts, queues or schedules anything."""
    module, _ = _module(sim, capacity=1)
    module.access_queue_capacity = 1
    requester = ResponseCollector()
    assert module.offer(make_pim(0))
    assert module.offer(make_load(0x40, scope=0, reply_to=requester))
    assert module.admission() == (False, False)
    before = _state(module)
    assert not module.offer(make_pim(1))
    assert not module.offer(make_load(0x80, scope=1, reply_to=requester))
    assert _state(module) == before


def test_unlimited_module_reads_no_limit_and_offer_no_admission(
        sim, monkeypatch):
    """An offer checks the room of its own queue (the MC has just read
    admission()), and without max_concurrent_scopes no op start asks
    for the concurrency limit."""
    calls = []
    for name in ("admission", "_at_concurrency_limit"):
        def counted(self, _original=getattr(PimModule, name), _name=name):
            calls.append(_name)
            return _original(self)
        monkeypatch.setattr(PimModule, name, counted)

    module, _ = _module(sim, op_latency=10)
    for scope in (0, 1, 0):
        assert module.offer(make_pim(scope))
    sim.run()
    assert module.snapshot()["ops_executed"] == 3
    assert calls == []

    limited, _ = _module(sim, op_latency=10, max_concurrent_scopes=1)
    limited.offer(make_pim(0))
    sim.run()
    assert calls == ["_at_concurrency_limit"]

