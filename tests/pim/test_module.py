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
    module, _ = _module(sim, capacity=2, op_latency=100)

    class Sender(Component):
        def __init__(self):
            super().__init__(sim, "s")
            self.woken = 0

        def unblock(self):
            self.woken += 1

    sender = Sender()
    accepted = [module.offer(make_pim(0), sender)]
    sim.run(until=1)  # first op moves from buffer to execution
    # two more fill the buffer; the fourth bounces
    accepted += [module.offer(make_pim(0), sender) for _ in range(3)]
    sim.run(until=50)
    accepted.append(module.offer(make_pim(0), sender))
    assert accepted == [True, True, True, False, False]
    sim.run()  # executions drain the buffer and wake the sender
    assert sender.woken >= 1


def test_unbounded_buffer(sim):
    """Fig. 11a: buffer_capacity=None accepts everything."""
    module, _ = _module(sim, capacity=None, op_latency=10)
    assert all(module.offer(make_pim(0)) for _ in range(500))
    assert module.admission() == (True, True)
    sim.run()
    assert module.stats.as_dict()["ops_executed"] == 500


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
    stats = module.stats.as_dict()
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


def test_rejects_non_pim_message_types(sim):
    module, _ = _module(sim)
    from repro.sim.messages import Message
    with pytest.raises(ValueError):
        module.offer(Message(MessageType.PIM_ACK))
