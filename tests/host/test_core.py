"""Host core execution semantics."""

from helpers import CaptureSink

from repro.core.models import ConsistencyModel, properties_of
from repro.host.core import Core
from repro.host.entry_point import EntryPoint
from repro.host.program import ThreadOp, ThreadProgram
from repro.sim.messages import MessageType


def _core(sim, model=ConsistencyModel.NAIVE, mlp=2):
    l1 = CaptureSink(sim, "l1")
    net = CaptureSink(sim, "net")
    ep = EntryPoint(sim, "ep", 0, properties_of(model), l1, net, depth=8)
    core = Core(sim, "core", 0, ep.props, ep, max_outstanding_loads=mlp)
    return core, ep, l1, net


def _answer_loads(sim, core, sink, version=0):
    for msg in sink.of_type(MessageType.LOAD):
        core.receive_response(msg.make_response(MessageType.LOAD_RESP, version=version))
    sink.received = [m for m in sink.received if m.mtype is not MessageType.LOAD]


def test_mlp_limits_outstanding_loads(sim):
    core, ep, l1, _ = _core(sim, mlp=2)
    core.run_program(ThreadProgram("t", [ThreadOp.load(64 * i) for i in range(5)]))
    sim.run()
    assert len(l1.of_type(MessageType.LOAD)) == 2  # MLP cap
    _answer_loads(sim, core, l1)
    sim.run()
    assert core.outstanding_loads <= 2


def test_done_requires_completed_responses(sim):
    core, ep, l1, _ = _core(sim)
    core.run_program(ThreadProgram("t", [ThreadOp.load(0)]))
    sim.run()
    assert not core.done  # load still outstanding
    _answer_loads(sim, core, l1)
    sim.run()
    assert core.done


def test_compute_consumes_cycles(sim):
    core, *_ = _core(sim)
    core.run_program(ThreadProgram("t", [ThreadOp.compute(100)]))
    sim.run()
    assert core.done and sim.now >= 100


def test_mem_fence_waits_for_loads(sim):
    core, ep, l1, _ = _core(sim)
    core.run_program(ThreadProgram("t", [
        ThreadOp.load(0),
        ThreadOp.mem_fence(),
        ThreadOp.load(64),
    ]))
    sim.run()
    assert len(l1.of_type(MessageType.LOAD)) == 1  # fence blocks the second
    _answer_loads(sim, core, l1)
    sim.run()
    assert len(l1.of_type(MessageType.LOAD)) == 1  # answered removed; new one
    assert core.outstanding_loads == 1


def test_atomic_pim_blocks_until_ack(sim):
    core, ep, l1, net = _core(sim, ConsistencyModel.ATOMIC)
    core.run_program(ThreadProgram("t", [
        ThreadOp.pim_op(0),
        ThreadOp.load(64, scope=1),
    ]))
    sim.run()
    pim = net.of_type(MessageType.PIM_OP)[0]
    assert not l1.of_type(MessageType.LOAD)  # commit blocked on ACK
    core.receive_response(pim.make_response(MessageType.PIM_ACK))
    sim.run()
    assert l1.of_type(MessageType.LOAD)


def test_store_model_pim_waits_for_earlier_loads(sim):
    core, ep, l1, net = _core(sim, ConsistencyModel.STORE)
    core.run_program(ThreadProgram("t", [
        ThreadOp.load(0),
        ThreadOp.pim_op(0),
    ]))
    sim.run()
    assert not net.of_type(MessageType.PIM_OP)  # waiting for the load
    _answer_loads(sim, core, l1)
    sim.run()
    assert net.of_type(MessageType.PIM_OP)


def test_scope_model_pim_waits_only_same_scope(sim):
    core, ep, l1, net = _core(sim, ConsistencyModel.SCOPE)
    core.run_program(ThreadProgram("t", [
        ThreadOp.load(1 << 20, scope=1),   # other scope: does not block
        ThreadOp.pim_op(0),
    ]))
    sim.run()
    assert net.of_type(MessageType.PIM_OP)  # issued despite pending load


def test_scope_relaxed_pim_never_waits(sim):
    core, ep, l1, net = _core(sim, ConsistencyModel.SCOPE_RELAXED)
    core.run_program(ThreadProgram("t", [
        ThreadOp.load(0, scope=0),
        ThreadOp.pim_op(0),
    ]))
    sim.run()
    # the PIM op went through the L1 (scope-relaxed path) with the load
    # still outstanding
    assert l1.of_type(MessageType.PIM_OP)


def test_stale_read_detection(sim):
    core, ep, l1, _ = _core(sim)
    core.run_program(ThreadProgram("t", [ThreadOp.load(0, expect_version=5)]))
    sim.run()
    msg = l1.of_type(MessageType.LOAD)[0]
    core.receive_response(msg.make_response(MessageType.LOAD_RESP, version=3))
    sim.run()
    assert core.stale_reads == 1


def test_fresh_read_not_counted_stale(sim):
    core, ep, l1, _ = _core(sim)
    core.run_program(ThreadProgram("t", [ThreadOp.load(0, expect_version=5)]))
    sim.run()
    msg = l1.of_type(MessageType.LOAD)[0]
    core.receive_response(msg.make_response(MessageType.LOAD_RESP, version=6))
    sim.run()
    assert core.stale_reads == 0


def test_barrier_waits_for_quiesce_then_calls_back(sim):
    arrived = []
    l1 = CaptureSink(sim, "l1")
    net = CaptureSink(sim, "net")
    props = properties_of(ConsistencyModel.NAIVE)
    ep = EntryPoint(sim, "ep", 0, props, l1, net)
    core = Core(sim, "core", 0, props, ep, barrier_cb=arrived.append)
    core.run_program(ThreadProgram("t", [
        ThreadOp.load(0),
        ThreadOp.barrier(),
        ThreadOp.compute(10),
    ]))
    sim.run()
    assert not arrived  # load outstanding: not yet at the barrier
    for msg in l1.of_type(MessageType.LOAD):
        core.receive_response(msg.make_response(MessageType.LOAD_RESP))
    sim.run()
    assert arrived == [core]
    assert not core.done  # still parked at the barrier
    core.release_barrier()
    sim.run()
    assert core.done


def test_uncacheable_accesses_serialize(sim):
    core, ep, l1, net = _core(sim, ConsistencyModel.UNCACHEABLE, mlp=8)
    core.run_program(ThreadProgram("t", [
        ThreadOp.load(64 * i, uncacheable=True) for i in range(3)
    ]))
    sim.run()
    assert len(net.of_type(MessageType.LOAD)) == 1  # strongly ordered
    msg = net.of_type(MessageType.LOAD)[0]
    core.receive_response(msg.make_response(MessageType.LOAD_RESP))
    sim.run()
    assert len(net.of_type(MessageType.LOAD)) == 2


def test_pim_fence_waits_for_acks(sim):
    core, ep, l1, net = _core(sim, ConsistencyModel.SCOPE)
    core.run_program(ThreadProgram("t", [
        ThreadOp.pim_op(0),
        ThreadOp.pim_fence(),
        ThreadOp.compute(1),
    ]))
    sim.run()
    pim = net.of_type(MessageType.PIM_OP)[0]
    assert not core.done  # fence waiting on the ACK
    ep.receive_response(pim.make_response(MessageType.PIM_ACK))
    sim.run()
    assert core.done
