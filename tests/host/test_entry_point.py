"""The memory-subsystem entry point (write buffer)."""

from helpers import CaptureSink, make_load, make_pim, make_store
from policy_reference import may_forward

from repro.core.models import ConsistencyModel, properties_of
from repro.host.entry_point import EntryPoint
from repro.sim.messages import Message, MessageType


def _ep(sim, model, depth=8):
    l1 = CaptureSink(sim, "l1")
    net = CaptureSink(sim, "net")
    ep = EntryPoint(sim, "ep", 0, properties_of(model), l1, net, depth=depth)
    return ep, l1, net


def _ack(ep, pim_msg):
    ep.receive_response(pim_msg.make_response(MessageType.PIM_ACK))


class _NullCore:
    def on_entry_point_progress(self):
        pass

    def on_subsystem_ack(self, resp):
        pass


def test_loads_and_stores_route_to_l1(sim):
    ep, l1, net = _ep(sim, ConsistencyModel.ATOMIC)
    ep.offer(make_load(0x100))
    ep.offer(make_store(0x200))
    sim.run()
    assert len(l1.received) == 2
    assert not net.received


def test_uncacheable_bypasses_l1(sim):
    ep, l1, net = _ep(sim, ConsistencyModel.UNCACHEABLE)
    msg = make_load(0x100, uncacheable=True)
    ep.offer(msg)
    sim.run()
    assert msg in net.received and not l1.received


def test_pim_routes_past_l1_except_scope_relaxed(sim):
    for model, through_l1 in [(ConsistencyModel.ATOMIC, False),
                              (ConsistencyModel.SCOPE_RELAXED, True)]:
        ep, l1, net = _ep(sim, model)
        msg = make_pim(0, reply_to=None)
        ep.offer(msg)
        sim.run()
        target = l1 if through_l1 else net
        assert msg in target.received, model


def test_baseline_pim_marked_direct(sim):
    ep, _, net = _ep(sim, ConsistencyModel.SW_FLUSH)
    msg = make_pim(0)
    ep.offer(msg)
    sim.run()
    assert net.received[0].direct


def test_store_model_serializes_pim_ops_on_acks(sim):
    ep, l1, net = _ep(sim, ConsistencyModel.STORE)
    ep.attach_core(_NullCore())
    first, second = make_pim(0, reply_to=ep), make_pim(1, reply_to=ep)
    ep.offer(first)
    ep.offer(second)
    sim.run()
    assert first in net.received and second not in net.received
    _ack(ep, first)
    sim.run()
    assert second in net.received


def test_store_model_load_bypass_rules(sim):
    ep, l1, net = _ep(sim, ConsistencyModel.STORE)
    ep.attach_core(_NullCore())
    pim = make_pim(0, reply_to=ep)
    same_scope = make_load(0x100, scope=0)
    other_scope = make_load(0x200, scope=1)
    trailing_store = make_store(0x300, scope=1)
    for m in (pim, same_scope, other_scope, trailing_store):
        ep.offer(m)
    sim.run()
    assert other_scope in l1.received          # bypassed the pending PIM op
    assert same_scope not in l1.received       # held: same scope
    assert trailing_store not in l1.received   # held: store class
    _ack(ep, pim)
    sim.run()
    assert same_scope in l1.received and trailing_store in l1.received


def test_scope_model_interleaves_other_scope_pims(sim):
    """The non-FIFO write buffer (Section V-D): PIM ops to distinct
    scopes flow without waiting for each other's ACKs."""
    ep, _, net = _ep(sim, ConsistencyModel.SCOPE)
    ep.attach_core(_NullCore())
    ops = [make_pim(s, reply_to=ep) for s in range(3)]
    ops.append(make_pim(0, reply_to=ep))  # second op to scope 0: held
    for m in ops:
        ep.offer(m)
    sim.run()
    assert all(m in net.received for m in ops[:3])
    assert ops[3] not in net.received
    _ack(ep, ops[0])
    sim.run()
    assert ops[3] in net.received


def test_scope_fence_holds_same_scope_until_ack(sim):
    ep, l1, _ = _ep(sim, ConsistencyModel.SCOPE_RELAXED)
    ep.attach_core(_NullCore())
    fence = Message(MessageType.SCOPE_FENCE, addr=0, scope=0, reply_to=ep)
    same = make_load(0x100, scope=0)
    other = make_load(0x200, scope=1)
    ep.offer(fence)
    ep.offer(same)
    ep.offer(other)
    sim.run()
    assert fence in l1.received
    assert other in l1.received and same not in l1.received
    ep.receive_response(fence.make_response(MessageType.SCOPE_FENCE_ACK))
    sim.run()
    assert same in l1.received


def test_load_cannot_jump_queued_same_scope_pim(sim):
    """The write-buffer flavour of the Fig. 1 race: a load must not
    overtake an older, still-held PIM op to its scope (except under
    scope-relaxed, which permits the reorder)."""
    ep, l1, net = _ep(sim, ConsistencyModel.STORE)
    ep.attach_core(_NullCore())
    first = make_pim(0, reply_to=ep)
    held = make_pim(1, reply_to=ep)     # held behind first's ACK
    load = make_load(0x100, scope=1)    # must not pass the held op
    for m in (first, held, load):
        ep.offer(m)
    sim.run()
    assert load not in l1.received
    _ack(ep, first)
    sim.run()
    _ack(ep, held)
    sim.run()
    assert load in l1.received


def test_capacity_and_drained(sim):
    ep, _, _ = _ep(sim, ConsistencyModel.NAIVE, depth=2)
    assert ep.offer(make_load(0x100))
    assert ep.offer(make_load(0x200))
    assert ep.is_full
    assert not ep.offer(make_load(0x300))
    sim.run()
    assert ep.drained


# --------------------------------------------------------------------- #
# parity: the serve loop's decision vs the reference may_forward
# --------------------------------------------------------------------- #


def _reference_first_forwardable(props, queue, pending, fenced):
    """The pre-optimization O(n^2) algorithm, driven by the reference
    may_forward -- the oracle the serve loop's scan must match."""
    for i, msg in enumerate(queue):
        earlier_line_write = False
        if msg.mtype is MessageType.LOAD:
            line = msg.addr & ~63
            earlier_line_write = any(
                e.mtype in (MessageType.STORE, MessageType.FLUSH)
                and (e.addr & ~63) == line
                for e in list(queue)[:i]
            )
        scope_order = ""
        if msg.scope is not None and msg.mtype is not MessageType.PIM_OP:
            for earlier in list(queue)[:i]:
                if earlier.scope != msg.scope:
                    continue
                if earlier.mtype is MessageType.SCOPE_FENCE:
                    scope_order = "fence"
                    break
                if earlier.mtype is MessageType.PIM_OP and not scope_order:
                    scope_order = "pim"
        if may_forward(props, msg, pending, fenced, earlier_line_write,
                       scope_order):
            return i
    return None


def test_serve_scan_matches_may_forward_for_every_model():
    """The entry point's serve loop (head fast path + incremental full
    scan) must make exactly the same choice as the reference may_forward
    on randomized queue states, under every model."""
    import random

    from repro.sim.component import Component
    from repro.sim.kernel import Simulator

    class Rejecting(Component):
        """Records the chosen message but refuses it, leaving the queue
        intact so the choice is observable without side effects."""

        def __init__(self, sim):
            super().__init__(sim, "stub")
            self.offered = []

        def offer(self, msg, sender=None):
            self.offered.append(msg)
            return False

    kinds = [MessageType.LOAD, MessageType.STORE, MessageType.FLUSH,
             MessageType.PIM_OP, MessageType.SCOPE_FENCE]
    rng = random.Random(1234)
    for model in ConsistencyModel:
        props = properties_of(model)
        for _ in range(500):
            sim = Simulator()
            stub = Rejecting(sim)
            ep = EntryPoint(sim, "ep", 0, props, l1=stub, req_net=stub)
            for _ in range(rng.randrange(1, 7)):
                mtype = rng.choice(kinds)
                scope = rng.choice([None, 0, 1]) \
                    if mtype not in (MessageType.PIM_OP,
                                     MessageType.SCOPE_FENCE) \
                    else rng.choice([0, 1])
                ep._queue.append(Message(
                    mtype, addr=rng.choice([0x0, 0x40, 0x80]), scope=scope,
                ))
            for scope in (0, 1):
                if rng.random() < 0.4:
                    ep.pending_pim_scopes[scope] = 1
                if rng.random() < 0.3:
                    ep.fenced_scopes.add(scope)
            expected = _reference_first_forwardable(
                props, ep._queue, ep.pending_pim_scopes, ep.fenced_scopes)
            ep._serve()
            chosen = (ep._queue.index(stub.offered[0])
                      if stub.offered else None)
            assert chosen == expected, (
                f"model={model.value} queue="
                f"{[(m.mtype.name, m.scope, hex(m.addr)) for m in ep._queue]}"
                f" pending={ep.pending_pim_scopes}"
                f" fenced={ep.fenced_scopes}"
            )
