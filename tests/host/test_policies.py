"""Per-model issue rules (Section V), as each model's row states them.

The entry point's forwarding rule is checked through the reference
predicate in ``tests/policy_reference.py`` (the serve loop is held to it
by ``test_serve_scan_matches_may_forward_for_every_model``); the core's
PIM and fence waits and the entry point's routing are driven directly.
"""

from helpers import CaptureSink
from policy_reference import may_forward

from repro.core.models import ConsistencyModel, properties_of
from repro.host.core import Core
from repro.host.entry_point import EntryPoint
from repro.host.program import ThreadOp, ThreadProgram
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType


def _load(scope=None):
    return Message(MessageType.LOAD, addr=0x100, scope=scope)


def _store(scope=None):
    return Message(MessageType.STORE, addr=0x100, scope=scope)


def _pim(scope=0):
    return Message(MessageType.PIM_OP, addr=0, scope=scope)


def _props(model):
    return properties_of(model)


def _core(model):
    sim = Simulator()
    l1 = CaptureSink(sim, "l1")
    net = CaptureSink(sim, "net")
    props = _props(model)
    ep = EntryPoint(sim, "ep", 0, props, l1, net)
    return sim, Core(sim, "core", 0, props, ep), l1, net


def test_atomic_policy_blocks_commit_only():
    p = _props(ConsistencyModel.ATOMIC)
    assert p.blocks_commit
    assert not any(_props(m).blocks_commit
                   for m in ConsistencyModel if m is not ConsistencyModel.ATOMIC)
    # entry point never holds; the core serializes
    assert may_forward(p, _store(0), {0: 1}, set(), False)
    assert p.entry_point_holds == "all"


def test_store_policy_holds_store_class_ops():
    p = _props(ConsistencyModel.STORE)
    pending = {0: 1}
    assert not may_forward(p, _store(1), pending, set(), False)
    assert not may_forward(p, _pim(1), pending, set(), False)
    # loads to other scopes bypass; same scope blocked
    assert may_forward(p, _load(1), pending, set(), False)
    assert may_forward(p, _load(None), pending, set(), False)
    assert not may_forward(p, _load(0), pending, set(), False)
    # with nothing pending, everything flows
    assert may_forward(p, _store(1), {}, set(), False)
    assert p.entry_point_holds == "stores"


def test_scope_policy_holds_same_scope_only():
    p = _props(ConsistencyModel.SCOPE)
    pending = {0: 2}
    assert may_forward(p, _pim(1), pending, set(), False)
    assert may_forward(p, _store(1), pending, set(), False)
    assert may_forward(p, _load(1), pending, set(), False)
    assert not may_forward(p, _load(0), pending, set(), False)
    assert not may_forward(p, _pim(0), pending, set(), False)
    assert p.entry_point_holds == "same-scope"


def test_scope_relaxed_policy_holds_nothing_but_fences():
    p = _props(ConsistencyModel.SCOPE_RELAXED)
    assert may_forward(p, _load(0), {0: 1}, set(), False)
    assert may_forward(p, _pim(0), {0: 1}, set(), False)
    # a forwarded, un-ACKed scope-fence blocks same-scope accesses
    assert not may_forward(p, _load(0), {}, {0}, False)
    assert may_forward(p, _load(1), {}, {0}, False)
    assert p.entry_point_holds == "none"
    assert p.scope_buffer_all_caches and p.scope_fence_available


def test_store_to_load_queue_order():
    p = _props(ConsistencyModel.NAIVE)
    assert not may_forward(p, _load(0), {}, set(), True)


def test_queued_pim_blocks_same_scope_except_scope_relaxed():
    for model in ConsistencyModel:
        p = _props(model)
        expected = model is ConsistencyModel.SCOPE_RELAXED
        assert may_forward(p, _load(0), {}, set(), False, "pim") == expected, model
        if expected:
            # The entry point needs no rule for this: only the store and
            # scope models ever hold a PIM op there, and both forbid it.
            assert p.entry_point_holds not in ("stores", "same-scope")


def test_queued_scope_fence_blocks_under_every_model():
    for model in ConsistencyModel:
        p = _props(model)
        assert not may_forward(p, _load(0), {}, set(), False, "fence"), model


def test_baselines_forward_pim_direct():
    for model in ConsistencyModel:
        sim = Simulator()
        net = CaptureSink(sim, "net")
        ep = EntryPoint(sim, "ep", 0, _props(model), CaptureSink(sim, "l1"),
                        net)
        msg = _pim(0)
        ep.offer(msg)
        sim.run()
        assert msg.direct == model.is_baseline, model


def test_mem_fence_pim_interaction():
    """A MemFence orders an earlier PIM op under atomic and store (its
    ACK must land first), and not under the scope models."""
    for model, fence_waits in [(ConsistencyModel.ATOMIC, True),
                               (ConsistencyModel.STORE, True),
                               (ConsistencyModel.SCOPE, False),
                               (ConsistencyModel.SCOPE_RELAXED, False)]:
        sim, core, l1, net = _core(model)
        core.run_program(ThreadProgram("t", [
            ThreadOp.pim_op(0),
            ThreadOp.mem_fence(),
            ThreadOp.load(1 << 20, scope=1),
        ]))
        sim.run()
        assert bool(l1.of_type(MessageType.LOAD)) != fence_waits, model
        pim, = l1.of_type(MessageType.PIM_OP) + net.of_type(MessageType.PIM_OP)
        pim.reply_to.receive_response(pim.make_response(MessageType.PIM_ACK))
        sim.run()
        assert l1.of_type(MessageType.LOAD), model


def test_policy_holds_agree_with_table1_reordering():
    """Operational holds must be at least as strict as Table I: if the
    declarative model forbids reordering a PIM op with a later same-
    scope load, the entry point must hold that load while the op is
    pending."""
    from repro.core.memops import MemOp, OpKind

    for model in (ConsistencyModel.ATOMIC, ConsistencyModel.STORE,
                  ConsistencyModel.SCOPE, ConsistencyModel.SCOPE_RELAXED):
        props = _props(model)
        pim = MemOp(OpKind.PIM_OP, 0, 0, scope=0)
        later_load = MemOp(OpKind.LOAD, 0, 1, address=0x100, scope=0)
        declarative_allows = props.may_reorder(pim, later_load)
        # pending PIM op to scope 0 (atomic: core blocks, so the entry
        # point face never sees the pair concurrently)
        operational_allows = (
            props.blocks_commit is False
            and may_forward(props, _load(0), {0: 1}, set(), False)
        )
        if not declarative_allows:
            assert not operational_allows, model
