"""System assembly and the barrier."""

import pytest

from repro.core.models import ConsistencyModel
from repro.host.program import ThreadOp, ThreadProgram
from repro.sim.config import SystemConfig
from repro.system.builder import Barrier, System


def test_builder_wires_components():
    system = System(SystemConfig.scaled_default(num_scopes=4))
    cfg = system.config
    assert len(system.cores) == cfg.cores.num_cores
    assert len(system.l1s) == cfg.cores.num_cores
    assert system.llc.l1s is system.l1s
    assert system.mc.pim_module is system.pim_module
    assert system.pim_module.mc is system.mc


def test_l1_scope_buffers_only_under_scope_relaxed():
    relaxed = System(SystemConfig.scaled_default(
        model=ConsistencyModel.SCOPE_RELAXED, num_scopes=4))
    strict = System(SystemConfig.scaled_default(
        model=ConsistencyModel.ATOMIC, num_scopes=4))
    assert all(l1.scope_buffer is not None for l1 in relaxed.l1s)
    assert all(l1.sbv is not None for l1 in relaxed.l1s)
    assert all(l1.scope_buffer is None for l1 in strict.l1s)


def test_pim_execution_bumps_result_versions():
    system = System(SystemConfig.scaled_default(num_scopes=4))
    lines = [system.scope_map.scope(0).limit - 64 * (i + 1) for i in range(2)]
    system.register_pim_result_lines(0, lines)
    prog = ThreadProgram("t", [ThreadOp.pim_op(0), ThreadOp.pim_fence()])
    system.load_programs([prog])
    system.run(max_events=1_000_000)
    # run() returns when the core is done; execution may lag -- drain:
    system.sim.run()
    assert system.pim_execution_counts[0] == 1
    assert all(system.memory.read(a) == 1 for a in lines)


def test_run_without_programs_raises_cleanly():
    """run() before load_programs() must not die with an AttributeError
    on the lazily-created active-core list."""
    system = System(SystemConfig.scaled_default(num_scopes=4))
    with pytest.raises(RuntimeError, match="no programs loaded"):
        system.run()


def test_run_detects_stuck_cores():
    system = System(SystemConfig.scaled_default(num_scopes=4))
    # a barrier with a second program that never arrives
    prog = ThreadProgram("t", [ThreadOp.barrier()])
    prog2 = ThreadProgram("t2", [ThreadOp.compute(5)])
    system.load_programs([prog, prog2])
    # thread 2 finishes; thread 1 waits forever at the barrier
    with pytest.raises(RuntimeError, match="stuck"):
        system.run(max_events=1_000_000)


def test_barrier_releases_all_at_once():
    released = []

    class FakeCore:
        def __init__(self, name):
            self.name = name

        def release_barrier(self):
            released.append(self.name)

    barrier = Barrier(3)
    barrier.arrive(FakeCore("a"))
    barrier.arrive(FakeCore("b"))
    assert not released
    barrier.arrive(FakeCore("c"))
    assert sorted(released) == ["a", "b", "c"]
    assert barrier.crossings == 1


def test_too_many_programs_rejected():
    system = System(SystemConfig.scaled_default(num_scopes=4))
    programs = [ThreadProgram(f"t{i}", [ThreadOp.compute(1)]) for i in range(99)]
    with pytest.raises(ValueError):
        system.load_programs(programs)


def test_zero_logic_overrides_everything():
    """Fig. 11b: the PIM module's zero-logic check wins over a workload's
    latency override."""
    cfg = SystemConfig.scaled_default(num_scopes=4).with_pim(zero_logic=True)
    system = System(cfg)
    system.pim_op_latency_override = 5000
    from repro.sim.messages import Message, MessageType
    msg = Message(MessageType.PIM_OP, scope=0)
    assert system._pim_latency(msg) == 5000
    assert system.pim_module._latency_of(msg) == 0
