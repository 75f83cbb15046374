"""Stub components and run helpers shared by the test suite."""

import cProfile
import dataclasses
import pstats
from typing import List, Optional

import pytest

from repro.api.experiment import Experiment
from repro.core.scope import ScopeMap
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.messages import Message, MessageType
from repro.system.builder import System
from repro.system.simulation import collect_result


class CaptureSink(Component):
    """Accepts (or rejects) everything, recording what it saw."""

    def __init__(self, sim, name="capture", full=False):
        super().__init__(sim, name)
        self.received: List[Message] = []
        self.full = full
        self.waiters: list = []

    def offer(self, msg: Message, sender: Optional[Component] = None) -> bool:
        if self.full:
            if sender is not None and sender not in self.waiters:
                self.waiters.append(sender)
            return False
        self.received.append(msg)
        return True

    def release(self):
        self.full = False
        waiters, self.waiters = self.waiters, []
        for w in waiters:
            w.unblock()

    def of_type(self, mtype: MessageType) -> List[Message]:
        return [m for m in self.received if m.mtype is mtype]


class ResponseCollector:
    """Stands in for a core/entry point on the response path."""

    def __init__(self):
        self.responses: List[Message] = []

    def receive_response(self, msg: Message) -> None:
        self.responses.append(msg)

    def of_type(self, mtype: MessageType) -> List[Message]:
        return [m for m in self.responses if m.mtype is mtype]


class DirectDispatcher(Component):
    """A response network with zero latency: delivers immediately."""

    def offer(self, msg: Message, sender=None) -> bool:
        msg.reply_to.receive_response(msg)
        return True


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def scope_map():
    return ScopeMap(pim_base=1 << 30, scope_bytes=128 << 10, num_scopes=4)


def make_load(addr, scope=None, reply_to=None, core=0, exclusive=False,
              uncacheable=False, expect=0):
    return Message(MessageType.LOAD, addr=addr, scope=scope, core=core,
                   reply_to=reply_to, exclusive=exclusive,
                   uncacheable=uncacheable, version=expect)


def make_store(addr, scope=None, reply_to=None, core=0):
    return Message(MessageType.STORE, addr=addr, scope=scope, core=core,
                   reply_to=reply_to)


def make_pim(scope, addr=0, reply_to=None, core=0, direct=False):
    return Message(MessageType.PIM_OP, addr=addr, scope=scope, core=core,
                   reply_to=reply_to, direct=direct)


def profile_run(spec, trace=None):
    """Run an experiment spec with only ``System.run`` under cProfile.

    Workload generation, system build and compile stay outside the
    profile.  ``trace`` overlays a :class:`TraceConfig` the way
    ``execute_experiment`` does.  Returns the result and the run's
    :class:`pstats.Stats`; call counts, unlike wall time, do not
    depend on the machine.
    """
    experiment = Experiment.from_dict(spec)
    config = experiment.config
    if trace is not None:
        config = dataclasses.replace(config, trace=trace)
    workload = experiment.build_workload()
    system = System(config)
    system.load_programs(workload.compile(system))
    profiler = cProfile.Profile()
    profiler.enable()
    run_time = system.run(max_events=experiment.max_events)
    profiler.disable()
    return collect_result(system, run_time), pstats.Stats(profiler)
