"""The litmus-fuzz timing workload: validation and model agreement."""

import dataclasses

import pytest

# tests/ is on sys.path (tests/conftest.py): the event budget is the
# digest gate's, so a run that stops making progress fails fast.
from api.test_default_digests import PINNED_MAX_EVENTS
from repro.api.experiment import Experiment
from repro.fuzz.program import FuzzOp, build_program
from repro.sim.config import SystemConfig
from repro.system.builder import System
from repro.workloads.fuzz import FuzzLitmusWorkload

TWO_SCOPE = build_program(
    threads=[
        [FuzzOp("store", 0, 0), FuzzOp("pim", 0)],
        [FuzzOp("load", 0, 0), FuzzOp("pim", 1), FuzzOp("load", 1, 0)],
    ],
    slots=[1, 1],
)


def test_params_round_trip_through_experiment_specs():
    spec = TWO_SCOPE.to_dict()
    experiment = Experiment.from_dict({
        "workload": "litmus-fuzz",
        "params": {"spec": spec, "rounds": 2},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 2},
    })
    thawed = Experiment.from_dict(experiment.to_dict())
    assert thawed.spec_hash() == experiment.spec_hash()
    assert thawed.build_workload().params["spec"] == spec


def test_rejects_bad_spec_and_rounds():
    with pytest.raises(ValueError):
        FuzzLitmusWorkload({"schema": "something-else"})
    with pytest.raises(ValueError):
        FuzzLitmusWorkload(TWO_SCOPE.to_dict(), rounds=0)


def test_compile_rejects_too_few_scopes():
    workload = FuzzLitmusWorkload(TWO_SCOPE.to_dict())
    system = System(SystemConfig.scaled_default(num_scopes=1))
    with pytest.raises(ValueError, match="scopes"):
        workload.compile(system)


def test_compile_emits_one_program_per_thread():
    workload = FuzzLitmusWorkload(TWO_SCOPE.to_dict(), rounds=2)
    system = System(SystemConfig.scaled_default(num_scopes=2))
    programs = workload.compile(system)
    assert len(programs) == len(TWO_SCOPE.threads)


@pytest.mark.parametrize("model,expect_stale", [
    ("naive", True), ("atomic", False), ("scope-relaxed", False),
])
def test_stale_reads_match_the_model_guarantee(model, expect_stale):
    from repro.api.runner import Runner
    from repro.fuzz.harness import timing_experiment
    from repro.fuzz.generate import generate_batch

    program = generate_batch(seed=3, count=1)[0]
    # The fuzz budget is part of the spec hash; the test caps its own.
    experiment = dataclasses.replace(timing_experiment(program, model),
                                     max_events=PINNED_MAX_EVENTS)
    result = Runner().run_all([experiment])[0]
    if expect_stale:
        assert result.stale_reads > 0
    else:
        assert result.stale_reads == 0
