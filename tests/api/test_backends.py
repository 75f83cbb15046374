"""Execution backends: serial/process-pool equivalence and determinism."""

import time
from dataclasses import asdict

import pytest

# tests/ is on sys.path (tests/conftest.py): the event budget is the
# digest gate's, so a run that stops making progress fails fast.
from api.test_default_digests import PINNED_MAX_EVENTS
from repro.api import (
    Experiment,
    ProcessPoolBackend,
    SerialBackend,
    backend_for,
    execute_experiment,
)
from repro.api.backends import ExperimentFailure
from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig
from repro.workloads.ycsb import YcsbParams

PARAMS = YcsbParams(num_records=8000, num_ops=6, threads=4, seed=11)


def _experiments():
    return [
        Experiment(
            workload="ycsb",
            config=SystemConfig.scaled_default(model=model, num_scopes=4),
            params=asdict(PARAMS),
            max_events=PINNED_MAX_EVENTS,
        )
        for model in (ConsistencyModel.NAIVE, ConsistencyModel.ATOMIC,
                      ConsistencyModel.SCOPE)
    ]


def test_process_pool_matches_serial_exactly():
    """Simulations are deterministic and share nothing, so fanning a
    sweep over worker processes must not change a single statistic."""
    exps = _experiments()
    serial = SerialBackend().run_all_settled(exps)
    pooled = ProcessPoolBackend(jobs=2).run_all_settled(exps)
    assert len(pooled) == len(serial) == len(exps)
    for s, p, exp in zip(serial, pooled, exps):
        assert p.config == exp.config  # order preserved
        assert p.run_time == s.run_time
        assert p.stale_reads == s.stale_reads
        assert p.events == s.events
        assert p.stats == s.stats


def test_process_pool_single_job_falls_back_to_serial(monkeypatch):
    """One job and no timeout: the points run in this process, no pool."""
    exps = _experiments()[:1]
    monkeypatch.setattr(ProcessPoolBackend, "_context", None)
    assert (ProcessPoolBackend(jobs=1).run_all_settled(exps)[0].run_time
            == execute_experiment(exps[0]).run_time)
    assert ProcessPoolBackend(jobs=4).run_all_settled([]) == []


def test_process_pool_rejects_bad_job_count():
    with pytest.raises(ValueError):
        ProcessPoolBackend(jobs=0)


def test_pool_timeout_settles_hung_point_as_failure(monkeypatch):
    """A point that hangs past timeout_s settles as a failure instead of
    wedging the batch; the other points still complete.
    (The pool forks, so children inherit the monkeypatched executor.)"""
    import repro.api.backends as backends

    real = backends.execute_experiment

    def sometimes_hangs(experiment, **kwargs):
        if experiment.variant == "hang":
            time.sleep(120)
        return real(experiment, **kwargs)

    monkeypatch.setattr(backends, "execute_experiment", sometimes_hangs)
    fast, hung = _experiments()[:2]
    hung = Experiment.from_dict(dict(hung.to_dict(), variant="hang"))
    start = time.time()
    settled = ProcessPoolBackend(jobs=2, timeout_s=3.0).run_all_settled(
        [fast, hung])
    assert time.time() - start < 60  # the hung child did not wedge us
    assert not isinstance(settled[0], ExperimentFailure)
    assert settled[0].run_time == execute_experiment(fast).run_time
    assert isinstance(settled[1], ExperimentFailure)
    assert "per-point timeout" in settled[1].error


def test_pool_timeout_validation_and_backend_for():
    with pytest.raises(ValueError):
        ProcessPoolBackend(timeout_s=0)
    assert isinstance(backend_for(1), SerialBackend)
    assert isinstance(backend_for(4), ProcessPoolBackend)
    # a timeout forces the pool even at one job: only a child process
    # can be abandoned
    timed = backend_for(1, timeout_s=5.0)
    assert isinstance(timed, ProcessPoolBackend)
    assert timed.timeout_s == 5.0


def test_experiments_and_results_are_picklable():
    import pickle

    exp = _experiments()[0]
    assert pickle.loads(pickle.dumps(exp)) == exp
    result = execute_experiment(exp)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.run_time == result.run_time
    assert clone.stats == result.stats


def test_backends_produce_identical_stats_views():
    """Satellite of the kernel overhaul: the typed StatsView namespaces
    (not just the raw dicts) agree between backends."""
    exp = _experiments()[2]
    serial, = SerialBackend().run_all_settled([exp])
    # One point needs only one worker, which runs in-process unless a
    # timeout asks for a child process the parent can abandon.
    pooled, = ProcessPoolBackend(jobs=2, timeout_s=60).run_all_settled([exp])
    assert serial.llc.as_dict() == pooled.llc.as_dict()
    assert serial.pim.as_dict() == pooled.pim.as_dict()
    assert serial.mc.as_dict() == pooled.mc.as_dict()
    assert [v.as_dict() for v in serial.cores] == \
        [v.as_dict() for v in pooled.cores]
