"""Runner semantics: parity with the legacy path, caching, dedup."""

from dataclasses import asdict, replace
from typing import List, Sequence

import pytest

from helpers import CountingBackend
from repro.api import Experiment, ResultStore, Runner, SerialBackend
from repro.api.backends import ExperimentFailure, execute_experiment
from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig
from repro.system.simulation import run_workload
from repro.workloads.ycsb import YcsbParams, YcsbWorkload

#: Small fixed-seed YCSB point; every model finishes in well under a second.
PARAMS = YcsbParams(num_records=8000, num_ops=10, threads=4, seed=11)
NUM_SCOPES = 4
MAX_EVENTS = 50_000_000

#: "All six consistency models" of the evaluation sweeps (Figs. 7-13).
SIX_MODELS = [
    ConsistencyModel.NAIVE,
    ConsistencyModel.SW_FLUSH,
    ConsistencyModel.ATOMIC,
    ConsistencyModel.STORE,
    ConsistencyModel.SCOPE,
    ConsistencyModel.SCOPE_RELAXED,
]


def _experiment(model: ConsistencyModel) -> Experiment:
    return Experiment(
        workload="ycsb",
        config=SystemConfig.scaled_default(model=model,
                                           num_scopes=NUM_SCOPES),
        params=asdict(PARAMS),
        max_events=MAX_EVENTS,
    )


@pytest.mark.parametrize("model", SIX_MODELS,
                         ids=[m.value for m in SIX_MODELS])
def test_runner_reproduces_legacy_run_workload(model):
    """The redesign is a pure re-plumbing: for a fixed seed, the
    Experiment/Runner path must match the legacy run_workload output
    exactly -- run time, stale reads, and every stat group."""
    cfg = SystemConfig.scaled_default(model=model, num_scopes=NUM_SCOPES)
    legacy = run_workload(cfg, YcsbWorkload(PARAMS), max_events=MAX_EVENTS)
    new = Runner().run(_experiment(model))
    assert new.run_time == legacy.run_time
    assert new.stale_reads == legacy.stale_reads
    assert new.events == legacy.events
    assert new.stats == legacy.stats
    assert new.config == legacy.config


def test_cache_serves_repeated_specs_without_resimulating():
    backend = CountingBackend()
    runner = Runner(backend=backend)
    first = runner.run(_experiment(ConsistencyModel.ATOMIC))
    second = runner.run(_experiment(ConsistencyModel.ATOMIC))
    assert first is second  # cache hit returns the same snapshot
    assert len(backend.executed) == 1
    assert runner.dispatch_count == 1


def test_run_all_deduplicates_within_a_batch_and_keeps_order():
    backend = CountingBackend()
    runner = Runner(backend=backend)
    atomic = _experiment(ConsistencyModel.ATOMIC)
    naive = _experiment(ConsistencyModel.NAIVE)
    results = runner.run_all([atomic, naive, atomic])
    assert len(backend.executed) == 2
    assert results[0] is results[2]
    assert results[0].model_name == "atomic"
    assert results[1].model_name == "naive"


def test_mixed_cached_batch_dispatches_only_the_misses():
    """A batch mixing cache hits and misses must make exactly one
    backend dispatch carrying only the misses, in input order -- that is
    what keeps a resumed campaign sharded instead of degrading to
    point-at-a-time execution."""
    backend = CountingBackend()
    runner = Runner(backend=backend)
    atomic = _experiment(ConsistencyModel.ATOMIC)
    cached = runner.run(atomic)
    backend.batches.clear()

    naive = _experiment(ConsistencyModel.NAIVE)
    scope = _experiment(ConsistencyModel.SCOPE)
    results = runner.run_all([atomic, naive, atomic, scope])
    assert backend.batches == [[naive.spec_hash(), scope.spec_hash()]]
    assert results[0] is cached and results[2] is cached
    assert results[1].model_name == "naive"
    assert results[3].model_name == "scope"


def test_run_settled_shares_the_batch_path_and_cache():
    backend = CountingBackend()
    runner = Runner(backend=backend)
    atomic = _experiment(ConsistencyModel.ATOMIC)
    cached = runner.run(atomic)

    outcomes = runner.run_settled([atomic, _experiment(ConsistencyModel.ATOMIC)])
    assert len(backend.executed) == 1  # both points served from cache
    assert outcomes[0] == (cached, None) and outcomes[1] == (cached, None)
    # settled successes land in the same cache run_all reads
    naive = _experiment(ConsistencyModel.NAIVE)
    (result, error), = runner.run_settled([naive])
    assert error is None
    assert runner.run(naive) is result
    assert len(backend.executed) == 2


def test_run_settled_progress_counts_duplicates_and_cache_hits():
    runner = Runner(backend=SerialBackend())
    a = _experiment(ConsistencyModel.ATOMIC)
    b = _experiment(ConsistencyModel.SCOPE)

    # a appears twice: its single dispatch must advance two points
    ticks: List[int] = []
    runner.run_settled([a, b, a], progress=ticks.append)
    assert sum(ticks) == 3

    # fully cached re-run: one upfront tick covering every point
    ticks = []
    runner.run_settled([a, b, a], progress=ticks.append)
    assert ticks == [3]


def test_run_settled_trace_overlay_does_not_fork_the_cache():
    from repro.sim.config import TraceConfig

    runner = Runner(backend=SerialBackend())
    exp = _experiment(ConsistencyModel.ATOMIC)
    trace = TraceConfig(enabled=True, ring_size=0)
    (traced, err), = runner.run_settled([exp], trace=trace)
    assert err is None and traced.obs is not None
    assert runner.dispatch_count == 1

    # same spec hash: the traced result serves the untraced request
    (cached, err), = runner.run_settled([exp])
    assert err is None
    assert runner.dispatch_count == 1  # no second simulation
    assert cached is traced


def test_run_all_raises_only_after_storing_every_success(tmp_path):
    """A failed point makes run_all raise a RuntimeError naming its spec
    hash -- after the batch settled, so the good point is stored."""
    good = _experiment(ConsistencyModel.ATOMIC)
    bad = replace(good, params=asdict(replace(PARAMS, num_records=0)))
    with pytest.raises(RuntimeError, match=bad.spec_hash()) as exc:
        Runner(store=str(tmp_path)).run_all([good, bad])
    assert "1 of 2 points failed" in str(exc.value)
    assert "at least one item" in str(exc.value)
    assert ResultStore(str(tmp_path)).get(good.spec_hash()) is not None


class _FailingBackend(SerialBackend):
    """Settles every point as failed.  For the points in ``persisted``
    it first writes a real result to the store, like a pool child that
    finished its write-through just before its timeout fired."""

    def __init__(self, persisted) -> None:
        self.persisted = set(persisted)
        self.written = {}

    def run_all_settled(self, experiments: Sequence[Experiment],
                        store=None, **kwargs):
        settled = []
        for e in experiments:
            h = e.spec_hash()
            if h in self.persisted:
                self.written[h] = execute_experiment(e)
                store.put(h, self.written[h], e)
            settled.append(ExperimentFailure(f"point {h} timed out"))
        return settled


def test_run_settled_reconciles_failures_found_in_the_store(tmp_path):
    """A point that settled as failed but is in the store reports the
    stored result; a failed point the store lacks stays failed."""
    rescued = _experiment(ConsistencyModel.ATOMIC)
    lost = _experiment(ConsistencyModel.NAIVE)
    backend = _FailingBackend({rescued.spec_hash()})
    runner = Runner(backend=backend, store=ResultStore(str(tmp_path)))

    (result, error), (missing, failure) = runner.run_settled([rescued, lost])
    assert error is None
    assert result.stats == backend.written[rescued.spec_hash()].stats
    assert missing is None
    assert failure == f"point {lost.spec_hash()} timed out"
    assert runner.reconciled == 1
    assert runner.dispatch_count == 2

    # the rescued point entered the memory cache like any success
    assert runner.run_settled([rescued]) == [(result, None)]
    assert runner.dispatch_count == 2
