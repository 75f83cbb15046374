"""End-to-end runs: the paper's correctness claims as executable tests.

These run the full stack (cores -> caches -> network -> MC -> PIM module)
on a small YCSB workload under every model and check the *correctness*
results the paper argues for:

* the four proposed models and the uncacheable baseline never observe a
  stale PIM result;
* the naive baseline does;
* the scope-buffer statistics behave as Section VII describes.
"""

import pytest

from dataclasses import asdict

from repro.api import Experiment, Runner
from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig
from repro.system.simulation import result_digest
from repro.workloads.ycsb import YcsbParams

PARAMS = YcsbParams(num_records=8000, num_ops=30, threads=4, seed=11)
NUM_SCOPES = 4

#: Session-wide runner: its spec-hash cache memoizes the per-model runs.
_runner = Runner()


def _experiment(model):
    return Experiment(
        workload="ycsb",
        config=SystemConfig.scaled_default(model=model,
                                           num_scopes=NUM_SCOPES),
        params=asdict(PARAMS),
        max_events=50_000_000,
    )


def _run(model):
    return _runner.run(_experiment(model))


@pytest.mark.parametrize("model", [
    ConsistencyModel.ATOMIC,
    ConsistencyModel.STORE,
    ConsistencyModel.SCOPE,
    ConsistencyModel.SCOPE_RELAXED,
    ConsistencyModel.UNCACHEABLE,
])
def test_correct_models_never_read_stale(model):
    assert _run(model).stale_reads == 0


def test_naive_baseline_reads_stale():
    """No coherency action at all: cached result bitmaps go stale the
    moment the next PIM op executes."""
    assert _run(ConsistencyModel.NAIVE).stale_reads > 0


def test_all_models_issue_the_same_pim_work():
    """Every model runs the same operation trace, so the cores issue an
    identical number of PIM ops (executions may trail the run's end)."""
    issued = {}
    for m in ConsistencyModel:
        res = _run(m)
        issued[m] = sum(core.pim_ops for core in res.cores)
    assert len(set(issued.values())) == 1
    assert all(res > 0 for res in issued.values())


def test_proposed_models_share_scope_buffer_hit_rate():
    """Fig. 9: the first PIM op per scope per computation misses, the
    rest hit -- identically across the proposed models."""
    rates = [
        _run(m).scope_buffer_hit_rate
        for m in (ConsistencyModel.ATOMIC, ConsistencyModel.STORE,
                  ConsistencyModel.SCOPE)
    ]
    assert max(rates) - min(rates) < 0.02
    expected = (PARAMS.pim_ops_per_scan - 1) / PARAMS.pim_ops_per_scan
    assert rates[0] == pytest.approx(expected, abs=0.05)


def test_sbv_skips_most_sets():
    """Fig. 10d: scans visit only the SBV-marked subset of sets."""
    res = _run(ConsistencyModel.ATOMIC)
    assert res.sbv_skip_ratio > 0.7


def test_scan_latency_below_full_scan():
    res = _run(ConsistencyModel.ATOMIC)
    full_scan = res.config.llc.num_sets * res.config.llc.scan_cycles_per_set
    assert 0 < res.llc_scan_latency < full_scan


def test_run_time_ordering_naive_fastest_or_close():
    """The overhead of guaranteeing correctness is bounded (the paper
    reports at most ~6%; we allow a generous band for the miniature)."""
    naive = _run(ConsistencyModel.NAIVE).run_time
    for model in (ConsistencyModel.ATOMIC, ConsistencyModel.STORE,
                  ConsistencyModel.SCOPE, ConsistencyModel.SCOPE_RELAXED):
        assert _run(model).run_time <= naive * 1.6, model


def test_uncacheable_is_much_slower():
    """Fig. 3: the uncacheable approach pays heavily for losing the
    cache on result reads."""
    naive = _run(ConsistencyModel.NAIVE).run_time
    assert _run(ConsistencyModel.UNCACHEABLE).run_time > naive * 1.3


def test_deterministic_replay():
    # Fresh uncached runners: both calls really simulate.
    exp = _experiment(ConsistencyModel.SCOPE)
    a = Runner(cache=False).run(exp)
    b = Runner(cache=False).run(exp)
    assert result_digest(a.to_dict()) == result_digest(b.to_dict())


def test_result_properties_exposed():
    res = _run(ConsistencyModel.ATOMIC)
    assert res.model_name == "atomic"
    assert res.run_time > 0
    assert res.pim_buffer_mean_len >= 0
    assert res.pim_unique_scopes >= 0
    assert "llc" in res.stats and "pim" in res.stats
