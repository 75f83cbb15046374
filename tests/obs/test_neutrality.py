"""Trace neutrality: tracing on or off, results are byte-identical.

This is the observability layer's hard constraint.  The specs and
pinned digests here mirror ``tests/api/test_default_digests.py``
exactly -- but every run executes under a full trace overlay (event
ring + flight recorder armed).  If a trace hook ever schedules an
event, writes a message field the simulation reads (it numbers
``op_id``, which only the tracer reads), or perturbs a queue decision,
these digests move and this file fails before any baseline silently
re-pins.  With tracing off, the hook sites make no call into
``repro/obs/`` at all, and components count in plain ints: a run calls
into ``repro/sim/stats.py`` only to sample open-loop histograms.
"""

import os

import pytest

import repro.obs
import repro.sim.stats
from repro.api.backends import execute_experiment
from repro.api.experiment import Experiment
from repro.obs.trace import Tracer, stall_totals
from repro.sim.config import TraceConfig
from repro.system.simulation import result_digest
# tests/ is on sys.path (tests/conftest.py), so the pinned digests are
# imported from the untraced gate rather than duplicated here.
from api.test_default_digests import (
    PINNED_MAX_EVENTS,
    _LITMUS_DIGEST,
    _PINNED_CONFIGS,
    _TPCH_DIGEST,
    _YCSB_DIGESTS,
)
from helpers import profile_run

#: Full-fat tracing: event ring on, flight recorder armed.
TRACE = TraceConfig(enabled=True, ring_size=4096, flight=True)


def _traced_digest(spec):
    res = execute_experiment(Experiment.from_dict(spec), trace=TRACE)
    assert res.obs is not None  # tracing actually ran
    return result_digest({
        "run_time": res.run_time,
        "events": res.events,
        "stale_reads": res.stale_reads,
        "stats": res.stats,
    })


@pytest.mark.parametrize("model", sorted(_YCSB_DIGESTS))
def test_ycsb_digests_unchanged_under_tracing(model):
    digest = _traced_digest({
        "workload": "ycsb",
        "params": {"num_records": 8000, "num_ops": 10, "threads": 4,
                   "seed": 11},
        "config": {"preset": "scaled", "model": model, "num_scopes": 4},
        "variant": "digest-gate",
        "max_events": PINNED_MAX_EVENTS,
    })
    assert digest == _YCSB_DIGESTS[model]


def test_tpch_digest_unchanged_under_tracing():
    digest = _traced_digest({
        "workload": "tpch",
        "params": {"query": "q6", "scale": 0.015625},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 32},
        "variant": "digest-gate",
        "max_events": PINNED_MAX_EVENTS,
    })
    assert digest == _TPCH_DIGEST


def test_litmus_digest_unchanged_under_tracing():
    digest = _traced_digest({
        "workload": "litmus",
        "params": {"rounds": 10, "threads": 4},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 4},
        "variant": "digest-gate",
        "max_events": PINNED_MAX_EVENTS,
    })
    assert digest == _LITMUS_DIGEST


#: Every pinned config's stall totals under stall attribution alone
#: (``ring_size=0``).  Digests leave the obs payload out, so these pin
#: stall accounting: a change in how a wait is counted moves one.
_PINNED_STALLS = {
    "litmus": {},
    "tpch-q6-sf2": {"pim_busy": 124_919},
    "ycsb-c": {},
    "ycsb-c-8core": {"pim_busy": 27_411},
    "ycsb-c-mshr8": {},
    "ycsb-c-openloop": {"admission_wait": 336_184},
    "ycsb-mix": {"fence_wait": 36_039, "pim_busy": 2_809},
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_pinned_config_stall_totals(name):
    res = execute_experiment(Experiment.from_dict(_PINNED_CONFIGS[name][0]),
                             trace=TraceConfig(enabled=True, ring_size=0))
    assert stall_totals(res.obs) == _PINNED_STALLS[name]


def test_untraced_run_makes_no_call_into_obs():
    """Tracing off costs the hook sites no call into ``repro/obs/``, on
    ycsb-c's paths plus the admission queue.  The traced control shows
    the file filter does see such calls."""
    obs_dir = os.path.dirname(repro.obs.__file__) + os.sep
    spec = _PINNED_CONFIGS["ycsb-c-openloop"][0]

    def obs_calls(stats):
        return {func: row[1] for func, row in stats.stats.items()
                if func[0].startswith(obs_dir)}

    _, untraced = profile_run(spec)
    assert obs_calls(untraced) == {}
    _, traced = profile_run(spec, trace=TraceConfig(enabled=True))
    code = Tracer.record.__code__
    record = (code.co_filename, code.co_firstlineno, code.co_name)
    assert obs_calls(traced).get(record, 0) > 0


#: The only calls into ``repro/sim/stats.py`` a pinned config makes
#: inside ``System.run``: the open-loop latency and queue-depth samples.
_STATS_CALLS = {"ycsb-c-openloop": {"record": 480, "_index": 480}}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_run_calls_into_stats_only_for_histogram_samples(name):
    """Counters and means are plain ints on the components, so the run
    loop makes no call into the stats module for them."""
    stats_file = repro.sim.stats.__file__
    _, profile = profile_run(_PINNED_CONFIGS[name][0])
    calls = {}
    for (filename, _, function), row in profile.stats.items():
        if filename == stats_file:
            calls[function] = calls.get(function, 0) + row[1]
    assert calls == _STATS_CALLS.get(name, {})


def test_trace_overlay_leaves_the_spec_hash_alone():
    spec = {
        "workload": "litmus",
        "params": {"rounds": 2, "threads": 2},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 2},
        "variant": "obs",
    }
    bare = Experiment.from_dict(spec)
    # an explicit default TraceConfig serializes to nothing: same hash
    explicit = Experiment.from_dict(spec)
    assert "trace" not in explicit.to_dict()["config"]
    assert bare.spec_hash() == explicit.spec_hash()


def test_obs_payload_rides_only_on_traced_results():
    spec = {
        "workload": "litmus",
        "params": {"rounds": 2, "threads": 2},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 2},
        "variant": "obs",
        "max_events": 10_000_000,
    }
    untraced = execute_experiment(Experiment.from_dict(spec))
    traced = execute_experiment(Experiment.from_dict(spec), trace=TRACE)
    assert untraced.obs is None
    assert "obs" not in untraced.to_dict()
    assert traced.obs["schema"] == "repro-obs/1"
    assert "stalls" in traced.obs
    assert traced.obs["events_recorded"] > 0
    assert traced.to_dict()["obs"] == traced.obs
    # identical simulated behavior either way, and the experiment's own
    # config: the overlay shows only in obs
    assert (untraced.run_time, untraced.events, untraced.stale_reads,
            untraced.stats, untraced.config) == (
                traced.run_time, traced.events, traced.stale_reads,
                traced.stats, traced.config)


def test_traced_config_round_trips_through_dict():
    from repro.sim.config import config_from_dict, config_to_dict

    bare = Experiment.from_dict({
        "workload": "litmus", "params": {},
        "config": {"preset": "scaled", "model": "atomic",
                   "num_scopes": 2},
    })
    traced = bare.config.with_trace(enabled=True, ring_size=4096,
                                    flight=True)
    serialized = config_to_dict(traced)
    assert serialized["trace"] == {"enabled": True, "ring_size": 4096,
                                   "flight": True}
    assert config_from_dict(serialized).trace == TRACE
    # and the default section vanishes, keeping pre-obs spec hashes
    assert "trace" not in config_to_dict(bare.config)
