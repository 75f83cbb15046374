"""The Tracer: ring bounding, stalls, export shape, per-run op ids."""

import pytest

from repro.api.experiment import Experiment
from repro.obs.trace import OBS_SCHEMA, STALL_REASONS, Tracer, stall_totals
from repro.sim.messages import Message, MessageType
from repro.system.builder import System


def _msg():
    return Message(MessageType.LOAD)


def test_ring_bounds_and_counts_drops():
    tracer = Tracer(ring_size=4)
    for i in range(10):
        tracer.record(i, "core0", "READ", _msg())
    assert tracer.appended == 10
    assert tracer.events_dropped == 6
    assert [r[0] for r in tracer.ring] == [6, 7, 8, 9]  # oldest fell off
    assert [r[3] for r in tracer.ring] == [7, 8, 9, 10]  # op ids from 1


def test_ring_size_zero_disables_event_records():
    tracer = Tracer(ring_size=0)
    assert tracer.ring is None
    assert not tracer.recording
    assert tracer.events_dropped == 0
    # stall attribution still works without a ring
    bucket = tracer.stall_bucket("mc")
    bucket["pim_busy"] = bucket.get("pim_busy", 0) + 3
    out = tracer.export()
    assert "events" not in out
    assert out["stalls"] == {"mc": {"pim_busy": 3}}


def test_stall_buckets_are_shared_and_mutable():
    tracer = Tracer(ring_size=0)
    assert tracer.stall_bucket("l1-0") is tracer.stall_bucket("l1-0")
    tracer.stall_bucket("l1-0")["mshr_full"] = 2
    tracer.stall_bucket("l1-1")  # untouched bucket stays out of export
    assert tracer.export()["stalls"] == {"l1-0": {"mshr_full": 2}}


def test_export_schema_and_event_fields():
    tracer = Tracer(ring_size=8)
    msg = _msg()
    tracer.record(5, "llc", "GETS", msg)
    tracer.record(7, "mc", "GETS", msg)  # numbered once, on first record
    out = tracer.export()
    assert out["schema"] == OBS_SCHEMA
    assert out["events"] == [[5, "llc", "GETS", 1], [7, "mc", "GETS", 1]]
    assert msg.op_id == 1
    assert out["events_recorded"] == 2
    assert out["events_dropped"] == 0
    assert "flight" not in out and "flight_triggers" not in out


def test_flight_snapshot_is_first_trigger_only():
    tracer = Tracer(ring_size=8, flight=True)
    first, second = _msg(), _msg()
    tracer.record(1, "core0", "READ", first)
    tracer.flight_trigger("stale_read", 9, "core0", first)
    tracer.record(2, "core0", "READ", second)  # after the snapshot
    tracer.flight_trigger("stale_read", 11, "core0", second)
    out = tracer.export()
    assert out["flight_triggers"] == 2
    assert out["flight"]["trigger"] == "stale_read"
    assert out["flight"]["cycle"] == 9
    assert out["flight"]["op_id"] == 1
    assert out["flight"]["events"] == [[1, "core0", "READ", 1]]


def test_unarmed_tracer_counts_triggers_without_snapshot():
    tracer = Tracer(ring_size=8, flight=False)
    tracer.flight_trigger("stale_read", 1, "core0", _msg())
    out = tracer.export()
    assert out["flight_triggers"] == 1
    assert "flight" not in out


def test_stall_totals_sums_across_components():
    obs = {"stalls": {"mc": {"pim_busy": 3}, "l1-0": {"mshr_full": 2},
                      "l1-1": {"mshr_full": 5, "pim_busy": 1}}}
    assert stall_totals(obs) == {"mshr_full": 7, "pim_busy": 4}
    assert stall_totals({}) == {}


def test_stall_taxonomy_is_stable():
    # docs/observability.md documents these names; renaming one is a
    # breaking change for stored obs payloads and the report tables.
    assert STALL_REASONS == ("mshr_full", "admission_wait",
                            "admission_shed", "fence_wait", "pim_busy",
                            "crossbar_contention")


def test_negative_ring_size_rejected_by_config():
    from repro.sim.config import TraceConfig

    with pytest.raises(ValueError):
        TraceConfig(enabled=True, ring_size=-1)
    with pytest.raises(ValueError):
        TraceConfig(enabled=False, flight=True)


# --------------------------------------------------------------------- #
# op ids: numbered by the tracer, per run
# --------------------------------------------------------------------- #

_LITMUS = {
    "workload": "litmus",
    "params": {"rounds": 3, "threads": 2},
    "config": {"preset": "scaled", "model": "atomic", "num_scopes": 2},
}


def _traced_litmus_system():
    experiment = Experiment.from_dict(_LITMUS)
    system = System(experiment.config.with_trace(enabled=True,
                                                 ring_size=4096))
    system.load_programs(experiment.build_workload().compile(system))
    return system


def _run_for_ring(system):
    system.run(max_events=1_000_000)
    obs = system.tracer.export()
    assert obs["events_dropped"] == 0
    return obs["events"]


def test_op_ids_are_numbered_per_run():
    """Two traced systems built before either runs: the second one's
    ring equals a solo run's, down to the op ids (numbered from 1 by
    each run's own tracer, whatever else ran in the process)."""
    solo = _run_for_ring(_traced_litmus_system())
    first, second = _traced_litmus_system(), _traced_litmus_system()
    assert _run_for_ring(first) == solo
    assert _run_for_ring(second) == solo
    assert min(event[3] for event in solo) == 1
