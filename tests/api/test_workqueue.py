"""The distributed work queue: leases, retry/backoff, chaos recovery.

The invariant under test throughout: N workers with injected faults
(crashes, hangs, corrupt writes) still produce campaign results
byte-identical to a serial run, because simulations are deterministic
and results are content-addressed -- leases and retries only bound
wasted work.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.api import Experiment, ResultStore, Runner, run_campaign
from repro.api.backends import (
    ExperimentFailure,
    SerialBackend,
    WorkQueueBackend,
)
from repro.api.store import read_json, try_create_json
from repro.api.sweep import SIX_MODELS, Axis, Campaign, Sweep, shard_slices
from repro.api.workqueue import (
    LEASE_SCHEMA,
    ChaosPlan,
    Coordinator,
    QueueWorker,
    _publish_run,
    _shard_paths,
    _ShardState,
    backoff_delay,
    queue_status,
)

#: A litmus point small enough that every test simulates in milliseconds.
LITMUS = {
    "workload": "litmus",
    "params": {"rounds": 2, "threads": 2},
    "config": {"preset": "scaled", "num_scopes": 2},
    "max_events": 10_000_000,
}


def _litmus(model: str, **overrides) -> Experiment:
    spec = dict(LITMUS, **overrides)
    spec["config"] = dict(spec["config"], model=model)
    return Experiment.from_dict(spec)


class _FixedRng:
    """A jitter source returning one constant (0.0 = no jitter)."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def _fast_coordinator(store: ResultStore, **overrides) -> Coordinator:
    """A coordinator with test-speed timing defaults."""
    kwargs = dict(shard_size=2, lease_s=5.0, poll_s=0.02, grace_s=0.1,
                  max_attempts=4, backoff_base_s=0.02, backoff_cap_s=0.1)
    kwargs.update(overrides)
    return Coordinator(store, **kwargs)


def _ok(settled) -> bool:
    return all(not isinstance(s, ExperimentFailure) for s in settled)


# --------------------------------------------------------------------- #
# sharding and backoff (pure units)
# --------------------------------------------------------------------- #


def test_shard_slices_cover_the_range_contiguously():
    assert shard_slices(0, 4) == []
    assert shard_slices(7, 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert shard_slices(4, 4) == [slice(0, 4)]
    covered = [i for sl in shard_slices(11, 4) for i in range(11)[sl]]
    assert covered == list(range(11))
    with pytest.raises(ValueError):
        shard_slices(5, 0)


def test_backoff_delay_is_capped_exponential_with_bounded_jitter():
    """Dedicated retry/backoff unit: the envelope is base * 2^(n-1),
    capped, with at most +25% jitter on top."""
    flat = _FixedRng(0.0)
    assert backoff_delay(0, 1.0, 8.0, flat) == 0.0
    assert [backoff_delay(n, 1.0, 8.0, flat) for n in range(1, 6)] == \
        [1.0, 2.0, 4.0, 8.0, 8.0]  # doubles, then the cap holds
    # full jitter adds exactly 25%
    assert backoff_delay(3, 1.0, 8.0, _FixedRng(1.0)) == pytest.approx(5.0)
    # the unpinned path stays inside the envelope
    for n in range(1, 8):
        delay = backoff_delay(n, 0.5, 4.0)
        base = min(4.0, 0.5 * 2 ** (n - 1))
        assert base <= delay <= base * 1.25


# --------------------------------------------------------------------- #
# publication and claims
# --------------------------------------------------------------------- #


def test_publish_run_writes_complete_task_files(tmp_path):
    store = ResultStore(str(tmp_path))
    exps = [_litmus(m) for m in ("naive", "atomic", "scope")]
    run_dir, shards = _publish_run(store, exps, shard_size=2, lease_s=30.0)
    assert shards == ["0000", "0001"]
    task = read_json(_shard_paths(run_dir, "0000")[0])
    assert task["fingerprint"] == store.fingerprint
    assert [p["spec_hash"] for p in task["points"]] == \
        [e.spec_hash() for e in exps[:2]]
    # every task is self-describing: the experiment round-trips
    assert Experiment.from_dict(task["points"][0]["experiment"]) == exps[0]
    manifest = read_json(os.path.join(run_dir, "manifest.json"))
    assert manifest["points"] == 3 and manifest["shards"] == 2


def test_lease_claim_is_exclusive_and_never_stolen(tmp_path):
    store = ResultStore(str(tmp_path))
    run_dir, _ = _publish_run(store, [_litmus("naive")], 1, 30.0)
    a = QueueWorker(store, worker_id="a", chaos=ChaosPlan())
    b = QueueWorker(store, worker_id="b", chaos=ChaosPlan())
    (run_dir_a, task) = a._claimable_tasks()[0]
    lease = a._acquire(run_dir_a, task)
    assert lease is not None and lease["worker"] == "a"
    # the exclusive create lost: no second lease
    assert b._acquire(run_dir_a, task) is None
    # ...and a leased task is not even offered, expired or not
    assert b._claimable_tasks() == []


def test_heartbeat_detects_a_reaped_lease(tmp_path):
    store = ResultStore(str(tmp_path))
    run_dir, _ = _publish_run(store, [_litmus("naive")], 1, 30.0)
    worker = QueueWorker(store, worker_id="w", chaos=ChaosPlan())
    _, task = worker._claimable_tasks()[0]
    lease = worker._acquire(run_dir, task)
    old_deadline = lease["deadline"]
    time.sleep(0.01)
    assert worker._heartbeat(run_dir, lease)
    assert lease["deadline"] > old_deadline
    # the coordinator reaps the lease; the next heartbeat says so
    os.unlink(_shard_paths(run_dir, task["shard"])[1])
    assert not worker._heartbeat(run_dir, lease)
    # a lease re-acquired by someone else is not ours either
    other = QueueWorker(store, worker_id="thief", chaos=ChaosPlan())
    assert other._acquire(run_dir, task) is not None
    assert not worker._heartbeat(run_dir, lease)


def test_worker_skips_tasks_of_a_foreign_fingerprint(tmp_path):
    foreign = ResultStore(str(tmp_path), fingerprint="other-kernel")
    _publish_run(foreign, [_litmus("naive")], 1, 30.0)
    worker = QueueWorker(ResultStore(str(tmp_path)), chaos=ChaosPlan())
    assert worker._claimable_tasks() == []


def test_worker_drains_a_run_and_reports_done(tmp_path):
    store = ResultStore(str(tmp_path))
    exps = [_litmus(m) for m in ("naive", "atomic", "scope")]
    run_dir, shards = _publish_run(store, exps, shard_size=2, lease_s=30.0)
    worker = QueueWorker(store, worker_id="w", chaos=ChaosPlan())
    assert worker.run(once=True) == 2
    for shard in shards:
        _, lease_path, done_path = _shard_paths(run_dir, shard)
        done = read_json(done_path)
        assert done["worker"] == "w"
        assert all(o["status"] == "ok" for o in done["outcomes"].values())
        assert not os.path.exists(lease_path)  # released
    for e in exps:
        assert store.get(e.spec_hash()) is not None  # write-through


# --------------------------------------------------------------------- #
# retry scheduling
# --------------------------------------------------------------------- #


def test_retry_backoff_defers_the_task_via_not_before(tmp_path):
    """Dedicated retry/backoff integration: each retry bumps the task's
    attempt, pushes not_before out exponentially, and workers refuse the
    task until the backoff passes."""
    store = ResultStore(str(tmp_path))
    exp = _litmus("naive")
    run_dir, _ = _publish_run(store, [exp], 1, 30.0)
    coordinator = _fast_coordinator(
        store, backoff_base_s=2.0, backoff_cap_s=60.0, rng=_FixedRng(0.0))
    task_path = _shard_paths(run_dir, "0000")[0]
    state = _ShardState("0000", [exp.spec_hash()], time.time())

    now = time.time()
    coordinator._schedule_retry(task_path, state, now)
    task = read_json(task_path)
    assert task["attempt"] == 1 and state.attempt == 1
    assert task["not_before"] == pytest.approx(now + 2.0)

    coordinator._schedule_retry(task_path, state, now)
    task = read_json(task_path)
    assert task["attempt"] == 2
    assert task["not_before"] == pytest.approx(now + 4.0)  # doubled
    assert coordinator.stats["retries"] == 2

    # a backing-off task is invisible to workers...
    worker = QueueWorker(store, chaos=ChaosPlan())
    assert worker._claimable_tasks() == []
    # ...until not_before passes
    task["not_before"] = time.time() - 1.0
    from repro.api.store import atomic_write_json
    atomic_write_json(task_path, task)
    assert len(worker._claimable_tasks()) == 1


def test_expired_lease_is_reaped_and_redispatched(tmp_path):
    """Dedicated lease-expiry test: a worker that died holding a lease
    (deadline in the past) is reaped by the coordinator, the shard is
    re-offered with backoff, and the batch still completes."""
    store = ResultStore(str(tmp_path))
    exps = [_litmus(m) for m in ("naive", "atomic")]
    coordinator = _fast_coordinator(store, grace_s=1.5)

    def die_holding_the_lease():
        worker = QueueWorker(store, worker_id="doomed", chaos=ChaosPlan())
        deadline = time.time() + 10.0
        while time.time() < deadline:
            claimable = worker._claimable_tasks()
            if claimable:
                run_dir, task = claimable[0]
                # the lease a crashed worker left behind: long expired
                try_create_json(_shard_paths(run_dir, task["shard"])[1], {
                    "schema": LEASE_SCHEMA,
                    "shard": task["shard"],
                    "worker": "doomed",
                    "nonce": "dead",
                    "acquired": time.time() - 60.0,
                    "lease_s": 1.0,
                    "deadline": time.time() - 30.0,
                })
                return
            time.sleep(0.005)

    zombie = threading.Thread(target=die_holding_the_lease)
    zombie.start()
    settled = coordinator.run(exps)
    zombie.join()

    assert _ok(settled)
    assert coordinator.stats["expired_leases"] >= 1
    assert coordinator.stats["retries"] >= 1
    assert coordinator.stats["local_shards"] >= 1  # recovery ran it
    assert coordinator.stats["lost_points"] == 0


def test_deterministic_failure_is_never_retried(tmp_path):
    """A spec that fails identically every time is final on the first
    report: no retries, no lease churn, the other points unaffected."""
    store = ResultStore(str(tmp_path))
    good = _litmus("naive")
    bad = Experiment.from_dict(dict(
        LITMUS, params=dict(LITMUS["params"], rounds=0)))
    coordinator = _fast_coordinator(store, shard_size=1, grace_s=0.05)
    settled = coordinator.run([good, bad])

    assert not isinstance(settled[0], ExperimentFailure)
    assert isinstance(settled[1], ExperimentFailure)
    assert not settled[1].retryable
    assert coordinator.stats["retries"] == 0
    assert coordinator.stats["deterministic_failures"] == 1
    assert coordinator.stats["lost_points"] == 0


def test_retries_exhausted_settles_points_as_lost(tmp_path):
    """A shard that can never produce a usable report settles as a
    retryable failure after max_attempts instead of hanging forever."""
    store = ResultStore(str(tmp_path))
    exp = _litmus("naive")

    class _LyingBackend(SerialBackend):
        """Reports success without the write-through ever landing."""
        def run_all_settled(self, experiments, store=None, **kwargs):
            from repro.api.backends import execute_experiment_settled
            return [execute_experiment_settled(e) for e in experiments]

    coordinator = _fast_coordinator(
        store, shard_size=1, grace_s=0.0, max_attempts=2,
        fallback=_LyingBackend())
    settled = coordinator.run([exp])
    assert isinstance(settled[0], ExperimentFailure)
    assert settled[0].retryable
    assert "lost after 2 attempts" in settled[0].error
    assert coordinator.stats["lost_points"] == 1
    assert coordinator.stats["retries"] >= 1


# --------------------------------------------------------------------- #
# degradation and chaos
# --------------------------------------------------------------------- #


def test_no_workers_degrades_to_local_with_identical_digest(tmp_path):
    """--distributed with nobody listening: after the grace period the
    coordinator runs everything itself, and the campaign digest is
    byte-identical to a plain serial run."""
    campaign = Campaign(
        name="wq-degrade",
        title="degrade-to-local equivalence",
        description="work-queue vs serial digest equality",
        sweeps=(Sweep(name="litmus", base=LITMUS,
                      axes=(Axis("model", ("naive", "atomic", "scope")),)),),
    )
    serial = run_campaign(campaign, runner=Runner())

    store = ResultStore(str(tmp_path))
    backend = WorkQueueBackend(store, shard_size=2, lease_s=5.0,
                               poll_s=0.02, grace_s=0.05,
                               backoff_base_s=0.02, backoff_cap_s=0.1)
    distributed = run_campaign(
        campaign, runner=Runner(backend=backend, store=store))

    assert distributed.digest() == serial.digest()
    assert backend.last_stats["local_shards"] == 2
    assert backend.last_stats["worker_shards"] == 0
    assert backend.last_stats["lost_points"] == 0
    # the queue cleans up its task/lease files; only the append-only
    # telemetry history (observability, not protocol state) remains
    assert (os.listdir(os.path.join(str(tmp_path), "queue"))
            == ["telemetry.jsonl"])


def test_corrupt_write_is_quarantined_and_reexecuted(tmp_path):
    """corrupt-after chaos: the worker's done report claims success but
    the store entry fails its digest.  The read path quarantines it, the
    coordinator rejects the report and re-dispatches, and the repaired
    store verifies clean."""
    store = ResultStore(str(tmp_path))
    exps = [_litmus(m) for m in ("naive", "atomic")]
    coordinator = _fast_coordinator(store, shard_size=2, grace_s=2.0)
    worker = QueueWorker(store, worker_id="chaotic",
                         chaos=ChaosPlan(kind="corrupt-after", after=1))
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            worker._sweep()
            time.sleep(0.01)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        settled = coordinator.run(exps)
    finally:
        stop.set()
        thread.join()

    assert _ok(settled)
    assert coordinator.stats["retries"] >= 1  # the bad report was rejected
    assert coordinator.stats["lost_points"] == 0
    assert store.stats()["quarantined"] >= 1  # the torn write was isolated
    assert store.verify() == []  # ...and the addressable tree is clean
    for e, s in zip(exps, settled):
        assert store.get(e.spec_hash()).stats == s.stats


def test_chaos_plan_parses_env_directives(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert not ChaosPlan.from_env().active
    monkeypatch.setenv("REPRO_CHAOS", "kill-after=3")
    plan = ChaosPlan.from_env()
    assert plan.kind == "kill-after" and plan.after == 3
    monkeypatch.setenv("REPRO_CHAOS", "hang-after=2:45")
    plan = ChaosPlan.from_env()
    assert plan.kind == "hang-after" and plan.hang_s == 45.0
    monkeypatch.setenv("REPRO_CHAOS", "explode")
    with pytest.raises(ValueError):
        ChaosPlan.from_env()
    monkeypatch.setenv("REPRO_CHAOS", "melt-after=1")
    with pytest.raises(ValueError):
        ChaosPlan.from_env()


# --------------------------------------------------------------------- #
# crash-resume: SIGKILL a real worker process mid-campaign
# --------------------------------------------------------------------- #


def _crash_campaign() -> Campaign:
    """Six models over the litmus smoke subset plus TPC-H points."""
    return Campaign(
        name="crash-resume",
        title="crash-resume coverage",
        description="six models + tpch + litmus at smoke size",
        sweeps=(
            Sweep(name="litmus", base=LITMUS,
                  axes=(Axis("model", SIX_MODELS),)),
            Sweep(name="tpch",
                  base={"workload": "tpch",
                        "params": {"query": "q6", "scale": 1 / 256,
                                   "runs": 1},
                        "config": {"preset": "scaled"},
                        "max_events": 50_000_000},
                  axes=(Axis("model", ("naive", "atomic")),)),
        ),
    )


def test_sigkill_worker_mid_campaign_resumes_byte_identical(tmp_path):
    """The signature invariant, end to end: a real worker process is
    SIGKILLed mid-shard (lease held, points half done); the coordinator
    reaps the expired lease, re-dispatches the range, the campaign
    completes, and the digest is byte-identical to a serial run."""
    campaign = _crash_campaign()
    serial = run_campaign(campaign, runner=Runner())

    store = ResultStore(str(tmp_path))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    # hang-after freezes the worker after 2 points with the lease held,
    # giving the test a deterministic window to SIGKILL it mid-shard.
    env["REPRO_CHAOS"] = "hang-after=2:3600"
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.api.cli", "worker",
         "--store", str(tmp_path), "--poll-s", "0.05",
         "--max-idle-s", "120", "--id", "victim"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    points = len(campaign.points())
    backend = WorkQueueBackend(
        store, shard_size=points,  # one shard: the worker takes it all
        lease_s=1.5, poll_s=0.05, grace_s=3.0,
        backoff_base_s=0.05, backoff_cap_s=0.2)
    outcome = {}

    def drive():
        runner = Runner(backend=backend, store=store)
        outcome["result"] = run_campaign(campaign, runner=runner)

    coordinator = threading.Thread(target=drive)
    coordinator.start()
    try:
        # wait until the worker has visibly executed its two points
        deadline = time.time() + 60.0
        while time.time() < deadline:
            if store.stats()["current_entries"] >= 2:
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker never made progress")
        os.kill(worker.pid, signal.SIGKILL)
        coordinator.join(timeout=120.0)
        assert not coordinator.is_alive(), "coordinator never finished"
    finally:
        worker.kill()
        worker.wait()

    result = outcome["result"]
    assert result.failed_points == []
    assert result.digest() == serial.digest()  # byte-identical
    stats = backend.last_stats
    assert stats["expired_leases"] >= 1  # the victim's range was re-leased
    assert stats["retries"] >= 1
    assert stats["lost_points"] == 0
    assert store.verify() == []


# --------------------------------------------------------------------- #
# inspection
# --------------------------------------------------------------------- #


def test_queue_status_inventories_runs_and_leases(tmp_path):
    store = ResultStore(str(tmp_path))
    assert queue_status(store) == []
    exps = [_litmus(m) for m in ("naive", "atomic", "scope")]
    run_dir, _ = _publish_run(store, exps, shard_size=2, lease_s=30.0)
    status = queue_status(store)
    assert len(status) == 1
    assert status[0]["points"] == 3
    assert status[0]["shards"] == 2
    assert status[0]["done"] == 0
    assert status[0]["active_leases"] == 0

    worker = QueueWorker(store, worker_id="w", chaos=ChaosPlan())
    _, task = worker._claimable_tasks()[0]
    worker._acquire(run_dir, task)
    try_create_json(_shard_paths(run_dir, "0001")[1], {
        "schema": LEASE_SCHEMA, "shard": "0001", "worker": "gone",
        "nonce": "x", "acquired": 0.0, "lease_s": 1.0, "deadline": 1.0})
    status = queue_status(store)[0]
    assert status["active_leases"] == 1
    assert status["expired_leases"] == 1


def test_workqueue_backend_rejects_a_foreign_store(tmp_path):
    backend = WorkQueueBackend(str(tmp_path / "a"))
    with pytest.raises(ValueError, match="share one store"):
        backend.run_all_settled([], store=ResultStore(str(tmp_path / "b")))
    assert backend.run_all_settled([]) == []


# --------------------------------------------------------------------- #
# observability: trace propagation and fleet telemetry
# --------------------------------------------------------------------- #

def test_trace_overlay_propagates_through_task_files(tmp_path):
    """A traced distributed campaign ships the TraceConfig inside the
    task files (tasks stay self-describing), the worker applies it at
    execution, and the store entry carries the obs payload -- under the
    exact spec hash an untraced run would use."""
    from repro.sim.config import TraceConfig

    store = ResultStore(str(tmp_path))
    exps = [_litmus(m) for m in ("naive", "atomic")]
    trace = TraceConfig(enabled=True, ring_size=0)
    run_dir, shards = _publish_run(store, exps, shard_size=2,
                                   lease_s=30.0, trace=trace)
    task = read_json(_shard_paths(run_dir, shards[0])[0])
    assert task["trace"] == {"enabled": True, "ring_size": 0,
                             "flight": False}

    worker = QueueWorker(store, worker_id="w", chaos=ChaosPlan())
    assert worker.run(once=True) == 1
    for e in exps:
        result = store.get(e.spec_hash())  # untraced key
        assert result.obs["schema"] == "repro-obs/1"
        assert "stalls" in result.obs
        assert "events" not in result.obs  # the task's ring_size=0


def test_untraced_task_files_carry_no_trace_key(tmp_path):
    store = ResultStore(str(tmp_path))
    run_dir, shards = _publish_run(store, [_litmus("atomic")],
                                   shard_size=2, lease_s=30.0)
    task = read_json(_shard_paths(run_dir, shards[0])[0])
    assert "trace" not in task


def test_worker_emits_the_telemetry_lifecycle(tmp_path):
    from repro.obs.telemetry import read_telemetry

    store = ResultStore(str(tmp_path))
    exps = [_litmus(m) for m in ("naive", "atomic")]
    _publish_run(store, exps, shard_size=2, lease_s=30.0)
    worker = QueueWorker(store, worker_id="w-tel", chaos=ChaosPlan())
    assert worker.run(once=True) == 1

    records = [r for r in read_telemetry(str(tmp_path))
               if r["who"] == "w-tel"]
    kinds = [r["event"] for r in records]
    assert kinds == ["claim", "start", "point", "heartbeat", "point",
                     "heartbeat", "finish"]
    points = [r for r in records if r["event"] == "point"]
    assert all(p["status"] == "ok" for p in points)
    assert all(len(p["spec"]) == 12 for p in points)


def test_coordinator_emits_publish_and_local_telemetry(tmp_path):
    from repro.obs.telemetry import read_telemetry

    store = ResultStore(str(tmp_path))
    coordinator = _fast_coordinator(store)
    exps = [_litmus(m) for m in ("naive", "atomic", "scope")]
    ticks = []
    settled = coordinator.run(exps, progress=ticks.append)
    assert _ok(settled)
    assert sum(ticks) == len(exps)  # every point reported exactly once

    kinds = [r["event"] for r in read_telemetry(str(tmp_path))
             if r["who"] == "coordinator"]
    assert kinds[0] == "publish"
    assert kinds.count("local") == 2  # both shards ran locally
