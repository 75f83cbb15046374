"""Cross-session campaign resume through the persistent store.

The acceptance property: a store-hydrated rerun of a campaign makes
zero backend dispatches and reproduces a byte-identical campaign digest
(and Markdown report) -- for every workload family the evaluation uses
(all six consistency models, TPC-H, litmus), across backends and across
processes (the CLI tests re-enter through ``main`` like separate shell
sessions would).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

# tests/ is on sys.path (tests/conftest.py): the event budget is the
# digest gate's, so a run that stops making progress fails fast.
from api.test_default_digests import PINNED_MAX_EVENTS
from helpers import CountingBackend
from repro.api import (
    Axis,
    Campaign,
    ResultStore,
    Runner,
    SerialBackend,
    Sweep,
    get_campaign,
    run_campaign,
)
from repro.analysis.report import campaign_markdown
from repro.api.sweep import SIX_MODELS


def _fidelity_campaign() -> Campaign:
    """Six models x YCSB + one TPC-H query + litmus, at smoke size."""
    ycsb = Sweep(
        name="ycsb",
        base={
            "workload": "ycsb",
            "params": {"num_records": 8000, "num_ops": 10, "threads": 4,
                       "seed": 11},
            "config": {"preset": "scaled", "num_scopes": 4},
            "max_events": PINNED_MAX_EVENTS,
        },
        axes=(Axis("model", SIX_MODELS),),
    )
    tpch = Sweep(
        name="tpch",
        base={
            "workload": "tpch",
            "params": {"query": "q6", "scale": 0.015625, "runs": 1},
            "config": {"preset": "scaled", "num_scopes": 32},
            "max_events": PINNED_MAX_EVENTS,
        },
        axes=(Axis("model", ("naive", "scope")),),
    )
    litmus = Sweep(
        name="litmus",
        base={
            "workload": "litmus",
            "params": {"rounds": 3, "threads": 2},
            "config": {"preset": "scaled", "num_scopes": 2},
            "max_events": PINNED_MAX_EVENTS,
        },
        axes=(Axis("model", ("naive", "atomic")),),
    )
    return Campaign(name="fidelity", sweeps=(ycsb, tpch, litmus))


def test_store_hydrated_rerun_is_byte_identical(tmp_path):
    """Fresh run vs store-hydrated run: zero dispatches, identical
    digest and report, for all six models + tpch + litmus."""
    campaign = _fidelity_campaign()
    store_dir = str(tmp_path / "store")

    cold = run_campaign(campaign,
                        runner=Runner(backend=SerialBackend(),
                                      store=ResultStore(store_dir)))
    assert not cold.failed_points

    warm_backend = CountingBackend()
    warm_runner = Runner(backend=warm_backend,
                         store=ResultStore(store_dir))
    warm = run_campaign(campaign, runner=warm_runner)

    assert warm_backend.executed == []  # zero backend dispatches
    assert warm_runner.dispatch_count == 0
    assert warm.digest() == cold.digest()  # byte-identical campaign digest
    assert campaign_markdown(warm) == campaign_markdown(cold)
    # per-point, the hydrated results round-tripped every statistic
    for a, b in zip(cold.points, warm.points):
        assert a.result.stats == b.result.stats
        assert a.result.run_time == b.result.run_time
        assert a.result.events == b.result.events
        assert a.result.stale_reads == b.result.stale_reads
        assert a.result.config == b.result.config


def test_cli_store_resume_across_sessions(tmp_path, capsys):
    """Two `sweep run --store` invocations behave like two shell
    sessions sharing one store: the second makes zero dispatches and
    reproduces the digest and report byte-for-byte."""
    from repro.api.cli import main

    store_dir = str(tmp_path / "store")
    report1 = tmp_path / "first.md"
    report2 = tmp_path / "second.md"

    assert main(["sweep", "run", "smoke", "--store", store_dir,
                 "--report", str(report1)]) == 0
    first = capsys.readouterr().out
    assert "backend dispatches: 4" in first

    assert main(["sweep", "run", "smoke", "--store", store_dir,
                 "--report", str(report2)]) == 0
    second = capsys.readouterr().out
    assert "backend dispatches: 0" in second
    assert "store: 4 points hydrated" in second
    assert report1.read_text() == report2.read_text()


def test_cli_report_append_stacks_campaigns(tmp_path, capsys):
    """`sweep run --report F` then `--report F --append` leaves both
    campaigns' reports in the file, in run order."""
    from repro.api.cli import main

    report = tmp_path / "stacked.md"
    assert main(["sweep", "run", "smoke", "--report", str(report)]) == 0
    first = report.read_text()
    assert main(["sweep", "run", "smoke", "--report", str(report),
                 "--append"]) == 0
    assert "appended report" in capsys.readouterr().out
    assert report.read_text() == first + first


def test_cli_store_env_var_default(tmp_path, capsys, monkeypatch):
    """$REPRO_STORE selects the store when --store is absent."""
    from repro.api.cli import main

    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
    assert main(["sweep", "run", "smoke"]) == 0
    capsys.readouterr()
    assert main(["sweep", "run", "smoke"]) == 0
    assert "backend dispatches: 0" in capsys.readouterr().out


def test_cli_store_stats_verify_prune_export(tmp_path, capsys):
    """The store maintenance CLI: stats, verify, prune -- and exporting
    a stored campaign as an artifact, which is `sweep run --output` on a
    warm store."""
    from repro.api.cli import main

    store_dir = str(tmp_path / "store")
    cold_artifact = tmp_path / "smoke-cold.json"
    assert main(["sweep", "run", "smoke", "--store", store_dir,
                 "--output", str(cold_artifact)]) == 0
    capsys.readouterr()

    assert main(["store", "stats", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "entries          : 4 (4 current, 0 stale)" in out

    assert main(["store", "verify", "--store", store_dir]) == 0
    assert "ok: 4 entries verified" in capsys.readouterr().out

    # the warm rerun writes the same artifact without simulating
    artifact = tmp_path / "smoke-export.json"
    assert main(["sweep", "run", "smoke", "--store", store_dir,
                 "--output", str(artifact), "--no-progress"]) == 0
    assert "backend dispatches: 0" in capsys.readouterr().out
    assert artifact.read_text() == cold_artifact.read_text()

    # prune demands a selector, then removes everything under --stale=no,
    # age=0 (every entry is "older than 0 days" after an mtime rewind)
    with pytest.raises(SystemExit, match="nothing to prune"):
        main(["store", "prune", "--store", store_dir])
    import os
    for entry in ResultStore(store_dir).entries():
        old = entry.mtime - 2 * 86400
        os.utime(entry.path, (old, old))
    # --dry-run previews the candidates without touching the store
    assert main(["store", "prune", "--store", store_dir,
                 "--max-age-days", "1", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would prune 4 entries" in out
    assert out.count("would prune " + store_dir) == 4
    assert main(["store", "stats", "--store", store_dir]) == 0
    assert "entries          : 4" in capsys.readouterr().out
    assert main(["store", "prune", "--store", store_dir,
                 "--max-age-days", "1"]) == 0
    assert "pruned 4 entries" in capsys.readouterr().out
    assert main(["store", "stats", "--store", store_dir]) == 0
    assert "entries          : 0" in capsys.readouterr().out


def test_cli_store_requires_a_directory(monkeypatch):
    from repro.api.cli import main

    monkeypatch.delenv("REPRO_STORE", raising=False)
    with pytest.raises(SystemExit, match="no store selected"):
        main(["store", "stats"])


def test_kernel_change_invalidates_the_store(tmp_path):
    """A different code fingerprint must never be served: the warm run
    under a 'new kernel' re-simulates everything."""
    campaign = _fidelity_campaign()
    store_dir = str(tmp_path / "store")
    old_store = ResultStore(store_dir, fingerprint="old-kernel")
    cold = run_campaign(campaign, runner=Runner(backend=SerialBackend(),
                                                store=old_store))

    backend = CountingBackend()
    runner = Runner(backend=backend,
                    store=ResultStore(store_dir, fingerprint="new-kernel"))
    warm = run_campaign(campaign, runner=runner)
    assert len(backend.executed) == len(campaign.points())
    assert warm.digest() == cold.digest()  # deterministic either way


def test_geometry_ablation_campaign_registration():
    """The Figs. 11-13 geometry campaign expands, serializes, and spans
    the documented axes without executing anything."""
    campaign = get_campaign("geometry-ablation")
    points = campaign.points()
    assert len(points) == 66
    by_sweep = {}
    for p in points:
        by_sweep.setdefault(p.sweep, []).append(p)
    assert set(by_sweep) == {"llc-size", "pim-buffer", "pim-logic",
                             "crossbar", "threads"}
    # every sweep covers all six models
    for name, pts in by_sweep.items():
        assert len({p.coords["model"] for p in pts}) == 6, name
    # the ablation axes actually land in the config
    llc = {p.experiment.config.llc.size_bytes
           for p in by_sweep["llc-size"]}
    assert llc == {128 << 10, 512 << 10}
    buffers = {p.experiment.config.pim.buffer_capacity
               for p in by_sweep["pim-buffer"]}
    assert buffers == {8, 16, None}
    assert {p.experiment.config.pim.zero_logic
            for p in by_sweep["pim-logic"]} == {False, True}
    assert {p.experiment.config.pim.max_concurrent_scopes
            for p in by_sweep["crossbar"]} == {None, 2}
    threads = {(p.experiment.params_dict["threads"],
                p.experiment.config.cores.num_cores)
               for p in by_sweep["threads"]}
    assert threads == {(4, 8), (8, 16)}
    # the campaign is plain data: JSON round trip preserves every point
    clone = Campaign.from_dict(json.loads(json.dumps(campaign.to_dict())))
    assert [p.experiment for p in clone.points()] == \
        [p.experiment for p in points]


# --------------------------------------------------------------------- #
# crash safety of a single-machine campaign
# --------------------------------------------------------------------- #


def _crash_campaign() -> Campaign:
    """Six-model litmus plus two TPC-H q6 points at scale 1/256."""
    return Campaign(
        name="crash-resume",
        title="crash-resume coverage",
        description="six models + tpch + litmus at smoke size",
        sweeps=(
            Sweep(name="litmus",
                  base={"workload": "litmus",
                        "params": {"rounds": 2, "threads": 2},
                        "config": {"preset": "scaled", "num_scopes": 2},
                        "max_events": PINNED_MAX_EVENTS // 2},
                  axes=(Axis("model", SIX_MODELS),)),
            Sweep(name="tpch",
                  base={"workload": "tpch",
                        "params": {"query": "q6", "scale": 1 / 256,
                                   "runs": 1},
                        "config": {"preset": "scaled"},
                        "max_events": PINNED_MAX_EVENTS},
                  axes=(Axis("model", ("naive", "atomic")),)),
        ),
    )


def test_sigkill_pool_campaign_mid_run_resumes_byte_identical(tmp_path):
    """SIGKILL a `sweep run --jobs 2` process group mid-campaign: the
    points its pool workers wrote through survive intact, and a rerun
    against the same store hydrates them, simulates only the rest and
    reproduces the serial digest."""
    campaign = _crash_campaign()
    points = len(campaign.points())
    campaign_file = tmp_path / "crash-resume.json"
    campaign_file.write_text(json.dumps(campaign.to_dict()))
    store_dir = str(tmp_path / "store")
    store = ResultStore(store_dir)

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    # A new session makes the CLI process the leader of a process group
    # that also holds its forked pool workers, so one killpg takes down
    # the whole campaign at once, like a machine losing power.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.api.cli", "sweep", "run",
         str(campaign_file), "--jobs", "2", "--store", store_dir,
         "--no-progress"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        # Points take milliseconds each, so poll tightly: the kill must
        # land while most of the campaign is still to run.
        deadline = time.time() + 120.0
        while sum(1 for _ in store.paths()) < 2:
            if proc.poll() is not None or time.time() > deadline:
                pytest.fail("the campaign never wrote two entries")
            time.sleep(0.002)
        os.killpg(proc.pid, signal.SIGKILL)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    survived = sum(1 for _ in store.paths())
    assert survived < points, (
        f"the kill landed after the campaign ended ({survived} entries)")

    runner = Runner(store=store)
    resumed = run_campaign(campaign, runner=runner)
    assert resumed.failed_points == []
    assert runner.store_hits + runner.dispatch_count == points
    serial = run_campaign(campaign, runner=Runner())
    assert resumed.digest() == serial.digest()
    assert store.verify() == []


def test_corrupt_entry_is_quarantined_and_resimulated(tmp_path, capsys):
    """An entry whose payload no longer matches its recorded sha256 is
    quarantined on read and re-simulated: the rerun dispatches exactly
    that point, writes it back and reproduces the digest."""
    from repro.api.cli import main

    store_dir = str(tmp_path / "store")
    assert main(["sweep", "run", "smoke", "--store", store_dir]) == 0
    first = capsys.readouterr().out
    digest = next(line for line in first.splitlines()
                  if line.startswith("digest: "))

    store = ResultStore(store_dir)
    path = next(iter(store.paths()))
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["result"]["run_time"] += 1  # the recorded sha256 is now stale
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)

    assert main(["sweep", "run", "smoke", "--store", store_dir]) == 0
    second = capsys.readouterr().out
    assert "backend dispatches: 1" in second
    assert digest in second.splitlines()
    assert store.stats()["quarantined"] == 1
    assert store.verify() == []  # the write-back repaired the address
