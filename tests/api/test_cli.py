"""The repro-bench CLI: workload listing and small end-to-end sweeps."""

import pytest

from repro.api.cli import (
    _build_parser,
    _default_scopes,
    _parse_models,
    _parse_params,
    main,
)
from repro.core.models import ConsistencyModel
from repro.workloads.tpch import TpchWorkload


def test_list_names_registered_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("ycsb", "tpch", "litmus"):
        assert name in out


def test_run_litmus_sweep_end_to_end(capsys):
    """`sweep run smoke` runs the litmus sweep (naive and atomic, two
    scopes, three rounds, two threads) through the CLI."""
    assert main(["sweep", "run", "smoke", "--no-progress"]) == 0
    out = capsys.readouterr().out
    assert "smoke campaign" in out
    # the atomic row reports zero stale reads; naive reports some
    rows = {cells[0]: cells for cells in
            (line.split() for line in out.splitlines())
            if len(cells) >= 7 and cells[0].startswith("litmus/")}
    assert int(rows["litmus/model=atomic"][2]) == 0
    assert int(rows["litmus/model=naive"][2]) > 0


def test_run_with_jobs_uses_process_pool(capsys):
    assert main(["sweep", "run", "smoke", "--jobs", "2",
                 "--no-progress"]) == 0
    assert "process-pool backend" in capsys.readouterr().out


def test_retired_commands_and_flags_do_not_parse(capsys):
    """`sweep run` and the store are the only run and resume paths."""
    for argv in (["run", "litmus"],
                 ["sweep", "run", "smoke", "--resume", "smoke.json"],
                 ["store", "export", "smoke", "--output", "smoke.json"]):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(argv)
    capsys.readouterr()


def test_default_scopes_fit_the_tpch_query():
    """Without --num-scopes, a tpch trace must size the system to the
    query instead of crashing on the generic default."""
    params = {"query": "q6", "scale": 1 / 64}
    assert (_default_scopes("tpch", params)
            == TpchWorkload("q6", scale=1 / 64).scaled_scopes())
    assert _default_scopes("ycsb", {}) == 4


def test_unknown_workload_exits_cleanly(capsys):
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["trace", "run", "nonesuch"])


def test_bad_workload_params_exit_cleanly():
    """Missing or invalid workload params must not traceback."""
    with pytest.raises(SystemExit, match="invalid parameters"):
        main(["trace", "run", "tpch"])  # tpch requires --param query=...
    with pytest.raises(SystemExit, match="not evaluated"):
        main(["trace", "run", "tpch", "--param", "query=q99"])


def test_parse_models():
    assert _parse_models("atomic,scope") == [ConsistencyModel.ATOMIC,
                                             ConsistencyModel.SCOPE]
    assert len(_parse_models("all")) == 6
    with pytest.raises(SystemExit, match="valid models"):
        _parse_models("warp-drive")


def test_parse_params_literals_and_strings():
    params = _parse_params(["num_ops=30", "scale=0.5", "query=q6",
                            "sync_per_op=True"])
    assert params == {"num_ops": 30, "scale": 0.5, "query": "q6",
                      "sync_per_op": True}
    with pytest.raises(SystemExit, match="key=value"):
        _parse_params(["oops"])


def test_store_prune_by_fingerprint_cli(tmp_path, capsys):
    from repro.api import Experiment, ResultStore
    from repro.api.backends import execute_experiment

    exp = Experiment.from_dict({
        "workload": "litmus", "params": {"rounds": 2, "threads": 2},
        "config": {"preset": "scaled", "num_scopes": 2}})
    result = execute_experiment(exp)
    ResultStore(str(tmp_path), fingerprint="old-kernel").put(
        exp.spec_hash(), result, exp)

    assert main(["store", "prune", "--store", str(tmp_path),
                 "--fingerprint", "old-kernel", "--dry-run"]) == 0
    assert "would prune 1 entries" in capsys.readouterr().out
    assert main(["store", "prune", "--store", str(tmp_path),
                 "--fingerprint", "old-kernel"]) == 0
    assert "pruned 1 entries" in capsys.readouterr().out


def test_store_stats_names_files_without_an_entry_header(tmp_path, capsys):
    """A file without a header of the current layout (here one
    `repro-store-entry/1` document) counts stale and is listed under a
    label instead of an empty fingerprint."""
    import json
    import os

    from repro.api.store import ResultStore

    store = ResultStore(str(tmp_path))
    path = store.path("0" * 20)
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro-store-entry/1", "spec_hash": "0" * 20,
                   "fingerprint": store.fingerprint}, handle)

    assert main(["store", "stats", "--store", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  entries          : 1 (0 current, 1 stale)" in lines
    assert "  (no entry header) : 1 entries" in lines
    assert store.stats()["by_fingerprint"] == {"": 1}


def test_store_verify_lists_quarantined_entries(tmp_path, capsys):
    """A quarantined entry makes `store verify` exit nonzero and name
    the file, even though the addressable tree itself is clean."""
    import os

    from helpers import read_entry, write_entry
    from repro.api.experiment import Experiment
    from repro.api.runner import Runner
    from repro.api.store import ResultStore

    store = ResultStore(str(tmp_path))
    exp = Experiment.from_dict({
        "workload": "litmus", "params": {"rounds": 1, "threads": 2},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 2},
    })
    Runner(store=store).run_all([exp])
    assert main(["store", "verify", "--store", str(tmp_path)]) == 0

    path = next(iter(store.paths()))
    header, result, spec = read_entry(path)
    result["run_time"] += 1
    write_entry(path, header, result, spec)
    assert store.get(exp.spec_hash()) is None  # corrupt read quarantines

    capsys.readouterr()
    assert main(["store", "verify", "--store", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"QUARANTINED {os.path.basename(path)}" in out
    assert "quarantine" in out

    # Clearing the quarantine restores the zero exit.
    import shutil
    shutil.rmtree(os.path.join(str(tmp_path), "quarantine"))
    assert main(["store", "verify", "--store", str(tmp_path)]) == 0


def test_fuzz_cli_run_replay_corpus_round_trip(tmp_path, capsys):
    import json

    store = str(tmp_path / "store")
    report_file = str(tmp_path / "report.json")
    assert main(["fuzz", "run", "--seed", "5", "--programs", "2",
                 "--store", store, "--output", report_file]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out and "2 banked to corpus" in out
    with open(report_file) as handle:
        report = json.load(handle)
    assert report["schema"] == "repro-fuzz-report/1"
    assert report["violations"] == []

    assert main(["fuzz", "replay", "--store", store]) == 0
    assert "0 mismatched" in capsys.readouterr().out

    assert main(["fuzz", "corpus", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "2 corpus entries, 0 minimal repros" in out


def test_fuzz_cli_weakened_self_test_exits_nonzero(tmp_path, capsys):
    assert main(["fuzz", "run", "--seed", "5", "--programs", "2",
                 "--no-timing", "--no-corpus",
                 "--weaken", "no-atomic-flush"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out


# --------------------------------------------------------------------- #
# observability surface: trace run/report/export, progress
# --------------------------------------------------------------------- #

def test_trace_run_report_export_round_trip(tmp_path, capsys):
    import json

    dump_file = str(tmp_path / "dump.json")
    assert main(["trace", "run", "litmus", "--model", "atomic",
                 "--num-scopes", "2", "--param", "rounds=2",
                 "--param", "threads=2", "--ring", "2048",
                 "--output", dump_file]) == 0
    out = capsys.readouterr().out
    assert "traced litmus [atomic, 2 scopes]" in out
    assert "wrote trace dump" in out
    with open(dump_file) as handle:
        dump = json.load(handle)
    assert dump["schema"] == "repro-trace-dump/1"
    assert dump["obs"]["events"]

    assert main(["trace", "report", dump_file]) == 0
    out = capsys.readouterr().out
    assert "result: run_time" in out
    assert "records kept" in out
    assert "no stalls recorded" in out

    chrome_file = str(tmp_path / "dump.chrome.json")
    assert main(["trace", "export", dump_file, "--output", chrome_file,
                 "--validate"]) == 0
    out = capsys.readouterr().out
    assert "wrote Chrome trace" in out
    assert out.strip().splitlines()[-1].startswith("ok:")
    with open(chrome_file) as handle:
        chrome = json.load(handle)
    assert chrome["traceEvents"]


def test_trace_export_default_output_name(tmp_path, capsys):
    import os

    dump_file = str(tmp_path / "mytrace.json")
    assert main(["trace", "run", "litmus", "--model", "atomic",
                 "--num-scopes", "2", "--param", "rounds=2",
                 "--param", "threads=2", "--output", dump_file]) == 0
    capsys.readouterr()
    assert main(["trace", "export", dump_file]) == 0
    assert os.path.exists(str(tmp_path / "mytrace.chrome.json"))
    capsys.readouterr()


def test_trace_export_rejects_a_non_dump(tmp_path):
    bogus = tmp_path / "nope.json"
    bogus.write_text('{"schema": "something-else"}')
    with pytest.raises(SystemExit, match="not a trace dump"):
        main(["trace", "export", str(bogus)])
    with pytest.raises(SystemExit, match="cannot load"):
        main(["trace", "report", str(tmp_path / "missing.json")])


def test_trace_run_requires_exactly_one_model():
    with pytest.raises(SystemExit, match="exactly one model"):
        main(["trace", "run", "litmus", "--model", "all"])


def test_sweep_run_trace_renders_the_stall_table(tmp_path, capsys):
    assert main(["sweep", "run", "smoke", "--trace", "--no-progress",
                 "--report", str(tmp_path / "report.md")]) == 0
    out = capsys.readouterr().out
    assert "stall attribution per traced point" in out
    report = (tmp_path / "report.md").read_text()
    assert "## Stall attribution per traced point" in report


def test_traced_rerun_over_an_untraced_store_simulates_traced(tmp_path,
                                                              capsys):
    """`sweep run --trace` over a store an untraced run filled: each
    untraced entry is a miss, so all four points simulate traced and
    the stall table prints; the traced entries then serve a traced
    rerun with no dispatch, and the digest never moves."""
    store = str(tmp_path / "store")
    assert main(["sweep", "run", "smoke", "--no-progress",
                 "--store", store]) == 0
    untraced = capsys.readouterr().out
    assert "backend dispatches: 4" in untraced
    for rerun_dispatches in (4, 0):
        assert main(["sweep", "run", "smoke", "--trace", "--no-progress",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "stall attribution per traced point" in out
        assert f"backend dispatches: {rerun_dispatches}" in out
        assert _digest_line(out) == _digest_line(untraced)


def _digest_line(out: str) -> str:
    return next(line for line in out.splitlines()
                if line.startswith("digest: "))


def test_sweep_run_untraced_has_no_stall_table(capsys):
    assert main(["sweep", "run", "smoke", "--no-progress"]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" not in out


def test_sweep_progress_streams_to_stderr(capsys):
    assert main(["sweep", "run", "smoke"]) == 0
    err = capsys.readouterr().err
    assert "sweep: 4/4 points" in err


def test_sweep_progress_callback_counts_and_eta():
    import io

    from repro.api.cli import _sweep_progress

    stream = io.StringIO()  # not a tty: line-per-update mode
    tick = _sweep_progress(10, stream=stream)
    tick(3)
    tick(7)
    lines = [l for l in stream.getvalue().splitlines() if l]
    assert lines[0].startswith("sweep: 3/10 points")
    assert lines[-1].startswith("sweep: 10/10 points")


def test_fmt_eta_ranges():
    from repro.api.cli import _fmt_eta

    assert _fmt_eta(12) == "12s"
    assert _fmt_eta(185) == "3m05s"
    assert _fmt_eta(3720) == "1h02m"


def test_log_level_flag_tunes_the_repro_logger(capsys):
    import logging

    assert main(["--log-level", "debug", "list"]) == 0
    capsys.readouterr()
    logger = logging.getLogger("repro")
    assert logger.level == logging.DEBUG
    assert sum(1 for h in logger.handlers
               if getattr(h, "_repro_handler", False)) == 1
    assert main(["--log-level", "error", "list"]) == 0
    capsys.readouterr()
    assert logger.level == logging.ERROR


def test_fuzz_run_trace_flag_is_accepted(tmp_path, capsys):
    # a healthy simulator yields no timing violations, so no dumps --
    # the flag must still parse and the run stay clean
    assert main(["fuzz", "run", "--seed", "5", "--programs", "2",
                 "--store", str(tmp_path / "store"), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out
