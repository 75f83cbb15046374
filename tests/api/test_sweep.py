"""The campaign subsystem: sweep expansion, execution, aggregation, CLI."""

import copy
import json

import pytest

from helpers import CountingBackend
from repro.api import (
    Axis,
    Campaign,
    Experiment,
    Pivot,
    ResultStore,
    Runner,
    SerialBackend,
    SimulationResult,
    Sweep,
    get_campaign,
    run_campaign,
)
from repro.api.backends import ProcessPoolBackend
from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig

#: A tiny YCSB template every expansion test shares.
YCSB_BASE = {
    "workload": "ycsb",
    "params": {"num_records": 8000, "num_ops": 10, "threads": 4, "seed": 11},
    "config": {"preset": "scaled", "num_scopes": 4},
    "max_events": 50_000_000,
}


# --------------------------------------------------------------------- #
# expansion
# --------------------------------------------------------------------- #


def test_grid_expansion_order_and_paths():
    sweep = Sweep(
        name="grid",
        base=YCSB_BASE,
        axes=(Axis("model", ("naive", "atomic")),
              Axis("scopes", (4, 8))),
    )
    points = sweep.points()
    assert [p.name for p in points] == [
        "grid/model=naive,scopes=4",
        "grid/model=naive,scopes=8",
        "grid/model=atomic,scopes=4",
        "grid/model=atomic,scopes=8",
    ]
    # well-known axis names resolve into the config
    assert points[1].experiment.config.model is ConsistencyModel.NAIVE
    assert points[1].experiment.config.num_scopes == 8
    # ...and the rest of the preset config survives untouched
    assert points[1].experiment.config == SystemConfig.scaled_default(
        model=ConsistencyModel.NAIVE, num_scopes=8)
    assert points[0].coords == {"model": "naive", "scopes": 4}


def test_default_axis_path_is_a_workload_param():
    sweep = Sweep(name="s", base=YCSB_BASE,
                  axes=(Axis("num_ops", (5, 7)),))
    ops = [p.experiment.params_dict["num_ops"] for p in sweep.points()]
    assert ops == [5, 7]


def test_explicit_dotted_path_reaches_nested_config():
    sweep = Sweep(name="s", base=YCSB_BASE,
                  axes=(Axis("buf", (8, None),
                             path="config.pim.buffer_capacity"),))
    caps = [p.experiment.config.pim.buffer_capacity
            for p in sweep.points()]
    assert caps == [8, None]


def test_expansion_leaves_the_base_alone():
    """Axes write into a copy of the base's dict/list tree, never into
    the base (or the caller's nested dicts it shares); every spec equals
    the one a deep-copy expansion builds."""
    base = dict(YCSB_BASE, params=dict(YCSB_BASE["params"],
                                      field_sizes=[8, [16, 32]]))
    sweep = Sweep(name="s", base=base, axes=(
        Axis("zero", (False, True), path="config.pim.zero_logic"),
        Axis("theta", (0.2, 0.99), path="params.zipf_theta"),
        Axis("model", ("naive", "atomic")),
    ))
    snapshot = copy.deepcopy(sweep.base)
    points = sweep.points()
    assert sweep.base == snapshot
    assert len(points) == 8
    for point in points:
        data = copy.deepcopy(snapshot)
        data["config"]["pim"] = {"zero_logic": point.coords["zero"]}
        data["params"]["zipf_theta"] = point.coords["theta"]
        data["config"]["model"] = point.coords["model"]
        expected = Experiment.from_dict(data)
        assert point.experiment == expected
        assert point.experiment.spec_hash() == expected.spec_hash()


def test_zip_axes_advance_together_and_hide_derived_values():
    sweep = Sweep(
        name="s",
        base=YCSB_BASE,
        axes=(Axis("model", ("naive", "atomic")),
              Axis("scopes", (4, 8)),
              Axis("records", (8000, 16000),
                   path="params.num_records", hidden=True)),
        zip_groups=(("scopes", "records"),),
    )
    points = sweep.points()
    assert len(points) == 4  # 2 models x 2 zipped pairs, not 2 x 2 x 2
    assert points[0].name == "s/model=naive,scopes=4"  # hidden axis absent
    pairs = {(p.experiment.config.num_scopes,
              p.experiment.params_dict["num_records"]) for p in points}
    assert pairs == {(4, 8000), (8, 16000)}


def test_zip_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatched lengths"):
        Sweep(name="s", base=YCSB_BASE,
              axes=(Axis("scopes", (4, 8)),
                    Axis("records", (8000,), path="params.num_records")),
              zip_groups=(("scopes", "records"),))


def test_zip_group_of_unknown_axis_rejected():
    with pytest.raises(ValueError, match="unknown axis"):
        Sweep(name="s", base=YCSB_BASE,
              axes=(Axis("scopes", (4, 8)),),
              zip_groups=(("scopes", "records"),))


def test_empty_axis_expands_to_no_points():
    sweep = Sweep(name="s", base=YCSB_BASE,
                  axes=(Axis("model", ()), Axis("scopes", (4, 8))))
    assert sweep.points() == []


def test_filter_removing_every_point_still_runs():
    """A campaign left with no points (here an empty axis removes every
    point) still runs: no dispatch, a digest all the same."""
    sweep = Sweep(name="s", base=YCSB_BASE,
                  axes=(Axis("model", ()), Axis("scopes", (4, 8))))
    backend = CountingBackend()
    result = run_campaign(Campaign(name="empty", sweeps=(sweep,)),
                          runner=Runner(backend=backend))
    assert result.points == []
    assert backend.executed == []
    assert isinstance(result.digest(), str)


def test_duplicate_point_names_rejected():
    sweep = Sweep(name="s", base=YCSB_BASE,
                  axes=(Axis("model", ("naive",)),))
    campaign = Campaign(name="c", sweeps=(sweep, sweep))
    with pytest.raises(ValueError, match="duplicate point name"):
        campaign.points()


def test_sweep_dict_round_trip():
    sweep = Sweep(
        name="s", base=YCSB_BASE,
        axes=(Axis("model", ("naive", "atomic")),
              Axis("scopes", (4, 8)),
              Axis("records", (8000, 16000),
                   path="params.num_records", hidden=True)),
        zip_groups=(("scopes", "records"),),
    )
    campaign = Campaign(name="c", title="t", description="d",
                        sweeps=(sweep,),
                        pivots=(Pivot(title="p", x="scopes",
                                      split_by="model"),))
    clone = Campaign.from_dict(
        json.loads(json.dumps(campaign.to_dict())))
    assert [p.name for p in clone.points()] == \
        [p.name for p in campaign.points()]
    assert [p.experiment for p in clone.points()] == \
        [p.experiment for p in campaign.points()]
    assert clone.pivots == campaign.pivots


def test_hidden_axis_must_ride_a_visible_zip_partner():
    with pytest.raises(ValueError, match="hidden axis"):
        Sweep(name="s", base=YCSB_BASE,
              axes=(Axis("model", ("naive", "atomic")),
                    Axis("records", (1000, 2000),
                         path="params.num_records", hidden=True)))
    with pytest.raises(ValueError, match="entirely hidden"):
        Sweep(name="s", base=YCSB_BASE,
              axes=(Axis("scopes", (4, 8), hidden=True),
                    Axis("records", (8000, 16000),
                         path="params.num_records", hidden=True)),
              zip_groups=(("scopes", "records"),))


def test_from_dict_rejects_unknown_keys():
    good = Sweep(name="s", base=YCSB_BASE,
                 axes=(Axis("model", ("naive",)),)).to_dict()
    with pytest.raises(ValueError, match="unknown sweep keys"):
        Sweep.from_dict(dict(good, zip_groups=[["a", "b"]]))
    with pytest.raises(ValueError, match="unknown axis keys"):
        Axis.from_dict({"name": "model", "values": [], "hide": True})
    with pytest.raises(ValueError, match="unknown campaign keys"):
        Campaign.from_dict({"name": "c", "sweep": []})
    with pytest.raises(ValueError, match="unknown pivot keys"):
        Pivot.from_dict({"title": "t", "x": "a", "split_by": "b",
                         "normalise_to": "naive"})


# --------------------------------------------------------------------- #
# execution: dedup, equivalence, failure isolation, store resume
# --------------------------------------------------------------------- #


def _two_model_campaign() -> Campaign:
    return Campaign(name="mini", sweeps=(Sweep(
        name="ycsb", base=YCSB_BASE,
        axes=(Axis("model", ("naive", "atomic")),),
    ),))


def test_duplicate_points_simulate_once():
    """Two sweeps expanding to identical specs dispatch one simulation."""
    campaign = Campaign(name="dup", sweeps=(
        Sweep(name="a", base=YCSB_BASE, axes=(Axis("model", ("naive",)),)),
        Sweep(name="b", base=YCSB_BASE, axes=(Axis("model", ("naive",)),)),
    ))
    backend = CountingBackend()
    result = run_campaign(campaign, runner=Runner(backend=backend))
    assert len(result.points) == 2
    assert len(backend.executed) == 1
    assert result.points[0].result is result.points[1].result


def test_serial_and_process_pool_campaigns_match_stat_for_stat():
    campaign = get_campaign("smoke")
    serial = run_campaign(campaign, runner=Runner(backend=SerialBackend()))
    pooled = run_campaign(
        campaign, runner=Runner(backend=ProcessPoolBackend(jobs=2)))
    assert serial.digest() == pooled.digest()
    for a, b in zip(serial.points, pooled.points):
        assert a.name == b.name
        assert a.result.run_time == b.result.run_time
        assert a.result.stale_reads == b.result.stale_reads
        assert a.result.events == b.result.events
        assert a.result.stats == b.result.stats


@pytest.mark.parametrize("backend_factory", [
    SerialBackend, lambda: ProcessPoolBackend(jobs=2)],
    ids=["serial", "pool"])
def test_failed_point_reports_and_campaign_completes(backend_factory):
    """num_records=0 cannot build a workload; the other points finish."""
    campaign = Campaign(name="partial", sweeps=(Sweep(
        name="ycsb", base=YCSB_BASE,
        axes=(Axis("model", ("naive", "atomic")),
              Axis("records", (0, 8000), path="params.num_records")),
    ),))
    result = run_campaign(campaign,
                          runner=Runner(backend=backend_factory()))
    assert len(result.points) == 4
    failed = result.failed_points
    assert {p.coords["records"] for p in failed} == {0}
    assert all("at least one item" in p.error for p in failed)
    assert {p.coords["records"] for p in result.ok_points} == {8000}
    assert all(p.result.run_time > 0 for p in result.ok_points)


def test_results_accessor_is_strict():
    ok = run_campaign(_two_model_campaign())
    assert [r.model_name for r in ok.results()] == ["naive", "atomic"]
    broken = run_campaign(Campaign(name="bad", sweeps=(Sweep(
        name="ycsb", base=YCSB_BASE,
        axes=(Axis("records", (0,), path="params.num_records"),),
    ),)))
    with pytest.raises(RuntimeError, match="1 of 1 campaign points failed"):
        broken.results()


def test_failures_are_not_cached_so_resume_retries_them():
    backend = CountingBackend()
    runner = Runner(backend=backend)
    bad = Experiment.from_dict(dict(
        YCSB_BASE, params=dict(YCSB_BASE["params"], num_records=0)))
    first = runner.run_settled([bad])
    second = runner.run_settled([bad])
    assert first[0][0] is None and "at least one item" in first[0][1]
    assert len(backend.executed) == 2  # retried, not served from cache
    assert second[0][1] is not None


def test_campaign_json_round_trip_and_resume(tmp_path):
    """The JSON artifact records every point's spec and result; a rerun
    resumes from the store, simulating nothing."""
    campaign = _two_model_campaign()
    store = ResultStore(str(tmp_path / "store"))
    first = run_campaign(campaign, runner=Runner(store=store))
    data = json.loads(json.dumps(first.to_json_dict()))
    assert data["digest"] == first.digest()
    for stored, point in zip(data["points"], first.points):
        assert stored["spec_hash"] == point.experiment.spec_hash()
        assert Experiment.from_dict(stored["experiment"]) == point.experiment
        assert SimulationResult.from_dict(stored["result"]).stats == \
            point.result.stats

    resumed_backend = CountingBackend()
    second = run_campaign(campaign, runner=Runner(backend=resumed_backend,
                                                  store=store))
    assert resumed_backend.executed == []  # every point came from the store
    assert second.digest() == first.digest()


def test_result_dict_round_trip():
    result = run_campaign(_two_model_campaign()).points[0].result
    clone = SimulationResult.from_dict(
        json.loads(json.dumps(result.to_dict())))
    assert clone.config == result.config
    assert clone.run_time == result.run_time
    assert clone.stale_reads == result.stale_reads
    assert clone.events == result.events
    assert clone.stats == result.stats


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #


def _grid_result():
    campaign = Campaign(
        name="g",
        sweeps=(Sweep(
            name="ycsb", base=YCSB_BASE,
            axes=(Axis("model", ("naive", "atomic")),
                  Axis("scopes", (4, 8))),
        ),),
        pivots=(
            Pivot(title="abs", x="scopes", split_by="model"),
            Pivot(title="rel", x="scopes", split_by="model",
                  normalize_to="naive"),
            Pivot(title="hit", x="scopes", split_by="model",
                  value="llc.hit_rate"),
        ),
    )
    return campaign, run_campaign(campaign)


def test_series_pivots_the_grid():
    campaign, result = _grid_result()
    xs, series = result.series(campaign.pivots[0])
    assert xs == ["4", "8"]
    assert list(series) == ["naive", "atomic"]
    by_point = {p.name: p.result for p in result.points}
    assert series["atomic"] == [
        by_point["ycsb/model=atomic,scopes=4"].run_time,
        by_point["ycsb/model=atomic,scopes=8"].run_time,
    ]
    _, rel = result.series(campaign.pivots[1])
    assert rel["naive"] == [1.0, 1.0]
    assert rel["atomic"][0] == pytest.approx(
        series["atomic"][0] / series["naive"][0])
    _, hits = result.series(campaign.pivots[2])
    assert hits["atomic"][0] == by_point[
        "ycsb/model=atomic,scopes=4"].llc.hit_rate


def test_campaign_markdown_is_deterministic():
    from repro.analysis.report import campaign_markdown

    campaign, result = _grid_result()
    text = campaign_markdown(result)
    assert text == campaign_markdown(result)
    assert f"Result digest: `{result.digest()}`" in text
    assert "## abs" in text and "## All points" in text
    assert "ycsb/model=atomic,scopes=8" in text


def test_registered_campaigns_expand():
    smoke = get_campaign("smoke")
    assert len(smoke.points()) == 4  # 2 models x 2 workloads
    grid = get_campaign("paper-grid")
    names = [p.name for p in grid.points()]
    assert len(names) == len(set(names))
    # the full grid covers all six models on the YCSB scope sweep
    ycsb = [p for p in grid.points() if p.sweep == "ycsb"]
    assert len({p.coords["model"] for p in ycsb}) == 6
    assert len({p.coords["scopes"] for p in ycsb}) == 5
    with pytest.raises(ValueError, match="unknown campaign"):
        get_campaign("nonesuch")


# --------------------------------------------------------------------- #
# CLI round trip
# --------------------------------------------------------------------- #


def test_cli_sweep_list_and_points(capsys):
    from repro.api.cli import main

    assert main(["sweep", "list"]) == 0
    out = capsys.readouterr().out
    assert "smoke" in out and "paper-grid" in out

    assert main(["sweep", "list-points", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "ycsb/model=naive" in out and "litmus/model=atomic" in out


def test_cli_sweep_run_round_trip(tmp_path, capsys):
    from repro.api.cli import main

    artifact = tmp_path / "smoke.json"
    report = tmp_path / "smoke.md"
    assert main(["sweep", "run", "smoke", "--output", str(artifact),
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    data = json.loads(artifact.read_text())
    assert data["schema"] == "repro-campaign-result/1"
    assert data["digest"] in out
    assert len(data["points"]) == 4
    # the artifact's specs reconstruct the campaign's experiments exactly
    smoke = get_campaign("smoke")
    for stored, point in zip(data["points"], smoke.points()):
        assert Experiment.from_dict(stored["experiment"]) == point.experiment
    assert report.read_text().startswith("# CI smoke campaign")

    # resuming from a store simulates nothing and prints the digest
    store = str(tmp_path / "store")
    assert main(["sweep", "run", "smoke", "--store", store]) == 0
    capsys.readouterr()
    assert main(["sweep", "run", "smoke", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "backend dispatches: 0" in out
    assert data["digest"] in out


def test_cli_sweep_run_campaign_file_and_failure_exit(tmp_path, capsys):
    """A JSON campaign file runs; a failing point exits non-zero."""
    from repro.api.cli import main

    campaign = Campaign(name="filecase", sweeps=(Sweep(
        name="ycsb", base=YCSB_BASE,
        axes=(Axis("records", (8000, 0), path="params.num_records"),),
    ),))
    path = tmp_path / "filecase.json"
    path.write_text(json.dumps(campaign.to_dict()))
    assert main(["sweep", "run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED ycsb/records=0" in out

    assert main(["sweep", "list-points", str(path)]) == 0
    assert "ycsb/records=8000" in capsys.readouterr().out


def test_cli_sweep_unknown_campaign():
    from repro.api.cli import main

    with pytest.raises(SystemExit, match="unknown campaign"):
        main(["sweep", "run", "nonesuch"])


def test_sweep_specs_match_directly_constructed_experiments():
    """A Sweep-expanded spec hashes identically to the same experiment
    built by hand -- the property that lets campaign points share the
    Runner cache with the benchmark harness's figure points."""
    from dataclasses import asdict

    from repro.workloads.ycsb import YcsbParams

    sweep = Sweep(
        name="s",
        base={
            "workload": "ycsb",
            "params": asdict(YcsbParams(num_records=8000, num_ops=10,
                                        threads=4, seed=11)),
            "config": {"preset": "scaled", "num_scopes": 4},
            "max_events": 50_000_000,
        },
        axes=(Axis("model", ("atomic",)),),
    )
    direct = Experiment(
        workload="ycsb",
        config=SystemConfig.scaled_default(model=ConsistencyModel.ATOMIC,
                                           num_scopes=4),
        params=asdict(YcsbParams(num_records=8000, num_ops=10, threads=4,
                                 seed=11)),
        max_events=50_000_000,
    )
    (point,) = sweep.points()
    assert point.experiment == direct
    assert point.experiment.spec_hash() == direct.spec_hash()
