"""The persistent result store: layout, integrity, Runner tiering."""

import cProfile
import itertools
import json
import os
import pstats

import pytest

import repro.sim.config as sim_config
from helpers import CountingBackend, read_entry, write_entry
from repro.api import (Campaign, Experiment, ResultStore, Runner,
                       SerialBackend, get_campaign, run_campaign)
from repro.api.backends import ProcessPoolBackend, execute_experiment
from repro.api.store import STORE_SCHEMA, code_fingerprint
from repro.sim.config import TraceConfig
from repro.system.simulation import (
    RESULT_SCHEMA,
    SimulationResult,
    canonical_json,
    result_digest,
)

#: A litmus point small enough that every test simulates in milliseconds.
LITMUS = {
    "workload": "litmus",
    "params": {"rounds": 2, "threads": 2},
    "config": {"preset": "scaled", "num_scopes": 2},
    "max_events": 10_000_000,
}


def _experiment(**overrides) -> Experiment:
    spec = dict(LITMUS, **overrides)
    return Experiment.from_dict(spec)


@pytest.fixture(scope="module")
def litmus_result():
    """One simulated result the read-path tests share."""
    return execute_experiment(_experiment())


# --------------------------------------------------------------------- #
# serialization round trip
# --------------------------------------------------------------------- #


def test_result_dict_round_trip_is_exact(litmus_result):
    data = json.loads(json.dumps(litmus_result.to_dict()))
    assert data["schema"] == RESULT_SCHEMA
    clone = SimulationResult.from_dict(data)
    assert clone.config == litmus_result.config
    assert clone.run_time == litmus_result.run_time
    assert clone.stale_reads == litmus_result.stale_reads
    assert clone.events == litmus_result.events
    assert clone.stats == litmus_result.stats


def test_from_dict_round_trips_equal(litmus_result):
    """`from_dict(to_dict(r)) == r`, traced or not, and with the config
    passed in; the rebuilt result keeps the parsed stats groups."""
    traced = execute_experiment(
        _experiment(), trace=TraceConfig(enabled=True, ring_size=0))
    assert traced.obs is not None
    for result in (litmus_result, traced):
        data = json.loads(canonical_json(result.to_dict()))
        assert SimulationResult.from_dict(data) == result
        clone = SimulationResult.from_dict(data, result.config)
        assert clone == result and clone.config is result.config
        assert clone.stats is data["stats"]


def test_from_dict_rejects_foreign_schema(litmus_result):
    data = litmus_result.to_dict()
    with pytest.raises(ValueError, match="unsupported result schema"):
        SimulationResult.from_dict(dict(data, schema="repro-result/999"))
    # a missing tag is accepted (campaign artifacts predating the tag)
    legacy = {k: v for k, v in data.items() if k != "schema"}
    assert SimulationResult.from_dict(legacy).stats == litmus_result.stats


# --------------------------------------------------------------------- #
# store layout and integrity
# --------------------------------------------------------------------- #


def test_put_get_round_trip_and_layout(tmp_path, litmus_result):
    store = ResultStore(str(tmp_path))
    exp = _experiment()
    spec_hash = exp.spec_hash()
    path = store.put(spec_hash, litmus_result, exp)

    key = store.key(spec_hash)
    assert len(key) == 40
    assert path == os.path.join(str(tmp_path), key[:2], f"{key}.json")
    assert os.path.exists(path)
    # no temp files survive an atomic write
    assert not [f for f in os.listdir(os.path.dirname(path))
                if f.startswith(".tmp-")]

    hit = store.get(spec_hash)
    assert hit is not None
    assert hit.stats == litmus_result.stats
    assert hit.config == litmus_result.config
    assert spec_hash in store
    assert store.get("no-such-spec") is None

    # three lines: a small header, the canonical payload, the spec
    with open(path, "rb") as handle:
        header_line, result_line, spec_line = handle.read().splitlines()
    header = json.loads(header_line)
    assert sorted(header) == ["fingerprint", "result_sha256", "schema",
                              "spec_hash"]
    assert header["schema"] == STORE_SCHEMA
    assert header["spec_hash"] == spec_hash
    assert header["fingerprint"] == code_fingerprint()
    assert result_line == canonical_json(litmus_result.to_dict())
    assert Experiment.from_dict(json.loads(spec_line)) == exp


def test_key_depends_on_fingerprint(tmp_path):
    a = ResultStore(str(tmp_path), fingerprint="kernel-a")
    b = ResultStore(str(tmp_path), fingerprint="kernel-b")
    assert a.key("feedc0ffee") != b.key("feedc0ffee")


def test_stale_fingerprint_is_never_served(tmp_path, litmus_result):
    exp = _experiment()
    old = ResultStore(str(tmp_path), fingerprint="old-kernel")
    old.put(exp.spec_hash(), litmus_result, exp)
    assert old.get(exp.spec_hash()) is not None
    # the same directory under the current kernel misses entirely
    new = ResultStore(str(tmp_path))
    assert new.get(exp.spec_hash()) is None
    assert exp.spec_hash() not in new


def test_corrupt_entries_read_as_misses(tmp_path, litmus_result):
    store = ResultStore(str(tmp_path))
    exp = _experiment()
    path = store.put(exp.spec_hash(), litmus_result, exp)

    # tampered statistics: digest verification fails -> miss
    header, result, spec = read_entry(path)
    result["run_time"] += 1
    write_entry(path, header, result, spec)
    assert store.get(exp.spec_hash()) is None

    # torn write: a header cut short -> miss, not an exception
    with open(path, "w") as handle:
        handle.write("{\"fingerprint\":\"")
    assert store.get(exp.spec_hash()) is None

    # foreign file at the right address -> miss
    with open(path, "w") as handle:
        handle.write(json.dumps({"schema": "not-a-store-entry"}))
    assert store.get(exp.spec_hash()) is None


def test_corrupt_entry_is_quarantined_on_read(tmp_path, litmus_result,
                                              caplog):
    """A digest-mismatch entry self-heals: the read moves it aside to
    quarantine/, logs one warning, and frees the address for a rewrite."""
    import logging

    store = ResultStore(str(tmp_path))
    exp = _experiment()
    path = store.put(exp.spec_hash(), litmus_result, exp)
    header, result, spec = read_entry(path)
    result["run_time"] += 1
    write_entry(path, header, result, spec)

    with caplog.at_level(logging.WARNING, logger="repro.store"):
        assert store.get(exp.spec_hash()) is None
    assert not os.path.exists(path)  # moved, not copied
    quarantined = os.listdir(os.path.join(str(tmp_path), "quarantine"))
    assert quarantined == [os.path.basename(path)]
    assert store.stats()["quarantined"] == 1
    warnings = [r for r in caplog.records if "quarantined" in r.message]
    assert len(warnings) == 1
    assert exp.spec_hash() in warnings[0].getMessage()
    assert store.fingerprint in warnings[0].getMessage()

    # quarantine is outside the addressable tree: verify stays clean,
    # and a re-run repairs the address
    assert store.verify() == []
    store.put(exp.spec_hash(), litmus_result, exp)
    assert store.get(exp.spec_hash()) is not None
    assert store.stats()["entries"] == 1

    # a torn header and a foreign schema are misses but NOT quarantined
    # (nothing trustworthy to preserve, and tmp files must not move)
    with open(path, "rb") as handle:
        intact = handle.read()
    newline = intact.index(b"\n")
    with open(path, "wb") as handle:  # the header loses its closing brace
        handle.write(intact[:newline - 1] + intact[newline:])
    assert store.get(exp.spec_hash()) is None
    with open(path, "wb") as handle:
        handle.write(intact.replace(STORE_SCHEMA.encode(), b"foreign/1"))
    assert store.get(exp.spec_hash()) is None
    assert store.stats()["quarantined"] == 1
    assert os.path.exists(path)


def test_prune_by_fingerprint(tmp_path, litmus_result):
    """`store prune --fingerprint FP` garbage-collects exactly one
    engine generation."""
    store = ResultStore(str(tmp_path))
    old = ResultStore(str(tmp_path), fingerprint="old-kernel")
    ancient = ResultStore(str(tmp_path), fingerprint="ancient-kernel")
    exps = [_experiment(variant=f"v{i}") for i in range(3)]
    store.put(exps[0].spec_hash(), litmus_result, exps[0])
    old.put(exps[1].spec_hash(), litmus_result, exps[1])
    ancient.put(exps[2].spec_hash(), litmus_result, exps[2])

    candidates = store.prune_candidates(fingerprint="old-kernel")
    assert [c.fingerprint for c in candidates] == ["old-kernel"]
    assert store.prune(fingerprint="old-kernel") == 1
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["by_fingerprint"] == {store.fingerprint: 1,
                                       "ancient-kernel": 1}
    # the current fingerprint can be named too (full rebuild)
    assert store.prune(fingerprint=store.fingerprint) == 1
    assert store.get(exps[0].spec_hash()) is None


def test_verify_reports_each_defect(tmp_path, litmus_result):
    store = ResultStore(str(tmp_path))
    exp = _experiment()
    good_path = store.put(exp.spec_hash(), litmus_result, exp)
    assert store.verify() == []

    # stale-but-intact entries of another kernel still verify clean
    ResultStore(str(tmp_path), fingerprint="old-kernel").put(
        exp.spec_hash(), litmus_result, exp)
    assert store.verify() == []

    # a tampered payload and a misplaced copy are both flagged
    header, result, spec = read_entry(good_path)
    result["events"] += 7
    bad_path = os.path.join(os.path.dirname(good_path), "0" * 40 + ".json")
    write_entry(bad_path, header, result, spec)
    problems = dict(store.verify())
    assert problems[bad_path] == "result digest mismatch"

    result["events"] -= 7  # intact content, wrong address
    write_entry(bad_path, header, result, spec)
    problems = dict(store.verify())
    assert problems[bad_path] == "entry at wrong address"


def test_stats_and_prune(tmp_path, litmus_result):
    store = ResultStore(str(tmp_path))
    old = ResultStore(str(tmp_path), fingerprint="old-kernel")
    exps = [_experiment(variant=f"v{i}") for i in range(3)]
    for exp in exps[:2]:
        store.put(exp.spec_hash(), litmus_result, exp)
    old.put(exps[2].spec_hash(), litmus_result, exps[2])

    stats = store.stats()
    assert stats["entries"] == 3
    assert stats["current_entries"] == 2
    assert stats["stale_entries"] == 1
    assert stats["by_fingerprint"] == {store.fingerprint: 2,
                                       "old-kernel": 1}
    assert stats["size_bytes"] > 0

    # nothing selected -> nothing removed
    assert store.prune() == 0
    # stale-only prune drops exactly the old kernel's entry
    assert store.prune(stale=True) == 1
    assert store.stats()["entries"] == 2
    assert store.get(exps[0].spec_hash()) is not None

    # age-based prune via file mtimes
    target = store.path(exps[0].spec_hash())
    week_ago = os.stat(target).st_mtime - 8 * 86400
    os.utime(target, (week_ago, week_ago))
    assert store.prune(max_age_days=7) == 1
    assert store.get(exps[0].spec_hash()) is None
    assert store.get(exps[1].spec_hash()) is not None


def test_v1_entry_is_a_stale_miss(tmp_path, litmus_result):
    """An entry of the one-document layout this one replaced, at the
    current address with the current fingerprint and a valid digest, is
    not an entry: a read misses without quarantining it, `stats` counts
    it stale, `prune --stale` removes it and the address takes a new
    entry."""
    store = ResultStore(str(tmp_path))
    exp = _experiment()
    spec_hash = exp.spec_hash()
    payload = litmus_result.to_dict()
    v1 = {
        "schema": "repro-store-entry/1",
        "spec_hash": spec_hash,
        "fingerprint": store.fingerprint,
        "experiment": exp.to_dict(),
        "result": payload,
        "result_sha256": result_digest(payload),
    }
    path = store.path(spec_hash)
    os.makedirs(os.path.dirname(path))
    # as v1 wrote it, and on one line (a parseable first line)
    for text in (json.dumps(v1, indent=1, sort_keys=True) + "\n",
                 json.dumps(v1)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert store.get(spec_hash) is None
        assert os.path.exists(path)  # a miss, not quarantined
        stats = store.stats()
        assert (stats["entries"], stats["current_entries"],
                stats["stale_entries"], stats["quarantined"]) == (1, 0, 1, 0)
        assert store.verify() == [(path, "not a store entry")]

    assert store.prune(stale=True) == 1
    assert not os.path.exists(path)
    assert store.verify() == []
    store.put(spec_hash, litmus_result, exp)
    assert store.get(spec_hash).stats == litmus_result.stats


def test_every_header_records_the_result_digest(tmp_path):
    """The header's sha256 is `result_digest` of the stored result, so
    every digest keeps its value across the layout change."""
    store = ResultStore(str(tmp_path))
    exps = [_experiment(config=dict(LITMUS["config"], model=model))
            for model in ("naive", "atomic")]
    results = Runner(store=store).run_all(exps)
    for exp, result in zip(exps, results):
        header = read_entry(store.path(exp.spec_hash()))[0]
        assert header["result_sha256"] == result_digest(result.to_dict())
        assert header["result_sha256"] == \
            result_digest(store.get(exp.spec_hash()).to_dict())
    assert sorted(e.spec_hash for e in store.entries()) == \
        sorted(e.spec_hash() for e in exps)


def test_warm_get_encodes_nothing_and_put_encodes_the_payload_once(
        tmp_path, litmus_result, monkeypatch):
    """Counts JSON encoder calls; times nothing.  `result_digest`
    encodes too, so a call to it anywhere would be counted."""
    exp = _experiment()
    spec_hash = exp.spec_hash()
    encoded = []
    iterencode = json.JSONEncoder.iterencode

    def counting_iterencode(self, o, *args, **kwargs):
        encoded.append(o)
        return iterencode(self, o, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
    store = ResultStore(str(tmp_path))
    store.put(spec_hash, litmus_result, exp)
    payload = litmus_result.to_dict()
    # the payload alone, or nested in a document that holds it
    assert sum(o == payload or (isinstance(o, dict) and payload in o.values())
               for o in encoded) == 1

    encoded.clear()
    hit = store.get(spec_hash)
    assert hit is not None and hit.stats == litmus_result.stats
    assert encoded == []


def test_corpus_files_keep_their_bytes(tmp_path):
    """`atomic_write_json`, which the fuzz corpus writes through, gives
    the bytes of `json.dump(..., indent=1, sort_keys=True)` and a
    newline."""
    import io

    from repro.api.store import atomic_write_json
    from repro.fuzz.corpus import FuzzCorpus, corpus_entry
    from repro.fuzz.generate import generate_batch

    entry = corpus_entry(generate_batch(seed=7, count=1)[0])
    documents = [
        (FuzzCorpus(str(tmp_path)).add(entry), entry),
        (atomic_write_json(str(tmp_path / "doc.json"),
                           {"b": [1, 2.5, None, True], "a": "caf\u00e9\n"}),
         {"b": [1, 2.5, None, True], "a": "caf\u00e9\n"}),
    ]
    for path, document in documents:
        expected = io.StringIO()
        json.dump(document, expected, indent=1, sort_keys=True)
        expected.write("\n")
        with open(path, "rb") as handle:
            assert handle.read() == expected.getvalue().encode("utf-8")


def test_put_makes_a_shard_directory_only_when_it_is_missing(
        tmp_path, litmus_result, monkeypatch):
    """The first put into a fresh root creates the root and its shard; a
    second put into that shard makes no `mkdir` call."""
    made = []
    mkdir = os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(os.fspath(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    store = ResultStore(str(tmp_path / "fresh"))
    exp = _experiment()
    path = store.put(exp.spec_hash(), litmus_result, exp)
    shard = os.path.dirname(path)
    assert made == [store.root, shard]

    made.clear()
    neighbour = next(h for h in (f"spec-{i}" for i in itertools.count())
                     if store.key(h)[:2] == os.path.basename(shard))
    assert os.path.dirname(store.put(neighbour, litmus_result)) == shard
    assert made == []
    assert store.get(neighbour).stats == litmus_result.stats


def test_concurrent_writers_last_rename_wins(tmp_path, litmus_result):
    """Two writers racing on one key leave exactly one valid entry."""
    exp = _experiment()
    a = ResultStore(str(tmp_path))
    b = ResultStore(str(tmp_path))
    a.put(exp.spec_hash(), litmus_result, exp)
    b.put(exp.spec_hash(), litmus_result, exp)
    shard = os.path.dirname(a.path(exp.spec_hash()))
    assert len(os.listdir(shard)) == 1
    assert a.get(exp.spec_hash()).stats == litmus_result.stats


def test_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert ResultStore.from_env() is None
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    store = ResultStore.from_env()
    assert store is not None and store.root == str(tmp_path)


# --------------------------------------------------------------------- #
# Runner tiering
# --------------------------------------------------------------------- #


def test_runner_writes_back_and_new_session_hydrates(tmp_path):
    exp = _experiment()
    cold_backend = CountingBackend()
    cold = Runner(backend=cold_backend, store=ResultStore(str(tmp_path)))
    result = cold.run(exp)
    assert cold.dispatch_count == 1 and cold.store_hits == 0

    # a fresh Runner (new session) serves the point from disk
    warm_backend = CountingBackend()
    warm = Runner(backend=warm_backend, store=ResultStore(str(tmp_path)))
    hydrated = warm.run(exp)
    assert warm_backend.executed == []
    assert warm.dispatch_count == 0 and warm.store_hits == 1
    assert hydrated.stats == result.stats
    assert hydrated.run_time == result.run_time
    # ...and the hit now sits in the memory tier
    assert warm.run(exp) is hydrated
    assert warm.store_hits == 1


def test_mixed_batch_still_makes_exactly_one_dispatch(tmp_path):
    """Memory hit + store hit + genuine miss: one dispatch, misses only."""
    store = ResultStore(str(tmp_path))
    mem_exp = _experiment(variant="mem")
    disk_exp = _experiment(variant="disk")
    miss_exp = _experiment(variant="miss")

    Runner(store=store).run(disk_exp)  # populate the disk tier

    backend = CountingBackend()
    runner = Runner(backend=backend, store=store)
    runner.run(mem_exp)  # populate the memory tier
    backend.batches.clear()

    results = runner.run_all([mem_exp, disk_exp, miss_exp, disk_exp])
    assert backend.batches == [[miss_exp.spec_hash()]]
    assert [r is not None for r in results] == [True] * 4
    assert results[1].stats == results[3].stats


def test_runner_accepts_a_path_and_no_cache(tmp_path):
    """A bare directory path works, and a fresh Runner -- nothing in its
    memory cache -- is served by the store tier alone."""
    exp = _experiment()
    first = Runner(store=str(tmp_path))
    first.run(exp)
    backend = CountingBackend()
    second = Runner(backend=backend, store=str(tmp_path))
    second.run(exp)
    assert backend.executed == []
    assert second.store_hits == 1


def test_settled_write_through_serial_and_pool(tmp_path):
    """run_settled persists successes from the executing worker, on both
    backends, and never stores failures."""
    good = _experiment(variant="wt")
    bad = Experiment.from_dict(dict(
        LITMUS, variant="bad",
        params=dict(LITMUS["params"], rounds=0)))

    for jobs, label in ((1, "serial"), (2, "pool")):
        root = tmp_path / label
        backend = SerialBackend() if jobs == 1 else ProcessPoolBackend(jobs=2)
        runner = Runner(backend=backend, store=ResultStore(str(root)))
        outcomes = runner.run_settled([good, bad])
        assert outcomes[0][1] is None, label
        store = ResultStore(str(root))
        assert store.get(good.spec_hash()) is not None, label
        assert store.get(bad.spec_hash()) is None, label


def test_pool_written_store_serves_serial_sessions(tmp_path):
    """Entries written by process-pool shards hydrate a serial session:
    the store is backend-agnostic."""
    exps = [_experiment(variant=f"x{i}") for i in range(3)]
    pooled = Runner(backend=ProcessPoolBackend(jobs=2),
                    store=ResultStore(str(tmp_path)))
    pooled_out = pooled.run_settled(exps)

    backend = CountingBackend()
    serial = Runner(backend=backend, store=ResultStore(str(tmp_path)))
    serial_out = serial.run_settled(exps)
    assert backend.executed == []
    for (a, _), (b, _) in zip(pooled_out, serial_out):
        assert a.stats == b.stats and a.run_time == b.run_time


def test_prune_candidates_previews_without_removing(tmp_path, litmus_result):
    store = ResultStore(str(tmp_path))
    old = ResultStore(str(tmp_path), fingerprint="old-kernel")
    current_exp, old_exp = _experiment(), _experiment(variant="old")
    store.put(current_exp.spec_hash(), litmus_result, current_exp)
    old.put(old_exp.spec_hash(), litmus_result, old_exp)

    assert store.prune_candidates() == []
    candidates = store.prune_candidates(stale=True)
    assert [c.fingerprint for c in candidates] == ["old-kernel"]
    # preview removed nothing
    assert store.stats()["entries"] == 2
    assert store.prune(stale=True) == 1
    assert store.stats()["entries"] == 1


# --------------------------------------------------------------------- #
# reads with the request
# --------------------------------------------------------------------- #


def _cheap_paper_grid() -> Campaign:
    """paper-grid's 72 points at the cheap size perfbench's grid-warm
    replays: YCSB points scan two ops of at most 8 records, TPC-H
    queries run once."""
    data = get_campaign("paper-grid").to_dict()
    for sweep in data["sweeps"]:
        params = sweep["base"]["params"]
        if sweep["base"]["workload"] == "ycsb":
            params.update(num_ops=2, scan_fraction=1.0, max_scan_records=8)
        else:
            params["runs"] = 1
    return Campaign.from_dict(data)


def _config_from_dict_calls(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), its number of config_from_dict calls)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        out = fn(*args, **kwargs)
    finally:
        profiler.disable()
    calls = sum(nc for (filename, _line, name), (_cc, nc, *_rest)
                in pstats.Stats(profiler).stats.items()
                if name == "config_from_dict"
                and filename == sim_config.__file__)
    return out, calls


def test_warm_replay_builds_one_config_per_point(tmp_path):
    """A warm replay of the cheap paper grid makes one `config_from_dict`
    call per point, when its spec is expanded: a hit takes the
    request's config instead of rebuilding the payload's (144 calls per
    pass when every read rebuilt it).  Counts calls; times nothing."""
    campaign = _cheap_paper_grid()
    cold = run_campaign(campaign, store=str(tmp_path))
    assert len(cold.points) == 72 and not cold.failed_points

    runner = Runner(store=str(tmp_path))
    warm, calls = _config_from_dict_calls(run_campaign, campaign,
                                          runner=runner)
    assert runner.dispatch_count == 0 and runner.store_hits == 72
    assert warm.digest() == cold.digest()
    assert calls == 72


def test_a_hit_takes_the_request_config(tmp_path):
    """Every hit's config is its requesting experiment's own `config`
    object, read through the Runner or through `get` directly."""
    campaign = get_campaign("smoke")
    store = ResultStore(str(tmp_path))
    run_campaign(campaign, store=store)
    warm = run_campaign(campaign, runner=Runner(store=store))
    for point in warm.points:
        assert point.result.config is point.experiment.config
        exp = point.experiment
        assert store.get(exp.spec_hash(), exp).config is exp.config


@pytest.mark.parametrize("trace", [None, TraceConfig(enabled=True,
                                                     ring_size=0)],
                         ids=["untraced", "traced"])
def test_a_hit_equals_the_request_free_read(tmp_path, trace):
    """For every point of a stored campaign, the hit equals the read
    that rebuilds the config from the payload, and the result the cold
    run returned.  A traced run's result carries the experiment's
    config, not the trace overlay, so this holds traced too."""
    campaign = get_campaign("smoke")
    store = ResultStore(str(tmp_path))
    cold = run_campaign(campaign, store=store, trace=trace)
    assert not cold.failed_points
    for point in cold.points:
        exp = point.experiment
        hit = store.get(exp.spec_hash(), exp)
        reference = store.get(exp.spec_hash())
        assert hit.config is exp.config
        assert (hit.config, hit.run_time, hit.events, hit.stale_reads,
                hit.stats, hit.obs) == (
                    reference.config, reference.run_time, reference.events,
                    reference.stale_reads, reference.stats, reference.obs)
        assert hit == reference == point.result
        assert (hit.obs is None) == (trace is None)
