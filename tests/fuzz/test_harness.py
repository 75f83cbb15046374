"""The fuzz_run orchestration: determinism, corpus, replay, self-test."""

import json

import pytest

from repro.api.store import ResultStore
from repro.core.litmus import LitmusExecutor
from repro.fuzz.corpus import FuzzCorpus
from repro.fuzz.harness import fuzz_run, replay_corpus

SEED = 7
PROGRAMS = 3


@pytest.fixture(scope="module")
def banked(tmp_path_factory):
    """One serial fuzz run banked into a store (shared by the tests)."""
    root = tmp_path_factory.mktemp("fuzz-store")
    store = ResultStore(root)
    report = fuzz_run(seed=SEED, programs=PROGRAMS, store=store,
                      corpus_root=store.root)
    return store, report


def test_run_is_clean_and_banks_survivors(banked):
    store, report = banked
    assert report["violations"] == []
    assert report["clean_programs"] == PROGRAMS
    assert report["corpus_added"] == PROGRAMS
    assert len(FuzzCorpus(store.root)) == PROGRAMS
    # Controls demonstrably violate on this batch.
    assert report["controls_cyclic"]["naive"] > 0
    assert report["controls_cyclic"]["sw-flush"] > 0
    # Timing leg: stale reads only on the two baselines.
    stale = report["timing"]["stale_reads"]
    for model in ("atomic", "store", "scope", "scope-relaxed"):
        assert stale[model] == 0
    assert stale["naive"] + stale["sw-flush"] > 0


def test_report_is_byte_identical_across_backends(banked, tmp_path):
    _store, serial_report = banked
    pool_store = ResultStore(tmp_path / "pool-store")
    pool_report = fuzz_run(seed=SEED, programs=PROGRAMS, jobs=2,
                           store=pool_store, corpus_root=pool_store.root)
    as_bytes = lambda r: json.dumps(r, indent=2, sort_keys=True)
    assert as_bytes(serial_report) == as_bytes(pool_report)


def test_replay_passes_then_catches_tampering(banked):
    store, _report = banked
    assert replay_corpus(store.root, store=store)["mismatches"] == {}

    corpus = FuzzCorpus(store.root)
    entry = next(corpus.entries())
    leg = next(iter(entry["fingerprints"]))
    entry["fingerprints"][leg] = "0" * 16
    corpus.add(entry)
    try:
        mismatches = replay_corpus(store.root, store=store,
                                   timing=False)["mismatches"]
        assert entry["digest"] in mismatches
        assert any(leg in line for line in mismatches[entry["digest"]])
    finally:
        # Re-banking the same seed repairs the tampered entry in place.
        report = fuzz_run(seed=SEED, programs=PROGRAMS, store=store,
                          corpus_root=store.root)
        assert report["violations"] == []


def test_weakened_run_produces_shrunk_repros_and_no_corpus(tmp_path):
    store = ResultStore(tmp_path / "weak-store")
    report = fuzz_run(seed=SEED, programs=2, store=store,
                      corpus_root=store.root, timing=False,
                      weaken="no-atomic-flush")
    assert report["violations"], "weakened mechanism went undetected"
    for violation in report["violations"]:
        assert violation["op_count"] <= 8
        assert violation["invariant"] in ("value-conservation", "hb-cycle")
    assert report["corpus_added"] == 0
    corpus = FuzzCorpus(store.root)
    assert len(corpus) == 0
    repros = list(corpus.repros())
    assert repros
    assert all(r["schema"] == "repro-fuzz-repro/1" for r in repros)


def test_unknown_weaken_mode_is_rejected():
    with pytest.raises(ValueError, match="weaken"):
        fuzz_run(seed=1, programs=1, weaken="nonesuch")


def test_each_distinct_executor_input_is_searched_once(tmp_path,
                                                        monkeypatch):
    """Per program at most 5 in-order searches (naive, sw-flush, atomic
    = store = scope, scope-relaxed, uncacheable) plus the 4 reorder
    legs; the corpus fingerprints reuse the checks' outcome sets."""
    searches = []
    search = LitmusExecutor.outcomes

    def counted(executor):
        searches.append(executor)
        return search(executor)

    monkeypatch.setattr(LitmusExecutor, "outcomes", counted)
    report = fuzz_run(seed=SEED, programs=PROGRAMS,
                      corpus_root=str(tmp_path), timing=False)
    assert report["corpus_added"] == PROGRAMS
    assert len(searches) <= 9 * PROGRAMS

    searches.clear()
    replay = replay_corpus(str(tmp_path), timing=False)
    assert replay["entries"] == PROGRAMS and replay["mismatches"] == {}
    assert len(searches) <= 9 * PROGRAMS
