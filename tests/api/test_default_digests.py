"""Every pinned result digest, checked by value.

The MSHR/burst subsystem (and anything after it) must leave the default
configuration's simulated behavior untouched: no knobs set means the
legacy 8-entry L1 / 64-entry LLC MSHR files with coalescing, no burst
fusion, and no extra stats keys.  The digest-gate pins below were
captured from the seed kernel; ``_PINNED_CONFIGS`` adds larger points
and two ycsb-c twins that turn the MSHR stats and open-loop traffic on.
A change here means the simulated behavior shifted and every stored
campaign silently re-baselined with it.  If a change is *intentional*,
re-capture with::

    PYTHONPATH=src python -m pytest tests/api/test_default_digests.py \
        --no-header -q  # the failure message prints the new digest
"""

import pytest

from repro.api.backends import execute_experiment
from repro.api.experiment import Experiment
from repro.system.simulation import result_digest

_YCSB_DIGESTS = {
    "naive": "0f5d29503e9411fc04aba88d75a470cdde637d4e6cb6a9ac80a6a19015ce3c53",
    "sw-flush": "aaf7a89639e40f43d566a616a0c3d7dd2e3f268a056a43c85fea940be174fef7",
    "atomic": "4a28c071dca0aafb6b259bdfaf714417065c92747fededaba00f806ebad45cf0",
    "store": "d0f5651c2e54eec224bd586af122b0e5b769dec3b5effbae004214513eceabee",
    "scope": "d0f5651c2e54eec224bd586af122b0e5b769dec3b5effbae004214513eceabee",
    # Re-captured when the LLC flush point learned to drain in-flight
    # same-scope fetches (a fuzzer-found stale-read race): scope-relaxed
    # fences now wait out racing cross-core record fetches.
    "scope-relaxed":
        "4cdddcfbc47bf55ca35ec610d63dc1edc64f466a5024700ce8f2361dcf5f0695",
}

_TPCH_DIGEST = \
    "54e1baa0b9483eb117dada27f4ac4033145988be2d259f10f9ca0d59477f834f"
_LITMUS_DIGEST = \
    "d0b5f233d1727dfe219f50c5f9ed30ae0f744996badf40bce71eef50c8d6eb08"

#: Event budget of every gate below that set none before: a livelock
#: fails the run at the budget instead of hanging tier-1.  The largest
#: pinned run takes 127,695 events (ycsb-c-8core); result digests do not
#: include the budget.
PINNED_MAX_EVENTS = 1_000_000

#: Name -> (spec, digest).  ``tpch-q6`` is left out: its spec is the
#: TPC-H gate's below except for ``variant``, and its digest is
#: ``_TPCH_DIGEST``.
#: ``ycsb-mix`` was re-pinned after the LLC flush-race fix; the other five
#: configs the seed kernel measured still produce the seed kernel's digests.
_PINNED_CONFIGS = {
    "ycsb-c": ({
        "workload": "ycsb",
        "params": {"num_ops": 60, "num_records": 8000, "scan_fraction": 1.0,
                   "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 4},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "e5d8bb9923f4fb9cf042e1e8884d9e0404e96ca19682aeb85765f206f370ccea"),
    "ycsb-mix": ({
        "workload": "ycsb",
        "params": {"num_ops": 40, "num_records": 4000, "seed": 7},
        "config": {"preset": "scaled", "model": "scope-relaxed",
                   "num_scopes": 8},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "df14eabe7dd983ff6e8c1f8f80fa8d31fb687eb840e6281b9d400731b5acf0a9"),
    "litmus": ({
        "workload": "litmus",
        "params": {"rounds": 50, "threads": 4},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 4},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "cf5b08b2edc1e2494901668313444c4cea1b065e6ef9da60a5dc32aca8aa3362"),
    "ycsb-c-8core": ({
        "workload": "ycsb",
        "params": {"num_ops": 64, "num_records": 16000,
                   "scan_fraction": 1.0, "threads": 8, "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 8,
                   "cores": {"num_cores": 8}},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "b3e20557537e0e1f9392d44e6e53c501d222ebfcd5ff11a7b65b4ad19585178a"),
    "tpch-q6-sf2": ({
        "workload": "tpch",
        "params": {"query": "q6", "scale": 0.03125, "threads": 6},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 64},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "524dbf5633dbbac80a028271466b4c5ae7f01c09d23b0c147b5fb9fda896d96d"),
    # ycsb-c with the MSHR knobs explicitly on: the same simulation plus
    # the mshr_* stats (tests/memory/test_mshr.py compares the two).
    "ycsb-c-mshr8": ({
        "workload": "ycsb",
        "params": {"num_ops": 60, "num_records": 8000, "scan_fraction": 1.0,
                   "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 4,
                   "l1": {"mshr_entries": 8},
                   "llc": {"mshr_entries": 64}},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "a2593bf4ee224110e9cc01c76dc393b7814ef83c19b7518888ba23b220e6e7bc"),
    # ycsb-c driven open-loop near its saturation knee: pins the
    # admission-queue path and the whole traffic stats group.
    "ycsb-c-openloop": ({
        "workload": "ycsb",
        "params": {"num_ops": 60, "num_records": 8000, "scan_fraction": 1.0,
                   "seed": 7},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 4,
                   "traffic": {"arrival": "poisson", "offered_load": 0.3,
                               "queue_depth": 16}},
        "variant": "perf",
        "max_events": PINNED_MAX_EVENTS,
    }, "bc9d76728d2dad336d7c1e9d50b1a5e2e55de1d06a00faa92eeb771e7d64513f"),
}


def _digest(spec):
    res = execute_experiment(Experiment.from_dict(spec))
    return result_digest({
        "run_time": res.run_time,
        "events": res.events,
        "stale_reads": res.stale_reads,
        "stats": res.stats,
    })


@pytest.mark.parametrize("model", sorted(_YCSB_DIGESTS))
def test_ycsb_default_digest_matches_seed(model):
    digest = _digest({
        "workload": "ycsb",
        "params": {"num_records": 8000, "num_ops": 10, "threads": 4,
                   "seed": 11},
        "config": {"preset": "scaled", "model": model, "num_scopes": 4},
        "variant": "digest-gate",
        "max_events": 50_000_000,
    })
    assert digest == _YCSB_DIGESTS[model]


def test_tpch_default_digest_matches_seed():
    digest = _digest({
        "workload": "tpch",
        "params": {"query": "q6", "scale": 0.015625},
        "config": {"preset": "scaled", "model": "scope", "num_scopes": 32},
        "variant": "digest-gate",
        "max_events": PINNED_MAX_EVENTS,
    })
    assert digest == _TPCH_DIGEST


def test_litmus_default_digest_matches_seed():
    digest = _digest({
        "workload": "litmus",
        "params": {"rounds": 10, "threads": 4},
        "config": {"preset": "scaled", "model": "atomic", "num_scopes": 4},
        "variant": "digest-gate",
        "max_events": PINNED_MAX_EVENTS,
    })
    assert digest == _LITMUS_DIGEST


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_pinned_config_digest(name):
    spec, digest = _PINNED_CONFIGS[name]
    assert _digest(spec) == digest
