#!/usr/bin/env python3
"""Capture the benchmark's golden digests from the current code.

Run from the repository root (about seven minutes)::

    python3 perfbench/capture_goldens.py

It writes ``perfbench/goldens.json``: the digest of every grid-cold
point (keyed by spec hash, so seed-free TPC-H points are checked at any
seed), the grid-cold and grid-warm campaign digests and the warm report
hash per captured seed, and the fuzz report digest of each captured fuzz
op.  Before writing it cross-checks two pins the repository already
has: the paper-grid digest in EXPERIMENTS.md (the grid-cold campaign at
the default seed) and the default-configuration digests of
``tests/api/test_default_digests.py`` (re-computed with the benchmark's
own digest function).  Recapture only when a change is meant to alter
simulated results.
"""

import hashlib
import importlib.util
import json
import os
import re
import shutil
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import specs  # noqa: E402

#: Seeds with goldens: the default, the held-out seed and a small range.
SEEDS = sorted({specs.DEFAULT_SEED, specs.HELD_OUT_SEED, *range(0, 11)})


def default_digest_pins():
    """Check the benchmark's digest function against the tier-1 pins."""
    from repro.api.backends import execute_experiment
    from repro.api.experiment import Experiment

    path = os.path.join(ROOT, "tests", "api", "test_default_digests.py")
    spec = importlib.util.spec_from_file_location("default_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pinned = [({"workload": "ycsb",
                "params": {"num_records": 8000, "num_ops": 10, "threads": 4,
                           "seed": 11},
                "config": {"preset": "scaled", "model": model,
                           "num_scopes": 4},
                "variant": "digest-gate", "max_events": 50_000_000}, digest)
              for model, digest in module._YCSB_DIGESTS.items()]
    pinned.append(({"workload": "tpch",
                    "params": {"query": "q6", "scale": 0.015625},
                    "config": {"preset": "scaled", "model": "scope",
                               "num_scopes": 32},
                    "variant": "digest-gate"}, module._TPCH_DIGEST))
    pinned.append(({"workload": "litmus",
                    "params": {"rounds": 10, "threads": 4},
                    "config": {"preset": "scaled", "model": "atomic",
                               "num_scopes": 4},
                    "variant": "digest-gate"}, module._LITMUS_DIGEST))
    for data, digest in pinned:
        experiment = Experiment.from_dict(data)
        got = specs.point_digest(execute_experiment(experiment))
        if got != digest:
            raise SystemExit(f"digest function disagrees with the pin for "
                             f"{data}: {got} != {digest}")
    print(f"{len(pinned)} default-digest pins reproduced")


def main() -> int:
    goldens = {"points": {}, "cold_campaign": {}, "warm_campaign": {},
               "warm_report": {}, "fuzz": {}}
    empty = {key: {} for key in goldens}
    default_digest_pins()
    os.makedirs(os.path.join(ROOT, run.WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, run.WORK_DIR))
    try:
        for seed in SEEDS:
            cold = run.GridCold(seed, work, empty)
            cold.setup()
            cold.reset()
            cold.begin_round()
            for index in range(cold.size):
                result, error = cold.op(index)
                if error is not None:
                    raise SystemExit(f"point {index} failed:\n{error}")
                cold.check(index, (result, error))
                goldens["points"][cold.hashes[index]] = \
                    specs.point_digest(result)
            goldens["cold_campaign"][str(seed)] = cold.campaign_digest()

            warm = run.GridWarm(seed, work, empty)
            warm.setup()
            goldens["warm_campaign"][str(seed)] = warm.digest
            goldens["warm_report"][str(seed)] = hashlib.sha256(
                warm.report.encode("utf-8")).hexdigest()

            fuzz = run.Fuzz(seed, work, empty)
            fuzz.reset()
            fuzz.begin_round()
            for index in range(fuzz.size):
                report = fuzz.op(index)
                if report["violations"]:
                    raise SystemExit(f"fuzz op {index} violated")
                goldens["fuzz"][str(specs.fuzz_op_seed(seed, index))] = \
                    report["digest"]
            print(f"seed {seed}: cold {goldens['cold_campaign'][str(seed)]}"
                  f" warm {warm.digest}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as f:
        pinned = re.search(r"Campaign `paper-grid`.*?Result digest: `(\w+)`",
                           f.read(), re.S).group(1)
    if goldens["cold_campaign"][str(specs.DEFAULT_SEED)] != pinned:
        raise SystemExit("grid-cold at the default seed does not reproduce "
                         f"the paper-grid digest {pinned} of EXPERIMENTS.md")
    with open(specs.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {specs.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
