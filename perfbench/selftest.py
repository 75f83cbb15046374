#!/usr/bin/env python3
"""Fast self-tests of the benchmark itself (about ten seconds).

Run from the repository root::

    python3 perfbench/selftest.py

They check that the benchmark measures what it claims: its grid is the
paper grid, its metric lists match ``BENCHMARK.json``, a tampered golden
makes a check fail, traced runs leave simulated counts untouched and
repeat their call counts exactly, and a directory without the program
makes it fail without printing a result.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import specs  # noqa: E402
from spans import Spans  # noqa: E402


def scratch() -> str:
    os.makedirs(os.path.join(ROOT, run.WORK_DIR), exist_ok=True)
    return tempfile.mkdtemp(dir=os.path.join(ROOT, run.WORK_DIR))


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.goldens = specs.load_goldens()
        cls.work = scratch()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def tampered(self, section, key):
        goldens = copy.deepcopy(self.goldens)
        goldens[section][key] = "0" * 64
        return goldens

    # -- the inputs ------------------------------------------------------ #

    def test_grid_is_the_paper_grid_at_the_default_seed(self):
        from repro.api.sweep import CAMPAIGNS

        ours = specs.grid_campaign(specs.DEFAULT_SEED).points()
        theirs = CAMPAIGNS["paper-grid"]().points()
        self.assertEqual(
            [(p.name, p.experiment.spec_hash()) for p in ours],
            [(p.name, p.experiment.spec_hash()) for p in theirs])

    def test_seed_reaches_ycsb_but_not_tpch(self):
        a = specs.grid_campaign(1).points()
        b = specs.grid_campaign(2).points()
        for p, q in zip(a, b):
            same = p.experiment.spec_hash() == q.experiment.spec_hash()
            self.assertEqual(same, p.sweep == "tpch", p.name)

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            bench = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        metrics = bench["end_to_end"] + bench["per_layer"]
        for m in metrics:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in bench["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    # -- correctness checks ---------------------------------------------- #

    def test_grid_cold_point_golden(self):
        wl = run.GridCold(specs.DEFAULT_SEED, self.work, self.goldens)
        wl.setup()
        tampered = self.tampered("points", wl.hashes[0])
        for goldens, expect in ((self.goldens, True), (tampered, False)):
            wl.goldens = goldens
            wl.reset()
            wl.begin_round()
            ok, events = wl.check(0, wl.op(0))
            self.assertEqual(ok, expect)
            self.assertGreater(events, 0)
        wl.finish()

    def test_fuzz_golden(self):
        op_seed = specs.fuzz_op_seed(specs.DEFAULT_SEED, 0)
        self.assertIn(str(op_seed), self.goldens["fuzz"])
        for goldens, expect in (
                (self.goldens, True),
                (self.tampered("fuzz", str(op_seed)), False)):
            wl = run.Fuzz(specs.DEFAULT_SEED, self.work, goldens)
            wl.reset()
            wl.begin_round()
            ok, _events = wl.check(0, wl.op(0))
            self.assertEqual(ok, expect)

    def test_grid_warm_replay_and_goldens(self):
        wl = run.GridWarm(specs.DEFAULT_SEED, self.work, self.goldens)
        wl.setup()
        outcome = wl.op(0)
        self.assertEqual(wl.check(0, outcome), (True, wl.events))
        self.assertTrue(wl.finish())
        dispatched, failed, digest, report = outcome
        self.assertFalse(wl.check(0, (dispatched, failed, digest,
                                      report + " "))[0])
        self.assertFalse(wl.check(0, (1, failed, digest, report))[0])
        wl.goldens = self.tampered("warm_campaign", str(specs.DEFAULT_SEED))
        self.assertFalse(wl.finish())

    # -- tracing --------------------------------------------------------- #

    def traced(self, wl, ops):
        spans = Spans(profile=True)
        spans.install()
        try:
            phase = run.measure(wl, rounds=1, limit=ops, spans=spans)
        finally:
            spans.uninstall()
        self.assertEqual((phase.failed, phase.ok), (0, True))
        calls = {k: v for k, v in spans.profile_metrics().items()
                 if k.startswith("calls_per_event.")}
        return run.simulated_metrics(wl.results()), calls, spans

    def check_tracing(self, wl, ops):
        run.measure(wl, rounds=1, limit=ops)
        plain = run.simulated_metrics(wl.results())
        first, calls_a, spans = self.traced(wl, ops)
        second, calls_b, _spans = self.traced(wl, ops)
        self.assertEqual(plain, first)
        self.assertEqual(first, second)
        self.assertEqual(calls_a, calls_b)
        self.assertGreater(sum(calls_a.values()), 0)
        layers = spans.layer_metrics()
        self.assertLess(layers["trace.uncovered_ms"],
                        0.05 * layers["trace.op_ms"])

    def test_tracing_is_neutral_and_repeats_on_grid_cold(self):
        wl = run.GridCold(specs.DEFAULT_SEED, self.work, self.goldens)
        wl.setup()
        self.check_tracing(wl, 3)

    def test_tracing_is_neutral_and_repeats_on_fuzz(self):
        self.check_tracing(run.Fuzz(3, self.work, self.goldens), 4)

    def test_untraced_run_installs_nothing(self):
        from repro.api.experiment import Experiment
        from repro.system.builder import System

        before = (Experiment.spec_hash, System.run)
        spans = Spans()
        spans.install()
        self.assertIsNot(Experiment.spec_hash, before[0])
        spans.uninstall()
        self.assertEqual((Experiment.spec_hash, System.run), before)

    # -- the command ----------------------------------------------------- #

    def test_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 90), 90.1)
        for name, q in run.TAIL_PERCENTILE.items():
            size = run.WORKLOAD_CLASSES[name].size
            self.assertGreaterEqual(size * (100 - q) / 100, 10)

    def test_fails_without_the_program(self):
        bare = scratch()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fuzz",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
