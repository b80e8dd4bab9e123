#!/usr/bin/env python3
"""Tests of the benchmark's own code: the percentile and sample-count rule,
round aggregation, self time on a hand-built span tree, and seeded inputs.

    python3 perfbench/run.py --selftest    # builds the driver, then runs these
"""

import array
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(100000), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(5), 50.0)

    def test_summarize_reports_count_and_percentile(self):
        s = stats.summarize(list(range(1000, 0, -1)))
        self.assertEqual(s, {"n": 1000, "p50": 500, "tail_q": 99.0,
                             "tail": 990})
        s = stats.summarize(list(range(500)))
        self.assertEqual((s["n"], s["tail_q"], s["tail"]), (500, 90.0, 449))


class FakeRound:
    def __init__(self, phase, samples, counters):
        self.phase = phase
        self.samples = {k: array.array("q", v) for k, v in samples.items()}
        self.counters = counters


class AggregationTest(unittest.TestCase):
    def test_median_over_rounds(self):
        rounds = [{"a": 3.0, "b": 1.0}, {"a": 1.0}, {"a": 2.0, "b": 5.0},
                  {"a": 9.0}, {"a": 4.0}, {"a": 8.0}]
        self.assertEqual(stats.aggregate_rounds(rounds), {"a": 3.5, "b": 3.0})
        self.assertEqual(stats.aggregate_rounds(rounds, min),
                         {"a": 1.0, "b": 1.0})

    def test_phase_takes_median_over_rounds(self):
        def counters(setup, rss_kb, cpu):
            return {"setup_s": setup, "peak_rss_kb": rss_kb,
                    "cpu_us_per_request": cpu}
        ms = 1000000
        rounds = [
            FakeRound("ingest", {"ingest": [i * ms for i in range(1000)]},
                      counters(1.0, 2048, 30.0)),
            FakeRound("ingest", {"ingest": [i * ms for i in range(2000)]},
                      counters(3.0, 1024, 10.0)),
            FakeRound("ingest", {"ingest": [i * ms for i in range(500)]},
                      counters(2.0, 4096, 20.0)),
            FakeRound("ingest", {"ingest": [i * ms for i in range(4000)]},
                      counters(4.0, 3072, 40.0)),
        ]
        m = run.phase_e2e(rounds)
        self.assertEqual(set(m), set(run.E2E_UNITS))
        self.assertEqual(m["p50_ms"], 749)    # of 249, 499, 999, 1999
        self.assertEqual(m["setup_s"], 2.5)
        self.assertEqual(m["peak_rss_mb"], 2.5)
        self.assertEqual(m["cpu_us_per_request"], 25.0)

    def test_requests_are_the_paths_own_sample_set(self):
        counters = {"setup_s": 1.0, "peak_rss_kb": 1024,
                    "cpu_us_per_request": 5.0}
        us = 1000
        camera = FakeRound("camera", {"frame": [3 * us] * 11,
                                      "detect": [1 * us] * 11,
                                      "behavior": [9 * us] * 2}, counters)
        self.assertEqual(run.phase_e2e([camera])["p50_ms"], 0.003)
        dash = FakeRound("dashboard", {"dash_get": [4 * us] * 9,
                                       "dash_panel": [400 * us] * 3},
                         counters)
        self.assertEqual(run.phase_e2e([dash])["p50_ms"], 0.4)

    def test_latencies_report_p50_p90_and_counted_tail(self):
        us = 1000
        rounds = [FakeRound("dashboard",
                            {"dash_get": [i * us for i in range(1, 10001)],
                             "dash_panel": [i * us for i in range(1, 101)]},
                            {})]
        m, counts = run.phase_latencies(rounds)
        self.assertEqual(m["lat.dash_get.p50_ms"], 5.0)
        self.assertEqual(m["lat.dash_get.p90_ms"], 9.0)
        self.assertEqual(m["lat.dash_get.tail_ms"], 9.9)     # p99
        self.assertEqual(m["lat.dash_panel.tail_ms"], 0.09)  # p90 of 100
        self.assertEqual(counts, {"dash_get": [(10000, 99.0)],
                                  "dash_panel": [(100, 90.0)]})


class PlanTest(unittest.TestCase):
    def test_untraced_run_spends_all_its_time_on_its_own_path(self):
        for workload, phase in run.WORKLOADS.items():
            self.assertEqual(run.plan(workload, 20.0, False),
                             {phase: (run.ROUNDS[phase],
                                      20.0 / run.ROUNDS[phase])})

    def test_traced_run_covers_every_path(self):
        for workload, own in run.WORKLOADS.items():
            paths = run.plan(workload, 20.0, True)
            self.assertEqual(set(paths), set(run.PHASES))
            self.assertAlmostEqual(sum(n * s for n, s in paths.values()), 20.0)
            self.assertAlmostEqual(paths[own][0] * paths[own][1], 10.0)
            for phase, (n, seconds) in paths.items():
                # Rounds last as long as in an untraced run, and every path
                # has an untraced and a traced round.
                self.assertEqual(seconds, 20.0 / run.ROUNDS[phase])
                self.assertGreaterEqual(n, 2)

    def test_schedule_interleaves_every_round_once(self):
        paths = run.plan("city_ingest", 20.0, True)
        order = run.schedule(paths)
        self.assertEqual(sorted(order), sorted(
            (p, i) for p, (n, _) in paths.items() for i in range(n)))
        # Each path's rounds run in index order, and no path runs all of
        # its rounds before another path has started.
        for phase in run.PHASES:
            indexes = [i for p, i in order if p == phase]
            self.assertEqual(indexes, sorted(indexes))
        self.assertEqual({p for p, _ in order[:len(run.PHASES)]},
                         set(run.PHASES))


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            ("root", None, 0, 100),
            ("a", "root", 10, 30),
            ("b", "root", 20, 50),     # overlaps a
            ("c", "root", 90, 120),    # runs past the root's end
            ("neg", "root", 60, 55),   # ends before it starts: covers nothing
            ("a.child", "a", 12, 15),
        ]
        got = dict(stats.self_times(spans))
        # root: 100 minus the union [10, 50) + [90, 100).
        self.assertEqual(got["root"], 50)
        self.assertEqual(got["a"], 17)
        self.assertEqual(got["b"], 30)
        self.assertEqual(got["c"], 30)
        self.assertEqual(got["neg"], 0)
        self.assertEqual(got["a.child"], 3)

    def test_layer_is_name_prefix(self):
        self.assertEqual(stats.layer_of("store.geo_find"), "store")
        self.assertEqual(stats.layer_of("gen.late"), "gen")


class BenchmarkFileTest(unittest.TestCase):
    def test_end_to_end_metrics_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.assertEqual(declared, run.E2E_UNITS)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))


@unittest.skipUnless(run.DRIVER.exists(), "driver not built")
class SeededInputsTest(unittest.TestCase):
    def digest(self, phase, seed):
        out = subprocess.run(
            [str(run.DRIVER), "--digest", "--phase", phase, "--seed",
             str(seed), "--duration-ms", "300"],
            check=True, capture_output=True, text=True)
        return out.stdout.strip()

    def test_same_seed_same_inputs_and_schedule(self):
        for phase in run.PHASES:
            with self.subTest(phase=phase):
                first = self.digest(phase, 7)
                self.assertEqual(first, self.digest(phase, 7))
                self.assertNotEqual(first, self.digest(phase, 8))


if __name__ == "__main__":
    unittest.main()
