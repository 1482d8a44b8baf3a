"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

No build or simulation is needed: the tests drive run.py's functions on
hand-made spans and results.
"""

import copy
import json
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def span(id, name, start, end, parent=-1, key=-1):
    return {"id": id, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "key": key}


def closed_results(**overrides):
    r = {
        "queries_completed": 200, "queries_satisfied": 180, "probes": 1000,
        "guess.probes.good": 700, "guess.probes.dead": 250, "guess.probes.refused": 50,
        "overload.open_loop": 0, "overload.arrivals": 0, "overload.admitted": 0,
        "overload.rejected": 0, "overload.shed": 0, "overload.completed": 0,
        "overload.satisfied": 0, "overload.abandoned": 0, "overload.open_at_close": 0,
    }
    r.update(overrides)
    return r


def open_results(**overrides):
    # 100 arrivals in the window plus 5 carried in from warmup:
    # 105 = 80 completed + 10 rejected + 3 shed + 4 abandoned + 8 open.
    r = closed_results(queries_completed=80, queries_satisfied=70)
    r.update({
        "overload.open_loop": 1, "overload.arrivals": 100, "overload.admitted": 90,
        "overload.rejected": 10, "overload.shed": 3, "overload.completed": 80,
        "overload.satisfied": 70, "overload.abandoned": 4, "overload.open_at_close": 8,
    })
    r.update(overrides)
    return r


def make_run(results, open_at_begin=0, mode="stamped"):
    # run [0, 10 s]; bootstrap [1, 2]; warmup [2, 4]; begin_measurement
    # [4, 4.5]; measure [4.5, 8.5]; collect [8.5, 9] (nanoseconds below).
    s = 1_000_000_000
    spans = [
        span(0, "run", 0, 10 * s),
        span(1, "factory", 0, s // 2, 0),
        span(2, "bootstrap", 1 * s, 2 * s, 0),
        span(3, "warmup", 2 * s, 4 * s, 0),
        span(4, "begin_measurement", 4 * s, 4 * s + s // 2, 0),
        span(5, "measure", 4 * s + s // 2, 8 * s + s // 2, 0),
        span(6, "collect", 8 * s + s // 2, 9 * s, 0),
    ]
    return {"mode": mode, "spans": spans, "results": results,
            "open_at_begin": open_at_begin, "peak_rss_bytes": 2_000_000}


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, "run", 0, 100), span(1, "a", 10, 30, 0),
                 span(2, "b", 50, 60, 0)]
        self.assertAlmostEqual(run.self_times(spans)[0], 70e-9)

    def test_overlapping_and_nested_children_count_once(self):
        spans = [span(0, "run", 0, 100), span(1, "a", 10, 40, 0),
                 span(2, "b", 30, 50, 0), span(3, "c", 35, 45, 1)]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 60e-9)  # children cover [10, 50)
        self.assertAlmostEqual(selfs[1], 20e-9)  # grandchild c covers 10 of a's 30

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, "phase", 0, 100), span(1, "call", 90, 130, 0)]
        self.assertAlmostEqual(run.self_times(spans)[0], 90e-9)

    def test_leaf_self_time_is_its_duration(self):
        spans = [span(0, "run", 5, 25)]
        self.assertAlmostEqual(run.self_times(spans)[0], 20e-9)


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        value, beyond = run.percentile(list(range(1000)), 99)
        self.assertEqual((value, beyond), (989, 10))
        value, beyond = run.percentile(list(range(999)), 99)
        self.assertIsNone(value)
        self.assertEqual(beyond, 9)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(run.percentile(list(range(20)), 50), (9, 10))
        self.assertEqual(run.percentile(list(range(19)), 50), (None, 9))

    def test_unsorted_input_and_empty(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3] * 4, 50)[0], 3)
        self.assertEqual(run.percentile([], 50), (None, 0))


class MetricNames(unittest.TestCase):
    def test_pattern(self):
        for ok in ("setup_s", "search.start_query_us.p99", "sim.queue_share.computed",
                   "a-b.c_d9"):
            self.assertTrue(run.valid_name(ok), ok)
        for bad in ("", "latency ms", "mem/rss", "x" * 65, "p99%"):
            self.assertFalse(run.valid_name(bad), bad)

    def test_benchmark_names_are_valid_and_unique(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for e in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_name(name), name)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_predictions_name_declared_metrics_and_workloads(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        metrics = {e["name"] for key in ("end_to_end", "per_layer") for e in spec[key]}
        rows = json.loads((HERE / "predictions.json").read_text())["rows"]
        for row in rows:
            self.assertIn(row["workload"], run.WORKLOADS)
            self.assertIn(row["target"], metrics)
            self.assertIn(row["prediction"], ("moves", "little", "no change"))
            for layer in row["layer"]:
                self.assertIn(layer, metrics)


class FailFrac(unittest.TestCase):
    def test_closed_loop_counts_unsatisfied_completions(self):
        self.assertEqual(run.query_failures(closed_results(), 0), (20, 200))

    def test_open_loop_counts_every_arrival_not_satisfied(self):
        # unsatisfied 10 + rejected 10 + shed 3 + abandoned 4 + open 8 = 35
        self.assertEqual(run.query_failures(open_results(), 5), (35, 100))

    def test_end_to_end_fail_frac(self):
        self.assertAlmostEqual(run.end_to_end(make_run(closed_results()))["fail_frac"], 0.1)
        self.assertAlmostEqual(
            run.end_to_end(make_run(open_results(), open_at_begin=5))["fail_frac"], 0.35)


class Checks(unittest.TestCase):
    def test_phase_split(self):
        m = run.end_to_end(make_run(closed_results()))
        self.assertAlmostEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["total_s"], 10.0)
        self.assertAlmostEqual(m["measure_qps"], 200 / 4.0)  # setup and warmup excluded
        self.assertAlmostEqual(m["probes_per_query"], 5.0)

    def test_consistent_run_passes(self):
        reference = make_run(open_results(), 5, mode="plain")
        self.assertEqual(run.check_run(make_run(open_results(), 5), reference), [])

    def test_results_mismatch_is_reported(self):
        reference = make_run(closed_results(), mode="plain")
        problems = run.check_run(make_run(closed_results(queries_satisfied=181)), reference)
        self.assertTrue(any("differ" in p for p in problems))
        self.assertTrue(any("digest" in p for p in problems))

    def test_probe_identity(self):
        bad = closed_results(probes=1001)
        problems = run.check_run(make_run(bad), make_run(copy.deepcopy(bad)))
        self.assertEqual(len(problems), 1)
        self.assertIn("probes", problems[0])

    def test_open_loop_identity(self):
        bad = open_results(**{"overload.open_at_close": 9})
        problems = run.check_run(make_run(bad, 5), make_run(copy.deepcopy(bad), 5))
        self.assertEqual(len(problems), 1)
        self.assertIn("open-loop identity", problems[0])


if __name__ == "__main__":
    unittest.main()
