"""Self-tests of the sweep benchmark, at tiny trial counts.

Run from the root of a checkout: ``python3 bench/selftest.py``.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import unittest

import run_bench  # first: sets the thread environment and the import path
import spans
from sparsedoa import harness

TINY = {
    name: dataclasses.replace(workload, timed_trials=2, accuracy_trials=2)
    for name, workload in run_bench.WORKLOADS.items()
}


def traced_sweep(name, seed=0):
    config = run_bench.load_config(TINY[name], seed, trials=2)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        curves = harness.sweep(config)
    return config, curves, tracer.spans


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_names_the_emitted_metrics_and_workloads(self):
        spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run_bench.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run_bench.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run_bench.PER_LAYER_UNITS
        )

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, units in ((False, run_bench.END_TO_END_UNITS),
                             (True, run_bench.PER_LAYER_UNITS)):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run_bench.measure("algos", TINY["algos"], 0, 0.2, trace, probes=1)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), set(units))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name])
                self.assertTrue(math.isfinite(metric["value"]), name)


class Checks(unittest.TestCase):
    def test_csv_check_flags_impossible_rows(self):
        config = run_bench.load_config(TINY["oversubscribed"], 0, trials=2)
        path = run_bench.OUT / "selftest.csv"
        run_bench.OUT.mkdir(exist_ok=True)
        harness.sweep(config, out_path=path)
        self.assertEqual(run_bench.check_csv(config, path), [])
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[0]["failures"] = str(config.trials + 1)
        rows[1]["rmse"] = "nan"
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        problems = run_bench.check_csv(config, path)
        self.assertEqual(len(problems), 2, problems)

    def test_oracle_recovers_exact_sources(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run_bench.check_oracle(), [])


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        fake = [
            ["a", 0.0, 10.0, None, None, None, None],
            ["b", 1.0, 4.0, 0, None, None, None],
            ["c", 2.0, 3.0, 1, None, None, None],
            ["b", 5.0, 6.0, 0, None, None, None],
        ]
        summary = spans.layer_summary(fake)
        self.assertEqual(summary["a"]["self_s"], 6.0)
        self.assertEqual(summary["b"]["self_s"], 3.0)
        self.assertEqual(summary["b"]["calls"], 2)
        self.assertEqual(summary["c"]["self_s"], 1.0)

    def test_children_never_outlast_their_parent(self):
        for name in TINY:
            _, _, recorded = traced_sweep(name)
            for span, inner in zip(recorded, spans.child_time(recorded)):
                self.assertLessEqual(inner, span[spans.END] - span[spans.START], span)

    def test_spans_share_their_trial_id(self):
        _, _, recorded = traced_sweep("algos")
        for span in recorded:
            if span[spans.PARENT] is not None:
                self.assertEqual(span[spans.TRIAL], recorded[span[spans.PARENT]][spans.TRIAL])

    def test_tracing_restores_functions_and_keeps_results(self):
        original = harness.run_trial
        config, traced, _ = traced_sweep("geometries")
        self.assertIs(harness.run_trial, original)
        self.assertEqual(traced, harness.sweep(config))

    def test_simulations_per_keyed_draw(self):
        for name, expected in (("algos", 3.0), ("geometries", 1.0)):
            _, _, recorded = traced_sweep(name)
            self.assertEqual(spans.pass_metrics(recorded)["sigmodel.simulate_per_draw"],
                             expected)

    def test_oversubscribed_gmusic_trials_raise(self):
        config, _, recorded = traced_sweep("oversubscribed")
        metrics = spans.pass_metrics(recorded)
        self.assertEqual(metrics["harness.identifiability_raises"],
                         run_bench.trials_per_pass(config) / 2)
        self.assertEqual(metrics["harness.wasted_simulations"],
                         metrics["harness.identifiability_raises"])
        for name in ("algos", "geometries", "wide-coarray"):
            _, _, recorded = traced_sweep(name)
            self.assertEqual(spans.pass_metrics(recorded)["harness.identifiability_raises"], 0)


if __name__ == "__main__":
    unittest.main()
