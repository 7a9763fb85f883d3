"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

They run every workload at a smoke size (--seconds 1), so they take about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

import run

run._bootstrap()

import checks  # noqa: E402
import spans  # noqa: E402
from pinchslp import bench  # noqa: E402
from pinchslp.bench import ExperimentRecord  # noqa: E402
from workloads import WORKLOADS, point_config  # noqa: E402

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
SMOKE_SECONDS = "1"


def _bench(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    ).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def _record(scheme, power_w, ao_iters=0):
    return ExperimentRecord("x", 0, 0, scheme, 10.0, 5, power_w, 0.0, ao_iters, True)


class SmokeRuns(unittest.TestCase):
    """Every workload at smoke size: all metrics printed with units, outputs
    correct, and per-layer counts identical across two traced runs."""

    def test_every_workload(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                lines, result = _bench(name, 3, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, e2e)
                for metric, unit, _ in run.END_TO_END + run.REPORTED_ONLY:
                    self.assertTrue(
                        any(l.split()[:1] == [metric] and f" {unit} " in l for l in lines),
                        f"{metric} not printed with unit {unit}",
                    )
                _, first = _bench(name, 3, 1)
                _, second = _bench(name, 3, 1)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, layers)
                counts = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                                    if v["unit"] == "count"}
                self.assertEqual(counts(first), counts(second))


class Spans(unittest.TestCase):
    def test_children_fit_inside_parents(self):
        wl = WORKLOADS["sinr-sweep"]
        tracer = spans.Tracer()
        with spans.hooked(tracer):
            tracer.point = 0
            with tracer.span("bench.run"):
                run.run_point(wl, point_config(wl, 5, 0))
        self.assertGreater(len(tracer.spans), 10)
        children = [0.0] * len(tracer.spans)
        for name, start, end, parent, point in tracer.spans:
            self.assertEqual(point, 0)
            self.assertLessEqual(start, end)
            if parent >= 0:
                _, p_start, p_end, _, _ = tracer.spans[parent]
                self.assertTrue(p_start <= start and end <= p_end, name)
                children[parent] += end - start
        for (name, start, end, _, _), covered, own in zip(
            tracer.spans, children, spans.self_times(tracer)
        ):
            self.assertLessEqual(covered, end - start, name)
            self.assertGreaterEqual(own, 0.0, name)

    def test_missing_call_site_is_absent_and_run_completes(self):
        wl = WORKLOADS["ao-convergence"]
        original = bench.solve_min_power
        tracer = spans.Tracer()
        with spans.hooked(
            tracer,
            spans.SPAN_HOOKS + (("bench", "no_such_call", "x", None),),
            spans.COUNT_HOOKS + (("no_such_module", "f", "y"),),
        ):
            point = run.run_point(wl, point_config(wl, 5, 0))
        self.assertEqual(point.problems, [])
        self.assertEqual(tracer.absent, {"bench.no_such_call", "no_such_module.f"})
        self.assertIs(bench.solve_min_power, original)
        values = spans.layer_metrics(tracer, 0.0)
        self.assertEqual(set(values), {n for n, _ in spans.PER_LAYER})

    def test_missing_result_field_is_absent(self):
        tracer = spans.Tracer()
        spans._observe_qp(tracer, object(), None)
        self.assertEqual(tracer.absent, {"QPSolution.sweeps", "QPSolution.used_fallback"})


class Workloads(unittest.TestCase):
    def test_seed_changes_scenarios_and_repeats_them(self):
        for wl in WORKLOADS.values():
            users = lambda seed, i: [
                (u.x, u.y) for u in bench.generate_scenario(point_config(wl, seed, i), 0)[0].users
            ]
            self.assertEqual(users(1, 0), users(1, 0))
            self.assertEqual(users(1, 7), users(1, 7))
            self.assertNotEqual(users(1, 0), users(2, 0))
            self.assertNotEqual(users(1, 0), users(1, 1))

    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(spans.PER_LAYER))
        self.assertTrue({w["name"] for w in spec["workloads"]} <= set(WORKLOADS))


class ReferenceSeconds(unittest.TestCase):
    def test_wall_time_scales_by_mean_bracketing_probe(self):
        timer = run.ProbedTimer()
        ref = timer.ref(2.0)
        before, after = timer.probes[-2:]
        self.assertAlmostEqual(ref, 2.0 * run.PROBE_REF_S / ((before + after) / 2))
        self.assertEqual(len(timer.probes), 2)


class Checks(unittest.TestCase):
    def test_reference_tolerance(self):
        reference = checks.load_reference()
        wl = WORKLOADS["sinr-sweep"]
        stored = reference["workloads"][wl.name]["cells"]
        for rel, ok in ((1.4e-6, True), (1e-3, False)):
            summary = json.loads(json.dumps(stored))
            summary["fixed@10.0"]["mean_power_w"] *= 1 + rel
            problems, _ = checks.compare_reference(wl, summary, reference)
            self.assertEqual(problems == [], ok, problems)
        summary = json.loads(json.dumps(stored))
        summary["random@20.0"]["infeasible"] += 1
        self.assertNotEqual(checks.compare_reference(wl, summary, reference)[0], [])

    def test_point_properties(self):
        sweep = WORKLOADS["sinr-sweep"]
        fine = [_record("proposed", 1.0), _record("fixed", 2.0),
                _record("random", 3.0), _record("conventional", 4.0)]
        self.assertEqual(checks.point_problems(sweep, fine), [])
        worse = [_record("proposed", 2.5)] + fine[1:]
        self.assertNotEqual(checks.point_problems(sweep, worse), [])
        conv = WORKLOADS["ao-convergence"]
        trace = [_record("proposed", p, i) for i, p in enumerate((3.0, 2.0, 2.0))]
        self.assertEqual(checks.point_problems(conv, trace), [])
        rising = [_record("proposed", p, i) for i, p in enumerate((3.0, 2.0, 2.5))]
        self.assertNotEqual(checks.point_problems(conv, rising), [])


if __name__ == "__main__":
    unittest.main()
