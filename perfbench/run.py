"""Closed-loop benchmark of the pinchslp Monte Carlo experiments.

One client runs points back to back, with no concurrency. A point is one call
of `pinchslp.bench.run_power_vs_sinr` or `run_convergence` on a one-trial,
one-sweep-value config (see workloads.py). Run from the repository root:

    python3 perfbench/run.py --workload sinr-sweep --seed 1 --seconds 55 --trace 0

--trace 0 times points for --seconds and prints the end-to-end metrics.
--trace 1 runs a fixed number of points (--seconds times the workload's trace
rate) once untraced and once with spans installed, and prints the per-layer
metrics. Both check the outputs first on the fixed check seed. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit, direction); the first group is what BENCHMARK.json bounds.
END_TO_END = (
    ("points_per_s", "points/s", "higher"),
    ("point_p90_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ao_gain_db", "dB", "higher"),
)
# Printed only: the median point time moves too much with the scenario draw
# to carry a bound (see README.md), and the fractions are 0 on a healthy run.
REPORTED_ONLY = (
    ("point_p50_s", "s", "lower"),
    ("infeasible_frac", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
)

# A shared virtual CPU can alternate between two speeds on a scale of seconds;
# on a 2-vCPU VM that moved whole-run throughput by up to 0.3 of its median.
# So every timing is bracketed by a fixed speed probe and reported in
# reference seconds: wall seconds x PROBE_REF_S / the mean probe time just
# before and after the work.
PROBE_REF_S = 2.5e-3

SETUP_REPEATS = 5
SETUP_CONFIGS = 256  # point configs built by each set-up probe
RETRACE_POINTS = 2  # points traced a second time for the determinism check


def _bootstrap() -> None:
    """Pin BLAS/OpenMP to one thread before numpy loads, and import pinchslp
    from this checkout's sources only."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pinchslp" / "__init__.py").is_file():
        sys.exit(f"error: no pinchslp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pinchslp

    if not Path(pinchslp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported pinchslp from {pinchslp.__file__}, not {SRC}")


def fingerprint(load_start) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def speed_probe() -> float:
    """Wall seconds of a fixed loop of small numpy calls, like the program's."""
    import numpy as np

    x0 = np.linspace(0.0, 1.0, 16)
    total, t0 = 0.0, perf_counter()
    for i in range(400):
        x = np.sqrt(x0 * x0 + 1.0) * i
        total += float(np.sum(np.exp(-x) * np.cos(x)))
    return perf_counter() - t0


def settled_probe() -> float:
    """Fastest of three probes: the first calls in a process, or right after
    a child process, run slow for reasons that do not persist."""
    return min(speed_probe() for _ in range(3))


class ProbedTimer:
    """Converts wall seconds to reference seconds, probing the machine's speed
    after each piece of work; the probe before it is the previous one."""

    def __init__(self):
        self.probes = [settled_probe()]

    def ref(self, wall: float) -> float:
        """Reference seconds of work that has just taken `wall` seconds."""
        self.probes.append(speed_probe())
        return wall * PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Reference and wall seconds of fresh processes that import pinchslp and
    build the workload's point configs; one untimed run first fills the
    bytecode cache. One speed probe before and one after scale the batch."""
    code = (
        f"import sys; sys.path[:0] = {[str(SRC), str(BENCH_DIR)]!r}; "
        "import pinchslp, workloads; "
        f"workloads.point_configs(workloads.WORKLOADS[{workload!r}], {seed}, {SETUP_CONFIGS})"
    )

    def child() -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    child()
    before = settled_probe()
    wall = [child() for _ in range(SETUP_REPEATS)]
    scale = PROBE_REF_S / ((before + settled_probe()) / 2)
    return [t * scale for t in wall], wall


@dataclass
class Point:
    """One point's outcome: records (None when the whole point was
    infeasible), wall seconds, and problems that make it count as failed."""

    records: list | None
    seconds: float
    problems: list[str]


def run_point(wl, cfg) -> Point:
    import checks
    from spans import INFEASIBLE

    t0 = perf_counter()
    try:
        records = wl.run(cfg)
    except INFEASIBLE:
        return Point(None, perf_counter() - t0, [])
    except Exception as exc:  # a failing point is counted, not fatal
        return Point([], perf_counter() - t0, [f"{type(exc).__name__}: {exc}"])
    seconds = perf_counter() - t0
    return Point(records, seconds, checks.point_problems(wl, records))


def output_check(wl) -> tuple[list[Point], list[str], dict]:
    """Run the check-seed points and compare their summary with
    reference.json; on a mismatch every check point counts as failed."""
    import checks

    configs = checks.check_configs(wl)
    points = [run_point(wl, cfg) for cfg in configs]
    summary = checks.summarize(wl, configs, [p.records or [] for p in points])
    problems, worst = checks.compare_reference(wl, summary, checks.load_reference())
    if problems:
        for p in points:
            p.problems.append("check-seed summary differs from reference.json")
    gains = [g for p in points if p.records
             for g in [checks.ao_gain_db(wl, p.records)] if g is not None]
    info = {"max_rel_dev": worst,
            "ao_gain_db": statistics.fmean(gains) if gains else math.nan,
            "gain_samples": len(gains)}
    return points, problems, info


def _quantile90(times: list[float]) -> tuple[float, int]:
    """p90 of the point times and how many points lie beyond it."""
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return p90, sum(t > p90 for t in times)


def _print_problems(label: str, problems: list[str]) -> None:
    for problem in problems[:20]:
        print(f"FAIL {label}: {problem}", file=sys.stderr)


def end_to_end(wl, seed: int, seconds: float):
    import checks
    from workloads import point_config

    setup, setup_wall = measure_setup(wl.name, seed)
    check_points, ref_problems, info = output_check(wl)

    timer, points, times, start = ProbedTimer(), [], [], perf_counter()
    while not points or perf_counter() - start < seconds:
        points.append(run_point(wl, point_config(wl, seed, len(points))))
        times.append(timer.ref(points[-1].seconds))
    wall = sum(p.seconds for p in points)

    p90, beyond = _quantile90(times)
    records = [r for p in points if p.records for r in checks.result_records(wl, p.records)]
    infeasible = sum(not math.isfinite(r.power_w) for r in records)
    all_points = check_points + points
    failed = sum(bool(p.problems) for p in all_points)
    values = {
        "points_per_s": len(points) / sum(times),
        "point_p90_s": p90,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ao_gain_db": info["ao_gain_db"],
        "point_p50_s": statistics.median(times),
        "infeasible_frac": infeasible / len(records) if records else 0.0,
        "failed_frac": failed / len(all_points),
    }
    notes = {
        "points_per_s": f"{len(points)} points; {len(points) / wall:.4g} per wall second; "
                        f"speed probe median {statistics.median(timer.probes) * 1e3:.3g} ms, "
                        f"reference {PROBE_REF_S * 1e3:g} ms",
        "point_p90_s": f"n={len(points)}, {beyond} beyond"
                       + ("" if beyond >= 10 else ", fewer than 10: unreliable"),
        "point_p50_s": f"n={len(points)}",
        "setup_s": f"median of {len(setup)} fresh processes; "
                   f"{statistics.median(setup_wall):.4g} wall s",
        "peak_rss_mb": "ru_maxrss of this process",
        "ao_gain_db": f"mean over {info['gain_samples']} check-seed points; convex "
                      f"baselines within {info['max_rel_dev']:.1e} of reference",
        "infeasible_frac": f"{infeasible} of {len(records)} (point, scheme) records",
        "failed_frac": f"{failed} of {len(all_points)} points",
    }
    for name, unit, better in END_TO_END + REPORTED_ONLY:
        print(f"{name:<16} {values[name]:>12.6g} {unit:<9} ({better} is better; {notes[name]})")
    problems = [p for pt in all_points for p in pt.problems]
    return values, problems, ref_problems, len(all_points), failed


def _result_key(records) -> list:
    return [(r.scheme, r.ao_iters, repr(r.power_w)) for r in records or []]


def traced(wl, seed: int, seconds: float):
    from spans import PER_LAYER, Tracer, hooked, layer_metrics
    from workloads import point_config

    check_points, ref_problems, _ = output_check(wl)
    count = max(RETRACE_POINTS, round(seconds * wl.trace_rate))
    configs = [point_config(wl, seed, i) for i in range(count)]

    tracer, plain, spanned, bad = Tracer(), 0.0, 0.0, {}
    for i, cfg in enumerate(configs):
        base = run_point(wl, cfg)
        with hooked(tracer):
            tracer.point = i
            with tracer.span("bench.run"):
                point = run_point(wl, cfg)
        plain += base.seconds
        spanned += point.seconds
        problems = base.problems + point.problems
        if _result_key(base.records) != _result_key(point.records):
            problems.append("traced records differ from untraced ones")
        if problems:
            bad[i] = problems

    again = Tracer()
    for i, cfg in enumerate(configs[:RETRACE_POINTS]):
        with hooked(again):
            again.point = i
            with again.span("bench.run"):
                run_point(wl, cfg)
    first = tracer.counts_by_point()
    for i, counts in again.counts_by_point().items():
        if counts != first.get(i):
            bad.setdefault(i, []).append("counts differ between two traced runs")

    values = layer_metrics(tracer, spanned / plain - 1.0)
    for name, unit in PER_LAYER:
        print(f"{name:<44} {values[name]:>12.6g} {unit}")
    print(f"traced points: {count}; traced wall {spanned:.2f} s, untraced {plain:.2f} s")
    if tracer.absent:
        print("absent: " + ", ".join(sorted(tracer.absent)))
    problems = [f"check point: {p}" for pt in check_points for p in pt.problems]
    problems += [f"point {i}: {p}" for i, ps in sorted(bad.items()) for p in ps]
    attempted = len(check_points) + count
    failed = sum(bool(pt.problems) for pt in check_points) + len(bad)
    return values, problems, ref_problems, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_start = list(os.getloadavg())
    # One CPU for this process and its set-up children, so that the speed
    # probe runs where the timed work runs.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)
    _bootstrap()
    from spans import PER_LAYER
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    print(f"workload {wl.name} ({wl.why}); seed {args.seed}; "
          f"seconds {args.seconds:g}; trace {args.trace}")

    measure = traced if args.trace else end_to_end
    values, problems, ref_problems, attempted, failed = measure(wl, args.seed, args.seconds)
    units = dict(PER_LAYER) if args.trace else {n: u for n, u, _ in END_TO_END}

    # a reference mismatch also marks every check point, so `problems` covers it
    _print_problems("reference", ref_problems)
    _print_problems("point", problems)
    print(f"check: {'FAILED' if problems else 'ok'} "
          f"({wl.check_points} check-seed points against reference.json; "
          f"{len(problems)} point problems)")
    print("fingerprint: " + json.dumps(fingerprint(load_start)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
