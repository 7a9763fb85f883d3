"""Output checks: properties every point must have, and the stored summary of
the fixed check seed that the convex baselines must reproduce.

The reference tolerance accepts any exact solver of the same QPs: Hildreth's
KKT stopping rule leaves a relative power gap of about 1.4e-6, far inside it.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

from workloads import CHECK_SEED, Workload, point_configs, sweep_value

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-4  # convex baselines: mean power per (scheme, sweep value)
CONVEX = ("fixed", "random", "conventional")
_GUARD_SLACK = 1e-9  # proposed <= fixed and AO traces non-increasing


def _is_nan(x: float) -> bool:
    return not math.isfinite(x)


def result_records(wl: Workload, records) -> list:
    """The records that carry the point's result: every scheme of a sweep
    point, or the last round of an AO trace."""
    if wl.function == "run_convergence":
        return [max(records, key=lambda r: r.ao_iters)] if records else []
    return list(records)


def point_problems(wl: Workload, records) -> list[str]:
    """Everything wrong with one point's records; empty when it is fine."""
    if not records:
        return ["no records"]
    bad = [r for r in records if not (_is_nan(r.power_w) or r.power_w > 0)]
    problems = [f"non-positive power {r.power_w!r} ({r.scheme})" for r in bad]
    if wl.function == "run_convergence":
        trace = sorted(records, key=lambda r: r.ao_iters)
        if [r.ao_iters for r in trace] != list(range(len(trace))):
            problems.append("AO trace rounds are not 0..n")
        powers = [r.power_w for r in trace]
        if any(map(_is_nan, powers)) and len(powers) > 1:
            problems.append("AO trace mixes infeasible and feasible rounds")
        for i, (a, b) in enumerate(zip(powers, powers[1:]), start=1):
            if b > a * (1 + _GUARD_SLACK):
                problems.append(f"AO trace increases at round {i}: {a!r} -> {b!r}")
        return problems
    by_scheme = defaultdict(list)
    for r in records:
        by_scheme[r.scheme].append(r.power_w)
    if sorted(by_scheme) != sorted(wl.base.schemes) or any(
        len(v) != 1 for v in by_scheme.values()
    ):
        problems.append(f"expected one record per scheme, got {sorted(by_scheme)}")
        return problems
    if "proposed" in by_scheme and "fixed" in by_scheme:
        p, f = by_scheme["proposed"][0], by_scheme["fixed"][0]
        if _is_nan(p) != _is_nan(f):
            problems.append("proposed and fixed disagree on feasibility")
        elif not _is_nan(p) and p > f * (1 + _GUARD_SLACK):
            problems.append(f"proposed {p!r} W exceeds fixed {f!r} W")
    return problems


def ao_gain_db(wl: Workload, records) -> float | None:
    """dB saving of the AO result over its fixed-uniform starting placement."""
    if wl.function == "run_convergence":
        trace = sorted(records, key=lambda r: r.ao_iters)
        start, end = (trace[0].power_dbm, trace[-1].power_dbm) if trace else (math.nan,) * 2
    else:
        dbm = {r.scheme: r.power_dbm for r in records}
        start, end = dbm.get("fixed", math.nan), dbm.get("proposed", math.nan)
    if _is_nan(start) or _is_nan(end):
        return None
    return start - end


def summarize(wl: Workload, configs, results) -> dict:
    """Mean power over feasible records and infeasible count, per
    (scheme, sweep value) cell; `results` holds each point's records."""
    cells = defaultdict(list)
    for cfg, records in zip(configs, results):
        for r in result_records(wl, records):
            cells[f"{r.scheme}@{sweep_value(wl, cfg)}"].append(r.power_w)
    summary = {}
    for key, powers in sorted(cells.items()):
        feasible = [p for p in powers if not _is_nan(p)]
        summary[key] = {
            "mean_power_w": sum(feasible) / len(feasible) if feasible else None,
            "infeasible": len(powers) - len(feasible),
            "records": len(powers),
        }
    return summary


def check_configs(wl: Workload):
    return point_configs(wl, CHECK_SEED, wl.check_points)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def compare_reference(wl: Workload, summary: dict, reference: dict) -> tuple[list[str], float]:
    """Problems against the stored summary, and the largest relative power
    deviation of the convex baselines."""
    stored = reference["workloads"].get(wl.name)
    if stored is None:
        return [f"no stored reference for {wl.name}"], math.inf
    problems, worst = [], 0.0
    if sorted(stored["cells"]) != sorted(summary):
        problems.append(f"cells differ: stored {sorted(stored['cells'])}, got {sorted(summary)}")
    for key in sorted(set(stored["cells"]) & set(summary)):
        want, got = stored["cells"][key], summary[key]
        if (want["infeasible"], want["records"]) != (got["infeasible"], got["records"]):
            problems.append(
                f"{key}: infeasible {got['infeasible']}/{got['records']}, "
                f"stored {want['infeasible']}/{want['records']}"
            )
        if key.split("@")[0] not in CONVEX:
            continue
        a, b = got["mean_power_w"], want["mean_power_w"]
        if (a is None) != (b is None):
            problems.append(f"{key}: mean power {a!r}, stored {b!r}")
        elif a is not None:
            rel = abs(a - b) / abs(b)
            worst = max(worst, rel)
            if rel > REL_TOL:
                problems.append(f"{key}: mean power {a!r} W deviates {rel:.2e} from stored {b!r} W")
    return problems, worst
