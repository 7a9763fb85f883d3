"""Write reference.json: the check-seed summary of every workload.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the experiments' results; the
output check compares every benchmark run against this file.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run._bootstrap()
    import checks
    from workloads import CHECK_SEED, WORKLOADS

    out = {"check_seed": CHECK_SEED, "workloads": {}}
    for wl in WORKLOADS.values():
        configs = checks.check_configs(wl)
        points = [run.run_point(wl, cfg) for cfg in configs]
        for i, p in enumerate(points):
            if p.problems:
                raise SystemExit(f"{wl.name} check point {i}: {p.problems}")
        summary = checks.summarize(wl, configs, [p.records or [] for p in points])
        out["workloads"][wl.name] = {"points": len(configs), "cells": summary}
        print(f"{wl.name}: {len(configs)} points, {len(summary)} cells")
    with open(checks.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
