"""Summarise result files into medians and quartiles per workload and metric.

    python3 bench/summarize.py bench/work/results/*.json > summary.json

Untraced runs give the end-to-end metrics, traced runs the per-layer ones.
Runs from different environments (Python, numpy, numba, nproc) are never
pooled: the summary is keyed by environment first.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths: list) -> dict:
    groups = {}
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        env = json.dumps(rec["environment"], sort_keys=True)
        key = f"{rec['workload']} trace={rec['trace']}"
        runs = groups.setdefault(env, {}).setdefault(key, [])
        runs.append(rec)
    out = {}
    for env, by_workload in groups.items():
        out[env] = {}
        for key, runs in sorted(by_workload.items()):
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name] for r in runs if name in r["metrics"]]
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                med = statistics.median(values)
                metrics[name] = {"median": med, "q1": q[0], "q3": q[2],
                                 "spread": (q[2] - q[0]) / med if med else 0.0}
            out[env][key] = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                             "failed": sum(len(r["failures"]) for r in runs),
                             "metrics": metrics}
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    print()
