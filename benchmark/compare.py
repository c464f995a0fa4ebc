"""Compare two result sets, for example the parent commit and a change.

Each side is a directory of result files written by ``run.py``. For every
workload and metric the report gives each side's median and quartiles
over its runs and the ratio of the change's median to the parent's, with
the parent's median as its base. A metric is marked ``unresolved`` when
either side's spread, (q3 - q1) / median, exceeds the metric's bound in
BENCHMARK.json; metrics without a bound (per-layer metrics and the
per-call detail) use DEFAULT_BOUND. The report gates nothing.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

DEFAULT_BOUND = 0.1


def load(directory: Path) -> dict:
    """(workload, trace) -> metric name -> (unit, values over runs)."""
    out = defaultdict(lambda: defaultdict(lambda: ["", []]))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        metrics = out[(record["workload"], record["trace"])]
        for name, entry in record["output"]["metrics"].items():
            metrics[name][0] = entry["unit"]
            metrics[name][1].append(entry["value"])
        for name, entry in record["detail"].items():
            metrics[name][0] = entry["unit"]
            metrics[name][1].append(entry["median"])
    return out


def spread(values) -> tuple:
    """(q1, median, q3, (q3 - q1) / |median|)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / abs(med) if med else 0.0


def report(parent: dict, change: dict, bounds: dict) -> list:
    lines = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        lines.append(f"== {workload} (trace {trace}) ==")
        lines.append(f"{'metric':36} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}  ratio")
        for name in sorted(set(parent[key]) & set(change[key])):
            unit, pv = parent[key][name]
            _, cv = change[key][name]
            pq1, pmed, pq3, pspread = spread(pv)
            cq1, cmed, cq3, cspread = spread(cv)
            ratio = f"{cmed / pmed:.3f}x of {pmed:.6g} {unit}" if pmed else "n/a (parent 0)"
            flag = "  unresolved" if max(pspread, cspread) > bounds.get(name, DEFAULT_BOUND) else ""
            left = f"{pmed:.6g} [{pq1:.4g}, {pq3:.4g}]"
            right = f"{cmed:.6g} [{cq1:.4g}, {cq3:.4g}]"
            lines.append(f"{name:36} {left:>32} {right:>32}  {ratio}{flag}")
    return lines


def main(parent_dir: Path, change_dir: Path, benchmark_json: Path) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads(benchmark_json.read_text())["end_to_end"]}
    parent, change = load(parent_dir), load(change_dir)
    if not (set(parent) & set(change)):
        print(f"no workload has result files on both sides ({parent_dir}, {change_dir})")
        return 1
    print("\n".join(report(parent, change, bounds)))
    return 0
