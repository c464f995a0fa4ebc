#!/usr/bin/env python3
"""Benchmark of polarlab, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload factorize --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload finetune --seed 0 --seconds 20 --trace 1
    python3 benchmark/run.py --compare PARENT_RESULTS CHANGE_RESULTS

A run builds polarlab from ``src/`` of the checkout, pins BLAS and OpenMP
to one thread before numpy loads and repeats rounds of the workload for
``--seconds``; between rounds it times set-ups of the workload in fresh
interpreters. It prints every metric by name with its unit, writes a
result file stamped with the environment into ``.bench_results/`` and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".bench_results"
TMP_DIR = ROOT / ".bench_tmp"
WORKLOADS = ("factorize", "finetune", "kernels-4096")
# set-ups timed per run; the median is reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "step_cost.geomean": "x_ref",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two result directories")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _pin_threads_and_find_program() -> None:
    import envinfo

    for var in envinfo.THREAD_ENV_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "polarlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no polarlab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))


class SetupTimer:
    """Times set-ups, each in a fresh interpreter: start-up, imports, workload
    construction and one warm-up of every call. They are spread over the
    measured rounds, so that their median sees the machine over the whole
    run rather than over a few seconds."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
        self.samples: list = []

    def __call__(self, done: float) -> None:
        """Time the next set-up once ``done``, the share of the run used, reaches its turn."""
        if len(self.samples) < SETUP_REPEATS and done >= len(self.samples) / SETUP_REPEATS:
            self.samples.append(self._one())

    def finish(self) -> list:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._one())
        return self.samples

    def _one(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait ends when the child does; Popen.wait(timeout) would poll in 50 ms steps
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise SystemExit(f"error: set-up exited with code {code}")
        return time.perf_counter() - t0


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _summarize(measurement, setups: list, trace: bool) -> tuple:
    """(printed metrics, per-call detail) of one measured run."""
    from compare import spread
    from workloads import per_call

    calls = measurement.calls
    detail = {}

    def add(name, unit, values):
        q1, med, q3, _ = spread(values)
        detail[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "rounds": len(values)}
        return med

    us = {c.name: add(f"{c.name}.{c.unit}", "us", per_call(measurement.untraced, c, "us")) for c in calls}
    x_ref = {c.name: add(f"{c.name}.x_ref", "x_ref", per_call(measurement.untraced, c, "x_ref")) for c in calls}
    for call in (c for c in calls if getattr(c, "to_tol", False)):
        add(f"{call.name}.time_to_tol_s", "s", [v * 1e-9 for v in per_call(measurement.untraced, call, "wall_ns")])
    detail["failed_frac"] = {"unit": "frac", "median": measurement.failed / measurement.attempted}

    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "step_cost.geomean": _geomean(x_ref.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}, detail

    import layers

    traced = _geomean(statistics.median(per_call(measurement.traced, c, "x_ref")) for c in calls)
    overhead = traced / _geomean(x_ref.values()) - 1.0
    return layers.per_layer(measurement.tracer.table(), calls, measurement.traced, us, overhead), detail


def _write_result(args, output: dict, detail: dict, setups: list, failures: list, rounds: int) -> Path:
    import envinfo

    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "fingerprint": envinfo.fingerprint(ROOT, args.seed),
        "output": output,
        "detail": detail,
        "setup_samples_s": setups,
        "failures": failures[:50],
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        import compare

        return compare.main(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")

    _pin_threads_and_find_program()
    import workloads

    TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
        if args.setup_only:
            workloads.set_up(args.workload, args.seed, tmp)
            return 0
        setup_timer = None if args.trace else SetupTimer(args.workload, args.seed)
        measurement = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp, setup_timer)
        setups = setup_timer.finish() if setup_timer is not None else []
    metrics, detail = _summarize(measurement, setups, bool(args.trace))

    rounds = len(measurement.untraced) + len(measurement.traced)
    failures = measurement.failures
    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds in {args.seconds:g} s, trace {args.trace}")
    for name, entry in detail.items():
        spread = f" (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, {entry['rounds']} rounds)" if "q1" in entry else ""
        print(f"  {name} = {entry['median']:.6g} {entry['unit']}{spread}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if measurement.tracer is not None:
        for target in sorted(measurement.tracer.absent):
            print(f"not traced, the program does not define it: {target}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    output = {
        "correct": not failures,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    path = _write_result(args, output, detail, setups, failures, rounds)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
