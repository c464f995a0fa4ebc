"""Tests of the benchmark itself: failure counting, span arithmetic, the
printed metric names, the removal of the span wrappers and the compare
report. Run with ``python3 -m pytest benchmark``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(BENCH_DIR), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from polarlab.exceptions import DivergenceError  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SMALL_FACTORIZE = [
    "factorize", "--algo", "polar-rgd", "--m", "20", "--n", "20", "--r", "6", "--r-a", "2",
    "--max-iters", "30", "--loss-threshold", "0",
]


class FixedReference:
    def run(self) -> float:
        return 1000.0


def _small_call(cls=workloads.CliCall) -> workloads.CliCall:
    call = cls("small", SMALL_FACTORIZE, workloads.EXIT_BUDGET, 2, feasible=("X", "Y"))
    call.reference = FixedReference()
    return call


class RaisingCall(workloads.CliCall):
    def execute(self):
        raise DivergenceError("polar-rgd diverged at iteration 3: loss = inf")


class InfeasibleCheckpointCall(workloads.CliCall):
    """Runs the real command, then scales the saved X off its manifold."""

    def execute(self):
        code = super().execute()
        path = os.path.join(self.out, "checkpoint", "X.csv")
        X = 1.001 * checks.load_matrix(path)
        rows = [f"{X.shape[0]},{X.shape[1]}"] + [",".join(repr(float(v)) for v in row) for row in X]
        with open(path, "w") as fh:
            fh.write("rows,cols\n" + "\n".join(rows) + "\n")
        return code


def _measurement(samples):
    return workloads.Measurement(calls=[], untraced=[samples], traced=[], tracer=None)


def test_correct_run_counts_no_failure(tmp_path):
    samples = workloads.run_round([_small_call()], np.random.default_rng(0), tmp_path)
    assert samples[0].problems == []
    assert samples[0].iterations == 30
    assert _measurement(samples).failed == 0


@pytest.mark.parametrize(
    ("cls", "expected"),
    [(RaisingCall, "raised DivergenceError"), (InfeasibleCheckpointCall, "checkpoint X is infeasible")],
)
def test_raised_divergence_and_infeasible_checkpoint_count_as_failed(tmp_path, cls, expected):
    samples = workloads.run_round([_small_call(cls)], np.random.default_rng(0), tmp_path)
    measurement = _measurement(samples)
    assert (measurement.attempted, measurement.failed) == (1, 1)
    assert any(expected in line for line in measurement.failures)


def test_self_times_on_a_synthetic_span_tree():
    # root 0 [100] -> child 1 [30] -> grandchild 2 [10]; root 0 -> child 3 [40]; root 4 [7]
    parent = np.array([-1, 0, 1, 0, -1])
    duration = np.array([100, 30, 10, 40, 7])
    own = self_times(parent, duration)
    assert own.tolist() == [30, 20, 10, 40, 7]
    assert own.sum() == duration[parent < 0].sum()


def test_tracer_nests_spans_and_self_times_add_up_to_the_roots():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", middle)
    tracer.call("root", leaf)
    table = tracer.table()
    assert [tracer.names[i] for i in table.name_of] == ["root", "leaf", "leaf", "root"]
    assert table.parent.tolist() == [-1, 0, 0, -1]
    totals = table.totals()
    assert totals["leaf"][0] == 2 and totals["root"][0] == 2
    assert int(table.own.sum()) == int(table.duration[table.parent < 0].sum())


def _current(target):
    module_name, owner_name, attr, _ = target
    owner = sys.modules[module_name]
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    return vars(owner)[attr]


def test_traced_round_removes_its_wrappers(tmp_path):
    originals = [_current(t) for t in layers.TARGETS]
    tracer = Tracer()
    samples = workloads.run_round([_small_call()], np.random.default_rng(0), tmp_path, tracer)
    assert samples[0].problems == []
    assert {"cli.main", "stiefel.polar_retract", "stiefel.eigh", "trace.append"} <= set(tracer.names)
    assert [_current(t) for t in layers.TARGETS] == originals

    with pytest.raises(RuntimeError):
        with tracer.installed(layers.TARGETS):
            assert _current(layers.TARGETS[0]) is not originals[0]
            raise RuntimeError("a call failed inside a traced round")
    assert [_current(t) for t in layers.TARGETS] == originals


def test_a_target_the_program_does_not_define_is_skipped():
    tracer = Tracer()
    with tracer.installed([("polarlab.stiefel", None, "no_such_function", "stiefel.none"), layers.TARGETS[0]]):
        assert _current(layers.TARGETS[0]).__wrapped__ is not None
    assert tracer.absent == {"polarlab.stiefel.no_such_function"}
    assert not hasattr(_current(layers.TARGETS[0]), "__wrapped__")


def _checkout_copy(tmp_path, with_program=True) -> Path:
    copy = tmp_path / "checkout"
    copy.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    shutil.copytree(BENCH_DIR, copy / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _run(copy: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=copy, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize(("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    copy = _checkout_copy(tmp_path)
    done = _run(copy, "--workload", "finetune", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    (record_path,) = (copy / ".bench_results").glob("*.json")
    record = json.loads(record_path.read_text())
    assert {"python", "numpy", "blas", "cpu_count", "threads", "polarlab", "git_commit", "seed"} <= set(
        record["fingerprint"]
    )
    assert record["fingerprint"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not list((copy / ".bench_tmp").iterdir())


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    copy = _checkout_copy(tmp_path, with_program=False)
    done = _run(copy, "--workload", "finetune", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _result_file(directory: Path, index: int, value: float):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": "factorize",
        "trace": 0,
        "output": {"metrics": {"step_cost.geomean": {"value": value, "unit": "x_ref"}}},
        "detail": {},
    }
    (directory / f"r{index}.json").write_text(json.dumps(record))


def test_compare_reports_ratio_and_marks_wide_spreads_unresolved(tmp_path):
    for i, value in enumerate([1.0, 1.01, 0.99, 1.0]):
        _result_file(tmp_path / "parent", i, value)
    for i, value in enumerate([0.5, 1.0, 0.8, 0.6]):
        _result_file(tmp_path / "change", i, value)
    parent, change = compare.load(tmp_path / "parent"), compare.load(tmp_path / "change")
    (line,) = [ln for ln in compare.report(parent, change, {"step_cost.geomean": 0.1}) if ln.startswith("step_cost")]
    assert "0.700x of 1 x_ref" in line and line.endswith("unresolved")
    (line,) = [ln for ln in compare.report(parent, parent, {"step_cost.geomean": 0.1}) if ln.startswith("step_cost")]
    assert "1.000x" in line and not line.endswith("unresolved")
