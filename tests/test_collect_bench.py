"""Tests of tools/collect_bench.py on synthetic result files."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "collect_bench.py"


@pytest.fixture(scope="module")
def collect_bench():
    spec = importlib.util.spec_from_file_location("collect_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(directory, seed, step_cost, call_x_ref, trace=0, numpy="2.4.6", call_us=1.0):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": "finetune",
        "seed": seed,
        "seconds": 30.0,
        "trace": trace,
        "fingerprint": {"numpy": numpy, "machine": "x86_64", "git_commit": "unknown", "seed": seed},
        "output": {"metrics": {
            "step_cost.geomean": {"value": step_cost, "unit": "x_ref"},
            "setup_s": {"value": 0.3, "unit": "s"},
            "peak_rss_mb": {"value": 40.0, "unit": "MB"},
        }},
        "detail": {
            "lora.x_ref": {"unit": "x_ref", "median": call_x_ref},
            "lora.us_per_iter": {"unit": "us", "median": call_us},
            "landing_step_r32.us": {"unit": "us", "median": 2 * call_us},
            "landing_a5.time_to_tol_s": {"unit": "s", "median": 0.5},
            "failed_frac": {"unit": "frac", "median": 0.0},
        },
    }
    (directory / f"finetune-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_collects_medians_iqr_and_pair_wins(tmp_path, collect_bench):
    for seed, (p, c) in enumerate([(1.5, 1.3), (1.6, 1.4), (1.4, 1.45), (1.55, 1.35)]):
        _write_run(tmp_path / "parent", seed, p, 2 * p, call_us=100 * p)
        _write_run(tmp_path / "change", seed, c, 2 * c, call_us=100 * c)
    _write_run(tmp_path / "change", 9, 5.0, 5.0, trace=1)  # traced runs are left out
    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--parent-commit", "aaa", "--change-commit", "bbb",
            "--tier1-seconds", "140", "--out", str(out)]
    assert collect_bench.main(argv) == 0
    bench = json.loads(out.read_text())
    assert (bench["parent_commit"], bench["change_commit"], bench["tier1_wall_s"]) == ("aaa", "bbb", 140.0)
    assert bench["fingerprint"] == {"numpy": "2.4.6", "machine": "x86_64"}
    assert set(bench["blas_runtime"]) == {"openblas_core", "openblas_config"}
    # no such commits
    assert bench["src_lines"] == bench["tests_lines"] == bench["exports"] == bench["options"] == {
        "parent": None, "change": None}
    metrics = bench["workloads"]["finetune"]["metrics"]
    assert set(metrics) == {"step_cost.geomean", "setup_s", "peak_rss_mb", "lora.x_ref", "lora.us_per_iter",
                            "landing_step_r32.us"}
    # a call's absolute time is kept next to its x_ref, as a cost in us
    us = metrics["lora.us_per_iter"]
    assert us["unit"] == "us" and us["parent"]["values"] == pytest.approx([150, 160, 140, 155])
    assert us["change"]["median"] == pytest.approx(137.5) and (us["pairs"], us["change_wins"]) == (4, 3)
    assert metrics["landing_step_r32.us"]["change"]["median"] == pytest.approx(275)
    step = metrics["step_cost.geomean"]
    assert step["parent"]["median"] == pytest.approx(1.525)
    assert step["change"]["median"] == pytest.approx(1.375)
    assert step["change"]["iqr"] == step["change"]["q3"] - step["change"]["q1"] > 0
    assert (step["pairs"], step["change_wins"]) == (4, 3)
    assert (metrics["lora.x_ref"]["change_wins"], metrics["setup_s"]["change_wins"]) == (3, 0)
    assert "claims" not in bench  # only with --claims


def _bench_argv(tmp_path, *extra):
    for side, step_cost in (("parent", 1.5), ("change", 1.3)):
        _write_run(tmp_path / side, 0, step_cost, 2 * step_cost)
    return [str(tmp_path / "parent"), str(tmp_path / "change"), "--parent-commit", "a", "--change-commit", "b",
            "--tier1-seconds", "1", "--out", str(tmp_path / "BENCH.json"), *extra]


def test_claims_section_holds_both_sides_per_check(tmp_path, monkeypatch, collect_bench):
    # the lines come from the acceptance checks' own reporter, one file per commit
    import test_acceptance

    for side, lines in {
        "parent": [("A1a", True, "10110 iterations"), ("A1b", True, "ratio 2.224e5"), ("A7a", False, "r=64 slow")],
        "change": [("A1a", True, "10110 iterations"), ("A1b", True, "ratio 2.203e5"), ("A7a", True, "r=64 fast"),
                   ("A7a", True, "r=64 fast again"), ("A9", True, "new check")],
    }.items():
        monkeypatch.setenv("POLARLAB_CLAIMS_OUT", str(tmp_path / f"{side}.jsonl"))
        for check, ok, detail in lines:
            assert test_acceptance._report(check, ok, detail) is ok
    argv = _bench_argv(tmp_path, "--claims", str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl"))
    assert collect_bench.main(argv) == 0
    claims = json.loads((tmp_path / "BENCH.json").read_text())["claims"]
    assert list(claims) == ["A1a", "A1b", "A7a", "A9"]
    assert claims["A1a"] == {"parent": [{"ok": True, "detail": "10110 iterations"}],
                             "change": [{"ok": True, "detail": "10110 iterations"}], "same": True}
    assert claims["A1b"]["same"] is False and claims["A1b"]["change"] == [{"ok": True, "detail": "ratio 2.203e5"}]
    assert [line["detail"] for line in claims["A7a"]["change"]] == ["r=64 fast", "r=64 fast again"]
    assert claims["A7a"]["parent"] == [{"ok": False, "detail": "r=64 slow"}]
    assert claims["A9"] == {"parent": [], "change": [{"ok": True, "detail": "new check"}], "same": False}


@pytest.mark.parametrize("text", ["not json\n", '{"ok": true}\n', None])
def test_unreadable_claims_file_exits_one_with_one_line(tmp_path, capsys, collect_bench, text):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text('{"check": "A1a", "ok": true, "detail": "x"}\n')
    if text is not None:  # None leaves the file missing
        bad.write_text(text)
    assert collect_bench.main(_bench_argv(tmp_path, "--claims", str(good), str(bad))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read the claims files {good}, {bad}: ")
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize("seed", range(10))
def test_median_monotone_under_union(seed, collect_bench):
    # appending runs that all sit at or above the current median can never
    # lower the median a BENCH file records; dually for runs below
    summary = collect_bench.summary
    rng = np.random.default_rng(seed)
    a = list(rng.uniform(1.0, 2.0, size=rng.integers(1, 20)))
    med_a = summary(a)["median"]
    high = list(rng.uniform(med_a, med_a + 5.0, size=rng.integers(1, 20)))
    low = list(rng.uniform(med_a - 1.0, med_a, size=rng.integers(1, 20)))
    assert summary(a + high)["median"] >= med_a
    assert summary(a + low)["median"] <= med_a


def test_refuses_runs_from_different_environments(tmp_path, collect_bench):
    _write_run(tmp_path / "parent", 0, 1.5, 3.0, numpy="2.4.6")
    _write_run(tmp_path / "change", 0, 1.3, 2.6, numpy="2.3.0")
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--parent-commit", "a", "--change-commit", "b",
            "--tier1-seconds", "1", "--out", str(tmp_path / "BENCH.json")]
    with pytest.raises(SystemExit, match="different environments"):
        collect_bench.main(argv)


def test_reads_the_openblas_core_of_numpys_bundled_library(collect_bench):
    runtime = collect_bench.blas_runtime(collect_bench.numpy_libs())
    assert set(runtime) == {"openblas_core", "openblas_config"}
    if runtime["openblas_core"] != "unknown":
        # the config string of a DYNAMIC_ARCH build names the core it picked
        assert runtime["openblas_core"] in runtime["openblas_config"]


def test_openblas_core_is_unknown_without_the_library(tmp_path, collect_bench):
    unknown = {"openblas_core": "unknown", "openblas_config": "unknown"}
    assert collect_bench.blas_runtime(None) == unknown
    assert collect_bench.blas_runtime(tmp_path) == unknown
    (tmp_path / "libscipy_openblas64_-0000.so").write_text("not a shared library")
    assert collect_bench.blas_runtime(tmp_path) == unknown


def test_src_lines_sums_the_package_modules_of_a_commit(tmp_path, collect_bench):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    package = tmp_path / "src" / "polarlab"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("one\ntwo\n")
    (package / "notes.txt").write_text("not a module\n")
    (tmp_path / "setup.py").write_text("outside the package\n")
    tests = tmp_path / "tests"
    (tests / "golden").mkdir(parents=True)
    (tests / "test_a.py").write_text("one\n")
    (tests / "golden" / "deep.py").write_text("one\ntwo\n")  # only the directory's own modules count
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "first"], check=True)
    (package / "b.py").write_text("one\n")
    (tests / "test_b.py").write_text("one\ntwo\nthree\n")
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "second"], check=True)
    assert collect_bench.py_lines("HEAD~1", "src/polarlab", tmp_path) == 5
    assert collect_bench.py_lines("HEAD", "src/polarlab", tmp_path) == 4
    assert collect_bench.py_lines("HEAD~1", "tests", tmp_path) == 1
    assert collect_bench.py_lines("HEAD", "tests", tmp_path) == 4
    assert collect_bench.py_lines("HEAD", "no-such-dir", tmp_path) is None
    assert collect_bench.py_lines("0" * 40, "src/polarlab", tmp_path) is None
    assert collect_bench.py_lines("HEAD", "tests", tmp_path / "src") == 4  # any directory inside the work tree
    assert collect_bench.py_lines("HEAD", "src/polarlab", tmp_path.parent / "no-such-repo") is None


def test_exports_counts_the_all_of_a_commit(tmp_path, collect_bench):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    init = tmp_path / "src" / "polarlab" / "__init__.py"
    init.parent.mkdir(parents=True)
    sources = [
        '_EXPORTS = {"a": "m", "b": "m", "c": "n"}\n__all__ = sorted(_EXPORTS) + ["__version__"]\n',
        '__version__ = "1"\n__all__ = ["a", "b"]\n',
        '__all__ = list(("a",)) + _NAMES\n',  # an unbound name
        "__all__ = make_names()\n",  # not built from literals
        "__all__ = [\n",  # not python
    ]
    for source in sources:
        init.write_text(source)
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "next"], check=True)
    got = [collect_bench.exports(f"HEAD~{back}", tmp_path) for back in range(len(sources) - 1, -1, -1)]
    assert got == [4, 2, None, None, None]
    assert collect_bench.exports("0" * 40, tmp_path) is None
    assert collect_bench.exports("HEAD", tmp_path / "no-such-repo") is None


def test_options_counts_the_settings_of_a_commit(tmp_path, collect_bench):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    package = tmp_path / "src" / "polarlab"
    package.mkdir(parents=True)
    config = "class A:\n    x: int = 1\n    y: float = 2.0\n    z = 3\n" \
             "    def f(self):\n        w: int = 4\nclass B:\n    x: int = 1\n"
    sources = [
        # 3 fields (A's x and y, B's x); a_SCHEMA adds k and m but not A's x, B_SCHEMA nothing, the plain dict p
        (config, 'a_SCHEMA = _schema({"k": 1, "m": 2, "x": 3}, A)\nB_SCHEMA = _schema({"x": 1}, B)\n'
                 'C_SCHEMA = {"p": 1}\nOTHER = {"q": 1}\n'),
        (config, 'a_SCHEMA = _schema({"k": 1}, A)\n'),
        (config, 'a_SCHEMA = _schema({"k": 1}, Missing)\n'),  # not a config class
        (config, 'a_SCHEMA = make_schema()\n'),  # another form
        (config, "a_SCHEMA = {\n"),  # not python
    ]
    for config_source, cli_source in sources:
        (package / "config.py").write_text(config_source)
        (package / "cli.py").write_text(cli_source)
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "next"], check=True)
    got = [collect_bench.options(f"HEAD~{back}", tmp_path) for back in range(len(sources) - 1, -1, -1)]
    assert got == [6, 4, None, None, None]
    (package / "cli.py").unlink()
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "no cli"], check=True)
    assert collect_bench.options("HEAD", tmp_path) is None
    assert collect_bench.options("0" * 40, tmp_path) is None
    assert collect_bench.options("HEAD", tmp_path / "no-such-repo") is None
