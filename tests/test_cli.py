"""End-to-end tests of the command line front end.

Every test drives ``polarlab.cli.main`` in process with an explicit argv
and a tmp_path output directory, then inspects exit codes and the files
the run leaves behind. Runs use deliberately tiny problem sizes so the
whole module stays fast.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from polarlab import io as pio
from polarlab.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, _THREAD_ENV_VARS, main

# small, quickly converging factorization run (converges around iteration 200)
FAST_FACTORIZE = [
    "--m", "12", "--n", "12", "--r", "5", "--r-a", "2", "--kappa", "2.0",
    "--eta", "0.05", "--seed", "1", "--max-iters", "20000",
    "--loss-threshold", "1e-8", "--record-every", "100",
]

FAST_FINETUNE = [
    "--m", "24", "--n", "16", "--n-cols", "48", "--r-a", "2", "--kappa", "4.0",
    "--r", "4", "--eta", "0.05", "--lam", "1e-3", "--max-iters", "400",
    "--loss-threshold", "1e-4", "--record-every", "50", "--seed", "0",
]


def _read_config_echo(out_dir):
    with open(os.path.join(out_dir, "config_resolved.txt")) as fh:
        pairs = [line.strip().partition("=") for line in fh if line.strip()]
    return {key: val for key, _, val in pairs}


# ---------------------------------------------------------------------------
# exit codes


def test_factorize_converges_exit_zero(tmp_path):
    out = str(tmp_path / "run")
    assert main(["factorize", "--out", out, *FAST_FACTORIZE]) == EXIT_OK
    names = sorted(os.listdir(out))
    assert "config_resolved.txt" in names
    assert "checkpoint" in names
    assert any(name.endswith(".csv") for name in names)


def test_factorize_budget_exhausted_exit_two(tmp_path):
    out = str(tmp_path / "run")
    argv = ["factorize", "--out", out, *FAST_FACTORIZE]
    argv[argv.index("--max-iters") + 1] = "50"
    assert main(argv) == EXIT_BUDGET
    # the run still leaves a complete, analyzable output directory behind
    assert os.path.isfile(os.path.join(out, "config_resolved.txt"))
    assert os.path.isfile(os.path.join(out, "checkpoint", "meta.json"))


def test_finetune_toy_converges_exit_zero(tmp_path):
    out = str(tmp_path / "run")
    assert main(["finetune-toy", "--out", out, *FAST_FINETUNE]) == EXIT_OK
    _, meta = pio.load_state(os.path.join(out, "checkpoint"))
    assert meta["kind"] == "polar-adapter"
    assert meta["method"] == "landing-polar"


def test_finetune_toy_lora_baseline(tmp_path):
    out = str(tmp_path / "run")
    rc = main(["finetune-toy", "--out", out, "--method", "lora", *FAST_FINETUNE])
    assert rc in (EXIT_OK, EXIT_BUDGET)
    _, meta = pio.load_state(os.path.join(out, "checkpoint"))
    assert meta["kind"] == "lora"


def test_unknown_algorithm_exits_one(tmp_path, capsys):
    rc = main(["factorize", "--out", str(tmp_path / "r"), "--algo", "newton"])
    assert rc == EXIT_ERROR
    assert "newton" in capsys.readouterr().err


def test_unknown_schedule_exits_one(tmp_path, capsys):
    rc = main(["finetune-toy", "--out", str(tmp_path / "r"), "--schedule", "cosine", *FAST_FINETUNE])
    assert rc == EXIT_ERROR
    assert "cosine" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["landing-polar", "lora"])
@pytest.mark.parametrize("flag", ["--grad-mode", "--theta-mode"])
def test_unknown_grad_mode_exits_one(tmp_path, capsys, method, flag):
    # the LoRA trainer has no modes, but its config rejects a bad one all the same
    argv = ["finetune-toy", "--out", str(tmp_path / "r"), "--method", method, flag, "nope", *FAST_FINETUNE]
    assert main(argv) == EXIT_ERROR
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["factorize", *FAST_FACTORIZE], ["finetune-toy", *FAST_FINETUNE]])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--record-every", "0", "record_every must be >= 1, got 0"),
        ("--max-iters", "-3", "max_iters must be >= 0, got -3"),
        ("--loss-threshold", "nan", "loss_threshold must be a number, got nan"),
    ],
)
def test_bad_budget_or_cadence_exits_one_with_one_line(tmp_path, capsys, command, flag, value, message):
    # each bad setting stops the command before its run starts
    rc = main([*command, flag, value, "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        (["factorize", *FAST_FACTORIZE], "--gamma", "0", "gamma must be finite and positive, got gamma = 0.0"),
        (["factorize", *FAST_FACTORIZE], "--gamma", "nan", "gamma must be finite and positive, got gamma = nan"),
        (["finetune-toy", *FAST_FINETUNE], "--lam", "inf", "lam must be finite and positive, got lam = inf"),
        (["finetune-toy", *FAST_FINETUNE], "--alpha", "inf", "alpha must be finite and positive, got alpha = inf"),
        (["finetune-toy", *FAST_FINETUNE], "--alpha", "0", "alpha must be finite and positive, got alpha = 0.0"),
    ],
    ids=["factorize-gamma-0", "factorize-gamma-nan", "finetune-toy-lam-inf", "finetune-toy-alpha-inf", "finetune-toy-alpha-0"],
)
def test_bad_step_setting_exits_one_with_one_line(tmp_path, capsys, command, flag, value, message):
    # a step size or penalty that is not finite and positive stops the command before its run starts
    rc = main([*command, flag, value, "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize("eta", ["nan", "0"])
def test_bad_landing_eta_exits_one_with_one_line(tmp_path, capsys, eta):
    rc = main(["finetune-toy", *FAST_FINETUNE, "--eta", eta, "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.splitlines() == [f"error: eta must be finite and positive, got eta = {float(eta)}"]
    assert captured.out == ""


def test_linear_schedule_without_budget_exits_one_with_one_line(tmp_path, capsys):
    argv = ["finetune-toy", *FAST_FINETUNE, "--schedule", "linear", "--max-iters", "0", "--out", str(tmp_path / "r")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.splitlines() == ["error: a linear schedule needs max_iters >= 1, got 0"]


@pytest.mark.parametrize("method, seed, iters", [("lora", 47, 2000), ("lora", 48, 2000), ("lora", 99, 2000),
                                                 ("landing-polar", 79, 1000)])
def test_threshold_zero_is_not_met_by_rounding(tmp_path, method, seed, iters):
    # these tasks carry a rounding residue c = -1.4e-14 in the direct loss; the
    # reported loss is the factored residual, so a converged run stays above 0
    argv = ["finetune-toy", "--method", method, "--seed", str(seed), "--target-seed", str(seed + 1234),
            "--m", "64", "--n", "32", "--n-cols", "128", "--r", "24", "--eta", "2e-2", "--lam", "1e-3",
            "--schedule", "constant", "--loss-threshold", "0", "--max-iters", str(iters), "--out", str(tmp_path / "r")]
    assert main(argv) == EXIT_BUDGET


def test_finetune_divergence_exits_one_with_one_line(tmp_path, capsys):
    # a step of 5 drives the landing run past the divergence limit within a few steps
    rc = main(["finetune-toy", "--eta", "5", "--out", str(tmp_path / "r")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == EXIT_ERROR
    assert len(lines) == 1
    assert re.fullmatch(r"error: landing-polar diverged at iteration \d+: loss = \S+", lines[0])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_tangent_step_exits_one_with_one_line(tmp_path, flags):
    # gamma = 2.5 over-relaxes Theta until rounding leaves the projected
    # direction off the tangent space; the retraction's check must report it
    # as an error line, with or without python -O, and print no traceback
    import polarlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polarlab.__file__)))
    argv = ["factorize", "--gamma", "2.5", "--kappa", "1", "--r-a", "1", "--out", str(tmp_path / "r")]
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "polarlab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_ERROR
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: retraction direction is not tangent")


def _cli_subprocess(tmp_path, command, *flags):
    # a separate interpreter, so that a numpy RuntimeWarning would reach stderr
    import polarlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polarlab.__file__)))
    argv = [command, *flags, "--out", str(tmp_path / "r")]
    return subprocess.run(
        [sys.executable, "-m", "polarlab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("command", ["factorize", "finetune-toy"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--kappa", "0"), "kappa must be >= 1, got 0.0"),
        (("--kappa", "0.5"), "kappa must be >= 1, got 0.5"),
        (("--kappa", "-2"), "kappa must be >= 1, got -2.0"),
        (("--r-a", "1"), "r_a = 1 forces kappa = 1 (the spectrum is a single value)"),
        (("--kappa", "nan"), "kappa must be finite, got nan"),
        (("--kappa", "inf"), "kappa must be finite, got inf"),
    ],
)
def test_bad_spectrum_exits_one_with_one_line(tmp_path, command, flags, message):
    # both commands plant their target by the one spectrum rule, which runs before any draw
    proc = _cli_subprocess(tmp_path, command, *flags)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("algo", ["polar-rgd", "bm-gd"])
@pytest.mark.parametrize("eta", ["inf", "nan", "-1"])
def test_non_finite_eta_exits_one_with_one_line(tmp_path, algo, eta):
    # bm-gd retracts nothing; its config rejects the step before a numpy warning can fire
    proc = _cli_subprocess(tmp_path, "factorize", "--algo", algo, "--eta", eta)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == f"error: eta must be finite and nonnegative, got eta = {float(eta)}\n"


def test_failed_retraction_names_method_iteration_and_eta(tmp_path):
    # at eta = 10 a retracted factor misses the 1e-9 certificate within 50 steps
    proc = _cli_subprocess(tmp_path, "factorize", "--algo", "polar-rgd", "--eta", "10", "--max-iters", "50")
    assert proc.returncode == EXIT_ERROR
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert re.fullmatch(
        r"error: retracted X is off St\(50,9\): \|\|X'X - I\|\|_F = \S+ > 1\.0e-09 at eta = 10 "
        r"\(polar-rgd, iteration \d+\)",
        lines[0],
    )


def test_usage_errors_raise_system_exit_one():
    # argparse normally exits 2 on usage errors; 2 means budget exhausted here
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["factorize", "--bogus-flag", "1"])
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["factorize", "--m", "not-an-int"])
    assert exc.value.code == EXIT_ERROR


def test_threads_must_be_positive(tmp_path, capsys):
    rc = main(["factorize", "--out", str(tmp_path / "r"), "--threads", "0"])
    assert rc == EXIT_ERROR
    assert "--threads" in capsys.readouterr().err


def test_threads_sets_blas_env_vars(monkeypatch, capsys):
    for var in _THREAD_ENV_VARS:
        # setenv records the value, or its absence, that teardown restores;
        # a bare delenv of an unset variable records nothing, and main's value would leak
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    # analyze without a path errors out after the env vars are pinned
    assert main(["analyze", "--threads", "3"]) == EXIT_ERROR
    capsys.readouterr()
    for var in _THREAD_ENV_VARS:
        assert os.environ[var] == "3"


# ---------------------------------------------------------------------------
# configuration layering

# the flag surface as the CLI declared it before the schemas were derived
# from polarlab.config: a renamed config field would rename a flag
PINNED_FACTORIZE_SCHEMA = {
    "algo": (str, "polar-rgd"),
    "m": (int, 50),
    "n": (int, 50),
    "r": (int, 9),
    "r_a": (int, 4),
    "kappa": (float, 10.0),
    "eta": (float, 1e-3),
    "gamma": (float, 1.0),
    "seed": (int, 0),
    "target_seed": (int, 1234),
    "max_iters": (int, 100_000),
    "loss_threshold": (float, 1e-8),
    "record_every": (int, 100),
}

PINNED_FINETUNE_SCHEMA = {
    "method": (str, "landing-polar"),
    "m": (int, 64),
    "n": (int, 32),
    "n_cols": (int, 256),
    "r_a": (int, 4),
    "kappa": (float, 10.0),
    "r": (int, 8),
    "alpha": (float, 32.0),
    "eta": (float, 1e-2),
    "lam": (float, 1e-3),
    "schedule": (str, "constant"),
    "theta_mode": (str, "full"),
    "grad_mode": (str, "landing"),
    "seed": (int, 0),
    "target_seed": (int, 1234),
    "max_iters": (int, 2000),
    "loss_threshold": (float, 1e-4),
    "record_every": (int, 10),
}


def test_derived_schemas_keep_the_flag_surface():
    from polarlab.cli import FACTORIZE_SCHEMA, FINETUNE_SCHEMA

    for derived, pinned in ((FACTORIZE_SCHEMA, PINNED_FACTORIZE_SCHEMA), (FINETUNE_SCHEMA, PINNED_FINETUNE_SCHEMA)):
        assert derived == pinned
        # 1e-3 == 0.001 either way; the echoed value must also keep its type
        assert {key: type(default) for key, (_, default) in derived.items()} == {
            key: type(default) for key, (_, default) in pinned.items()
        }


def test_cli_import_leaves_numpy_unloaded():
    # --threads must reach the BLAS environment variables before numpy loads
    import polarlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polarlab.__file__)))
    code = "import sys, polarlab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_config_file_then_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\nkappa=4.0\neta=0.007\n")
    out = str(tmp_path / "run")
    rc = main([
        "factorize", "--config", str(cfg), "--out", out,
        "--kappa", "2.0", "--m", "8", "--n", "8", "--r", "3", "--r-a", "2",
        "--max-iters", "5", "--record-every", "5",
    ])
    assert rc == EXIT_BUDGET
    echoed = _read_config_echo(out)
    assert echoed["kappa"] == "2.0"  # flag beats config file
    assert echoed["eta"] == "0.007"  # config file beats default
    assert echoed["m"] == "8"
    assert echoed["loss_threshold"] == "1e-08"  # untouched default


def test_config_resolved_is_self_describing(tmp_path):
    from polarlab import __version__
    from polarlab.cli import FACTORIZE_SCHEMA

    out = str(tmp_path / "run")
    argv = ["factorize", "--out", out, *FAST_FACTORIZE]
    argv[argv.index("--max-iters") + 1] = "5"
    assert main(argv) == EXIT_BUDGET
    echoed = _read_config_echo(out)
    assert set(echoed) == set(FACTORIZE_SCHEMA) | {"out", "polarlab_version"}
    assert echoed["out"] == out
    assert echoed["polarlab_version"] == __version__
    with open(os.path.join(out, "config_resolved.txt")) as fh:
        keys = [line.partition("=")[0] for line in fh if line.strip()]
    assert keys[:-2] == sorted(keys[:-2])


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    rc = main(["factorize", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert "bogus" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=twelve\n")
    rc = main(["factorize", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert "m" in capsys.readouterr().err


def test_malformed_config_line_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa 4.0\n")
    rc = main(["factorize", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert "key=value" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["factorize", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert "absent.cfg" in capsys.readouterr().err


def test_analyze_requires_path(tmp_path, capsys):
    rc = main(["analyze", "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert "path" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_are_byte_identical(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    argv = [*FAST_FACTORIZE]
    argv[argv.index("--max-iters") + 1] = "300"
    assert main(["factorize", "--out", out_a, *argv]) == EXIT_OK
    assert main(["factorize", "--out", out_b, *argv]) == EXIT_OK
    csvs = sorted(name for name in os.listdir(out_a) if name.endswith(".csv"))
    assert csvs
    for name in csvs:
        with open(os.path.join(out_a, name), "rb") as fa, open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name
    for name in sorted(os.listdir(os.path.join(out_a, "checkpoint"))):
        with open(os.path.join(out_a, "checkpoint", name), "rb") as fa:
            with open(os.path.join(out_b, "checkpoint", name), "rb") as fb:
                assert fa.read() == fb.read(), name


# ---------------------------------------------------------------------------
# analyze


def test_analyze_rank_one_checkpoint(tmp_path):
    from polarlab.stiefel import sample_stiefel_uniform

    rng = np.random.default_rng(3)
    ckpt = str(tmp_path / "ckpt")
    pio.save_checkpoint(
        ckpt,
        {
            "X": sample_stiefel_uniform(6, 1, rng),
            "Theta": np.array([[2.0]]),
            "Y": sample_stiefel_uniform(5, 1, rng),
        },
        {"kind": "polar-factors"},
    )
    out = str(tmp_path / "analysis")
    assert main(["analyze", "--path", ckpt, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["kind"] == "polar-factors"
    assert report["stable_rank"] == pytest.approx(1.0, abs=1e-9)
    assert report["spectral_norm"] == pytest.approx(2.0, abs=1e-9)
    assert report["top_singular_values"][0] == pytest.approx(2.0, abs=1e-9)
    assert report["n_left"] <= 1e-20 and report["n_right"] <= 1e-20
    assert os.path.isfile(os.path.join(out, "pairwise_distances_ckpt.csv"))


def test_analyze_run_directory_with_trace(tmp_path):
    run = str(tmp_path / "toy")
    assert main(["finetune-toy", "--out", run, *FAST_FINETUNE]) == EXIT_OK
    out = str(tmp_path / "analysis")
    assert main(["analyze", "--path", run, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["kind"] == "polar-adapter"
    assert report["final_loss"] <= 1e-4
    assert "stable_rank" in report
    # the landing trace logs feasibility, so the curve is exported
    feas = os.path.join(out, "feasibility_toy.csv")
    assert report["feasibility_csv"] == feas
    with open(feas) as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().splitlines()
    assert header == "iter,n_x,n_y"
    assert len(rows) == 400 // 50 + 1  # iterations 0,50,...,400 inclusive


def test_analyze_grid_of_runs(tmp_path):
    root = tmp_path / "grid"
    for seed in (0, 1):
        argv = [*FAST_FINETUNE]
        argv[argv.index("--seed") + 1] = str(seed)
        assert main(["finetune-toy", "--out", str(root / f"seed{seed}"), *argv]) == EXIT_OK
    out = str(tmp_path / "analysis")
    assert main(["analyze", "--path", str(root), "--out", out]) == EXIT_OK
    with open(os.path.join(out, "report.json")) as fh:
        reports = json.load(fh)
    assert [rep["label"] for rep in reports] == ["seed0", "seed1"]
    with open(os.path.join(out, "stable_rank.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "label,stable_rank"
    assert len(lines) == 3


def test_analyze_ignores_stray_checkpoint_files(tmp_path, capsys):
    run = str(tmp_path / "run")
    argv = ["factorize", "--out", run, *FAST_FACTORIZE]
    argv[argv.index("--max-iters") + 1] = "5"
    assert main(argv) == EXIT_BUDGET
    with open(os.path.join(run, "checkpoint", "notes.csv"), "w") as fh:
        fh.write("a note left next to the matrices\n")
    out = str(tmp_path / "analysis")
    assert main(["analyze", "--path", run, "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    with open(os.path.join(out, "report.json")) as fh:
        assert json.load(fh)["kind"] == "polar-factors"


def test_analyze_empty_directory_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["analyze", "--path", str(empty), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert "no checkpoint or trace" in capsys.readouterr().err


def test_analyze_missing_path_exits_one(tmp_path, capsys):
    rc = main(["analyze", "--path", str(tmp_path / "nothing-here"), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    capsys.readouterr()
