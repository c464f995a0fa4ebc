"""End-to-end tests of the command line front end.

Every test drives ``polarlab.cli.main`` in process with an explicit argv
and a tmp_path output directory, then inspects exit codes and the files
the run leaves behind. Runs use deliberately tiny problem sizes so the
whole module stays fast.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarlab import io as pio
from polarlab.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, _THREAD_ENV_VARS, main

GOLDEN = Path(__file__).resolve().parent / "golden"

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["finetune-toy", "--method", "adamw", *FAST_FINETUNE], "unknown method 'adamw' (expected landing-polar or lora)"),
        # with a bad task and loss threshold as well, the method is the error reported
        (["finetune-toy", "--method", "adamw", *FAST_FINETUNE, "--n-cols", "8", "--loss-threshold", "-1"],
         "unknown method 'adamw' (expected landing-polar or lora)"),
        (["factorize", "--algo", "newton", *FAST_FACTORIZE, "--target-seed", "-1"], "unknown algorithm 'newton'"),
    ],
    ids=["finetune", "finetune-bad-task", "factorize-bad-seed"],
)
def test_unknown_method_exits_one_before_the_target_is_drawn(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "r")]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_unknown_schedule_exits_one(tmp_path, capsys):
    rc = main(["finetune-toy", "--out", str(tmp_path / "r"), "--schedule", "cosine", *FAST_FINETUNE])
    assert rc == EXIT_ERROR
    assert "cosine" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["landing-polar", "lora"])
def test_unknown_grad_mode_exits_one(tmp_path, capsys, method):
    # the LoRA trainer has no landing field, but its config rejects a bad mode all the same
    argv = ["finetune-toy", "--out", str(tmp_path / "r"), "--method", method, "--grad-mode", "nope", *FAST_FINETUNE]
    assert main(argv) == EXIT_ERROR
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [(["finetune-toy", *FAST_FINETUNE], "theta_mode", "full"),
                                                 (["factorize", *FAST_FACTORIZE], "gamma", "0.5")],
                         ids=["theta_mode", "gamma"])
def test_theta_mode_is_not_a_setting(tmp_path, capsys, command, key, value, source):
    # Theta is always the full r x r matrix X^T A Y, refreshed undamped: the flag is unknown
    # to the parser, the key to the schema
    argv = [*command, "--out", str(tmp_path / "r")]
    flag = f"--{key.replace('_', '-')}"
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == EXIT_ERROR
        message = f"unrecognized arguments: {flag} {value}"
    else:
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        assert main([*argv, "--config", str(tmp_path / "run.cfg")]) == EXIT_ERROR
        message = f"unknown config key {key!r} for {command[0]}"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_sym_target_needs_n_equal_to_m(tmp_path, capsys):
    # the symmetric target is m x m; a bad target seed as well shows that n is checked before the draw
    argv = ["factorize", "--algo", "polar-rgd-sym", *FAST_FACTORIZE, "--n", "10", "--target-seed", "-1"]
    assert main([*argv, "--out", str(tmp_path / "r")]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == ["error: polar-rgd-sym fits an m x m target, got m = 12 and n = 10"]
    assert not (tmp_path / "r").exists()


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
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        (["finetune-toy", *FAST_FINETUNE], "--lam", "inf", "lam must be finite and positive, got lam = inf"),
        (["finetune-toy", *FAST_FINETUNE], "--alpha", "inf", "alpha must be finite and positive, got alpha = inf"),
        (["finetune-toy", *FAST_FINETUNE], "--alpha", "0", "alpha must be finite and positive, got alpha = 0.0"),
        (["finetune-toy", *FAST_FINETUNE], "--r", "0", "need 1 <= r <= min(m, n), got r=0, m=24, n=16"),
        (["finetune-toy", *FAST_FINETUNE], "--r", "20", "need 1 <= r <= min(m, n), got r=20, m=24, n=16"),
        (["finetune-toy", *FAST_FINETUNE, "--method", "lora"], "--r", "0", "need r >= 1, got r=0, m=24, n=16"),
        (["finetune-toy", *FAST_FINETUNE, "--method", "lora"], "--r", "-1", "need r >= 1, got r=-1, m=24, n=16"),
        (["factorize", *FAST_FACTORIZE], "--seed", "-5", "seed must be >= 0, got -5"),
        (["factorize", *FAST_FACTORIZE], "--target-seed", "-1", "target_seed must be >= 0, got -1"),
        (["finetune-toy", *FAST_FINETUNE], "--seed", "-1", "seed must be >= 0, got -1"),
        (["finetune-toy", *FAST_FINETUNE], "--target-seed", "-1", "target_seed must be >= 0, got -1"),
    ],
    ids=["finetune-toy-lam-inf", "finetune-toy-alpha-inf", "finetune-toy-alpha-0",
         "finetune-toy-polar-r-0", "finetune-toy-polar-r-above-n", "finetune-toy-lora-r-0", "finetune-toy-lora-r-negative",
         "factorize-seed-negative", "factorize-target-seed-negative", "finetune-toy-seed-negative",
         "finetune-toy-target-seed-negative"],
)
def test_bad_step_setting_exits_one_with_one_line(tmp_path, capsys, command, flag, value, message):
    # a step size or penalty that is not finite and positive, an adapter rank out of range
    # for the base weight, or a negative seed (numpy's own error for it names no flag),
    # stops the command before its run starts
    rc = main([*command, flag, value, "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "r").exists()


def test_bm_gd_divergence_names_the_last_loss_and_eta(tmp_path, capsys):
    rc = main(["factorize", "--algo", "bm-gd", "--r", "20", "--kappa", "100", "--eta", "50", "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        "error: bm-gd diverged at iteration 1: loss = 3.321e+13; last loss within the limit = 7.852e+03 at iteration 0;"
        " eta = 50"
    ]
    assert not (tmp_path / "r").exists()


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
    pattern = r"error: landing-polar diverged at iteration (\d+): loss = \S+; last loss within the limit = \S+ at iteration (\d+); eta = 5"
    match = re.fullmatch(pattern, lines[0])
    assert match, lines[0]
    assert int(match[2]) == int(match[1]) - 1


# runs the CLI on sys.argv[1:] with X added to the first retraction's direction: X is normal to the
# tangent space at X, as X^T X + X^T X = 2 I
_NON_TANGENT_CLI = """
import sys
import polarlab.cli
import polarlab.factorization as fx

retract, calls = fx.polar_retract, []

def skewed(X, D, eta):
    calls.append(eta)
    return retract(X, D + X if len(calls) == 1 else D, eta)

fx.polar_retract = skewed
sys.exit(polarlab.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_tangent_step_exits_one_with_one_line(tmp_path, flags):
    # the retraction's own check must report a non-tangent direction as an error line,
    # with or without python -O, and print no traceback
    import polarlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polarlab.__file__)))
    argv = ["factorize", "--max-iters", "10", "--out", str(tmp_path / "r")]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _NON_TANGENT_CLI, *argv], env=env, capture_output=True, text=True, timeout=120
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
@pytest.mark.parametrize("eta", ["inf", "nan", "-1", "0"])
def test_non_finite_eta_exits_one_with_one_line(tmp_path, algo, eta):
    # bm-gd retracts nothing; its config rejects the step before a numpy warning can fire,
    # and a zero step, which would spend the budget without moving
    proc = _cli_subprocess(tmp_path, "factorize", "--algo", algo, "--eta", eta)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == f"error: eta must be finite and positive, got eta = {float(eta)}\n"


def test_finetune_records_the_kappa_it_was_given(tmp_path):
    # kappa = 1e5 plants sigma_1 / sigma_r_a = 99999.99999999999; both commands record 1e5 itself
    main(["finetune-toy", *FAST_FINETUNE, "--kappa", "1e5", "--max-iters", "2", "--out", str(tmp_path / "ft")])
    main(["factorize", *FAST_FACTORIZE, "--algo", "bm-gd", "--kappa", "1e5", "--eta", "1e-7",
          "--max-iters", "2", "--out", str(tmp_path / "fx")])
    assert sorted(os.listdir(tmp_path / "ft")) == ["checkpoint", "config_resolved.txt",
                                                 "landing-polar_100000_4_0.csv", "landing-polar_100000_4_0.json"]
    assert "bm-gd_100000_5_1.csv" in os.listdir(tmp_path / "fx")
    with open(tmp_path / "ft" / "landing-polar_100000_4_0.json") as fh:
        assert json.load(fh)["kappa"] == 100000.0


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the tied direction drifts off St and stops the run "
                   "with a tangency error at iteration 17")
def test_tied_rgd_above_its_stable_step_does_not_stop_on_geometry(tmp_path, capsys):
    argv = ["factorize", "--algo", "polar-rgd-sym", "--eta", "0.01", "--max-iters", "400", "--loss-threshold", "0"]
    assert main([*argv, "--out", str(tmp_path / "r")]) == EXIT_BUDGET, capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a step above polar-rgd's stable limit stops with a "
                   "FeasibilityError at iteration 15, not a divergence")
def test_polar_rgd_above_its_stable_step_ends_without_a_geometry_fault(tmp_path, capsys):
    argv = ["factorize", "--algo", "polar-rgd", "--r", "20", "--kappa", "100", "--eta", "2e-4",
            "--max-iters", "300", "--loss-threshold", "0"]
    rc = main([*argv, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == EXIT_BUDGET or (rc == EXIT_ERROR and "diverged" in err), err


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


def _run_files(run_dir: Path) -> dict:
    """Relative path -> bytes of every file of a run directory; the sidecar without its wall time."""
    files = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.parent == run_dir and path.suffix == ".json":
            meta = json.loads(data)
            del meta["total_wall_time"]
            data = json.dumps(meta, sort_keys=True).encode()
        files[str(path.relative_to(run_dir))] = data
    return files


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process, so a call may not see the flags or the failure of an earlier one
    calls = [
        ["factorize", "--m", "not-an-int"],
        ["factorize", *FAST_FACTORIZE, "--algo", "bm-gd", "--eta", "0.02", "--max-iters", "300"],
        ["finetune-toy", *FAST_FINETUNE, "--method", "lora", "--schedule", "linear", "--alpha", "16"],
        ["factorize", "--max-iters", "40", "--record-every", "10"],
    ]
    run = tmp_path / "r"
    for i, argv in enumerate(calls):
        try:
            code = main([*argv, "--out", str(run)])
        except SystemExit as exc:
            code = exc.code
        in_process = capsys.readouterr()
        files = _run_files(run) if run.exists() else {}
        shutil.rmtree(run, ignore_errors=True)
        fresh = _cli_subprocess(tmp_path, *argv)
        assert (code, in_process.out, in_process.err) == (fresh.returncode, fresh.stdout, fresh.stderr), i
        assert files == (_run_files(run) if run.exists() else {}), i
        assert i == 0 or files, i
        shutil.rmtree(run, ignore_errors=True)


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


def test_analyze_negative_top_k_exits_one_with_one_line(tmp_path, capsys):
    # a negative top_k would drop the smallest singular values instead of keeping the largest
    run = str(tmp_path / "run")
    shutil.copytree(GOLDEN / "landing-polar-seed0", run)
    out = tmp_path / "analysis"
    assert main(["analyze", "--path", run, "--top-k", "-3", "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: top_k must be >= 0, got -3"]
    assert captured.out == "" and not (out / "report.json").exists()
    assert main(["analyze", "--path", run, "--top-k", "0", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["top_singular_values"] == []


def test_analyze_ragged_trace_exits_one_with_one_line(tmp_path, capsys):
    # the last row of a golden landing trace cut to 4 cells: read as is, the columns would
    # come back ragged and the feasibility curve would lose iteration 120
    run = tmp_path / "run"
    shutil.copytree(GOLDEN / "landing-polar-seed0", run)
    csv_path = run / "landing-polar_4_4_0.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[-1].startswith("120,")
    csv_path.write_text("\n".join([*lines[:-1], ",".join(lines[-1].split(",")[:4])]) + "\n")
    assert main(["analyze", "--path", str(run), "--out", str(tmp_path / "analysis")]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {csv_path}:8: 4 cells, the header has 10"]


def test_analyze_grid_with_a_ragged_second_trace_leaves_no_out(tmp_path, capsys):
    # the first run reads cleanly; its files must not be written when the second one fails
    grid = tmp_path / "grid"
    for name, seed in (("a", 0), ("b", 1)):
        shutil.copytree(GOLDEN / f"landing-polar-seed{seed}", grid / name)
    csv_path = grid / "b" / "landing-polar_4_4_1.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([*lines[:-1], ",".join(lines[-1].split(",")[:4])]) + "\n")
    out = tmp_path / "analysis"
    assert main(["analyze", "--path", str(grid), "--out", str(out)]) == EXIT_ERROR
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_analyze_run_with_two_traces_exits_one_with_one_line(tmp_path, capsys):
    # analyze reads one trace per run; a second one would be skipped without a word
    run = tmp_path / "run"
    shutil.copytree(GOLDEN / "landing-polar-seed0", run)
    shutil.copy(GOLDEN / "lora-seed0" / "lora_4_4_0.csv", run)
    out = tmp_path / "analysis"
    assert main(["analyze", "--path", str(run), "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {run}: 2 trace CSVs in one run directory (landing-polar_4_4_0.csv, lora_4_4_0.csv); expected at most one"
    ]
    assert captured.out == "" and not (out / "report.json").exists()


def test_analyze_matrix_with_one_dimension_exits_one_with_one_line(tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(GOLDEN / "landing-polar-seed0", run)
    matrix = run / "checkpoint" / "X.csv"
    lines = matrix.read_text().splitlines()
    assert lines[1] == "16,4"
    matrix.write_text("\n".join([lines[0], "16", *lines[2:]]) + "\n")
    assert main(["analyze", "--path", str(run), "--out", str(tmp_path / "analysis")]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {matrix}: expected two integer dimensions on line 2, got '16'"]


def test_analyze_non_numeric_matrix_cell_exits_one_with_one_line(tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(GOLDEN / "landing-polar-seed0", run)
    matrix = run / "checkpoint" / "X.csv"
    lines = matrix.read_text().splitlines()
    lines[2] = ",".join(["abc", *lines[2].split(",")[1:]])
    matrix.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--path", str(run), "--out", str(tmp_path / "analysis")]) == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [f"error: {matrix}:3: could not convert string to float: 'abc'"]


def test_analyze_files_hold_the_trace_columns_and_the_report_values(tmp_path):
    from polarlab.config import LandingConfig
    from polarlab.factorization import make_whitened_task
    from polarlab.landing import train_polar_landing
    from polarlab.trace import read_trace_csv, write_trace

    root = tmp_path / "grid"
    traces = {}
    for seed in (0, 1):
        task = make_whitened_task(24, 16, 48, 2, np.random.default_rng(7), kappa=4.0)
        cfg = LandingConfig(eta=0.05, lam=1e-3, max_iters=60, record_every=20, seed=seed)
        traces[f"seed{seed}"], state = train_polar_landing(task, 4, cfg)
        write_trace(traces[f"seed{seed}"], root / f"seed{seed}")
        pio.save_state(root / f"seed{seed}" / "checkpoint", state, {})
    out = tmp_path / "analysis"
    assert main(["analyze", "--path", str(root), "--out", str(out)]) == EXIT_OK
    for label, trace in traces.items():
        feasibility = read_trace_csv(out / f"feasibility_{label}.csv")
        assert feasibility == {name: trace.columns[name] for name in ("iter", "n_x", "n_y")}
    reports = json.loads((out / "report.json").read_text())
    lines = (out / "stable_rank.csv").read_text().splitlines()
    assert lines[0] == "label,stable_rank"
    ranks = {label: float(value) for label, value in (line.split(",") for line in lines[1:])}
    assert ranks == {rep["label"]: rep["stable_rank"] for rep in reports} and len(ranks) == 2


def test_analyze_missing_path_exits_one(tmp_path, capsys):
    rc = main(["analyze", "--path", str(tmp_path / "nothing-here"), "--out", str(tmp_path / "r")])
    assert rc == EXIT_ERROR
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "r").exists()
