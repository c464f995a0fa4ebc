"""Golden traces: the CLI must reproduce a committed corpus of small runs.

``tests/golden/`` holds, for each run below, the trace CSV, its JSON
sidecar without ``total_wall_time`` (the one field outside the determinism
contract) and the checkpoint, plus ``fingerprint.json``, the numpy and BLAS
build that wrote them. The test regenerates the corpus in a subprocess
with every BLAS thread variable pinned to 1. On the same fingerprint every
file must be byte-equal. On another one, numbers are compared at the
relative tolerance in ``tests/golden/tolerance.json`` and everything else
must still match exactly.

A change that alters numerics on purpose regenerates the corpus in the
same commit and reports the largest relative change per column, with a
copy of the old corpus in OLD:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py tests/golden
    python tools/golden_diff.py OLD tests/golden
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
_spec = importlib.util.spec_from_file_location("golden_diff", TOOL)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_FACTORIZE = ["--m", "12", "--n", "10", "--r", "5", "--r-a", "2", "--kappa", "3", "--eta", "5e-2",
              "--max-iters", "200", "--record-every", "25"]
_FINETUNE = ["--m", "16", "--n", "12", "--n-cols", "32", "--r-a", "2", "--kappa", "4", "--r", "4",
             "--eta", "2e-2", "--lam", "1e-3", "--max-iters", "120", "--record-every", "20",
             "--loss-threshold", "1e-6"]

# run name -> argv without --seed and --out
CONFIGS = {
    # polar-rgd crosses its threshold inside the budget, so the early stop is covered too
    "polar-rgd": ["factorize", "--algo", "polar-rgd", *_FACTORIZE, "--loss-threshold", "1e-6"],
    "bm-gd": ["factorize", "--algo", "bm-gd", *_FACTORIZE, "--loss-threshold", "0"],
    "polar-rgd-sym": ["factorize", "--algo", "polar-rgd-sym", *_FACTORIZE, "--n", "12", "--loss-threshold", "0"],
    "landing-polar": ["finetune-toy", "--method", "landing-polar", *_FINETUNE],
    "landing-polar-ablation": ["finetune-toy", "--method", "landing-polar", "--grad-mode", "euclidean",
                               "--schedule", "linear", *_FINETUNE],
    "lora": ["finetune-toy", "--method", "lora", *_FINETUNE],
}
SEEDS = {"factorize": (0, 1, 2), "finetune-toy": (0, 1)}


def fingerprint() -> dict:
    """What decides the bits of a run besides the code: numpy and its BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "machine": platform.machine(),
    }


def generate(out: Path) -> None:
    """Run every configuration through the CLI into ``out/<name>-seed<k>``."""
    from contextlib import redirect_stdout
    from io import StringIO

    from polarlab import cli

    for name, argv in CONFIGS.items():
        for seed in SEEDS[argv[0]]:
            run_dir = out / f"{name}-seed{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            with redirect_stdout(StringIO()):
                code = cli.main([*argv, "--seed", str(seed), "--out", str(run_dir)])
            if code not in (cli.EXIT_OK, cli.EXIT_BUDGET):
                raise SystemExit(f"{run_dir.name}: exit code {code}")
            (run_dir / "config_resolved.txt").unlink()
            for sidecar in run_dir.glob("*.json"):
                meta = json.loads(sidecar.read_text())
                del meta["total_wall_time"]
                sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    (out / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2, sort_keys=True) + "\n")


def _files(root: Path) -> list:
    return sorted(f for f in golden_diff.files(root) if Path(f).name != "tolerance.json")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def test_golden_json_is_strict():
    # a sidecar or checkpoint that Python's json writes with NaN or Infinity is unreadable to strict parsers
    names = sorted(f for f in golden_diff.files(GOLDEN) if f.endswith(".json"))
    assert names
    for name in names:
        try:
            json.loads((GOLDEN / name).read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            raise AssertionError(f"{name}: {exc}") from None


def test_cli_reproduces_golden_corpus(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in THREAD_ENV_VARS})
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True, timeout=120)

    assert _files(tmp_path) == _files(GOLDEN)
    files = [f for f in _files(GOLDEN) if f != "fingerprint.json"]
    if (tmp_path / "fingerprint.json").read_bytes() == (GOLDEN / "fingerprint.json").read_bytes():
        differ = [f for f in files if (tmp_path / f).read_bytes() != (GOLDEN / f).read_bytes()]
        assert not differ, f"{len(differ)} of {len(files)} golden files changed, first: {differ[:5]}"
        return
    rtol = json.loads((GOLDEN / "tolerance.json").read_text())["rtol"]
    differ = []
    for f in files:
        fresh, golden = (golden_diff.tokens((root / f).read_text()) for root in (tmp_path, GOLDEN))
        if len(fresh) != len(golden) or any(golden_diff.relative_change(a, b) > rtol for a, b in zip(fresh, golden)):
            differ.append(f)
    assert not differ, f"{len(differ)} of {len(files)} golden files differ beyond rtol={rtol}, first: {differ[:5]}"


if __name__ == "__main__":
    generate(Path(sys.argv[1]))
