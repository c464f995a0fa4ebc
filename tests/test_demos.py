"""Smoke tests of the demos: each runs as a script and exits cleanly.

Every demo runs in its own interpreter with one BLAS thread and with
tmp_path as its working directory, so its default output directory lands
there and the repository is left untouched.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "diagnostics_tour.py": [],
    "landing_adapter_toy.py": ["--iters", "300"],
    "factorization_convergence.py": ["--quick"],
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *DEMOS[demo]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
