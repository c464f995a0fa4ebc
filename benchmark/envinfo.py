"""The environment fingerprint stamped into every result file."""

from __future__ import annotations

import os
import platform
import subprocess

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _git_commit(root) -> str:
    # only a checkout with its own .git is asked, so git never climbs to a parent repository
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def fingerprint(root, seed: int) -> dict:
    import numpy as np
    import polarlab

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_ENV_VARS},
        "polarlab": polarlab.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
    }
