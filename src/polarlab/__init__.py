"""Polar-parameterized low-rank factorization on the Stiefel manifold.

Importing this package is deliberately cheap: submodules (and numpy with
them) load on first attribute access, so callers can pin BLAS thread
counts through the environment before any numerical code runs.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    # exceptions
    "FeasibilityError": "exceptions",
    "RankDeficientError": "exceptions",
    "DivergenceError": "exceptions",
    # manifold primitives and diagnostics
    "sample_stiefel_uniform": "stiefel",
    "polar_retract": "stiefel",
    "tangent_project": "stiefel",
    "stiefel_error": "stiefel",
    "require_stiefel": "stiefel",
    "distance_to_stiefel": "stiefel",
    "stable_rank": "stiefel",
    "SpectrumSummary": "stiefel",
    "alignment": "stiefel",
    "AlignmentReport": "stiefel",
    "pairwise_direction_distances": "stiefel",
    "DirectionDiversity": "stiefel",
    # matrix and state checkpoint serialization
    "save_matrix_csv": "io",
    "load_matrix_csv": "io",
    "save_checkpoint": "io",
    "save_state": "io",
    "load_state": "io",
    # run traces
    "RunTrace": "trace",
    "write_trace": "trace",
    "read_trace_csv": "trace",
    "trace_basename": "trace",
    # factorization experiments
    "RGDConfig": "config",
    "FactorizationTarget": "factorization",
    "make_target": "factorization",
    "make_sym_target": "factorization",
    "make_whitened_task": "factorization",
    "PolarFactors": "factorization",
    "BMFactors": "factorization",
    "SymFactors": "factorization",
    "init_polar_factors": "factorization",
    "init_bm_factors": "factorization",
    "init_sym_factors": "factorization",
    "factor_loss": "factorization",
    "run_polar_rgd": "factorization",
    "run_bm_gd": "factorization",
    "run_sym_rgd": "factorization",
    # landing-method adapter training
    "AdapterState": "landing",
    "LoraState": "landing",
    "LandingConfig": "config",
    "AdamState": "landing",
    "adam_transform": "landing",
    "landing_field": "landing",
    "grad_distance_to_stiefel": "landing",
    "init_adapter_state": "landing",
    "init_lora_state": "landing",
    "train_polar_landing": "landing",
    "train_lora": "landing",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
