"""The package's lazy export table: every public name resolves. The step
path forms its 2-D products with ``np.dot``, not ``@``."""

import ast
import importlib
import pathlib

import pytest

import polarlab


def test_every_export_resolves():
    for name in polarlab.__all__:
        assert getattr(polarlab, name) is not None, name
    assert sorted(dir(polarlab)) == sorted(polarlab.__all__)


# module -> the functions of a step and of a trace row, by qualified name
STEP_PATH = {
    "stiefel": (
        "stiefel_error",
        "_binomial_inv_sqrt",
        "_series_order",
        "polar_retract",
        "tangent_project",
        "distance_to_stiefel",
        "alignment",
    ),
    "factorization": (
        "PolarFactors.delta_w",
        "BMFactors.delta_w",
        "SymFactors.delta_w",
        "_alignment_columns",
        "_PolarRGD.evaluate",
        "_PolarRGD.step",
        "_BMGD.evaluate",
        "_BMGD.step",
    ),
    "landing": (
        "AdapterState.delta_w",
        "LoraState.delta_w",
        "adam_transform",
        "grad_distance_to_stiefel",
        "landing_field",
        "whitened_task_grads",
        "lora_grads",
        "_adapter_columns",
        "_PackedAdam.step",
        "_PackedAdam.record",
        "_PolarLanding.step",
        "_Lora.step",
    ),
}


def _functions(module: str) -> dict:
    """The module-level functions and methods of ``polarlab.<module>`` by qualified name, as parsed."""
    tree = ast.parse(pathlib.Path(importlib.import_module(f"polarlab.{module}").__file__).read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef))
    return found


@pytest.mark.parametrize("module", STEP_PATH)
def test_step_path_forms_no_product_with_matmul_operator(module):
    # @ dispatches through the matmul gufunc, which costs more per call at the step's small
    # shapes than np.dot for the same BLAS routine and the same bits
    functions = _functions(module)
    missing = [name for name in STEP_PATH[module] if name not in functions]
    assert not missing, f"no such function in polarlab.{module}: {missing}"
    stray = [
        f"polarlab.{module}.{name} line {node.lineno}"
        for name in STEP_PATH[module]
        for node in ast.walk(functions[name])
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not stray, f"@ on the step path: {', '.join(stray)}"
