"""The package's layout: the root imports nothing, and no module imports a
name it never reads. The step path forms its 2-D products with ``np.dot``,
not ``@``."""

import ast
import importlib
import pathlib

import pytest

import polarlab

# module-level imports that their module never reads, as module.name: benchmark/layers.py traces
# these names in these modules, and benchmark/test_benchmark.py raises KeyError without them
UNREAD_IMPORTS_ALLOWED = {
    "factorization.require_stiefel",
    "factorization.tangent_project",
    "landing.distance_to_stiefel",
    "landing.stable_rank",
}


def test_package_root_imports_nothing():
    tree = ast.parse(pathlib.Path(polarlab.__file__).read_text())
    stray = [node.lineno for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef))]
    assert not stray, f"polarlab/__init__.py imports or defines a function at lines {stray}"
    assert polarlab.__all__ == ["__version__"]


def test_no_module_imports_a_name_it_never_reads():
    unread = set()
    for path in sorted(pathlib.Path(polarlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = {alias.asname or alias.name.split(".")[0] for alias in node.names}
                unread.update(f"{path.stem}.{name}" for name in bound - read)
    assert unread == UNREAD_IMPORTS_ALLOWED


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
