#!/usr/bin/env python3
"""Collect the benchmark runs of a parent commit and a change into one BENCH file.

    python3 tools/collect_bench.py PARENT_RESULTS CHANGE_RESULTS \
        --parent-commit SHA --change-commit SHA --tier1-seconds 140 --out BENCH_11.json \
        [--claims PARENT_CLAIMS CHANGE_CLAIMS]

PARENT_RESULTS and CHANGE_RESULTS are ``.bench_results/`` directories
written by ``benchmark/run.py --trace 0`` in a checkout of each commit.
For every workload, side and end-to-end metric, and for the per-call
x_ref and absolute time (``us_per_iter`` of a CLI call, ``us`` per step of
a kernel) of every call, the file records the median, the quartiles, the
IQR and the value of each run. Runs of the two sides with the same seed form a
pair; for each metric the file counts the pairs the change won, by the
metric's direction in BENCHMARK.json. It also records the environment
fingerprint of the runs, both commits and the tier-1 wall time given,
``src_lines`` and ``tests_lines``, the summed line counts of
``src/polarlab/*.py`` and of ``tests/*.py`` at each commit as this
repository's git reads them, ``exports``, the size of ``polarlab.__all__``
at each commit read with ast from its ``src/polarlab/__init__.py``,
``options``, the fields of the config classes of ``src/polarlab/config.py``
plus the keys the CLI schemas add beyond them, also read with ast (each
null where it cannot be read), and the OpenBLAS core and build
configuration that numpy's bundled OpenBLAS reports in the collecting
process ("unknown" when it cannot be read). Run
it on the machine and with the environment that ran the benchmark, since
OpenBLAS picks its core at load time from the CPU and OPENBLAS_CORETYPE.

With ``--claims``, the file also gets a ``claims`` section from the two
files that ``tests/test_acceptance.py`` appended to, one JSON object per
check and line, when ``POLARLAB_CLAIMS_OUT`` named them at each commit:
per check, the ``{ok, detail}`` of every line of each side in file order,
and ``same``, whether the two sides' lists are equal.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the keys of a run's fingerprint that name the commit and seed rather than the machine
RUN_KEYS = ("git_commit", "seed")


def numpy_libs() -> Path | None:
    """The directory of the shared libraries bundled with numpy's wheel, found without importing numpy."""
    spec = importlib.util.find_spec("numpy")
    return Path(spec.origin).resolve().parent.parent / "numpy.libs" if spec and spec.origin else None


def blas_runtime(libs: Path | None) -> dict:
    """The core and the config string of the ``libscipy_openblas64_*.so`` in ``libs``, "unknown" where absent."""
    found = {"openblas_core": "unknown", "openblas_config": "unknown"}
    paths = sorted(libs.glob("libscipy_openblas64_*.so")) if libs is not None else []
    try:
        lib = ctypes.CDLL(str(paths[0]))
    except (IndexError, OSError):
        return found
    for key, symbol in (("openblas_core", "scipy_openblas_get_corename64_"),
                        ("openblas_config", "scipy_openblas_get_config64_")):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            found[key] = getter().decode()
    return found


def py_lines(commit: str, directory: str, repo: Path = ROOT) -> int | None:
    """The summed line count of ``directory/*.py`` at ``commit``, None when git cannot read it there."""
    def git(*args) -> bytes:
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=True).stdout

    try:
        names = git("ls-tree", "--full-tree", "--name-only", f"{commit}:{directory}").decode().split()
        return sum(git("show", f"{commit}:{directory}/{name}").count(b"\n") for name in names if name.endswith(".py"))
    except (OSError, subprocess.CalledProcessError):
        return None


def _module_body(commit: str, path: str, repo: Path) -> list | None:
    """The top-level statements of the python file ``path`` at ``commit``, None when git or ast cannot read it."""
    try:
        source = subprocess.run(["git", "-C", str(repo), "show", f"{commit}:{path}"],
                                capture_output=True, check=True).stdout
        return ast.parse(source).body
    except (OSError, subprocess.CalledProcessError, SyntaxError, ValueError):
        return None


def exports(commit: str, repo: Path = ROOT) -> int | None:
    """The size of ``polarlab.__all__`` at ``commit``, None when git or ast cannot read it there. The
    ``__all__`` of ``src/polarlab/__init__.py`` may be built from its module-level literals with
    ``sorted``, ``list`` or ``tuple`` of one of them and ``+``."""
    body = _module_body(commit, "src/polarlab/__init__.py", repo)
    if body is None:
        return None
    bound = {}

    def value(node):
        if isinstance(node, ast.Name):
            return bound[node.id]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return value(node.left) + value(node.right)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords
                and node.func.id in ("sorted", "list", "tuple") and len(node.args) == 1):
            return list(value(node.args[0]))
        return ast.literal_eval(node)

    for node in body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            try:
                bound[node.targets[0].id] = value(node.value)
            except (KeyError, TypeError, ValueError):
                bound.pop(node.targets[0].id, None)
    names = bound.get("__all__")
    return len(names) if isinstance(names, (list, tuple)) else None


def options(commit: str, repo: Path = ROOT) -> int | None:
    """The number of settings at ``commit``: the fields of every class in ``src/polarlab/config.py``, plus
    the keys each CLI schema (a module-level ``*_SCHEMA`` of ``src/polarlab/cli.py``) adds beyond them,
    read with ast. A schema is a dict literal, all of whose keys are its own, or ``_schema(<dict literal>,
    <config class>)``, whose own keys are the literal's that are not fields of the class. None when git or
    ast cannot read them there, or a schema has another form."""
    config, cli = (_module_body(commit, f"src/polarlab/{name}.py", repo) for name in ("config", "cli"))
    if config is None or cli is None:
        return None
    fields = {node.name: {stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
              for node in config if isinstance(node, ast.ClassDef)}
    count = sum(len(names) for names in fields.values())
    for node in cli:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_SCHEMA")):
            continue
        schema, inherited = node.value, set()
        if (isinstance(schema, ast.Call) and isinstance(schema.func, ast.Name) and schema.func.id == "_schema"
                and len(schema.args) == 2 and isinstance(schema.args[1], ast.Name)
                and schema.args[1].id in fields):
            schema, inherited = schema.args[0], fields[schema.args[1].id]
        if not isinstance(schema, ast.Dict) or not all(isinstance(k, ast.Constant) for k in schema.keys):
            return None
        count += len({k.value for k in schema.keys} - inherited)
    return count


def load_runs(directory: Path) -> dict:
    """workload -> list of untraced result records, in file name order."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


# the per-call detail a BENCH file keeps: the cost relative to the call's reference, and the absolute
# time per iteration of a CLI call or per step of a kernel
CALL_METRICS = (".x_ref", ".us_per_iter", ".us")


def metric_values(record: dict) -> dict:
    """name -> (unit, value): the end-to-end metrics and the per-call x_ref and us medians of one run."""
    out = {name: (entry["unit"], entry["value"]) for name, entry in record["output"]["metrics"].items()}
    out.update({name: (entry["unit"], entry["median"]) for name, entry in record["detail"].items()
                if name.endswith(CALL_METRICS)})
    return out


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def machine(records: list) -> dict:
    """The fingerprint shared by every run, without its commit and seed; an error if runs differ."""
    prints = [{k: v for k, v in r["fingerprint"].items() if k not in RUN_KEYS} for r in records]
    for other in prints[1:]:
        if other != prints[0]:
            raise SystemExit(f"error: runs from different environments: {prints[0]} vs {other}")
    return prints[0]


def load_claims(path: Path) -> dict:
    """check -> [{ok, detail}, ...] in line order, from a file of ``{check, ok, detail}`` JSON lines."""
    claims = {}
    for line in path.read_text().splitlines():
        if line.strip():
            entry = json.loads(line)
            claims.setdefault(entry["check"], []).append({"ok": entry["ok"], "detail": entry["detail"]})
    return claims


def compare_claims(parent: dict, change: dict) -> dict:
    """check -> both sides' lines and whether they are the same, over the checks of either side."""
    return {check: {"parent": parent.get(check, []), "change": change.get(check, []),
                    "same": parent.get(check) == change.get(check)}
            for check in sorted(set(parent) | set(change))}


def collect(parent: dict, change: dict, lower_is_better: dict) -> dict:
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        sides = {"parent": parent[workload], "change": change[workload]}
        per_side = {side: [metric_values(r) for r in records] for side, records in sides.items()}
        seeds = {side: [r["seed"] for r in records] for side, records in sides.items()}
        metrics = {}
        for name in sorted(set.intersection(*(set(v) for runs in per_side.values() for v in runs))):
            entry = {"unit": per_side["change"][0][name][0]}
            by_seed = {}
            for side, runs in per_side.items():
                values = [run[name][1] for run in runs]
                entry[side] = summary(values)
                by_seed[side] = dict(zip(seeds[side], values))
            pairs = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
            lower = lower_is_better.get(name, True)  # a per-call x_ref or time is a cost
            wins = sum((by_seed["change"][s] < by_seed["parent"][s]) == lower
                       and by_seed["change"][s] != by_seed["parent"][s] for s in pairs)
            entry.update(pairs=len(pairs), change_wins=wins,
                         ratio=entry["change"]["median"] / entry["parent"]["median"])
            metrics[name] = entry
        workloads[workload] = {
            "runs": {side: len(records) for side, records in sides.items()},
            "seconds": sides["change"][0]["seconds"],
            "seeds": seeds,
            "metrics": metrics,
        }
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--tier1-seconds", type=float, required=True, help="tier-1 wall time at the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claims", nargs=2, type=Path, metavar=("PARENT_CLAIMS", "CHANGE_CLAIMS"))
    args = parser.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not set(parent) & set(change):
        print(f"error: no workload has untraced runs on both sides ({args.parent}, {args.change})", file=sys.stderr)
        return 1
    try:
        claims = compare_claims(*map(load_claims, args.claims)) if args.claims else None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read the claims files {args.claims[0]}, {args.claims[1]}: {exc!r}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    bench = {
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "tier1_wall_s": args.tier1_seconds,
        "src_lines": {side: py_lines(commit, "src/polarlab") for side, commit in commits.items()},
        "tests_lines": {side: py_lines(commit, "tests") for side, commit in commits.items()},
        "exports": {side: exports(commit) for side, commit in commits.items()},
        "options": {side: options(commit) for side, commit in commits.items()},
        "fingerprint": machine([r for runs in (*parent.values(), *change.values()) for r in runs]),
        "blas_runtime": blas_runtime(numpy_libs()),
        "workloads": collect(parent, change, lower_is_better),
    }
    if claims is not None:
        bench["claims"] = claims
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for workload, entry in bench["workloads"].items():
        for name in ("step_cost.geomean", "setup_s", "peak_rss_mb"):
            m = entry["metrics"][name]
            print(f"{workload:13} {name:18} parent {m['parent']['median']:.4g} [IQR {m['parent']['iqr']:.3g}]"
                  f"  change {m['change']['median']:.4g} [IQR {m['change']['iqr']:.3g}]"
                  f"  ratio {m['ratio']:.3f}  change won {m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
