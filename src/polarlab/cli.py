"""Command line front end.

Subcommands
-----------
factorize     run one matrix-factorization experiment and write its trace
finetune-toy  train the polar adapter (or the LoRA baseline) on the whitened toy task
analyze       report spectrum / feasibility / diversity diagnostics of a checkpoint

Each subcommand is one entry of ``COMMANDS``: its config schema and its
handler. The schemas of ``factorize`` and ``finetune-toy`` are their own
target or task keys plus the fields of ``polarlab.config.RGDConfig`` and
``LandingConfig``, whose defaults and range checks they inherit; a field's
name is its config key and, with dashes, its flag. Configuration is
resolved in three layers: the schema's defaults, then a flat ``key=value``
config file (``--config``), then explicit flags. Unknown config keys are an
error. Output goes to ``--out``, by default ``runs/<subcommand>``. A command
that finished (exit 0 or 2) echoes the resolved configuration to
``<out>/config_resolved.txt``, so a run can be reproduced from its output
directory alone; a command rejected before its run, or stopped by a
divergence or a geometry fault, creates no file and no directory, and so
does an ``analyze`` that cannot read one of its runs.
Checkpoints are written and read by ``polarlab.io.save_state`` and
``load_state``; the state classes define what a checkpoint holds.

Exit codes: 0 the run converged (or the command has no convergence
notion), 2 the iteration budget ran out first, 1 any error.

Only the standard library and the numpy-free ``config``, ``exceptions`` and
``trace`` modules are imported at module load; ``--threads`` must take
effect through the BLAS environment variables before numpy first loads, so
all numerical imports happen inside the subcommand handlers.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .config import LandingConfig, RGDConfig, check_loss_threshold
from .exceptions import DivergenceError
from .trace import CORE_COLUMNS, read_trace_csv, write_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_CASTERS = {"int": int, "float": float, "str": str}


def _schema(keys: dict, config_cls) -> dict:
    """``keys`` plus one entry per field of ``config_cls``, with the field's
    default (annotations are strings under postponed evaluation)."""
    fields = dataclasses.fields(config_cls)
    return {**keys, **{f.name: (_CASTERS[f.type], f.default) for f in fields}}


def _config(config_cls, cfg: dict):
    """The ``config_cls`` instance of a resolved configuration; it checks every range."""
    return config_cls(**{f.name: cfg[f.name] for f in dataclasses.fields(config_cls)})


def _target_rng(cfg: dict):
    """The generator the target or task is drawn from; numpy's own error for a negative seed names no flag."""
    import numpy as np

    if cfg["target_seed"] < 0:
        raise CliError(f"target_seed must be >= 0, got {cfg['target_seed']}")
    return np.random.default_rng(cfg["target_seed"])


# schema: config key -> (caster, default); None default means required
FACTORIZE_SCHEMA = _schema(
    {
        "algo": (str, "polar-rgd"),
        "m": (int, 50),
        "n": (int, 50),
        "r": (int, 9),
        "r_a": (int, 4),
        "kappa": (float, 10.0),
        "target_seed": (int, 1234),
    },
    RGDConfig,
)

FINETUNE_SCHEMA = _schema(
    {
        "method": (str, "landing-polar"),
        "m": (int, 64),
        "n": (int, 32),
        "n_cols": (int, 256),
        "r_a": (int, 4),
        "kappa": (float, 10.0),
        "r": (int, 8),
        "target_seed": (int, 1234),
        "loss_threshold": (float, 1e-4),
    },
    LandingConfig,
)

ANALYZE_SCHEMA = {
    "path": (str, None),
    "top_k": (int, 10),
}

class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for exhausted budgets here
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


@functools.cache  # parse_args leaves the parser unchanged and returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polarlab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (schema, _handler) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default=f"runs/{name}", help="output directory")
        p.add_argument("--threads", type=int, help="pin BLAS to this many threads")
        for key, (caster, _default) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster, default=None)
    return parser


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _resolve_config(command: str, args) -> dict:
    schema = COMMANDS[command][0]
    cfg = {key: default for key, (_caster, default) in schema.items()}
    if args.config:
        for key, val in _parse_config_file(args.config).items():
            if key not in schema:
                raise CliError(f"unknown config key {key!r} for {command}")
            caster = schema[key][0]
            try:
                cfg[key] = caster(val)
            except ValueError as exc:
                raise CliError(f"config key {key!r}: {exc}") from exc
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    missing = [key for key, val in cfg.items() if val is None]
    if missing:
        raise CliError(f"{command} requires {', '.join(sorted(missing))} (flag or config)")
    return cfg


def _echo_config(out_dir: str, cfg: dict) -> None:
    from . import __version__

    os.makedirs(out_dir, exist_ok=True)
    lines = [f"{key}={cfg[key]}" for key in sorted(cfg)]
    lines.append(f"out={out_dir}")
    lines.append(f"polarlab_version={__version__}")
    with open(os.path.join(out_dir, "config_resolved.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_factorize(cfg: dict, out_dir: str) -> int:
    from . import factorization as fx
    from . import io as pio
    from .trace import write_trace

    algorithm = cfg["algo"]
    runner = {"polar-rgd": fx.run_polar_rgd, "bm-gd": fx.run_bm_gd, "polar-rgd-sym": fx.run_sym_rgd}.get(algorithm)
    if runner is None:
        raise CliError(f"unknown algorithm {algorithm!r}")
    if algorithm == "polar-rgd-sym" and cfg["n"] != cfg["m"]:  # the target is m x m; n would be echoed unread
        raise CliError(f"polar-rgd-sym fits an m x m target, got m = {cfg['m']} and n = {cfg['n']}")
    target_rng = _target_rng(cfg)
    if algorithm == "polar-rgd-sym":
        target = fx.make_sym_target(cfg["m"], cfg["r_a"], cfg["kappa"], target_rng)
    else:
        target = fx.make_target(cfg["m"], cfg["n"], cfg["r_a"], cfg["kappa"], target_rng)
    trace, factors = runner(target, cfg["r"], _config(RGDConfig, cfg))
    csv_path = write_trace(trace, out_dir)
    pio.save_state(os.path.join(out_dir, "checkpoint"), factors, trace.metadata)
    converged = bool(trace.metadata.get("converged", False))
    print(
        f"{algorithm}: {'converged' if converged else 'budget exhausted'} "
        f"at iteration {trace.metadata['iterations']}, final loss {trace.final_loss:.6e}"
    )
    print(f"trace: {csv_path}")
    return EXIT_OK if converged else EXIT_BUDGET


def _cmd_finetune_toy(cfg: dict, out_dir: str) -> int:
    from . import io as pio
    from . import landing as ld
    from .factorization import make_whitened_task
    from .trace import write_trace

    method = cfg["method"]
    trainer = {"landing-polar": ld.train_polar_landing, "lora": ld.train_lora}.get(method)
    if trainer is None:
        raise CliError(f"unknown method {method!r} (expected landing-polar or lora)")
    check_loss_threshold(cfg["loss_threshold"])  # a key of this command, not of LandingConfig
    task_rng = _target_rng(cfg)
    target = make_whitened_task(cfg["m"], cfg["n"], cfg["n_cols"], cfg["r_a"], task_rng, kappa=cfg["kappa"])
    trace, state = trainer(target, cfg["r"], _config(LandingConfig, cfg))
    csv_path = write_trace(trace, out_dir)
    pio.save_state(os.path.join(out_dir, "checkpoint"), state, {"method": method})
    converged = trace.final_loss <= cfg["loss_threshold"]
    print(
        f"{method}: final loss {trace.final_loss:.6e} after {cfg['max_iters']} iterations "
        f"({'below' if converged else 'above'} threshold {cfg['loss_threshold']:.1e})"
    )
    print(f"trace: {csv_path}")
    return EXIT_OK if converged else EXIT_BUDGET


def _is_checkpoint_dir(path: str) -> bool:
    return os.path.isfile(os.path.join(path, "meta.json"))


def _trace_csvs(path: str) -> list:
    out = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not (name.endswith(".csv") and os.path.isfile(full)):
            continue
        with open(full) as fh:
            header = fh.readline().strip().split(",")
        if tuple(header[:2]) == CORE_COLUMNS[:2]:
            out.append(full)
    return out


def _classify(path: str, label: str):
    """(label, checkpoint dir or None, trace csv or None) if ``path`` is a
    checkpoint or a run directory, else None. A run directory holds at most
    one trace CSV."""
    if _is_checkpoint_dir(path):
        return (label or "checkpoint", path, None)
    ckpt = os.path.join(path, "checkpoint")
    ckpt = ckpt if _is_checkpoint_dir(ckpt) else None
    traces = _trace_csvs(path)
    if len(traces) > 1:
        names = ", ".join(os.path.basename(t) for t in traces)
        raise CliError(f"{path}: {len(traces)} trace CSVs in one run directory ({names}); expected at most one")
    if ckpt or traces:
        return (label or "run", ckpt, traces[0] if traces else None)
    return None


def _analyze_targets(root: str) -> list:
    """(label, checkpoint dir or None, trace csv or None) per run found under
    root: root itself, or else each directory one level below it, e.g. the
    output of a seed grid."""
    root = root.rstrip("/")
    found = _classify(root, os.path.basename(root))
    if found:
        return [found]
    targets = []
    for name in sorted(os.listdir(root)):
        sub = os.path.join(root, name)
        found = os.path.isdir(sub) and _classify(sub, name)
        if found:
            targets.append(found)
    if not targets:
        raise CliError(f"{root}: no checkpoint or trace directory found")
    return targets


def _analyze_one(label: str, ckpt: str | None, trace_csv: str | None, cfg: dict, out_dir: str) -> tuple:
    """(report, writes) of one run: ``writes`` lists the (writer, path, data) of its files in ``out_dir``,
    which nothing has written yet."""
    import numpy as np

    from . import io as pio
    from .stiefel import distance_to_stiefel, pairwise_direction_distances, stable_rank

    report: dict = {"label": label}
    writes = []
    if ckpt is not None:
        state, _ = pio.load_state(ckpt)
        W = state.delta_w()
        report.update(
            {
                "checkpoint": ckpt,
                "kind": state.kind,
                "shape": list(W.shape),
                "fro_norm": float(np.linalg.norm(W)),
            }
        )
        if np.any(W != 0):
            summary = stable_rank(W)
            spread = pairwise_direction_distances(W)
            report.update(
                {
                    "stable_rank": summary.stable_rank,
                    "spectral_norm": summary.spectral,
                    "top_singular_values": [float(s) for s in summary.singular_values[: cfg["top_k"]]],
                    "mean_pairwise_distance": spread.mean_distance,
                    "n_excluded_rows": len(spread.excluded_rows),
                }
            )
            writes.append((pio.save_matrix_csv, os.path.join(out_dir, f"pairwise_distances_{label}.csv"), spread.distances))
        else:
            report["zero_update"] = True
        for key, name in zip(("n_left", "n_right"), state.factors):
            report[key] = distance_to_stiefel(getattr(state, name))
    if trace_csv is not None:
        columns = read_trace_csv(trace_csv)
        report["trace"] = trace_csv
        report["final_loss"] = columns["loss"][-1] if columns["loss"] else float("nan")
        if "n_x" in columns and "n_y" in columns:
            # feasibility curve: squared distance to the Stiefel manifold per iterate
            feas_path = os.path.join(out_dir, f"feasibility_{label}.csv")
            writes.append((write_table, feas_path, {name: columns[name] for name in ("iter", "n_x", "n_y")}))
            report["feasibility_csv"] = feas_path
    return report, writes


def _cmd_analyze(cfg: dict, out_dir: str) -> int:
    if cfg["top_k"] < 0:
        raise CliError(f"top_k must be >= 0, got {cfg['top_k']}")
    targets = _analyze_targets(cfg["path"])
    # every run is read before anything is written, so a bad run leaves no partial --out
    analyzed = [_analyze_one(label, ckpt, trace, cfg, out_dir) for label, ckpt, trace in targets]
    os.makedirs(out_dir, exist_ok=True)
    for _, writes in analyzed:
        for write, path, data in writes:
            write(path, data)
    reports = [report for report, _ in analyzed]

    ranked = [rep for rep in reports if "stable_rank" in rep]
    if ranked:
        table = {name: [rep[name] for rep in ranked] for name in ("label", "stable_rank")}
        write_table(os.path.join(out_dir, "stable_rank.csv"), table)

    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(reports if len(reports) > 1 else reports[0], fh, indent=2, sort_keys=True)
        fh.write("\n")
    for rep in reports:
        for key in sorted(rep):
            print(f"{key}: {rep[key]}")
    print(f"report: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


COMMANDS = {
    "factorize": (FACTORIZE_SCHEMA, _cmd_factorize),
    "finetune-toy": (FINETUNE_SCHEMA, _cmd_finetune_toy),
    "analyze": (ANALYZE_SCHEMA, _cmd_analyze),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return EXIT_ERROR
        if "numpy" in sys.modules:
            print(
                "warning: numpy already imported, --threads may not take effect",
                file=sys.stderr,
            )
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    try:
        cfg = _resolve_config(args.command, args)
        code = COMMANDS[args.command][1](cfg, args.out)
        _echo_config(args.out, cfg)
        return code
    except DivergenceError as exc:  # the configured step size is the first setting to revisit
        print(f"error: {exc}; eta = {cfg['eta']:g}", file=sys.stderr)
        return EXIT_ERROR
    except (CliError, ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
