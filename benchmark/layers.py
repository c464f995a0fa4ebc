"""What a traced round wraps, and the per-layer metrics computed from its spans.

Every per-layer metric is printed on every workload. A layer that a
workload does not run reads 0 there: its counts and shares are exact
zeros, which is the prediction for a change to that layer. Times in us
are only kept for the layers that all three workloads run; the others are
given as shares of the traced wall time, and ``tracing.wall_us_per_iter``
turns a share back into microseconds per iteration.
"""

from __future__ import annotations

# (module, class or None, attribute, span name). The same function is
# wrapped in every module that imported it, under one span name.
TARGETS = (
    ("polarlab.stiefel", None, "polar_retract", "stiefel.polar_retract"),
    ("polarlab.stiefel", None, "require_stiefel", "stiefel.require_stiefel"),
    ("polarlab.stiefel", None, "tangent_project", "stiefel.tangent_project"),
    ("polarlab.stiefel", None, "alignment", "stiefel.alignment"),
    ("polarlab.stiefel", None, "stable_rank", "stiefel.stable_rank"),
    ("polarlab.stiefel", None, "distance_to_stiefel", "stiefel.distance_to_stiefel"),
    ("numpy.linalg", None, "eigh", "stiefel.eigh"),
    ("polarlab.factorization", None, "polar_retract", "stiefel.polar_retract"),
    ("polarlab.factorization", None, "require_stiefel", "stiefel.require_stiefel"),
    ("polarlab.factorization", None, "tangent_project", "stiefel.tangent_project"),
    ("polarlab.factorization", None, "alignment", "stiefel.alignment"),
    ("polarlab.factorization", None, "run_polar_rgd", "factorization.runner"),
    ("polarlab.factorization", None, "run_bm_gd", "factorization.runner"),
    ("polarlab.factorization", None, "run_sym_rgd", "factorization.runner"),
    ("polarlab.landing", None, "stable_rank", "stiefel.stable_rank"),
    ("polarlab.landing", None, "distance_to_stiefel", "stiefel.distance_to_stiefel"),
    ("polarlab.landing", None, "whitened_task_grads", "landing.whitened_task_grads"),
    ("polarlab.landing", None, "lora_grads", "landing.lora_grads"),
    ("polarlab.landing", None, "landing_field", "landing.landing_field"),
    ("polarlab.landing", None, "grad_distance_to_stiefel", "landing.grad_distance_to_stiefel"),
    ("polarlab.landing", None, "adam_transform", "landing.adam_transform"),
    ("polarlab.landing", None, "train_polar_landing", "landing.runner"),
    ("polarlab.landing", None, "train_lora", "landing.runner"),
    ("polarlab.trace", "RunTrace", "append", "trace.append"),
    ("polarlab.trace", None, "write_trace", "trace.write_trace"),
    ("polarlab.io", None, "save_checkpoint", "io.save_checkpoint"),
    ("polarlab.cli", None, "main", "cli.main"),
)

# spans whose inclusive time is the cost of recording a trace row
RECORD_SPANS = ("trace.append", "stiefel.alignment", "stiefel.stable_rank", "stiefel.distance_to_stiefel")

KERNEL_NAMES = tuple(f"{op}_r{r}" for r in (32, 256) for op in ("retraction", "riemannian_step", "landing_step"))

# name -> unit, in print order
PER_LAYER = {
    "stiefel.polar_retract.calls_per_iter": "count",
    "stiefel.polar_retract.self_share": "frac",
    "stiefel.eigh.calls_per_iter": "count",
    "stiefel.eigh.us": "us",
    "stiefel.eigh.share": "frac",
    "stiefel.require_stiefel.calls_per_iter": "count",
    "stiefel.require_stiefel.us": "us",
    "stiefel.require_stiefel.share": "frac",
    "stiefel.tangent_project.calls_per_iter": "count",
    "stiefel.tangent_project.share": "frac",
    "factorization.self_share": "frac",
    "factorization.iters_to_tol": "count",
    "factorization.extra_retractions": "count",
    "landing.whitened_task_grads.share": "frac",
    "landing.lora_grads.share": "frac",
    "landing.landing_field.self_share": "frac",
    "landing.grad_distance_to_stiefel.calls_per_iter": "count",
    "landing.grad_distance_to_stiefel.share": "frac",
    "landing.adam_transform.calls_per_iter": "count",
    "landing.adam_transform.share": "frac",
    "landing.self_share": "frac",
    "trace.append.calls": "count",
    "trace.record_share": "frac",
    "trace.write_trace.share": "frac",
    "trace.csv_bytes": "bytes",
    "io.save_checkpoint.share": "frac",
    "io.checkpoint_bytes": "bytes",
    "cli.main.self_share": "frac",
    "kernel.self_share": "frac",
    **{f"kernel.{name}.flops": "flop" for name in KERNEL_NAMES},
    **{f"kernel.{name}.gflops": "GFLOP/s" for name in KERNEL_NAMES},
    "tracing.wall_us_per_iter": "us",
    "tracing.unattributed_us": "us",
    "tracing.overhead_frac": "frac",
}


def per_layer(table, calls, traced_rounds, untraced_us: dict, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds.

    ``untraced_us`` maps a call name to its median untraced cost, from
    which the kernels' achieved GFLOP/s is computed.
    """
    totals = table.totals()
    rounds = len(traced_rounds)
    samples = [s for rnd in traced_rounds for s in rnd]
    iters = sum(max(s.iterations, 1) for s in samples)
    roots_ns = int(table.duration[table.parent < 0].sum())
    if int(table.own.sum()) != roots_ns:
        raise RuntimeError("span self times do not add up to the root spans: the span tree is malformed")

    def calls_of(name):
        return totals.get(name, (0, 0, 0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0, 0))[1]

    def own(name):
        return totals.get(name, (0, 0, 0))[2]

    def us_per_call(name):
        return inclusive(name) / calls_of(name) / 1e3 if calls_of(name) else 0.0

    by_name = {c.name: c for c in calls}
    extra_retractions = 0
    iters_to_tol = 0
    for s in samples:
        call = by_name[s.name]
        if getattr(call, "retractions_per_iter", 0):
            lo, hi = s.spans
            done = table.totals(lo, hi).get("stiefel.polar_retract", (0, 0, 0))[0]
            extra_retractions += done - call.retractions_per_iter * s.iterations
        if getattr(call, "to_tol", False):
            iters_to_tol += s.iterations

    values = {
        "stiefel.polar_retract.calls_per_iter": calls_of("stiefel.polar_retract") / iters,
        "stiefel.polar_retract.self_share": own("stiefel.polar_retract") / roots_ns,
        "stiefel.eigh.calls_per_iter": calls_of("stiefel.eigh") / iters,
        "stiefel.eigh.us": us_per_call("stiefel.eigh"),
        "stiefel.eigh.share": inclusive("stiefel.eigh") / roots_ns,
        "stiefel.require_stiefel.calls_per_iter": calls_of("stiefel.require_stiefel") / iters,
        "stiefel.require_stiefel.us": us_per_call("stiefel.require_stiefel"),
        "stiefel.require_stiefel.share": inclusive("stiefel.require_stiefel") / roots_ns,
        "stiefel.tangent_project.calls_per_iter": calls_of("stiefel.tangent_project") / iters,
        "stiefel.tangent_project.share": inclusive("stiefel.tangent_project") / roots_ns,
        "factorization.self_share": own("factorization.runner") / roots_ns,
        "factorization.iters_to_tol": iters_to_tol / rounds,
        "factorization.extra_retractions": extra_retractions / rounds,
        "landing.whitened_task_grads.share": inclusive("landing.whitened_task_grads") / roots_ns,
        "landing.lora_grads.share": inclusive("landing.lora_grads") / roots_ns,
        "landing.landing_field.self_share": own("landing.landing_field") / roots_ns,
        "landing.grad_distance_to_stiefel.calls_per_iter": calls_of("landing.grad_distance_to_stiefel") / iters,
        "landing.grad_distance_to_stiefel.share": inclusive("landing.grad_distance_to_stiefel") / roots_ns,
        "landing.adam_transform.calls_per_iter": calls_of("landing.adam_transform") / iters,
        "landing.adam_transform.share": inclusive("landing.adam_transform") / roots_ns,
        "landing.self_share": own("landing.runner") / roots_ns,
        "trace.append.calls": calls_of("trace.append") / rounds,
        "trace.record_share": sum(inclusive(name) for name in RECORD_SPANS) / roots_ns,
        "trace.write_trace.share": inclusive("trace.write_trace") / roots_ns,
        "trace.csv_bytes": sum(s.csv_bytes for s in samples) / rounds,
        "io.save_checkpoint.share": inclusive("io.save_checkpoint") / roots_ns,
        "io.checkpoint_bytes": sum(s.checkpoint_bytes for s in samples) / rounds,
        "cli.main.self_share": own("cli.main") / roots_ns,
        "kernel.self_share": sum(own(f"kernel.{name}") for name in KERNEL_NAMES) / roots_ns,
        "tracing.wall_us_per_iter": roots_ns / iters / 1e3,
        "tracing.unattributed_us": (sum(s.wall_ns for s in samples) - roots_ns) / len(samples) / 1e3,
        "tracing.overhead_frac": overhead_frac,
    }
    for name in KERNEL_NAMES:
        call = by_name.get(name)
        flops = call.flops() if call is not None else 0
        values[f"kernel.{name}.flops"] = flops
        values[f"kernel.{name}.gflops"] = flops / untraced_us[name] / 1e3 if call is not None else 0.0
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}

