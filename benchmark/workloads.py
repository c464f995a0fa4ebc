"""The benchmark's workloads and its round-robin measurement loop.

A workload is a fixed list of calls. ``factorize`` and ``finetune`` run
``polarlab.cli.main`` in-process, so the cli, trace and io layers stay on
the measured path; ``kernels-4096`` calls the public stiefel and landing
functions directly on fresh inputs. One round runs every call of the
workload once, in a fixed order; a run repeats rounds until its time is
up and reports medians over rounds, so slow drifts of the machine hit
every call alike.

On a host shared with other tenants the machine's speed can change by
1.6x over seconds to minutes, which moves every wall time alike. So each
call is bracketed by a fixed numpy-only reference of the same
character, timed just before and just after it, and a call's cost is also
given relative to that reference: a program change moves the ratio, the
machine's speed cancels out of it.

Functions of the program are always looked up through their module at
call time (``cli.main``, ``stiefel.polar_retract``), so that the span
wrappers of a traced round see every call.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import tempfile
import time
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from time import perf_counter_ns

import numpy as np
from polarlab import cli, landing, stiefel

import checks
import layers
from spans import Tracer

# --target-seed is the workload seed plus this, so seed 0 runs the
# acceptance-test targets.
TARGET_SEED_OFFSET = 1234
EXIT_CONVERGED = 0
EXIT_BUDGET = 2
# CLI warm-up runs stop after this many iterations.
WARM_UP_ITERS = 20

KERNEL_M = 4096
KERNEL_RANKS = (32, 256)
KERNEL_ETA = 1e-3
KERNEL_LAM = 1.0
# The references draw their inputs from this fixed seed, never from the workload seed.
REFERENCE_SEED = 8191
# bound now, before a traced round can wrap numpy.linalg.eigh
_eigh = np.linalg.eigh

KERNEL_OPS = {
    # a polar retraction along a tangent direction D
    "retraction": lambda X, D: stiefel.polar_retract(X, D, KERNEL_ETA),
    # what the RGD runners do with a raw gradient G
    "riemannian_step": lambda X, G: stiefel.polar_retract(X, stiefel.tangent_project(X, G), KERNEL_ETA),
    # the O(m r^2) landing update the trainer runs
    "landing_step": lambda X, G: X - KERNEL_ETA * landing.landing_field(X, G, KERNEL_LAM),
}


class SmallReference:
    """Small-matrix numpy work like one optimizer step of the CLI workloads:
    thin products, an r x r eigh and rebuild, norms, a finiteness test and an
    Adam-like elementwise update. Independent of polarlab."""

    passes = 200

    def __init__(self):
        rng = np.random.default_rng(REFERENCE_SEED)
        self.A = rng.standard_normal((50, 20))
        self.B = rng.standard_normal((20, 20))
        self.S = self.B @ self.B.T + np.eye(20)
        self.g = rng.standard_normal((64, 24))

    def run(self) -> float:
        """Wall time of one pass, in ns."""
        A, B, S, g = self.A, self.B, self.S, self.g
        m = np.zeros_like(g)
        v = np.zeros_like(g)
        t0 = perf_counter_ns()
        for _ in range(self.passes):
            C = A @ B
            w, Q = _eigh(S)
            E = (Q / np.sqrt(w)) @ Q.T
            float(np.linalg.norm(C.T @ C - E))
            np.isfinite(C).all()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * (g * g)
            m / (np.sqrt(v) + 1e-8)
        return (perf_counter_ns() - t0) / self.passes


class GemmReference:
    """X^T X for a fixed m x r Gaussian X: the product the m=4096 kernels are built from."""

    def __init__(self, m: int, r: int):
        self.X = np.random.default_rng(REFERENCE_SEED).standard_normal((m, r))
        # about 10 ms on one core at either rank
        self.passes = max(1, 2**28 // (2 * m * r * r))

    def run(self) -> float:
        X = self.X
        t0 = perf_counter_ns()
        for _ in range(self.passes):
            X.T @ X
        return (perf_counter_ns() - t0) / self.passes


@dataclass
class Sample:
    """One timed call: wall time, the iterations it ran, the time of one
    reference pass around it and what its checks found."""

    name: str
    wall_ns: int
    iterations: int
    problems: list
    reference_ns: float = 0.0
    spans: tuple | None = None  # [lo, hi) span indices of a traced call
    csv_bytes: int = 0
    checkpoint_bytes: int = 0

    @property
    def us(self) -> float:
        """Wall time per iteration (per step for a kernel); a call that raised counts one."""
        return self.wall_ns / 1e3 / max(self.iterations, 1)

    @property
    def x_ref(self) -> float:
        """Time per iteration in units of one pass of the call's reference."""
        return self.wall_ns / max(self.iterations, 1) / self.reference_ns


@dataclass
class CliCall:
    """One ``polarlab`` command line; iterations are read from its trace sidecar."""

    name: str
    argv: list
    expected_exit: int
    retractions_per_iter: int = 0
    feasible: tuple = ()  # checkpoint factors certified on St to 1e-9
    landed: tuple = ()  # checkpoint factors with N(X) <= 1e-6
    to_tol: bool = False  # runs until its loss threshold; its wall time is a time to tolerance
    unit = "us_per_iter"
    span_name = None  # cli.main is itself traced
    reference: SmallReference | None = None
    out: str = field(default="", init=False)

    def prepare(self, tmp_root, rng):
        self.out = tempfile.mkdtemp(dir=tmp_root)

    def execute(self):
        return cli.main([*self.argv, "--out", self.out])

    def warm_up(self, tmp_root, rng):
        out = tempfile.mkdtemp(dir=tmp_root)
        try:
            cli.main([*self.argv, "--max-iters", str(WARM_UP_ITERS), "--out", out])
        finally:
            shutil.rmtree(out)

    def finish(self, code, error, wall_ns, rng) -> Sample:
        sample = Sample(self.name, wall_ns, 0, [])
        try:
            if error is not None:
                sample.problems.append(f"raised {type(error).__name__}: {error}")
                return sample
            problems = checks.exit_code(code, self.expected_exit)
            problems += checks.trace_losses(self.out)
            problems += checks.checkpoint_feasible(self.out, self.feasible)
            problems += checks.checkpoint_landed(self.out, self.landed)
            sample.problems = problems
            sidecars = glob.glob(os.path.join(self.out, "*.json"))
            with open(sidecars[0]) as fh:
                meta = json.load(fh)
            sample.iterations = int(meta.get("iterations", meta["max_iters"]))
            sample.csv_bytes = sum(os.path.getsize(p) for p in glob.glob(os.path.join(self.out, "*.csv")))
            ckpt = os.path.join(self.out, "checkpoint")
            sample.checkpoint_bytes = sum(os.path.getsize(os.path.join(ckpt, f)) for f in os.listdir(ckpt))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample.problems.append(f"run directory unreadable: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        return sample


@dataclass
class KernelCall:
    """One m=4096 kernel step on a fresh Stiefel point and Gaussian matrix."""

    op: str
    r: int
    unit = "us"
    reference: GemmReference | None = None
    inputs: tuple = field(default=(), init=False)

    @property
    def name(self) -> str:
        return f"{self.op}_r{self.r}"

    @property
    def span_name(self) -> str:
        return f"kernel.{self.name}"

    def prepare(self, tmp_root, rng):
        X = stiefel.sample_stiefel_uniform(KERNEL_M, self.r, rng)
        G = rng.standard_normal((KERNEL_M, self.r))
        self.inputs = (X, checks.tangent(X, G) if self.op == "retraction" else G)

    def execute(self):
        return KERNEL_OPS[self.op](*self.inputs)

    def warm_up(self, tmp_root, rng):
        self.prepare(tmp_root, rng)
        self.execute()
        self.inputs = ()

    def finish(self, out, error, wall_ns, rng) -> Sample:
        X, G = self.inputs
        self.inputs = ()
        if error is not None:
            return Sample(self.name, wall_ns, 1, [f"raised {type(error).__name__}: {error}"])
        if self.op == "landing_step":
            problems = checks.landing_output(X, G, KERNEL_ETA, KERNEL_LAM, out, rng)
        else:
            D = G if self.op == "retraction" else checks.tangent(X, G)
            problems = checks.retraction_output(X, D, KERNEL_ETA, out)
        return Sample(self.name, wall_ns, 1, problems)

    def flops(self) -> int:
        """Modelled flop count: a (p x q)(q x s) product is 2pqs, an r x r eigh
        9 r^3, an elementwise operation one flop per entry."""
        m, r = KERNEL_M, self.r
        gemm = 2 * m * r * r
        # D'D, the r x r eigh and rebuild, (X - eta D) S, and the feasibility certificate
        retraction = 3 * gemm + 11 * r**3 + 2 * m * r
        if self.op == "retraction":
            return retraction
        if self.op == "riemannian_step":
            return 2 * gemm + m * r + retraction
        # X'X twice, G (X'X), G'X, X (G'X), X (X'X - I), then the axpys
        return 6 * gemm + 8 * m * r


def build(workload: str, seed: int) -> list:
    """The calls of one workload with their references."""
    calls = _calls(workload, seed)
    small = SmallReference()
    gemm = {}
    for call in calls:
        if not isinstance(call, KernelCall):
            call.reference = small
            continue
        if call.r not in gemm:
            gemm[call.r] = GemmReference(KERNEL_M, call.r)
        call.reference = gemm[call.r]
    return calls


def _calls(workload: str, seed: int) -> list:
    """The seed picks the factor seed and the target; kernels draw their inputs from it."""
    seeds = ["--seed", str(seed), "--target-seed", str(seed + TARGET_SEED_OFFSET)]
    if workload == "factorize":
        shape = ["--m", "50", "--n", "50", "--r", "20", "--r-a", "4", *seeds]
        budget = ["--kappa", "100", "--loss-threshold", "0"]
        return [
            # A1b shape, fixed budget
            CliCall("polar_rgd", ["factorize", "--algo", "polar-rgd", *shape, *budget, "--eta", "1e-4",
                                  "--max-iters", "1000"], EXIT_BUDGET, 2, feasible=("X", "Y")),
            CliCall("bm_gd", ["factorize", "--algo", "bm-gd", *shape, *budget, "--eta", "1e-4",
                              "--max-iters", "8000"], EXIT_BUDGET),
            # A2b shape, fixed budget
            CliCall("polar_rgd_sym", ["factorize", "--algo", "polar-rgd-sym", *shape, *budget, "--eta", "1e-5",
                                      "--max-iters", "1500"], EXIT_BUDGET, 1, feasible=("X",)),
            # A1a: run until the loss reaches 1e-8
            CliCall("polar_rgd_tol", ["factorize", "--algo", "polar-rgd", *shape, "--kappa", "10", "--eta", "1e-3",
                                      "--loss-threshold", "1e-8", "--max-iters", "100000"],
                    EXIT_CONVERGED, 2, feasible=("X", "Y"), to_tol=True),
        ]
    if workload == "finetune":
        common = ["finetune-toy", *seeds]
        # A6 shape with a constant step: the loss never reaches 0, so the budget runs out
        a6 = ["--m", "64", "--n", "32", "--n-cols", "128", "--r", "24", "--eta", "2e-2", "--lam", "1e-3",
              "--schedule", "constant", "--loss-threshold", "0"]
        return [
            CliCall("landing_polar", [*common, "--method", "landing-polar", *a6, "--max-iters", "1000"], EXIT_BUDGET),
            CliCall("lora", [*common, "--method", "lora", *a6, "--max-iters", "2000"], EXIT_BUDGET),
            # A5 configuration: a decaying step lands the factors on St and fits the task
            CliCall("landing_a5", [*common, "--method", "landing-polar", "--m", "32", "--n", "32", "--n-cols", "128",
                                   "--r", "8", "--eta", "1e-2", "--lam", "1e-3", "--schedule", "linear",
                                   "--loss-threshold", "1e-8", "--max-iters", "3000"],
                    EXIT_CONVERGED, landed=("X", "Y")),
        ]
    if workload == "kernels-4096":
        return [KernelCall(op, r) for r in KERNEL_RANKS for op in KERNEL_OPS]
    raise ValueError(f"unknown workload {workload!r}")


def set_up(workload: str, seed: int, tmp_root) -> tuple:
    """Build the workload and run every call once, so imports and lazy
    initialization are done before anything is timed."""
    calls = build(workload, seed)
    rng = np.random.default_rng(seed)
    with redirect_stdout(StringIO()):
        for call in calls:
            try:
                call.warm_up(tmp_root, rng)
            except Exception:  # a failing call is counted by the measured rounds
                pass
    return calls, rng


def run_round(calls, rng, tmp_root, tracer: Tracer | None = None) -> list:
    """Run every call once. Inputs are drawn before and checks run after the
    timed calls, and with the span wrappers removed."""
    for call in calls:
        call.prepare(tmp_root, rng)
    done = []
    sink = StringIO()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(layers.TARGETS))
        for call in calls:
            lo = len(tracer) if tracer is not None else 0
            with redirect_stdout(sink):
                before = call.reference.run()
                t0 = perf_counter_ns()
                try:
                    if tracer is not None and call.span_name is not None:
                        value = tracer.call(call.span_name, call.execute)
                    else:
                        value = call.execute()
                    error = None
                except Exception as exc:  # a raising call is a failed sample, not a harness error
                    value, error = None, exc
                wall_ns = perf_counter_ns() - t0
                reference_ns = 0.5 * (before + call.reference.run())
            done.append((call, value, error, wall_ns, reference_ns, (lo, len(tracer)) if tracer is not None else None))
    samples = []
    for call, value, error, wall_ns, reference_ns, span_range in done:
        sample = call.finish(value, error, wall_ns, rng)
        sample.reference_ns = reference_ns
        sample.spans = span_range
        samples.append(sample)
    return samples


@dataclass
class Measurement:
    calls: list
    untraced: list  # rounds, each a list of Samples in call order
    traced: list
    tracer: Tracer | None

    def samples(self):
        for rnd in self.untraced + self.traced:
            yield from rnd

    @property
    def attempted(self) -> int:
        return sum(1 for _ in self.samples())

    @property
    def failures(self) -> list:
        return [f"{s.name}: {p}" for s in self.samples() for p in s.problems]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples() if s.problems)


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp_root, between_rounds=None) -> Measurement:
    """Repeat rounds for ``seconds``. With ``trace`` untraced and traced
    rounds alternate, so both see the same machine. ``between_rounds`` is
    called after every round with the share of the time used so far; the
    time it takes is not counted against ``seconds``."""
    calls, rng = set_up(workload, seed, tmp_root)
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced_round = trace and len(traced) < len(untraced)
        samples = run_round(calls, rng, tmp_root, tracer if traced_round else None)
        (traced if traced_round else untraced).append(samples)
        if between_rounds is not None:
            t0 = time.perf_counter()
            between_rounds(1.0 - (deadline - t0) / seconds)
            deadline += time.perf_counter() - t0
        if time.perf_counter() >= deadline and (traced or not trace):
            return Measurement(calls, untraced, traced, tracer)


def per_call(rounds, call, attr: str) -> list:
    """One value per round of a Sample attribute (``us``, ``x_ref``, ``wall_ns``) for one call."""
    return [getattr(s, attr) for rnd in rounds for s in rnd if s.name == call.name]
