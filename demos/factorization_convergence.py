"""Convergence study on a planted low-rank target.

Runs the polar-parameterized Riemannian descent against the plain
two-factor baseline on the same m x n target, once well-conditioned and
once ill-conditioned, then shows the effect of extra rank headroom.
Traces land in --out as plot-ready CSV, the two headroom runs' in its
subdirectories headroom_r20/ and headroom_r9/.

    python demos/factorization_convergence.py [--quick] [--out runs/demo-factorize]
"""

import argparse
import os
import time

import numpy as np

from polarlab.config import RGDConfig
from polarlab.factorization import make_target, run_bm_gd, run_polar_rgd
from polarlab.trace import write_trace


def run(label, runner, target, r, **kw):
    t0 = time.perf_counter()
    trace, _ = runner(target, r, RGDConfig(**kw))
    md = trace.metadata
    status = f"converged at {md['iterations']}" if md["converged"] else f"stopped at {md['iterations']}"
    print(f"  {label:<28} loss {trace.final_loss:.3e}  ({status}, {time.perf_counter() - t0:.1f}s)")
    return trace


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default="runs/demo-factorize")
    ap.add_argument("--quick", action="store_true", help="smaller budgets, same orderings")
    args = ap.parse_args()
    budget = 20_000 if args.quick else 100_000

    print("== well-conditioned target (kappa=10), eta=1e-3 ==")
    target = make_target(50, 50, 4, 10.0, np.random.default_rng(1234))
    tr_polar = run("polar RGD, r=20", run_polar_rgd, target, 20,
                   eta=1e-3, seed=0, max_iters=budget, loss_threshold=1e-8, record_every=500)
    tr_bm = run("two-factor GD, r=20", run_bm_gd, target, 20,
                eta=1e-3, seed=0, max_iters=budget, loss_threshold=1e-8, record_every=500)

    print("== ill-conditioned target (kappa=100), matched budget, eta=1e-4 ==")
    hard = make_target(50, 50, 4, 100.0, np.random.default_rng(1234))
    tr_polar_h = run("polar RGD, r=20", run_polar_rgd, hard, 20,
                     eta=1e-4, seed=0, max_iters=budget, loss_threshold=0.0, record_every=500)
    tr_bm_h = run("two-factor GD, r=20", run_bm_gd, hard, 20,
                  eta=1e-4, seed=0, max_iters=budget, loss_threshold=0.0, record_every=500)
    ratio = tr_bm_h.final_loss / max(tr_polar_h.final_loss, 1e-300)
    print(f"  ill-conditioned margin: baseline loss / polar loss = {ratio:.1e}")

    print("== rank headroom at kappa=10: first to 1e-6 ==")
    tr_r20 = run("polar RGD, r=20 (5x rank)", run_polar_rgd, target, 20,
                 eta=1e-3, seed=0, max_iters=budget, loss_threshold=1e-6, record_every=500)
    tr_r9 = run("polar RGD, r=9  (rank+5)", run_polar_rgd, target, 9,
                eta=1e-3, seed=0, max_iters=budget, loss_threshold=1e-6, record_every=500)
    if tr_r20.metadata["converged"] and tr_r9.metadata["converged"]:
        print(f"  headroom speedup: {tr_r9.metadata['iterations'] / tr_r20.metadata['iterations']:.2f}x fewer iterations")

    for tr in (tr_polar, tr_bm, tr_polar_h, tr_bm_h):
        print(f"  wrote {write_trace(tr, args.out)}")
    # the r=20 headroom run shares algo/kappa/r/seed with the first, so each headroom run gets its own directory
    for tr, label in ((tr_r20, "headroom_r20"), (tr_r9, "headroom_r9")):
        print(f"  wrote {write_trace(tr, os.path.join(args.out, label))}")


if __name__ == "__main__":
    main()
