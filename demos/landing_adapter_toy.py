"""Adapter fine-tuning on the whitened toy task, with and without constraints.

Trains the polar-parameterized adapter by following the landing field
(no retractions, iterates converge onto the Stiefel manifold) and the
plain two-factor baseline with the same Adam settings, then compares
final loss, feasibility, stable rank and directional diversity.

    python demos/landing_adapter_toy.py [--seed 0] [--out runs/demo-adapter]
"""

import argparse
import os

import numpy as np

from polarlab.config import LandingConfig
from polarlab.factorization import make_whitened_task
from polarlab.io import save_state
from polarlab.landing import train_lora, train_polar_landing
from polarlab.stiefel import distance_to_stiefel, pairwise_direction_distances, stable_rank
from polarlab.trace import write_trace


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/demo-adapter")
    ap.add_argument("--iters", type=int, default=2000)
    args = ap.parse_args()

    task = make_whitened_task(64, 32, 128, 4, np.random.default_rng(1000 + args.seed))
    # decaying step so the landing penalty wins at the end and the frames land
    cfg = LandingConfig(lam=1e-3, eta=2e-2, schedule="linear", max_iters=args.iters, seed=args.seed, record_every=100)
    print(f"task: 64x32, planted rank 4, kappa=10, adapter rank 16, {args.iters} Adam iterations")

    tr_polar, polar = train_polar_landing(task, 16, cfg)
    tr_lora, lora = train_lora(task, 16, cfg)

    print("\n== final loss ==")
    print(f"  polar+landing : {tr_polar.final_loss:.3e}")
    print(f"  two-factor    : {tr_lora.final_loss:.3e}")

    print("\n== feasibility (squared distance to orthonormal columns) ==")
    print(f"  polar X: {distance_to_stiefel(polar.X):.3e}   polar Y: {distance_to_stiefel(polar.Y):.3e}")
    print("  (the baseline has no constraint; its factors are generic)")

    print("\n== update spectrum ==")
    planted = ", ".join(f"{s:.3f}" for s in task.sigma)
    print(f"  planted     singular values [{planted}]")
    for name, state in (("polar", polar), ("two-factor", lora)):
        summary = stable_rank(state.delta_w())
        top = ", ".join(f"{s:.3f}" for s in summary.singular_values[:6])
        print(f"  {name:<11} stable rank {summary.stable_rank:.3f}  top singular values [{top}]")

    print("\n== directional diversity of the update rows ==")
    for name, state in (("polar", polar), ("two-factor", lora)):
        rep = pairwise_direction_distances(state.delta_w())
        print(f"  {name:<11} mean pairwise distance {rep.mean_distance:.3f} "
              f"({len(rep.excluded_rows)} near-zero rows excluded)")

    print()
    for tr, state, label in ((tr_polar, polar, "polar"), (tr_lora, lora, "lora")):
        print(f"  wrote {write_trace(tr, os.path.join(args.out, label))}")
        save_state(os.path.join(args.out, label, "checkpoint"), state, {"demo_seed": args.seed})


if __name__ == "__main__":
    main()
