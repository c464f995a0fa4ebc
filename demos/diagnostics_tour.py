"""Tour of the diagnostics: stable rank, direction spread, subspace alignment.

Small synthetic matrices make each quantity easy to sanity-check by eye:
a planted rank-k matrix has stable rank near k when its spectrum is flat,
rank-collapsed updates have near-zero pairwise direction distances, and
the alignment cosines climb toward 1 along a converging run.

    python demos/diagnostics_tour.py
"""

import numpy as np

from polarlab.config import RGDConfig
from polarlab.factorization import make_target, run_polar_rgd
from polarlab.stiefel import (
    pairwise_direction_distances,
    sample_stiefel_uniform,
    stable_rank,
)


def main():
    rng = np.random.default_rng(7)

    print("== stable rank ==")
    for k in (1, 3, 8):
        U = sample_stiefel_uniform(40, k, rng)
        V = sample_stiefel_uniform(30, k, rng)
        flat = U @ V.T  # k equal singular values
        spiked = (U * np.r_[10.0, np.ones(k - 1)]) @ V.T if k > 1 else flat
        print(f"  planted rank {k}: flat spectrum -> {stable_rank(flat).stable_rank:.3f}, "
              f"one dominant direction -> {stable_rank(spiked).stable_rank:.3f}")

    print("\n== directional diversity ==")
    collapsed = np.outer(rng.standard_normal(40), rng.standard_normal(30))
    diverse = rng.standard_normal((40, 30))
    for name, W in (("rank-1 (collapsed rows)", collapsed), ("full-rank noise", diverse)):
        rep = pairwise_direction_distances(W)
        print(f"  {name:<24} mean pairwise distance {rep.mean_distance:.3f}")

    print("\n== subspace alignment along a run ==")
    target = make_target(30, 24, 3, 5.0, np.random.default_rng(0))
    # a zero loss threshold runs the whole budget: the loss is below the default 1e-8 before iteration 1200
    cfg = RGDConfig(eta=0.01, seed=1, max_iters=1200, record_every=300, loss_threshold=0.0)
    trace, _ = run_polar_rgd(target, 9, cfg)
    cols = trace.columns
    for it, left, right, phi in zip(cols["iter"], cols["sigma_min_phi"], cols["sigma_min_psi"], cols["trace_phi"]):
        print(f"  iter {it:>4}: smallest left cosine {left:.4f}, "
              f"smallest right cosine {right:.4f}, "
              f"left misalignment trace {target.r_a - phi:.4f}")
    print("  (cosines increase monotonically; the target subspace is captured)")


if __name__ == "__main__":
    main()
