"""Polar-parameterized low-rank factorization on the Stiefel manifold.

Each name has one home, its submodule: ``stiefel`` (manifold primitives and
spectral diagnostics), ``factorization`` (targets, polar RGD and BM-GD),
``landing`` (the landing-field adapter and the LoRA baseline), ``runner``
(the one optimization loop), ``config``, ``exceptions``, ``io``
(checkpoints), ``trace`` (run traces) and ``cli``. The root imports none of
them, so numpy loads only when a submodule does, after ``--threads`` has
pinned the BLAS thread count.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
