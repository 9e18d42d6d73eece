"""Straight search (§III.A.2): best-gain walk toward a target vector.

Each step flips, among the bits where the current solution differs from the
target, the one with minimum Δ — so the Hamming distance to the target
decreases by exactly one per step and the walk terminates in ``d(X, D)``
flips.  This is the stepwise oracle: one backend ``flip`` per lockstep
step.  A launch runs the fused ``ComputeBackend.run_straight_phase``
instead, which the parity tests hold bit-identical to
:func:`straight_walk`.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta import BatchDeltaState
from repro.search.base import INT_SENTINEL, masked_argmin

__all__ = ["straight_select", "straight_walk"]


def straight_select(
    state: BatchDeltaState, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One straight step toward per-row ``targets`` (shape ``(B, n)``).

    Returns ``(idx, active)``; rows already equal to their target are
    inactive.
    """
    diff = state.x != targets
    idx, active = masked_argmin(state.delta, diff)
    return idx, active


def straight_walk(
    state: BatchDeltaState,
    targets: np.ndarray,
    on_flip=None,
) -> np.ndarray:
    """Walk every row to its target; returns per-row flip counts.

    The loop bound is exact: the maximum initial Hamming distance.
    The difference mask and the per-row remaining distances are
    maintained incrementally — every straight flip turns exactly one
    differing bit into a matching one — instead of recomputed per step.
    ``on_flip(idx, active)`` is invoked after each lockstep flip.
    """
    targets = np.asarray(targets, dtype=np.uint8)
    b = state.x.shape[0]
    rows = np.arange(b)
    flips = np.zeros(b, dtype=np.int64)
    diff = state.x != targets
    remaining = diff.sum(axis=1)
    for _ in range(int(remaining.max(initial=0))):
        active = remaining > 0
        if not active.any():
            break
        sentinel = np.where(diff, state.delta, INT_SENTINEL)
        idx = np.argmin(sentinel, axis=1)
        state.flip(idx, active)
        # inactive rows have an all-False diff row, so clearing their
        # (meaningless) argmin position is a no-op
        diff[rows, idx] = False
        remaining -= active
        flips += active
        if on_flip is not None:
            on_flip(idx, active)
    return flips
