"""Greedy search (§III.A.1): steepest descent to a 1-bit local minimum.

This is the stepwise oracle: one backend ``flip`` per lockstep step.  A
launch runs the fused ``ComputeBackend.run_greedy_phase`` instead, which
the parity tests hold bit-identical to :func:`greedy_descent`.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import _warn_truncated, greedy_iteration_cap
from repro.core.delta import BatchDeltaState

__all__ = ["greedy_select", "greedy_descent"]


def greedy_select(state: BatchDeltaState) -> tuple[np.ndarray, np.ndarray]:
    """One greedy step: per-row argmin of Δ, active only while it improves.

    Returns ``(idx, active)`` where ``active[r]`` is False once row *r* is at
    a local minimum (all ``Δ ≥ 0``) — the algorithm's termination condition.
    """
    idx = np.argmin(state.delta, axis=1)
    active = state.delta[np.arange(state.x.shape[0]), idx] < 0
    return idx, active


def greedy_descent(
    state: BatchDeltaState,
    max_iters: int | None = None,
    on_flip=None,
) -> np.ndarray:
    """Run greedy to convergence on every row; returns per-row flip counts.

    Every flip strictly decreases the energy, so greedy always
    terminates; but the number of flips is bounded only by the energy
    range, which integer weights do not bound, so ``max_iters`` (default
    :func:`~repro.backends.base.greedy_iteration_cap`) is a safety cap.
    Hitting the cap with rows still descending emits a
    :class:`~repro.backends.base.GreedyTruncationWarning` — rows cut short
    are *not* local minima; use the backend's ``run_greedy_phase`` for
    per-row truncation flags.  ``on_flip(idx, active)`` is invoked after
    each lockstep flip so callers can track bests / budgets.
    """
    b, n = state.x.shape
    if max_iters is None:
        max_iters = greedy_iteration_cap(n)
    flips = np.zeros(b, dtype=np.int64)
    rows = np.arange(b)
    converged = False
    for _ in range(max_iters):
        idx = np.argmin(state.delta, axis=1)
        active = state.delta[rows, idx] < 0
        if not active.any():
            converged = True
            break
        state.flip(idx, active)
        flips += active
        if on_flip is not None:
            on_flip(idx, active)
    if not converged:
        still = int(np.count_nonzero(state.delta.min(axis=1) < 0))
        if still:
            _warn_truncated(still, max_iters)
    return flips
