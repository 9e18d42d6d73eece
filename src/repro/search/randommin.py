"""RandomMin search (§III.A.5): minimum-Δ bit among a random candidate set.

Each bit independently becomes a candidate with probability
``p(t) = max((t/T)³, c/n)`` (expected ``n·p(t)`` candidates); the candidate
with minimum Δ is flipped.  More candidates in later iterations means
high-Δ bits are picked with decreasing probability — simulated-annealing-like
behaviour driven purely by the candidate-set size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backends.spec import KIND_RANDOM_CANDIDATE_MIN, SelectionSpec
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.core.rng import XorShift64Star, bernoulli_threshold
from repro.search.base import MainSearch, masked_argmin

__all__ = ["RandomMinSearch"]


def _probability(t: int, total: int, n: int, c: int) -> float:
    return min(1.0, max((t / total) ** 3, min(c, n) / n))


@lru_cache(maxsize=16)
def _spec(n: int, iterations: int, c: int) -> SelectionSpec:
    """The lowered rule of a main phase, shared by every instance; its
    thresholds are read-only.  They are the integer key thresholds
    equivalent to ``random() < p(t)`` (see
    :func:`repro.core.rng.bernoulli_threshold`)."""
    thresholds = np.array(
        [bernoulli_threshold(_probability(t, iterations, n, c)) for t in range(1, iterations + 1)],
        dtype=np.int64,
    )
    thresholds.setflags(write=False)
    return SelectionSpec(kind=KIND_RANDOM_CANDIDATE_MIN, thresholds=thresholds)


class RandomMinSearch(MainSearch):
    """Batched RandomMin selection.

    ``c`` plays the role of the paper's small constant probability ``32/n``:
    the floor on the expected candidate count.
    """

    enum = MainAlgorithm.RANDOMMIN

    def __init__(self, c: int = 32) -> None:
        if c < 1:
            raise ValueError(f"candidate floor c must be >= 1, got {c}")
        self.c = c

    def probability(self, t: int, total: int, n: int) -> float:
        """p(t) = max((t/T)³, c/n), clamped to (0, 1]."""
        return _probability(t, total, n, self.c)

    def select(
        self,
        state: BatchDeltaState,
        t: int,
        total: int,
        rng: XorShift64Star,
        tabu_mask: np.ndarray | None,
    ) -> np.ndarray:
        p = self.probability(t, total, state.n)
        mask = rng.bernoulli(p)
        if tabu_mask is not None:
            mask &= ~tabu_mask
        # rows with no candidates fall back to the full-row argmin, which
        # masked_argmin provides directly
        idx, _ = masked_argmin(state.delta, mask)
        return idx

    def lower(self, state: BatchDeltaState, iterations: int) -> SelectionSpec:
        return _spec(state.n, iterations, self.c)
