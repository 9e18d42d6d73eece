"""TwoNeighbor search (§III.A.7): exhaustive 2-bit-neighbourhood traversal.

The deterministic flip sequence 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, … visits all
1-bit neighbours of the starting vector in ``2n − 1`` flips; combined with
the incremental engine's every-iteration 1-bit-neighbour scan this searches
the full 2-bit neighbourhood (and parts of the 3-bit one).  Unlike the other
main algorithms it is run exactly once per batch search and ignores both RNG
and tabu.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backends.spec import KIND_FIXED_SEQUENCE, SelectionSpec
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.core.rng import XorShift64Star
from repro.search.base import MainSearch

__all__ = ["TwoNeighborSearch", "two_neighbor_flip_sequence"]


def two_neighbor_flip_sequence(n: int) -> np.ndarray:
    """The length ``2n − 1`` flip sequence 0, 1, 0, 2, 1, 3, 2, 4, …

    Position ``t`` (0-based) flips bit ``(t+1)//2`` when ``t`` is odd and
    bit ``t//2 − 1`` when ``t`` is even (bit 0 at ``t = 0``).  Verified by
    tests against the worked n=6 example of §III.A.7.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = np.arange(2 * n - 1)
    seq = np.where(t % 2 == 1, (t + 1) // 2, t // 2 - 1)
    seq[0] = 0
    return seq


@lru_cache(maxsize=16)
def _spec(n: int) -> SelectionSpec:
    """The lowered traversal of an *n*-bit model, shared by every
    instance; its sequence is read-only."""
    sequence = np.asarray(two_neighbor_flip_sequence(n), dtype=np.int64)
    sequence.setflags(write=False)
    return SelectionSpec(
        kind=KIND_FIXED_SEQUENCE, supports_tabu=False, uses_rng=False, sequence=sequence
    )


class TwoNeighborSearch(MainSearch):
    """Batched TwoNeighbor traversal (every row flips the same bit)."""

    enum = MainAlgorithm.TWONEIGHBOR
    uses_rng = False
    supports_tabu = False

    def num_iterations(self, n: int) -> int:
        """The fixed traversal length, ``2n − 1``."""
        return 2 * n - 1

    def select(
        self,
        state: BatchDeltaState,
        t: int,
        total: int,
        rng: XorShift64Star,
        tabu_mask: np.ndarray | None,
    ) -> np.ndarray:
        seq = _spec(state.n).sequence
        bit = int(seq[(t - 1) % seq.shape[0]])
        return np.full(state.batch, bit, dtype=np.int64)

    def lower(self, state: BatchDeltaState, iterations: int) -> SelectionSpec:
        return _spec(state.n)
