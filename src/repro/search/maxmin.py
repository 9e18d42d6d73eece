"""MaxMin search (§III.A.3): random bit under a cubic-annealed Δ threshold.

At iteration ``t`` of ``T`` the threshold ceiling is

    D(t) = (1 − ((T−t)/T)³) · minΔ + ((T−t)/T)³ · maxΔ,

a decreasing function from ≈maxΔ down to minΔ.  A threshold ``d`` is drawn
uniformly from ``[minΔ, D(t)]`` and a bit is chosen uniformly at random among
``{i : Δ_i ≤ d}`` (never empty since ``d ≥ minΔ``).  High-Δ bits thus become
less likely over time — simulated-annealing-like behaviour.

Draw scheme (DESIGN.md §6): the threshold is a per-row scalar decision, so
it consumes one lane per row (``rng.row_random()``, the block's "thread 0"
lane); the candidate choice consumes the full ``(B, n)`` lane matrix as
integer keys.  Since Δ is integral, ``Δ ≤ d`` is evaluated as the integer
compare ``Δ ≤ ⌊d⌋`` — bit-identical, no ``(B, n)`` float cast.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backends.spec import KIND_MAXMIN_THRESHOLD, SelectionSpec
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.core.rng import XorShift64Star
from repro.search.base import MainSearch, random_choice_from_mask

__all__ = ["MaxMinSearch"]


@lru_cache(maxsize=16)
def _spec(iterations: int) -> SelectionSpec:
    """The lowered rule of a main phase, shared by every instance; its
    schedule is read-only."""
    schedule = np.array(
        [MaxMinSearch.annealing_fraction(t, iterations) for t in range(1, iterations + 1)],
        dtype=np.float64,
    )
    schedule.setflags(write=False)
    return SelectionSpec(kind=KIND_MAXMIN_THRESHOLD, schedule=schedule)


class MaxMinSearch(MainSearch):
    """Batched MaxMin selection."""

    enum = MainAlgorithm.MAXMIN

    @staticmethod
    def annealing_fraction(t: int, total: int) -> float:
        """The cubic schedule ``((T−t)/T)³``, shared by select and lower."""
        return ((total - t) / total) ** 3

    def select(
        self,
        state: BatchDeltaState,
        t: int,
        total: int,
        rng: XorShift64Star,
        tabu_mask: np.ndarray | None,
    ) -> np.ndarray:
        delta = state.delta
        if tabu_mask is not None:
            # exclude tabu bits from both the extremes and the candidates;
            # rows where everything is tabu fall back to the full row below
            usable = ~tabu_mask
            no_usable = ~usable.any(axis=1)
            if no_usable.any():
                usable[no_usable] = True
            shadow = np.where(usable, delta, np.int64(2**62))
            dmin = shadow.min(axis=1).astype(np.float64)
            neg_shadow = np.where(usable, delta, np.int64(-(2**62)))
            dmax = neg_shadow.max(axis=1).astype(np.float64)
        else:
            usable = None
            dmin = delta.min(axis=1).astype(np.float64)
            dmax = delta.max(axis=1).astype(np.float64)
        frac = self.annealing_fraction(t, total)
        ceiling = (1.0 - frac) * dmin + frac * dmax
        u = rng.row_random()  # one draw per row: the block's thread-0 lane
        d = dmin + u * (ceiling - dmin)
        # Δ is integral, so Δ ≤ d ⟺ Δ ≤ ⌊d⌋ — integer compare, no cast
        thr = np.floor(d).astype(np.int64)
        mask = delta <= thr[:, None]
        if usable is not None:
            mask &= usable
        idx, has = random_choice_from_mask(mask, rng.next_keys())
        if not has.all():
            # numeric ties can empty the mask (d slightly below minΔ after
            # float rounding); fall back to the row minimum
            missing = ~has
            idx[missing] = np.argmin(delta[missing], axis=1)
        return idx

    def lower(self, state: BatchDeltaState, iterations: int) -> SelectionSpec:
        return _spec(iterations)
