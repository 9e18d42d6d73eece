"""CyclicMin search (§III.A.4): minimum-Δ bit inside a sliding cyclic window.

The ``n`` bits are arranged on a circle.  At iteration ``t`` a window of
width ``w(t) = max(⌈(t/T)³ · n⌉, c)`` (``c`` a small constant, 32 in the
paper) starts where the previous window ended; the bit with minimum Δ inside
the window is flipped.  The window grows with ``t``, so high-Δ bits are
selected with decreasing probability — an annealing schedule that uses *no
random numbers*, which is why it maps so well to GPUs ([16]).

The per-row window cursor is device-owned state shared between the stepwise
and fused paths (it rides along in the lowered spec and both paths advance
it in place), so phases can alternate between paths mid-search.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.backends.spec import KIND_CYCLIC_WINDOW, SelectionSpec
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.core.rng import XorShift64Star
from repro.search.base import INT_SENTINEL, MainSearch

__all__ = ["CyclicMinSearch"]


def _window_width(t: int, total: int, n: int, c: int) -> int:
    w = int((t / total) ** 3 * n)
    return max(1, min(n, max(w, min(c, n))))


@lru_cache(maxsize=16)
def _widths(n: int, iterations: int, c: int) -> np.ndarray:
    """The window widths of a main phase, shared read-only by every
    instance (every direct solve builds fresh devices)."""
    widths = np.array(
        [_window_width(t, iterations, n, c) for t in range(1, iterations + 1)], dtype=np.int64
    )
    widths.setflags(write=False)
    return widths


class CyclicMinSearch(MainSearch):
    """Batched CyclicMin selection with a per-row window cursor."""

    enum = MainAlgorithm.CYCLICMIN
    uses_rng = False

    def __init__(self, c: int = 32) -> None:
        if c < 1:
            raise ValueError(f"window floor c must be >= 1, got {c}")
        self.c = c
        self._cursor: np.ndarray | None = None

    def begin(self, state: BatchDeltaState, total_iters: int) -> None:
        # the window continues from wherever the previous phase left it;
        # allocate lazily on first use for this batch shape
        if self._cursor is None or self._cursor.shape[0] != state.batch:
            self._cursor = np.zeros(state.batch, dtype=np.int64)

    def window_width(self, t: int, total: int, n: int) -> int:
        """w(t) = max((t/T)³·n, c), clamped to [1, n]."""
        return _window_width(t, total, n, self.c)

    def select(
        self,
        state: BatchDeltaState,
        t: int,
        total: int,
        rng: XorShift64Star,
        tabu_mask: np.ndarray | None,
    ) -> np.ndarray:
        if self._cursor is None:
            self.begin(state, total)
        n = state.n
        w = self.window_width(t, total, n)
        cols = (self._cursor[:, None] + np.arange(w)[None, :]) % n
        rows = np.arange(state.batch)[:, None]
        vals = state.delta[rows, cols]
        if tabu_mask is not None:
            shadow = np.where(tabu_mask[rows, cols], INT_SENTINEL, vals)
            all_tabu = (shadow == INT_SENTINEL).all(axis=1)
            if all_tabu.any():
                shadow[all_tabu] = vals[all_tabu]  # must flip something
            vals = shadow
        local = np.argmin(vals, axis=1)
        idx = cols[np.arange(state.batch), local]
        # advance in place: the cursor array is shared with lowered specs
        self._cursor += w
        self._cursor %= n
        return idx

    def export_cursor(self, batch: int) -> np.ndarray:
        """The cursor a *batch*-row phase would start from, as a copy.

        Mirrors :meth:`begin` without mutating device state: zeros when no
        cursor (or one of another shape) exists yet.  The super-launch
        executor (DESIGN.md §12) seeds its merged cursor block from this
        and commits the advanced values back via :meth:`import_cursor`.
        """
        if self._cursor is None or self._cursor.shape[0] != batch:
            return np.zeros(batch, dtype=np.int64)
        return self._cursor.copy()

    def import_cursor(self, cursor: np.ndarray) -> None:
        """Adopt externally advanced per-row cursor state (copied)."""
        self._cursor = np.array(cursor, dtype=np.int64)

    def lower(self, state: BatchDeltaState, iterations: int) -> SelectionSpec:
        # the spec must reference the *current* cursor array (begin() may
        # have reallocated it for a new batch shape)
        return SelectionSpec(
            kind=KIND_CYCLIC_WINDOW,
            uses_rng=False,
            widths=_widths(state.n, iterations, self.c),
            cursor=self._cursor,
        )
