"""Tabu bookkeeping (§III.A.8): recently flipped bits may not re-flip.

A bit flipped at iteration ``τ`` is *tabu* for the next ``period``
iterations, i.e. while ``clock − τ ≤ period``.  The tracker stores one
stamp per (row, bit) and produces the boolean mask consulted by the main
search algorithms (TwoNeighbor and the greedy/straight phases ignore it).

The stamp array is **device-owned state**: fused phase kernels write
stamps directly (``stamps[r, i] = clock + t`` for the row-local iteration
``t``) and the host advances the clock once per phase by the lockstep
iteration count (:meth:`TabuTracker.advance`) — bit-identical to the
stepwise per-flip :meth:`record`, because within any phase a row's k-th
flip always lands on lockstep iteration k.  :meth:`mask` writes into one
reused buffer instead of allocating a fresh ``(B, n)`` array per flip.

``clock`` is a scalar in the stepwise oracle (every row advances
together).  A super-launch (DESIGN.md §12) stacks lockstep groups — of
one launch or of *different* jobs — into one row range, and those groups
run different straight/greedy iteration counts, so it uses a per-row
**vector clock** (:meth:`vectorize_clock`): all arithmetic here and in
every backend's fused phase runners broadcasts either form, and
:meth:`window` hands out row-range views whose clock slice aliases the
parent, so an in-place ``advance`` on a window propagates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TabuTracker"]


class TabuTracker:
    """Per-(row, bit) flip stamps with a fixed tabu tenure."""

    __slots__ = ("period", "clock", "_stamp", "_mask_buf")

    def __init__(self, batch: int, n: int, period: int) -> None:
        if period < 0:
            raise ValueError(f"tabu period must be >= 0, got {period}")
        self.period = period
        self.clock: int | np.ndarray = 0
        # "never flipped" sits far enough in the past to never be tabu
        self._stamp = np.full((batch, n), -(period + 1), dtype=np.int64)
        self._mask_buf: np.ndarray | None = None

    @property
    def enabled(self) -> bool:
        """False when the tenure is zero (tracker is a no-op)."""
        return self.period > 0

    @property
    def stamps(self) -> np.ndarray:
        """The raw ``(B, n)`` int64 stamp array (device-side state)."""
        return self._stamp

    def mask(self) -> np.ndarray | None:
        """Boolean ``(B, n)``: True where flipping is currently forbidden.

        Written into one lazily allocated buffer reused across calls —
        callers must not hold the result across iterations (none do; the
        selection rules derive fresh candidate masks from it).
        """
        if not self.enabled:
            return None
        buf = self._mask_buf
        if buf is None:
            buf = self._mask_buf = np.empty(self._stamp.shape, dtype=bool)
        # clock − stamp ≤ period  ⟺  stamp ≥ clock − period (int64 exact)
        threshold = self.clock - self.period
        if isinstance(threshold, np.ndarray):
            threshold = threshold[:, None]
        np.greater_equal(self._stamp, threshold, out=buf)
        return buf

    def record(self, idx: np.ndarray, active: np.ndarray | None = None) -> None:
        """Stamp the flips of this iteration and advance the clock."""
        if self.enabled:
            if active is None:
                rows = np.arange(self._stamp.shape[0])
                cols = np.asarray(idx)
            else:
                rows = np.flatnonzero(active)
                cols = np.asarray(idx)[rows]
            clock = self.clock
            if isinstance(clock, np.ndarray):
                clock = clock[rows]
            self._stamp[rows, cols] = clock
        self.clock += 1

    def advance(self, iterations: int) -> None:
        """Advance the clock by a whole phase's lockstep iteration count.

        Fused phase kernels stamp row-locally (``clock + t``) while they
        run; this is the single host-side clock update replacing the
        per-flip :meth:`record` advancement.
        """
        self.clock += int(iterations)

    def reset(self) -> None:
        """Forget all stamps (used between batch searches)."""
        self._stamp.fill(-(self.period + 1))
        self.clock = 0

    def vectorize_clock(self) -> np.ndarray:
        """Switch to a per-row vector clock and return it.

        Used by the coalesced super-launch executor: stacked jobs run
        per-cell phase iteration counts, so each row range keeps its own
        clock.  In-place updates (``advance``, per-cell fix-ups through
        :meth:`window` views) mutate the shared vector.
        """
        if not isinstance(self.clock, np.ndarray):
            self.clock = np.full(self._stamp.shape[0], int(self.clock), dtype=np.int64)
        return self.clock

    def window(self, start: int, stop: int) -> "TabuTracker":
        """A tracker over rows ``[start, stop)`` sharing stamps *and* clock.

        Requires a vector clock (:meth:`vectorize_clock`): the window's
        clock is the parent's slice, so a phase runner's ``advance`` on
        the window propagates per-row.  Never call :meth:`reset` on a
        window — it would rebind the clock slice to a scalar.
        """
        if not isinstance(self.clock, np.ndarray):
            raise ValueError("window() requires a vector clock; call vectorize_clock() first")
        if not 0 <= start < stop <= self._stamp.shape[0]:
            raise ValueError(
                f"window must satisfy 0 <= start < stop <= {self._stamp.shape[0]}, "
                f"got [{start}, {stop})"
            )
        view = object.__new__(TabuTracker)
        view.period = self.period
        view.clock = self.clock[start:stop]
        view._stamp = self._stamp[start:stop]
        view._mask_buf = None
        return view
