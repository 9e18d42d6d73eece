"""The batch search (§III.B): what one CUDA block runs per packet.

Given a target vector and a main search algorithm, a block runs

    straight(target) → [ greedy → main(s·n flips) ]* → greedy

until its total flip count exceeds ``b·n`` (``s`` = search flip factor,
``b`` = batch flip factor), always ending on a greedy polish — matching the
paper's worked example (300 + 50 + 600 + 50 + 600 + 50 + 600 + 50 flips).
TwoNeighbor is special-cased: it is executed exactly once per batch search.

The best solution seen by the every-iteration 1-bit-neighbour scan (Step 1
of the incremental search algorithm) is maintained by :class:`BestTracker`,
which copies rows only when they improve — the vectorized counterpart of the
paper's rarely-firing ``atomicMin``.

:func:`run_batch_search` is the **stepwise oracle** of this schedule: one
``select → flip → record → fold`` round-trip per iteration.  Launches do
not run it; a virtual GPU runs every launch as one super-launch
(:mod:`repro.engine.coalesce`), whose phases are
:class:`~repro.backends.base.ComputeBackend` calls — the straight/greedy
loops and whole main phases lowered from each algorithm's
:class:`~repro.backends.spec.SelectionSpec` (DESIGN.md §6, §12).  The two
produce bit-identical (vector, energy, flip-count) trajectories under a
fixed seed — asserted per algorithm × backend × tabu setting by
``tests/backends/test_fused_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import greedy_iteration_cap
from repro.core.delta import BatchDeltaState
from repro.core.rng import XorShift64Star
from repro.search.base import MainSearch
from repro.search.greedy import greedy_descent
from repro.search.straight import straight_walk
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch

__all__ = ["BatchSearchConfig", "BestTracker", "run_batch_search", "run_main_phase"]


@dataclass(frozen=True)
class BatchSearchConfig:
    """Tuning knobs of the batch search (paper defaults in §VI)."""

    #: search flip factor ``s``: each main phase performs ``s·n`` flips
    search_flip_factor: float = 0.1
    #: batch flip factor ``b``: the batch search ends after ``b·n`` flips
    batch_flip_factor: float = 1.0
    #: tabu tenure (0 disables; the paper fixes 8)
    tabu_period: int = 8
    #: CyclicMin minimum window width (paper: c = 32)
    cyclicmin_c: int = 32
    #: RandomMin candidate floor (paper: probability floor 32/n)
    randommin_c: int = 32

    def __post_init__(self) -> None:
        if self.search_flip_factor <= 0:
            raise ValueError("search_flip_factor must be > 0")
        if self.batch_flip_factor <= 0:
            raise ValueError("batch_flip_factor must be > 0")
        if self.tabu_period < 0:
            raise ValueError("tabu_period must be >= 0")

    def main_iterations(self, n: int) -> int:
        """Flips per main phase, ``max(1, ⌊s·n⌋)``."""
        return max(1, int(self.search_flip_factor * n))

    def batch_budget(self, n: int) -> int:
        """Total flip budget per batch search, ``max(1, ⌊b·n⌋)``."""
        return max(1, int(self.batch_flip_factor * n))


class BestTracker:
    """Per-row best-solution memory fed by the 1-bit-neighbour scan.

    ``fold`` considers both the current vector and its best 1-bit
    neighbour, so after a search the tracker holds the minimum over every
    visited vector *and* every 1-bit neighbour of a visited vector.

    The buffers are device-owned state: allocated once, reset in place
    across launches (:meth:`reset`), with row-range views for the spans of
    a super-launch (:meth:`window`).  ``greedy_truncated`` flags rows whose
    greedy polish hit the iteration safety cap before converging.
    """

    __slots__ = ("best_x", "best_energy", "greedy_truncated")

    def __init__(self, state: BatchDeltaState) -> None:
        self.best_x = state.x.copy()
        self.best_energy = state.energy.copy()
        self.greedy_truncated = np.zeros(state.batch, dtype=bool)

    def reset(self, state: BatchDeltaState) -> None:
        """Re-seed the best memory from the current state, in place."""
        np.copyto(self.best_x, state.x)
        np.copyto(self.best_energy, state.energy)
        self.greedy_truncated[...] = False

    def fold(self, state: BatchDeltaState) -> None:
        """Fold the current state (and its 1-bit neighbours) into the best.

        One Δ-argmin scan per call: with ``j = argmin Δ`` and
        ``nb = E + Δ_j``, the neighbour can only improve when ``Δ_j < 0``
        (otherwise ``nb ≥ E``), so the two-pass fold (current first, then
        neighbour against the updated best) collapses to: take the
        neighbour iff ``Δ_j < 0 ∧ nb < best``, else the current state iff
        ``E < best`` — provably the same result and tie-breaks.
        """
        delta = state.delta
        energy = state.energy
        j = delta.argmin(axis=1)
        d_j = delta[state._rows, j]
        nb = energy + d_j
        best = self.best_energy
        # fast path: nothing improves (the common case after the first
        # few flips) — min(E, nb) < best ⟺ one of the folds would fire
        if not (np.minimum(nb, energy) < best).any():
            return
        fire_nb = (d_j < 0) & (nb < best)
        fire_cur = (energy < best) & ~fire_nb
        if fire_nb.any():
            rows = np.flatnonzero(fire_nb)
            self.best_x[rows] = state.x[rows]
            self.best_x[rows, j[rows]] ^= 1
            best[rows] = nb[rows]
        if fire_cur.any():
            rows = np.flatnonzero(fire_cur)
            self.best_x[rows] = state.x[rows]
            best[rows] = energy[rows]

    def window(self, start: int, stop: int) -> "BestTracker":
        """A tracker over rows ``[start, stop)``, sharing the buffers.

        The super-launch executor (DESIGN.md §12) phases over contiguous
        row spans of a stacked batch; each span folds into the same
        parent-owned best memory.
        """
        if not 0 <= start < stop <= self.best_x.shape[0]:
            raise ValueError(
                f"window must satisfy 0 <= start < stop <= {self.best_x.shape[0]}, "
                f"got [{start}, {stop})"
            )
        view = object.__new__(BestTracker)
        view.best_x = self.best_x[start:stop]
        view.best_energy = self.best_energy[start:stop]
        view.greedy_truncated = self.greedy_truncated[start:stop]
        return view


def run_main_phase(
    state: BatchDeltaState,
    algorithm: MainSearch,
    iterations: int,
    rng: XorShift64Star,
    tabu: TabuTracker,
    tracker: BestTracker,
) -> np.ndarray:
    """Stepwise reference main phase: one ``select`` round-trip per flip.

    The fused path (:meth:`ComputeBackend.run_main_phase`) must reproduce
    this loop bit-exactly.  Returns per-row flip counts.
    """
    algorithm.begin(state, iterations)
    use_tabu = algorithm.supports_tabu and tabu.enabled
    for t in range(1, iterations + 1):
        mask = tabu.mask() if use_tabu else None
        idx = algorithm.select(state, t, iterations, rng, mask)
        state.flip(idx)
        tabu.record(idx)
        tracker.fold(state)
    return np.full(state.batch, iterations, dtype=np.int64)


def run_batch_search(
    state: BatchDeltaState,
    targets: np.ndarray,
    algorithm: MainSearch,
    rng: XorShift64Star,
    config: BatchSearchConfig,
    tabu: TabuTracker | None = None,
    tracker: BestTracker | None = None,
) -> tuple[BestTracker, np.ndarray]:
    """Execute one full batch search on all rows of *state*, stepwise.

    Parameters
    ----------
    state:
        Device state; rows start from whatever the previous batch search
        left behind (initially the zero vector), as in Fig. 4 (2).
    targets:
        ``(B, n)`` target vectors from the host packets.
    algorithm:
        The main search algorithm of every row.
    tabu, tracker:
        Bookkeeping to reuse (reset in place); fresh ones are allocated
        when omitted.

    Returns
    -------
    (tracker, flips):
        The best-solution tracker and per-row total flip counts.
    """
    n = state.n
    if tabu is None:
        tabu = TabuTracker(state.batch, n, config.tabu_period)
    else:
        tabu.reset()
    if tracker is None:
        tracker = BestTracker(state)
    else:
        tracker.reset(state)
    tracker.fold(state)
    greedy_cap = greedy_iteration_cap(n)

    def on_flip(idx: np.ndarray, active: np.ndarray) -> None:
        tabu.record(idx, active)
        tracker.fold(state)

    def on_greedy_flip(idx: np.ndarray, active: np.ndarray) -> None:
        tabu.record(idx, active)

    def greedy_polish() -> np.ndarray:
        # Best-tracking folds are deferred to the end of the descent: while
        # greedy is descending, every intermediate state's best 1-bit
        # neighbour IS the next visited state (and its other neighbours are
        # never better), so one full fold after convergence yields the
        # bit-identical tracker — and skips a (B, n) argmin scan per flip,
        # the dominant cost of the greedy phase.
        f = greedy_descent(state, on_flip=on_greedy_flip)
        if int(f.max(initial=0)) >= greedy_cap:
            tracker.greedy_truncated |= ~state.is_local_minimum()
        tracker.fold(state)
        return f

    flips = straight_walk(state, targets, on_flip=on_flip)
    if isinstance(algorithm, TwoNeighborSearch):
        # greedy → single 2n−1-flip traversal → greedy, regardless of budget
        flips += greedy_polish()
        flips += run_main_phase(
            state, algorithm, algorithm.num_iterations(n), rng, tabu, tracker
        )
        flips += greedy_polish()
        return tracker, flips

    main_iters = config.main_iterations(n)
    budget = config.batch_budget(n)
    while True:
        flips += greedy_polish()
        if np.all(flips >= budget):
            break
        flips += run_main_phase(state, algorithm, main_iters, rng, tabu, tracker)
    return tracker, flips
