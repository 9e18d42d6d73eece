"""Island model (§IV.B): a cyclic ring of solution pools.

One pool per (virtual) GPU, ordered cyclically as in Fig. 2.  Unlike
conventional island models there is *no* solution migration; instead the
Xrossover operation crosses a parent from a pool with a parent from its ring
neighbour, so batch searches traverse the region of the n-bit cube *between*
pools and good midway solutions pull the pools toward each other.
"""

from __future__ import annotations

import numpy as np

from repro.core.packet import Packet
from repro.ga.pool import SolutionPool

__all__ = ["IslandRing", "StallTracker"]


class StallTracker:
    """Work-unit stall counter driving the §IV.B merged-ring restarts.

    The restart trigger is "no global improvement for a while".

    **Units contract**: ``threshold`` and the ``units`` argument of
    :meth:`update` are denominated in the *same* work unit, whatever the
    caller's scheduler naturally counts — the virtual-time replay calls
    ``update(improved)`` once per round (one unit = one round), while
    free-running service jobs have no rounds and call it once per device
    *launch* completion.  A threshold configured in rounds
    (``DABSConfig.restart_after_stall``) must therefore be converted to
    the caller's unit before construction; :meth:`scaled` is that
    conversion.  Mixing units — a round-denominated threshold counted
    down in launches — makes restarts fire ``launches_per_round`` times
    too early, which is exactly the miscalibration that appears when a
    fleet is sharded across federation islands and each island counts
    only its own launches.  Both schedulers share this counter so the
    policy lives in one place.
    """

    __slots__ = ("threshold", "count")

    def __init__(self, threshold: int | None) -> None:
        if threshold is not None and threshold < 1:
            raise ValueError("threshold must be >= 1 or None")
        self.threshold = threshold
        self.count = 0

    @classmethod
    def scaled(
        cls, threshold_rounds: int | None, launches_per_round: int
    ) -> "StallTracker":
        """A tracker whose round-denominated *threshold_rounds* is counted
        in launch units.

        *launches_per_round* is the number of launch completions that make
        up one round **of the counting fleet** — i.e. the local
        ``config.num_gpus`` of the solver doing the counting, not the
        global device count of a larger deployment.  A federation island
        running 2 of a formation's 8 devices passes ``2``: it sees 2
        launches per one of *its* rounds, so "stalled for N rounds" means
        ``2 × N`` of its launches.  Scaling by the global fleet size would
        multiply the two miscalibrations (islands × devices) together and
        make sharded fleets restart almost never.
        """
        if launches_per_round < 1:
            raise ValueError("launches_per_round must be >= 1")
        if threshold_rounds is None:
            return cls(None)
        return cls(threshold_rounds * launches_per_round)

    def update(self, improved: bool, units: int = 1) -> bool:
        """Record *units* of work; True when a restart is due.

        *units* must be denominated in the unit the threshold was
        constructed in (see the class docstring)."""
        self.count = 0 if improved else self.count + units
        return self.threshold is not None and self.count >= self.threshold

    def reset(self) -> None:
        """Clear the counter (called after a restart)."""
        self.count = 0


class IslandRing:
    """Cyclically ordered solution pools with ring-neighbour lookup."""

    def __init__(self, pools: list[SolutionPool]) -> None:
        if not pools:
            raise ValueError("IslandRing needs at least one pool")
        n = pools[0].n
        if any(p.n != n for p in pools):
            raise ValueError("all pools must store vectors of the same length")
        self.pools = list(pools)

    def __len__(self) -> int:
        return len(self.pools)

    def __getitem__(self, index: int) -> SolutionPool:
        return self.pools[index]

    def neighbor_of(self, index: int) -> SolutionPool:
        """The Xrossover partner pool: the next pool on the ring."""
        return self.pools[(index + 1) % len(self.pools)]

    def global_best(self) -> Packet:
        """Best packet across every pool."""
        energies = [p.best_energy for p in self.pools]
        return self.pools[int(np.argmin(energies))].best_packet()

    def global_best_energy(self) -> int:
        """Best energy across every pool."""
        return min(p.best_energy for p in self.pools)

    def reinitialize(self, rng: np.random.Generator) -> None:
        """Restart all pools with fresh random vectors (§IV.B: used when the
        ring has collapsed into relatives of one solution)."""
        for pool in self.pools:
            pool.reinitialize(rng)

    def diversities(self) -> list[float | None]:
        """Per-pool mean pairwise Hamming distance, in ring order.

        Each entry is :meth:`SolutionPool.diversity` — computed on
        bit-packed rows — or None while that pool is still warming up.
        """
        return [p.diversity() for p in self.pools]

    def collapsed(self, threshold: float) -> bool:
        """True when *every* pool's diversity has fallen below *threshold*.

        Pools without enough returned solutions to measure do not count as
        collapsed (the ring is still warming up).
        """
        diversities = self.diversities()
        if any(d is None for d in diversities):
            return False
        return all(d < threshold for d in diversities)
