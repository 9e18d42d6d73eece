"""Solver result types."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.packet import GeneticOp, MainAlgorithm
from repro.ga.adaptive import SelectionCounters

__all__ = ["ImprovementEvent", "SolveResult"]


@dataclass(frozen=True)
class ImprovementEvent:
    """One new-global-best event during a solve."""

    #: seconds since solve() started
    time: float
    #: solver round in which the improvement arrived (under the async
    #: engines: the producing device's launch sequence number)
    round: int
    #: the improved energy
    energy: int
    #: strategy that produced the improving packet
    algorithm: MainAlgorithm
    operation: GeneticOp


@dataclass
class SolveResult:
    """Outcome of one solver run."""

    #: best solution vector found
    best_vector: np.ndarray
    #: its energy
    best_energy: int
    #: True when the requested target energy was reached
    reached_target: bool
    #: seconds from start until the target was first reached (None if never)
    time_to_target: float | None
    #: total wall-clock seconds of the run
    elapsed: float
    #: solver rounds executed (one round = one launch per virtual GPU)
    rounds: int
    #: total bit flips across all devices
    total_flips: int
    #: per-strategy execution counts (Table V data)
    counters: SelectionCounters
    #: strategy that first found the final best solution (Table VI data)
    first_found: tuple[MainAlgorithm, GeneticOp] | None
    #: every new-global-best event, in order
    history: list[ImprovementEvent] = field(default_factory=list)
    #: pool restarts performed (§IV.B stall/collapse recoveries)
    restarts: int = 0
    #: total device launches collected (= rounds × num_gpus under the round
    #: scheduler; free-running service jobs count every completion)
    launches: int = 0
    #: greedy-polish rows that hit the safety cap, summed over all devices
    greedy_truncations: int = 0
    #: launches that emitted a GreedyTruncationWarning (one per launch with
    #: at least one truncated row), summed over all devices
    greedy_truncation_warnings: int = 0
    #: launches re-issued after a worker fault (supervised groups only;
    #: 0 on a fault-free run — see DESIGN.md §11)
    retries: int = 0
    #: True when the run survived a fault that voids the usual exactness
    #: guarantees: a mid-launch backend fallback, or (federation) a lost
    #: island whose shard was redistributed.  The result is still a valid
    #: solve of the model.
    degraded: bool = False
    #: human-readable reasons the run degraded, in order of occurrence
    degraded_reasons: tuple[str, ...] = ()

    @property
    def flips_per_second(self) -> float:
        """Aggregate flip throughput of the run."""
        return self.total_flips / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        tts = f", TTS={self.time_to_target:.3f}s" if self.time_to_target else ""
        first = (
            f", first-found={self.first_found[0].name}/{self.first_found[1].name}"
            if self.first_found
            else ""
        )
        return (
            f"energy={self.best_energy} in {self.elapsed:.3f}s "
            f"({self.rounds} rounds, {self.total_flips} flips{tts}{first})"
        )
