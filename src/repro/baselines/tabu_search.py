"""Standalone tabu search baseline on QUBO models.

Classic best-improvement tabu search ([26], applied to QUBO): every
iteration flips the best non-tabu bit — uphill if necessary — with an
aspiration criterion (a tabu move that would beat the global best is always
allowed).  Used in ablation benches as a single-strategy reference point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.delta import DeltaState
from repro.core.qubo import QUBOModel, require_integer_weights

__all__ = ["TabuSearchConfig", "TabuSearchResult", "tabu_search"]


@dataclass(frozen=True)
class TabuSearchConfig:
    """Tabu search parameters."""

    #: total flips
    iterations: int = 1000
    #: tabu tenure
    tenure: int = 8
    #: independent random restarts
    restarts: int = 4

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.tenure < 0:
            raise ValueError("tenure must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class TabuSearchResult:
    """Best solution over all restarts."""

    best_vector: np.ndarray
    best_energy: int
    restart_energies: list[int]


def tabu_search(
    model: QUBOModel,
    config: TabuSearchConfig | None = None,
    seed: int | None = None,
) -> TabuSearchResult:
    """Multi-restart tabu search; returns the best solution found."""
    require_integer_weights(model)
    config = config or TabuSearchConfig()
    rng = np.random.default_rng(seed)
    n = model.n
    best_vector = None
    best_energy = None
    restart_energies: list[int] = []
    for _ in range(config.restarts):
        state = DeltaState(model, rng.integers(0, 2, n, dtype=np.uint8))
        run_best_x = state.x.copy()
        run_best_e = state.energy
        last_flip = np.full(n, -(config.tenure + 1), dtype=np.int64)
        for it in range(config.iterations):
            tabu = (it - last_flip) <= config.tenure
            candidate_energy = state.energy + state.delta
            # aspiration: tabu bits that beat the global best stay eligible
            blocked = tabu & (candidate_energy >= run_best_e)
            scores = np.where(blocked, np.int64(2**62), state.delta)
            i = int(np.argmin(scores))
            if scores[i] == np.int64(2**62):
                i = int(np.argmin(state.delta))  # everything blocked: take best
            state.flip(i)
            last_flip[i] = it
            if state.energy < run_best_e:
                run_best_e = state.energy
                run_best_x = state.x.copy()
        restart_energies.append(int(run_best_e))
        if best_energy is None or run_best_e < best_energy:
            best_energy = int(run_best_e)
            best_vector = run_best_x
    return TabuSearchResult(
        best_vector=best_vector,
        best_energy=best_energy,
        restart_energies=restart_energies,
    )
