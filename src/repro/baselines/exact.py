"""Exact and MIP-like solvers — the Gurobi substitute (DESIGN.md §1.4).

Gurobi plays two roles in the paper's evaluation: it *certifies* optimality
of small instances (the QAPLIB optima of Table III) and it demonstrates that
a time-limited exact solver stalls with a nonzero gap on the large ones
(Tables II–IV).  Two solvers reproduce those roles:

* :class:`BranchAndBoundSolver` — depth-first branch and bound with an
  admissible per-variable bound; proves optimality for n ≲ 30.
* :class:`MipLikeSolver` — a wall-clock-limited incumbent improver
  (multistart greedy descent + annealing polish) that reports the best
  found solution and its gap to a reference, exactly the quantity quoted in
  the paper's "Gurobi (Gap)" rows.  For small models it first tries the
  exact solver within the time budget and reports a proven optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.simulated_annealing import SAConfig, simulated_annealing
from repro.core.delta import DeltaState
from repro.core.qubo import QUBOModel, require_integer_weights

__all__ = ["BranchAndBoundSolver", "ExactResult", "MipLikeSolver", "MipResult"]


@dataclass
class ExactResult:
    """Outcome of a branch-and-bound run."""

    best_vector: np.ndarray
    best_energy: int
    proved_optimal: bool
    nodes_explored: int


class BranchAndBoundSolver:
    """Depth-first branch and bound over variable assignments.

    Variables are fixed in descending order of total incident weight (the
    most influential first, which tightens bounds early).  For a partial
    assignment the bound adds, per free variable, the cheapest contribution
    it could possibly make:

        bound += min(0, W_kk + Σ_{fixed j: x_j=1} S_kj + Σ_{free j} min(0, S_kj))

    which never overestimates the true completion cost.
    """

    def __init__(self, max_nodes: int = 200_000) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        self.max_nodes = max_nodes

    def solve(
        self, model: QUBOModel, time_limit: float | None = None
    ) -> ExactResult:
        """Exact minimization; ``proved_optimal`` is False only when the
        node or time budget ran out first."""
        require_integer_weights(model)
        n = model.n
        s = model.couplings.astype(np.int64)
        lin = model.linear.astype(np.int64)
        order = np.argsort(-(np.abs(s).sum(axis=1) + np.abs(lin)))
        neg_s = np.minimum(s, 0)
        deadline = time.perf_counter() + time_limit if time_limit else None

        # incumbent from a quick greedy descent
        state = DeltaState(model)
        while not state.is_local_minimum():
            j = int(np.argmin(state.delta))
            state.flip(j)
        best_x = state.x.copy()
        best_e = state.energy

        x = np.zeros(n, dtype=np.uint8)
        # contribution[k] = W_kk + Σ_{fixed j: x_j = 1} S_kj, maintained incrementally
        contribution = lin.copy()
        # slack[k] = Σ_{free j} min(0, S_kj), shrunk as variables get fixed
        slack = neg_s.sum(axis=1)
        free = np.ones(n, dtype=bool)
        nodes = 0
        proved = True

        def bound() -> int:
            per_var = contribution[free] + slack[free]
            return int(np.minimum(per_var, 0).sum())

        # iterative DFS: stack entries are (depth, value)
        energy = 0
        stack: list[tuple[int, int]] = [(0, 0), (0, 1)]
        path: list[int] = []  # values applied so far, aligned with `order`
        while stack:
            nodes += 1
            if nodes > self.max_nodes or (
                deadline is not None and time.perf_counter() > deadline
            ):
                proved = False
                break
            depth, value = stack.pop()
            # rewind to `depth`
            while len(path) > depth:
                undo_val = path.pop()
                k = int(order[len(path)])
                free[k] = True
                slack += neg_s[k]
                if undo_val == 1:
                    energy -= int(contribution[k])
                    x[k] = 0
                    contribution -= s[k]
            k = int(order[depth])
            # apply this assignment
            free[k] = False
            slack -= neg_s[k]
            if value == 1:
                x[k] = 1
                energy += int(contribution[k])
                contribution += s[k]
            path.append(value)
            if energy + bound() >= best_e:
                continue  # pruned (children never pushed)
            if depth + 1 == n:
                if energy < best_e:
                    best_e = energy
                    best_x = x.copy()
                continue
            stack.append((depth + 1, 0))
            stack.append((depth + 1, 1))
        return ExactResult(
            best_vector=best_x,
            best_energy=int(best_e),
            proved_optimal=proved,
            nodes_explored=nodes,
        )


@dataclass
class MipResult:
    """Outcome of a time-limited MIP-like run."""

    best_vector: np.ndarray
    best_energy: int
    proved_optimal: bool
    elapsed: float
    restarts: int

    def gap_to(self, reference_energy: int) -> float:
        """Relative gap to a reference optimum, as quoted in Tables II–IV."""
        if reference_energy == 0:
            return 0.0 if self.best_energy == 0 else float("inf")
        return abs(self.best_energy - reference_energy) / abs(reference_energy)


class MipLikeSolver:
    """Wall-clock-limited incumbent improvement (the "Gurobi row" stand-in)."""

    def __init__(
        self,
        time_limit: float = 5.0,
        seed: int | None = None,
        exact_threshold: int = 22,
    ) -> None:
        if time_limit <= 0:
            raise ValueError("time_limit must be > 0")
        self.time_limit = time_limit
        self.seed = seed
        self.exact_threshold = exact_threshold

    def solve(self, model: QUBOModel) -> MipResult:
        """Return the best incumbent found within the time limit."""
        require_integer_weights(model)
        start = time.perf_counter()
        if model.n <= self.exact_threshold:
            exact = BranchAndBoundSolver().solve(
                model, time_limit=self.time_limit * 0.9
            )
            if exact.proved_optimal:
                return MipResult(
                    best_vector=exact.best_vector,
                    best_energy=exact.best_energy,
                    proved_optimal=True,
                    elapsed=time.perf_counter() - start,
                    restarts=0,
                )
        rng = np.random.default_rng(self.seed)
        best_x = np.zeros(model.n, dtype=np.uint8)
        best_e = model.energy(best_x)
        restarts = 0
        while time.perf_counter() - start < self.time_limit:
            restarts += 1
            result = simulated_annealing(
                model,
                SAConfig(sweeps=20, num_reads=8),
                seed=int(rng.integers(1 << 31)),
            )
            # greedy polish of the annealing incumbent
            state = DeltaState(model, result.best_vector)
            while not state.is_local_minimum():
                state.flip(int(np.argmin(state.delta)))
            if state.energy < best_e:
                best_e = state.energy
                best_x = state.x.copy()
        return MipResult(
            best_vector=best_x,
            best_energy=int(best_e),
            proved_optimal=False,
            elapsed=time.perf_counter() - start,
            restarts=restarts,
        )
