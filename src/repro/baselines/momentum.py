"""Momentum annealing — the GPU-solver class the paper cites as [15].

Okuyama et al., "Binary optimization by momentum annealing" (Phys. Rev. E
100, 2019) solve Ising models on GPUs with synchronous full-spin updates on
a *bipartite replica pair*: two copies of every spin are coupled, and each
side is updated from the frozen other side, which makes the update embar-
rassingly parallel (the property that made it a GPU solver).  A growing
self-coupling (the "momentum") progressively locks the two replicas
together, annealing the system into a single classical state.

Update rule per spin ``i`` of replica A (B symmetric):

    s_i ← sign( Σ_j J̃_ij s'_j + h̃_i + c(t)·|w_i|·s_i + T(t)·noise_i )

with ``J̃ = −(J + Jᵀ)`` (alignment rewarded for negative J), ``h̃ = −h``,
``|w_i|`` the total incident weight, ``c(t)`` ramping 0 → 1, and logistic
noise scaled by a geometrically decreasing temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ising import IsingModel, qubo_to_ising, spins_to_bits
from repro.core.qubo import QUBOModel, require_integer_weights

__all__ = ["MomentumAnnealingConfig", "MomentumResult", "momentum_annealing",
           "momentum_solve_qubo"]


@dataclass(frozen=True)
class MomentumAnnealingConfig:
    """Schedule parameters."""

    #: synchronous full-spin update steps
    steps: int = 400
    #: independent replica pairs run in lockstep
    num_replicas: int = 16
    #: initial noise temperature as a multiple of the mean incident weight
    t_initial_factor: float = 2.0
    #: final noise temperature
    t_final: float = 0.05

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.t_final <= 0:
            raise ValueError("t_final must be > 0")
        if self.t_initial_factor <= 0:
            raise ValueError("t_initial_factor must be > 0")


@dataclass
class MomentumResult:
    """Best spins over all replica pairs and steps."""

    best_spins: np.ndarray
    best_hamiltonian: int
    replica_hamiltonians: np.ndarray


def momentum_annealing(
    ising: IsingModel,
    config: MomentumAnnealingConfig | None = None,
    seed: int | None = None,
) -> MomentumResult:
    """Run batched momentum annealing; returns the best spins seen."""
    config = config or MomentumAnnealingConfig()
    rng = np.random.default_rng(seed)
    n = ising.n
    r = config.num_replicas
    j_upper = ising.interactions.astype(np.float64)
    coupling = -(j_upper + j_upper.T)
    field = -ising.biases.astype(np.float64)
    incident = np.abs(coupling).sum(axis=1) + np.abs(field)
    incident = np.maximum(incident, 1.0)
    t0 = config.t_initial_factor * float(incident.mean())
    t1 = config.t_final
    ratio = (t1 / t0) ** (1.0 / max(1, config.steps - 1))

    a = rng.choice(np.array([-1.0, 1.0]), size=(r, n))
    b = rng.choice(np.array([-1.0, 1.0]), size=(r, n))
    best_h = np.full(r, np.iinfo(np.int64).max, dtype=np.int64)
    best_s = np.ones((r, n), dtype=np.int64)
    temperature = t0
    check_every = max(1, config.steps // 40)
    for step in range(config.steps):
        momentum = (step + 1) / config.steps * incident
        # logistic noise: T · log(u / (1 − u))
        u = rng.uniform(1e-12, 1 - 1e-12, size=(r, n))
        noise = temperature * np.log(u / (1.0 - u))
        a = np.sign(b @ coupling + field + momentum * a + noise)
        a[a == 0] = 1.0
        u = rng.uniform(1e-12, 1 - 1e-12, size=(r, n))
        noise = temperature * np.log(u / (1.0 - u))
        b = np.sign(a @ coupling + field + momentum * b + noise)
        b[b == 0] = 1.0
        temperature *= ratio
        if step % check_every == 0 or step == config.steps - 1:
            for side in (a, b):
                spins = side.astype(np.int64)
                h = _hamiltonians(ising, spins)
                improved = h < best_h
                if improved.any():
                    sel = np.flatnonzero(improved)
                    best_h[sel] = h[sel]
                    best_s[sel] = spins[sel]
    k = int(np.argmin(best_h))
    return MomentumResult(
        best_spins=best_s[k].copy(),
        best_hamiltonian=int(best_h[k]),
        replica_hamiltonians=best_h.copy(),
    )


def _hamiltonians(ising: IsingModel, spins: np.ndarray) -> np.ndarray:
    j = ising.interactions
    h = ising.biases
    s = spins.astype(np.int64)
    return np.einsum("ri,ij,rj->r", s, j, s) + s @ h


def momentum_solve_qubo(
    model: QUBOModel,
    config: MomentumAnnealingConfig | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, int]:
    """Solve a QUBO with momentum annealing via the Ising conversion."""
    require_integer_weights(model)
    ising, _, _ = qubo_to_ising(model)
    result = momentum_annealing(ising, config, seed)
    bits = spins_to_bits(result.best_spins)
    return bits, int(model.energy(bits))
