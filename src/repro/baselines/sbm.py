"""Simulated Bifurcation Machine (paper references [14], [35]).

The SBM family solves Ising models by integrating a classical nonlinear
Hamiltonian system.  The paper quotes FPGA implementations of the ballistic
(bSB) and discrete (dSB) variants as MaxCut comparators; the algorithms
themselves are classical, so we implement both directly:

position/momentum pairs ``(x_i, y_i)`` evolve under

    ẏ_i = −(a0 − a(t))·x_i + c0·(Σ_j J̃_ij φ(x_j) + h̃_i)
    ẋ_i = a0·y_i

with ``a(t)`` ramping 0 → a0, perfectly inelastic walls at ``|x| = 1``
(position clamped, momentum zeroed), ``φ(x) = x`` for bSB and
``φ(x) = sign(x)`` for dSB.  ``J̃ = −J`` because SBM maximizes the bonded
term while our Hamiltonian (Eq. 1) is minimized.  Spins are read out as
``sign(x)``.

The implementation is batched: ``R`` independent replicas with random
initial conditions integrate in lockstep via one ``(R, n) @ (n, n)`` matmul
per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ising import IsingModel, spins_to_bits
from repro.core.qubo import QUBOModel, require_integer_weights
from repro.core.ising import qubo_to_ising

__all__ = ["SBMConfig", "SBMResult", "simulated_bifurcation", "sbm_solve_qubo"]


@dataclass(frozen=True)
class SBMConfig:
    """Integration parameters."""

    #: "ballistic" (bSB) or "discrete" (dSB, [14])
    variant: str = "discrete"
    #: integration steps
    steps: int = 1000
    #: time step
    dt: float = 0.5
    #: detuning amplitude a0
    a0: float = 1.0
    #: independent replicas
    num_replicas: int = 16

    def __post_init__(self) -> None:
        if self.variant not in ("ballistic", "discrete"):
            raise ValueError('variant must be "ballistic" or "discrete"')
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")


@dataclass
class SBMResult:
    """Best spin configuration over replicas and steps."""

    best_spins: np.ndarray
    best_hamiltonian: int
    replica_hamiltonians: np.ndarray


def simulated_bifurcation(
    ising: IsingModel,
    config: SBMConfig | None = None,
    seed: int | None = None,
) -> SBMResult:
    """Run batched bSB/dSB on an Ising model; returns the best spins seen."""
    config = config or SBMConfig()
    rng = np.random.default_rng(seed)
    n = ising.n
    r = config.num_replicas
    j_upper = ising.interactions.astype(np.float64)
    # symmetric coupling, negated: SBM's bonded term rewards aligned spins
    coupling = -(j_upper + j_upper.T)
    field = -ising.biases.astype(np.float64)
    # c0 normalization of Goto et al.: 0.5 / (σ_J · sqrt(n))
    sigma = float(np.sqrt((coupling**2).sum() / max(1, n * (n - 1))))
    c0 = 0.5 / (sigma * np.sqrt(n)) if sigma > 0 else 0.5
    x = rng.uniform(-0.1, 0.1, size=(r, n))
    y = rng.uniform(-0.1, 0.1, size=(r, n))
    a0, dt = config.a0, config.dt
    discrete = config.variant == "discrete"
    best_h = np.full(r, np.iinfo(np.int64).max, dtype=np.int64)
    best_s = np.ones((r, n), dtype=np.int64)
    check_every = max(1, config.steps // 50)
    for step in range(config.steps):
        a_t = a0 * (step + 1) / config.steps
        phi = np.sign(x) if discrete else x
        y += (-(a0 - a_t) * x + c0 * (phi @ coupling + field)) * dt
        x += a0 * y * dt
        # inelastic walls
        escaped = np.abs(x) > 1.0
        x[escaped] = np.sign(x[escaped])
        y[escaped] = 0.0
        if step % check_every == 0 or step == config.steps - 1:
            spins = np.where(x >= 0, 1, -1).astype(np.int64)
            h = _hamiltonians(ising, spins)
            improved = h < best_h
            if improved.any():
                sel = np.flatnonzero(improved)
                best_h[sel] = h[sel]
                best_s[sel] = spins[sel]
    k = int(np.argmin(best_h))
    return SBMResult(
        best_spins=best_s[k].copy(),
        best_hamiltonian=int(best_h[k]),
        replica_hamiltonians=best_h.copy(),
    )


def _hamiltonians(ising: IsingModel, spins: np.ndarray) -> np.ndarray:
    """Batched Hamiltonians of ``(R, n)`` spin matrices."""
    j = ising.interactions
    h = ising.biases
    s = spins.astype(np.int64)
    return np.einsum("ri,ij,rj->r", s, j, s) + s @ h


def sbm_solve_qubo(
    model: QUBOModel,
    config: SBMConfig | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, int]:
    """Solve a QUBO with SBM via the exact Ising conversion.

    Returns ``(best_bits, best_qubo_energy)``.  The integer scale factor of
    the conversion does not affect the argmin.
    """
    require_integer_weights(model)
    ising, _, _ = qubo_to_ising(model)
    result = simulated_bifurcation(ising, config, seed)
    bits = spins_to_bits(result.best_spins)
    return bits, int(model.energy(bits))
