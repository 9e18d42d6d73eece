"""Quantum annealer simulator — the D-Wave Advantage substitute.

Substitution rationale (DESIGN.md §1.4): the paper uses D-Wave Advantage
4.1 to solve QASPs and observes that it lands *close* to optimal (gaps of
0.07–0.1 %) but never reaches the optimum, with sensitivity to the
coefficient resolution because the device handles interactions as analog
values (§II.C).  Both effects are reproduced here:

* **analog noise** — before each anneal the integer coefficients are
  perturbed by Gaussian noise with standard deviation ``noise_sigma`` *of
  the analog full range*, i.e. ``σ·r`` in integer units for a resolution-r
  instance.  Finer resolution therefore drowns in noise exactly as on the
  device ([10] benchmarks this flux noise).
* **weak optimization per anneal** — each 20 µs anneal is modelled as a
  handful of annealing sweeps from a random state: single anneals are fast
  but shallow, so quality comes from many reads, as with the device.

The noisy coefficients are fractional, so the anneal runs its own
lockstep Metropolis over a float64 ``(R, n)`` Δ instead of the int64
search kernels (which refuse fractional weights).

The API mirrors the D-Wave sampler: :meth:`QuantumAnnealerSim.sample` takes
``num_reads`` (≤ 10 000 per call, the service cap the paper mentions) and
returns per-read energies evaluated on the *true* (noiseless) model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ising import IsingModel, ising_to_qubo
from repro.core.qubo import QUBOModel

__all__ = ["AnnealerSample", "QuantumAnnealerSim"]

#: largest num_reads per sampling call (D-Wave service cap, §VI.C)
MAX_READS_PER_CALL = 10_000


@dataclass
class AnnealerSample:
    """Result of one sampling call."""

    #: per-read spin vectors, shape (num_reads, n), values ±1
    spins: np.ndarray
    #: per-read true Hamiltonians (noiseless model)
    hamiltonians: np.ndarray
    #: modelled wall-clock of the call (anneal time + service overhead)
    elapsed_model_seconds: float

    @property
    def best_hamiltonian(self) -> int:
        """Best true Hamiltonian across reads."""
        return int(self.hamiltonians.min())

    def best_spins(self) -> np.ndarray:
        """Spin vector achieving :attr:`best_hamiltonian`."""
        return self.spins[int(np.argmin(self.hamiltonians))]


class QuantumAnnealerSim:
    """Noisy, resolution-limited annealer on a fixed Ising model."""

    def __init__(
        self,
        ising: IsingModel,
        resolution: int,
        noise_sigma: float = 0.02,
        sweeps_per_anneal: int = 4,
        per_call_overhead: float = 2.7,
        seed: int | None = None,
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if sweeps_per_anneal < 1:
            raise ValueError("sweeps_per_anneal must be >= 1")
        self.ising = ising
        self.resolution = resolution
        self.noise_sigma = noise_sigma
        self.sweeps_per_anneal = sweeps_per_anneal
        self.per_call_overhead = per_call_overhead
        self._rng = np.random.default_rng(seed)
        # true (noiseless) QUBO for final evaluation
        self._qubo, self._offset = ising_to_qubo(ising)

    def _noisy_model(self) -> QUBOModel:
        """The device's view of the problem for one anneal batch."""
        j = self.ising.interactions.astype(np.float64)
        h = self.ising.biases.astype(np.float64)
        sigma_j = self.noise_sigma * self.resolution
        sigma_h = self.noise_sigma * 4 * self.resolution
        mask = j != 0
        j_noisy = j.copy()
        j_noisy[mask] += self._rng.normal(0.0, sigma_j, size=int(mask.sum()))
        h_noisy = h + self._rng.normal(0.0, sigma_h, size=h.shape)
        noisy = IsingModel(
            np.triu(j_noisy, 1), h_noisy, name=f"{self.ising.name}-noisy"
        )
        qubo, _ = ising_to_qubo(noisy)
        return qubo

    def sample(self, num_reads: int = 100) -> AnnealerSample:
        """Run *num_reads* independent anneals (one noise draw per batch)."""
        if not 1 <= num_reads <= MAX_READS_PER_CALL:
            raise ValueError(
                f"num_reads must be in [1, {MAX_READS_PER_CALL}], got {num_reads}"
            )
        n = self.ising.n
        noisy = self._noisy_model()
        s = np.asarray(noisy.couplings, dtype=np.float64)
        x = self._rng.integers(0, 2, size=(num_reads, n), dtype=np.uint8)
        xf = x.astype(np.float64)
        delta = (1 - 2 * xf) * (xf @ s + noisy.linear)
        rows = np.arange(num_reads)
        iters = self.sweeps_per_anneal * n
        # fast geometric quench — one anneal is fast, not thorough
        t0 = max(1.0, float(np.abs(noisy.couplings).sum(axis=1).mean()))
        t1 = 0.3
        ratio = (t1 / t0) ** (1.0 / max(1, iters - 1))
        temperature = t0
        for _ in range(iters):
            idx = self._rng.integers(0, n, size=num_reads)
            gain = delta[rows, idx]
            accept = gain <= 0
            uphill = ~accept
            if uphill.any():
                prob = np.exp(-gain[uphill] / temperature)
                accept[uphill] = self._rng.random(int(uphill.sum())) < prob
            # the Eq. 4/5 update on the accepted rows
            r = np.flatnonzero(accept)
            c = idx[r]
            d_i = delta[r, c]
            s_old = (2 * x[r, c].astype(np.float64) - 1)[:, None]
            x[r, c] ^= 1
            delta[r] += s[c] * (s_old * (2 * x[r].astype(np.float64) - 1))
            delta[r, c] = -d_i
            temperature *= ratio
        spins = 2 * x.astype(np.int64) - 1
        # evaluate on the TRUE model: E(X) − offset = H(S)
        true_energies = self._qubo.energies(x) - self._offset
        model_time = self.per_call_overhead + num_reads * 20e-6
        return AnnealerSample(
            spins=spins,
            hamiltonians=true_energies.astype(np.int64),
            elapsed_model_seconds=model_time,
        )

    def best_of_calls(self, num_calls: int, reads_per_call: int) -> tuple[int, float]:
        """Paper §VI.C methodology: repeat sampling calls, track the best.

        Returns ``(best_hamiltonian, total_model_seconds)``.
        """
        best = None
        total_time = 0.0
        for _ in range(num_calls):
            result = self.sample(reads_per_call)
            total_time += result.elapsed_model_seconds
            if best is None or result.best_hamiltonian < best:
                best = result.best_hamiltonian
        return int(best), total_time
