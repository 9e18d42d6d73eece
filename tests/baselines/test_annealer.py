"""Tests for the quantum annealer simulator."""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.baselines.annealer import MAX_READS_PER_CALL, QuantumAnnealerSim
from repro.problems.qasp import random_qasp
from repro.topology.pegasus import advantage_like_graph


@pytest.fixture(scope="module")
def qasp():
    graph = advantage_like_graph(m=3, seed=0)
    return random_qasp(resolution=2, graph=graph, seed=1)


class TestQuantumAnnealerSim:
    def test_sample_shapes(self, qasp):
        sim = QuantumAnnealerSim(qasp.ising, qasp.resolution, seed=0)
        result = sim.sample(num_reads=20)
        assert result.spins.shape == (20, qasp.n)
        assert result.hamiltonians.shape == (20,)
        assert set(np.unique(result.spins).tolist()) <= {-1, 1}

    def test_energies_are_true_hamiltonians(self, qasp):
        """Reported energies must be evaluated on the noiseless model."""
        sim = QuantumAnnealerSim(qasp.ising, qasp.resolution, seed=1)
        result = sim.sample(num_reads=5)
        for spins, h in zip(result.spins, result.hamiltonians):
            assert qasp.ising.hamiltonian(spins) == h

    def test_best_helpers(self, qasp):
        sim = QuantumAnnealerSim(qasp.ising, qasp.resolution, seed=2)
        result = sim.sample(num_reads=10)
        assert result.best_hamiltonian == result.hamiltonians.min()
        assert qasp.ising.hamiltonian(result.best_spins()) == result.best_hamiltonian

    def test_noise_hurts_quality(self, qasp):
        """Average quality with heavy analog noise must be worse than with
        no noise — the §II.C resolution-sensitivity mechanism."""
        clean = QuantumAnnealerSim(
            qasp.ising, qasp.resolution, noise_sigma=0.0, seed=3
        )
        noisy = QuantumAnnealerSim(
            qasp.ising, qasp.resolution, noise_sigma=0.6, seed=3
        )
        clean_best = np.mean([clean.sample(40).hamiltonians.mean() for _ in range(3)])
        noisy_best = np.mean([noisy.sample(40).hamiltonians.mean() for _ in range(3)])
        assert noisy_best > clean_best

    def test_model_time_includes_overhead(self, qasp):
        sim = QuantumAnnealerSim(qasp.ising, qasp.resolution, seed=4)
        result = sim.sample(num_reads=100)
        # 2.7s overhead + 100 × 20µs ≈ 2.702, the §VI.C accounting
        assert result.elapsed_model_seconds == pytest.approx(2.702, abs=1e-6)

    def test_reads_cap_enforced(self, qasp):
        sim = QuantumAnnealerSim(qasp.ising, qasp.resolution)
        with pytest.raises(ValueError, match="num_reads"):
            sim.sample(MAX_READS_PER_CALL + 1)

    def test_best_of_calls(self, qasp):
        sim = QuantumAnnealerSim(qasp.ising, qasp.resolution, seed=5)
        best, total_time = sim.best_of_calls(num_calls=2, reads_per_call=10)
        assert isinstance(best, int)
        assert total_time == pytest.approx(2 * (2.7 + 10 * 20e-6))

    def test_rejects_bad_params(self, qasp):
        with pytest.raises(ValueError):
            QuantumAnnealerSim(qasp.ising, resolution=0)
        with pytest.raises(ValueError):
            QuantumAnnealerSim(qasp.ising, resolution=1, noise_sigma=-1)
        with pytest.raises(ValueError):
            QuantumAnnealerSim(qasp.ising, resolution=1, sweeps_per_anneal=0)


#: ``sample(12)`` then ``sample(5)`` on the fixture instance, recorded when
#: the anneal still ran on the dense search kernels: the hamiltonians of
#: both calls and the sha256 of their spins as int8
RECORDED = {
    7: (
        [-617, -661, -635, -647, -675, -583, -631, -663, -681, -657, -595, -631]
        + [-617, -665, -651, -639, -673],
        "5ad1177c0180dcb5296e17e70aba17c9a0cb7172cdf9cc77d5dc966e7867b898",
    ),
    8: (
        [-605, -631, -695, -685, -675, -613, -709, -681, -619, -653, -653, -603]
        + [-571, -683, -567, -661, -575],
        "66845d5e895592179f200481ed3eafb425f5dec6c825f217ad7701efe2fc6926",
    ),
}


@pytest.mark.parametrize("env_backend", [None, "numpy-sparse"])
@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_seeded_samples_match_the_recorded_ones(qasp, seed, env_backend, monkeypatch):
    """The anneal's own float Metropolis is bit-identical to the kernel
    run it replaced, and a REPRO_BACKEND hint neither changes it nor
    warns (the anneal uses no backend)."""
    if env_backend is None:
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
    else:
        monkeypatch.setenv("REPRO_BACKEND", env_backend)
    sim = QuantumAnnealerSim(qasp.ising, qasp.resolution, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [sim.sample(num_reads=12), sim.sample(num_reads=5)]
    hamiltonians = np.concatenate([r.hamiltonians for r in results])
    spins = np.concatenate([r.spins.ravel() for r in results]).astype(np.int8)
    expected_h, expected_spins = RECORDED[seed]
    assert hamiltonians.tolist() == expected_h
    assert hashlib.sha256(spins.tobytes()).hexdigest() == expected_spins
