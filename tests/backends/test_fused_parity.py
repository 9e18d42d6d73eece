"""Launch-vs-stepwise parity: whole phases below the seam stay bit-exact.

A device launch runs its phases below the backend seam — selection specs
lowered into backend phase runners, DESIGN.md §6 — as one super-launch
(§12).  It must produce the trajectory of the stepwise oracle
(``run_batch_search``, one ``select → flip → record → fold`` round-trip
per iteration): results, flips, block solutions and the final RNG lane
states and CyclicMin cursor, for every main search algorithm × backend ×
tabu setting.  The lane-state comparison is the strictest part: it proves
the fused kernels consume the device RNG in exactly the canonical order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends
from repro.backends.spec import (
    KIND_CYCLIC_WINDOW,
    KIND_FIXED_SEQUENCE,
    KIND_MAXMIN_THRESHOLD,
    KIND_POSITIVE_MIN,
    KIND_RANDOM_CANDIDATE_MIN,
)
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.core.rng import XorShift64Star, host_generator, spawn_device_seeds
from repro.core.sparse import SparseQUBOModel
from repro.search.batch import BatchSearchConfig, BestTracker, run_batch_search
from repro.search.cyclicmin import CyclicMinSearch
from repro.search.maxmin import MaxMinSearch
from repro.search.positivemin import PositiveMinSearch
from repro.search.randommin import RandomMinSearch
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch
from tests.backends.launch_parity import (
    assert_same,
    launch_vs_stepwise,
    make_batch,
    make_gpu,
)
from tests.conftest import random_qubo

BACKENDS = sorted(available_backends())

N = 24
#: rows per launch
BATCH = 5


def dense_model():
    return random_qubo(N, seed=3, density=0.4)


def sparse_model():
    return SparseQUBOModel.from_dense(dense_model())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", list(MainAlgorithm), ids=lambda a: a.name)
@pytest.mark.parametrize("tabu_period", [0, 8])
@pytest.mark.parametrize("make_model", [dense_model, sparse_model])
def test_launch_matches_stepwise(backend, algorithm, tabu_period, make_model):
    assert_same(*launch_vs_stepwise(make_model(), algorithm, backend, tabu_period))


def test_launch_matches_stepwise_wide_tabu():
    """tabu_period ≥ n exercises the all-tabu fallback (non-incremental)."""
    model = dense_model()
    assert_same(*launch_vs_stepwise(model, MainAlgorithm.MAXMIN, "numpy-dense", N + 6))


class TestTwoNeighborSchedule:
    """TwoNeighbor's fixed single-traversal schedule survives fusing."""

    def test_single_traversal_flip_counts(self):
        model = dense_model()
        config = BatchSearchConfig(batch_flip_factor=50.0)
        gpu = make_gpu(model, BATCH, config, seed=7, start=2)
        batch = make_batch([MainAlgorithm.TWONEIGHBOR] * BATCH, model.n, seed=2)
        _, flips = gpu.launch(batch)
        # straight + greedy + exactly (2n − 1) + greedy, far below 50·n
        assert np.all(flips >= 2 * model.n - 1)
        assert np.all(flips < config.batch_budget(model.n))

    def test_lanes_untouched(self):
        """TwoNeighbor consumes no RNG on either path."""
        model = dense_model()
        config = BatchSearchConfig(batch_flip_factor=2.0)
        gpu = make_gpu(model, BATCH, config, start=7)
        lanes = gpu.rng_state.copy()
        gpu.launch(make_batch([MainAlgorithm.TWONEIGHBOR] * BATCH, model.n, seed=6))
        assert np.array_equal(gpu.rng_state, lanes)


class TestSelectionSpecLowering:
    """The lowered parameter tables match the stepwise inline expressions."""

    def test_maxmin_schedule(self):
        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        alg = MaxMinSearch()
        spec = alg.lower(state, 50)
        assert spec.kind == KIND_MAXMIN_THRESHOLD
        for t in range(1, 51):
            assert spec.schedule[t - 1] == alg.annealing_fraction(t, 50)

    def test_randommin_thresholds_match_bernoulli(self):
        from repro.core.rng import bernoulli_threshold

        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        alg = RandomMinSearch(c=4)
        spec = alg.lower(state, 30)
        assert spec.kind == KIND_RANDOM_CANDIDATE_MIN
        for t in range(1, 31):
            p = alg.probability(t, 30, model.n)
            assert spec.thresholds[t - 1] == bernoulli_threshold(p)

    def test_cyclic_widths_and_shared_cursor(self):
        model = dense_model()
        state = BatchDeltaState(model, batch=3)
        alg = CyclicMinSearch(c=4)
        alg.begin(state, 20)
        spec = alg.lower(state, 20)
        assert spec.kind == KIND_CYCLIC_WINDOW
        assert spec.cursor is alg._cursor  # both paths advance one cursor
        for t in range(1, 21):
            assert spec.widths[t - 1] == alg.window_width(t, 20, model.n)

    def test_positive_min_and_sequence_kinds(self):
        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        assert PositiveMinSearch().lower(state, 5).kind == KIND_POSITIVE_MIN
        two = TwoNeighborSearch()
        spec = two.lower(state, 5)
        assert spec.kind == KIND_FIXED_SEQUENCE
        assert spec.sequence.shape == (2 * model.n - 1,)
        assert not spec.supports_tabu

    def test_spec_cache_reused(self):
        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        alg = MaxMinSearch()
        assert alg.lower(state, 40) is alg.lower(state, 40)


class TestDeviceOwnedBookkeeping:
    def test_tabu_mask_buffer_reused(self):
        tabu = TabuTracker(batch=3, n=6, period=4)
        m1 = tabu.mask()
        tabu.record(np.array([1, 2, 3]))
        m2 = tabu.mask()
        assert m1 is m2  # one reused buffer, not a fresh (B, n) per flip
        assert m2[0, 1] and m2[1, 2] and m2[2, 3]

    def test_tabu_advance_matches_records(self):
        a = TabuTracker(batch=2, n=5, period=3)
        b = TabuTracker(batch=2, n=5, period=3)
        for t in range(4):
            a.record(np.array([t, t]))
            b.stamps[:, t] = b.clock + t  # row-local stamping, fused style
        b.advance(4)
        assert a.clock == b.clock
        assert np.array_equal(a.mask(), b.mask())

    def test_tracker_reset_in_place(self):
        model = dense_model()
        state = BatchDeltaState(model, batch=3)
        tracker = BestTracker(state)
        buf_x, buf_e = tracker.best_x, tracker.best_energy
        host = np.random.default_rng(0)
        state.reset(host.integers(0, 2, size=(3, model.n), dtype=np.uint8))
        tracker.reset(state)
        assert tracker.best_x is buf_x and tracker.best_energy is buf_e
        assert np.array_equal(tracker.best_x, state.x)

    def test_tracker_window_shares_buffers(self):
        model = dense_model()
        state = BatchDeltaState(model, batch=4)
        tracker = BestTracker(state)
        view = tracker.window(1, 3)
        assert np.shares_memory(view.best_x, tracker.best_x)
        assert np.shares_memory(view.greedy_truncated, tracker.greedy_truncated)


class TestGreedyTruncation:
    def test_truncated_descent_warns_and_flags(self):
        from repro.backends.base import GreedyTruncationWarning

        model = dense_model()
        state = BatchDeltaState(model, batch=3)
        state.reset(np.ones((3, model.n), dtype=np.uint8))
        tabu = TabuTracker(3, model.n, 8)
        tracker = BestTracker(state)
        with pytest.warns(GreedyTruncationWarning):
            flips, truncated = state.backend.run_greedy_phase(
                state, tabu, tracker, max_iters=1
            )
        assert truncated.any()
        assert np.array_equal(truncated, ~state.is_local_minimum())

    def test_converged_descent_does_not_warn(self):
        import warnings

        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        state.reset(np.ones((2, model.n), dtype=np.uint8))
        tabu = TabuTracker(2, model.n, 8)
        tracker = BestTracker(state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flips, truncated = state.backend.run_greedy_phase(state, tabu, tracker)
        assert not truncated.any()
        assert np.all(state.is_local_minimum())

    def test_stepwise_greedy_descent_warns_on_cap(self):
        from repro.backends.base import GreedyTruncationWarning
        from repro.search.greedy import greedy_descent

        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        state.reset(np.ones((2, model.n), dtype=np.uint8))
        with pytest.warns(GreedyTruncationWarning):
            greedy_descent(state, max_iters=1)

    def test_batch_search_surfaces_truncation_flag(self):
        """run_batch_search exposes per-row truncation via the tracker."""
        model = dense_model()
        state = BatchDeltaState(model, batch=2)
        lanes = XorShift64Star(spawn_device_seeds(host_generator(1), (2, model.n)))
        config = BatchSearchConfig(batch_flip_factor=1.0)
        host = np.random.default_rng(0)
        targets = host.integers(0, 2, size=(2, model.n), dtype=np.uint8)
        tracker, _ = run_batch_search(state, targets, MaxMinSearch(), lanes, config)
        # integer model: greedy always converges, flag must stay clear
        assert not tracker.greedy_truncated.any()
