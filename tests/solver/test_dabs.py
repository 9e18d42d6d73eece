"""Integration tests for the DABS solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packet import GeneticOp, MainAlgorithm
from repro.core.qubo import brute_force
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig, DABSSolver
from repro.solver.termination import SolveLimits
from tests.conftest import random_qubo

SMALL_CFG = DABSConfig(
    num_gpus=2,
    blocks_per_gpu=4,
    pool_capacity=10,
    batch=BatchSearchConfig(batch_flip_factor=2.0),
)


class TestDABSConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_gpus": 0},
            {"blocks_per_gpu": 0},
            {"pool_capacity": 0},
            {"algorithm_set": ()},
            {"operation_set": ()},
            {"restart_after_stall": 0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            DABSConfig(**kwargs)

    @pytest.mark.parametrize("knob", ["engine", "parallel"])
    def test_has_no_engine_selection_knob(self, knob):
        """A direct solve has one engine: the round loop."""
        with pytest.raises(TypeError):
            DABSConfig(**{knob: "round"})

    def test_defaults(self):
        cfg = DABSConfig()
        assert cfg.pool_capacity == 100  # paper §VI
        assert cfg.batch.tabu_period == 8  # paper §VI
        assert cfg.explore_probability == 0.05


class TestSolveLimits:
    def test_requires_some_limit(self):
        with pytest.raises(ValueError, match="at least one"):
            SolveLimits()

    def test_target_semantics(self):
        lim = SolveLimits(target_energy=-10)
        assert lim.target_reached(-10)
        assert lim.target_reached(-12)
        assert not lim.target_reached(-9)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            SolveLimits(time_limit=0)
        with pytest.raises(ValueError):
            SolveLimits(max_rounds=0)


class TestDABSSolver:
    def test_rejects_fractional_weights(self):
        """DABS/ABS kernels accumulate in int64: a fractional-weight model
        is refused once, up front, instead of crashing a launch."""
        from repro.core.qubo import QUBOModel
        from repro.solver.abs_solver import ABSSolver

        model = QUBOModel.from_dict(3, {(0, 0): -3.5, (0, 1): 2, (1, 1): -1})
        for cls in (DABSSolver, ABSSolver):
            with pytest.raises(ValueError, match="integer weights"):
                cls(model, SMALL_CFG, seed=0)

    def test_finds_optimum_small_model(self):
        model = random_qubo(16, seed=1)
        _, opt = brute_force(model)
        solver = DABSSolver(model, SMALL_CFG, seed=0)
        result = solver.solve(target_energy=opt, max_rounds=60)
        assert result.best_energy == opt
        assert result.reached_target
        assert result.time_to_target is not None

    def test_result_energy_matches_vector(self):
        model = random_qubo(14, seed=2)
        solver = DABSSolver(model, SMALL_CFG, seed=1)
        result = solver.solve(max_rounds=3)
        assert model.energy(result.best_vector) == result.best_energy

    def test_deterministic_given_seed(self):
        model = random_qubo(14, seed=3)
        r1 = DABSSolver(model, SMALL_CFG, seed=7).solve(max_rounds=4)
        r2 = DABSSolver(model, SMALL_CFG, seed=7).solve(max_rounds=4)
        assert r1.best_energy == r2.best_energy
        assert np.array_equal(r1.best_vector, r2.best_vector)
        assert r1.total_flips == r2.total_flips

    def test_different_seeds_diverge(self):
        model = random_qubo(20, seed=4)
        r1 = DABSSolver(model, SMALL_CFG, seed=1).solve(max_rounds=2)
        r2 = DABSSolver(model, SMALL_CFG, seed=2).solve(max_rounds=2)
        # flip trajectories must differ even if final energies coincide
        assert r1.total_flips != r2.total_flips or r1.best_energy != r2.best_energy

    def test_max_rounds_respected(self):
        model = random_qubo(12, seed=5)
        result = DABSSolver(model, SMALL_CFG, seed=0).solve(max_rounds=3)
        assert result.rounds == 3
        assert not result.reached_target

    def test_time_limit_respected(self):
        model = random_qubo(12, seed=6)
        result = DABSSolver(model, SMALL_CFG, seed=0).solve(time_limit=0.5)
        assert result.elapsed < 5.0  # generous envelope for slow machines

    def test_history_is_monotone_improving(self):
        model = random_qubo(18, seed=7)
        result = DABSSolver(model, SMALL_CFG, seed=0).solve(max_rounds=10)
        energies = [ev.energy for ev in result.history]
        assert energies == sorted(energies, reverse=True)
        assert energies[-1] == result.best_energy

    def test_counters_populated(self):
        model = random_qubo(12, seed=8)
        solver = DABSSolver(model, SMALL_CFG, seed=0)
        result = solver.solve(max_rounds=5)
        total = sum(result.counters.algorithms.values())
        assert total == 5 * SMALL_CFG.num_gpus * SMALL_CFG.blocks_per_gpu

    def test_first_found_recorded(self):
        model = random_qubo(12, seed=9)
        result = DABSSolver(model, SMALL_CFG, seed=0).solve(max_rounds=5)
        assert result.first_found is not None
        alg, op = result.first_found
        assert isinstance(alg, MainAlgorithm)
        assert isinstance(op, GeneticOp)

    def test_restricted_algorithm_set(self):
        model = random_qubo(12, seed=11)
        cfg = DABSConfig(
            num_gpus=1,
            blocks_per_gpu=4,
            pool_capacity=8,
            algorithm_set=(MainAlgorithm.POSITIVEMIN,),
            batch=BatchSearchConfig(batch_flip_factor=1.0),
        )
        result = DABSSolver(model, cfg, seed=0).solve(max_rounds=3)
        for alg, count in result.counters.algorithms.items():
            if alg is not MainAlgorithm.POSITIVEMIN:
                assert count == 0

    def test_restart_after_stall_runs(self):
        model = random_qubo(10, seed=12)
        cfg = DABSConfig(
            num_gpus=1,
            blocks_per_gpu=2,
            pool_capacity=4,
            restart_after_stall=2,
            batch=BatchSearchConfig(batch_flip_factor=1.0),
        )
        # just exercise the restart path; the solve must still return sane data
        result = DABSSolver(model, cfg, seed=0).solve(max_rounds=12)
        assert model.energy(result.best_vector) == result.best_energy

    def test_pools_receive_solutions(self):
        model = random_qubo(12, seed=13)
        solver = DABSSolver(model, SMALL_CFG, seed=0)
        solver.solve(max_rounds=2)
        assert all(pool.has_real_solutions() for pool in solver.pools)

    def test_pools_stay_sorted_after_columnar_collection(self):
        """insert_batch folds whole result batches; the sorted-pool
        invariant every other component relies on must survive."""
        model = random_qubo(14, seed=14)
        solver = DABSSolver(model, SMALL_CFG, seed=0)
        solver.solve(max_rounds=4)
        for pool in solver.pools:
            energies = pool.energies.tolist()
            assert energies == sorted(energies)
            assert pool.vectors.shape == (SMALL_CFG.pool_capacity, model.n)

    def test_history_events_attribute_batch_winners(self):
        """Each improvement event carries the (algorithm, operation) of the
        batch row that produced it — read straight off the columns."""
        model = random_qubo(16, seed=15)
        result = DABSSolver(model, SMALL_CFG, seed=0).solve(max_rounds=8)
        assert result.history
        for ev in result.history:
            assert isinstance(ev.algorithm, MainAlgorithm)
            assert isinstance(ev.operation, GeneticOp)
        assert result.first_found == (
            result.history[-1].algorithm,
            result.history[-1].operation,
        )
