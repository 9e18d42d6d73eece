"""A direct ``solve()``: the double-buffered round order and the solver
lifecycle.

A direct solve is a one-job service stepped on the calling thread over
an inline lane group; these tests pin what that must keep: counters and
restarts follow the replay's round order, the packed-round buffers are
the solver's own, and no thread is ever started.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.coalesce import SuperLaunch
from repro.resilience import RetryPolicy
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

CFG = DABSConfig(
    num_gpus=2,
    blocks_per_gpu=4,
    pool_capacity=10,
    batch=BatchSearchConfig(batch_flip_factor=2.0),
)


class TestDoubleBufferedSolve:
    def test_counters_count_only_launched_rounds(self):
        """The speculative round r+1 generation must not inflate counters."""
        model = random_qubo(12, seed=21)
        solver = DABSSolver(model, CFG, seed=0)
        result = solver.solve(max_rounds=4)
        total = sum(result.counters.algorithms.values())
        assert total == 4 * CFG.num_gpus * CFG.blocks_per_gpu

    def test_restart_discards_speculative_round(self):
        """After a §IV.B restart the pre-generated round (targeting the
        collapsed pools) must be regenerated from the reinitialized ones."""
        model = random_qubo(10, seed=28)
        cfg = replace(CFG, num_gpus=1, restart_after_stall=1)
        solver = DABSSolver(model, cfg, seed=0)
        calls = [0]
        original = solver._generate_round

        def counting():
            calls[0] += 1
            return original()

        solver._generate_round = counting
        result = solver.solve(max_rounds=6)
        assert result.restarts >= 1  # stall=1 forces restarts on this model
        # one initial round + one per non-final round + one per restart
        assert calls[0] == result.rounds + result.restarts

    def test_repeated_solve_calls_are_deterministic_pairwise(self):
        model = random_qubo(12, seed=22)
        s1 = DABSSolver(model, CFG, seed=9)
        s2 = DABSSolver(model, CFG, seed=9)
        for _ in range(2):
            r1 = s1.solve(max_rounds=2)
            r2 = s2.solve(max_rounds=2)
            assert r1.best_energy == r2.best_energy
            assert np.array_equal(r1.best_vector, r2.best_vector)


class TestSolverLifecycle:
    def test_close_is_idempotent_and_solve_still_works(self):
        model = random_qubo(10, seed=25)
        solver = DABSSolver(model, CFG, seed=0)
        solver.solve(max_rounds=1)
        solver.close()
        solver.close()
        result = solver.solve(max_rounds=1)
        assert model.energy(result.best_vector) == result.best_energy

    def test_pack_buffers_are_reused_across_solves(self):
        """The solver fills its pack buffers on the first packed round and
        later solves run on the same buffers."""
        model = random_qubo(10, seed=26)
        solver = DABSSolver(model, CFG, seed=0)
        solver.solve(max_rounds=1)
        first = dict(solver._pack_scratch)
        assert first
        solver.solve(max_rounds=2)
        assert solver._pack_scratch.keys() == first.keys()
        for key, scratch in first.items():
            assert solver._pack_scratch[key] is scratch

    def test_context_manager_closes(self):
        model = random_qubo(10, seed=24)
        with DABSSolver(model, CFG, seed=0) as solver:
            solver.solve(max_rounds=1)
            assert solver._pack_scratch
        assert solver._pack_scratch == {}

    def test_solve_starts_no_threads(self):
        """A direct solve runs the round loop in the calling thread."""
        model = random_qubo(10, seed=27)
        before = threading.active_count()
        with DABSSolver(model, CFG, seed=0) as solver:
            solver.solve(max_rounds=2)
            assert threading.active_count() == before


class TestInlineExecutor:
    def test_retry_policy_starts_no_threads(self):
        """A direct solve is unsupervised whatever its config carries: no
        retry timer, reaper or lane thread is started."""
        model = random_qubo(10, seed=29)
        cfg = replace(CFG, retry_policy=RetryPolicy(max_retries=2))
        before = threading.active_count()
        with DABSSolver(model, cfg, seed=0) as solver:
            result = solver.solve(max_rounds=2)
            assert threading.active_count() == before
        assert result.retries == 0

    def test_keyboard_interrupt_propagates_unchanged(self, monkeypatch):
        """An interrupt inside a packed launch is the caller's: it leaves
        ``solve()`` as itself, never as a failed job."""
        interrupt = KeyboardInterrupt("stop")

        def interrupted(self, scratch_map):
            raise interrupt

        monkeypatch.setattr(SuperLaunch, "run", interrupted)
        model = random_qubo(10, seed=30)
        solver = DABSSolver(model, CFG, seed=0)
        with pytest.raises(KeyboardInterrupt) as caught:
            solver.solve(max_rounds=2)
        assert caught.value is interrupt
