"""A direct ``solve()``: the double-buffered round order and the inline
executor.

A direct solve is a one-job service stepped on the calling thread over
an inline lane group; these tests pin what that must keep: counters and
restarts follow the replay's round order and no thread is ever started.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import available_backends
from repro.engine.coalesce import SuperLaunch
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
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
    def test_solve_starts_no_threads(self):
        """A direct solve runs the round loop in the calling thread."""
        model = random_qubo(10, seed=27)
        before = threading.active_count()
        DABSSolver(model, CFG, seed=0).solve(max_rounds=2)
        assert threading.active_count() == before

    @pytest.mark.skipif(
        "native" not in available_backends() or not os.path.isdir("/proc/self/task"),
        reason="needs the native kernels and /proc",
    )
    def test_native_solve_leaves_no_os_thread(self):
        """A g22-sized native solve spreads its phase calls over OS
        threads that Python never sees; each is joined inside its call."""
        model = maxcut_to_qubo(g22_like(512, seed=22))
        cfg = DABSConfig(num_gpus=2, blocks_per_gpu=16, pool_capacity=100, backend="native")
        before = len(os.listdir("/proc/self/task"))
        DABSSolver(model, cfg, seed=0).solve(max_rounds=2)
        assert len(os.listdir("/proc/self/task")) == before


class TestInlineExecutor:
    def test_retry_policy_starts_no_threads(self):
        """A direct solve is unsupervised whatever its config carries: no
        retry timer, reaper or lane thread is started."""
        model = random_qubo(10, seed=29)
        cfg = replace(CFG, retry_policy=RetryPolicy(max_retries=2))
        before = threading.active_count()
        result = DABSSolver(model, cfg, seed=0).solve(max_rounds=2)
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
