"""Termination and lifecycle tests for the async engines.

The barrier-free engines check limits per completion, not per round, so
these tests pin down the promised semantics: every limit stops submission
promptly, in-flight launches are drained into a well-formed result, and —
because the engine is context-managed — no worker threads or processes
survive a solve, even one that raises mid-flight.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.core.qubo import brute_force
from repro.engine.workers import WORKER_NAME_PREFIX
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

ENGINES = ("async", "async-process")

BASE = dict(
    num_gpus=2,
    blocks_per_gpu=4,
    pool_capacity=10,
    batch=BatchSearchConfig(batch_flip_factor=2.0),
)


def leaked_workers():
    """Engine worker threads/processes still alive."""
    threads = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(WORKER_NAME_PREFIX)
    ]
    processes = [
        p.name
        for p in multiprocessing.active_children()
        if p.name.startswith(WORKER_NAME_PREFIX)
    ]
    return threads + processes


def assert_well_formed(model, result):
    assert model.energy(result.best_vector) == result.best_energy
    assert result.launches >= 1
    assert result.elapsed >= 0.0
    assert leaked_workers() == []


@pytest.mark.parametrize("engine", ENGINES)
class TestAsyncTermination:
    def test_time_budget_stops_promptly(self, engine):
        model = random_qubo(24, seed=30)
        cfg = DABSConfig(**BASE, engine=engine)
        result = DABSSolver(model, cfg, seed=0).solve(time_limit=0.3)
        # in-flight launches are drained, never abandoned; the envelope is
        # generous for slow machines but far below an unbounded run
        assert result.elapsed < 10.0
        assert not result.reached_target
        assert_well_formed(model, result)

    def test_target_energy_stops_and_records_tts(self, engine):
        model = random_qubo(14, seed=31)
        _, opt = brute_force(model)
        cfg = DABSConfig(**BASE, engine=engine)
        result = DABSSolver(model, cfg, seed=0).solve(
            target_energy=opt, max_rounds=80
        )
        assert result.reached_target
        assert result.best_energy == opt
        assert result.time_to_target is not None
        assert result.time_to_target <= result.elapsed
        assert_well_formed(model, result)

    def test_max_rounds_is_per_device_launch_budget(self, engine):
        model = random_qubo(12, seed=32)
        cfg = DABSConfig(**BASE, engine=engine)
        result = DABSSolver(model, cfg, seed=0).solve(max_rounds=5)
        assert result.rounds == 5
        assert result.launches == 5 * BASE["num_gpus"]
        assert_well_formed(model, result)

    def test_max_launches_total_budget_exact(self, engine):
        model = random_qubo(12, seed=33)
        cfg = DABSConfig(**BASE, engine=engine)
        result = DABSSolver(model, cfg, seed=0).solve(max_launches=7)
        # submission stops exactly at the budget; all submitted launches
        # are collected
        assert result.launches == 7
        assert_well_formed(model, result)


@pytest.mark.parametrize("engine", ("round",) + ENGINES)
class TestSolveStats:
    def test_greedy_truncation_counters_aggregate(self, engine):
        """Per-device truncation counters and warning events surface in
        SolveResult on every engine (the process engine ships the deltas
        through the completion messages).

        The injection wraps both seams a launch-equivalent passes through
        exactly once: ``launch`` (solo launches) and ``commit_packed``
        (a device's segment of a packed round)."""
        model = random_qubo(12, seed=37)
        cfg = DABSConfig(**BASE, engine=engine)
        solver = DABSSolver(model, cfg, seed=0)
        for gpu in solver.gpus:
            for seam in ("launch", "commit_packed"):
                original = getattr(gpu, seam)

                def truncating(*args, _gpu=gpu, _original=original):
                    # emulate a float-model greedy cap hit: 2 truncated
                    # rows and one warning event per launch
                    _gpu.greedy_truncations += 2
                    _gpu.truncation_events += 1
                    return _original(*args)

                setattr(gpu, seam, truncating)
        result = solver.solve(max_rounds=3)
        assert result.launches == 3 * BASE["num_gpus"]
        assert result.greedy_truncations == 2 * result.launches
        assert result.greedy_truncation_warnings == result.launches

    def test_integer_models_never_truncate(self, engine):
        model = random_qubo(12, seed=38)
        cfg = DABSConfig(**BASE, engine=engine)
        result = DABSSolver(model, cfg, seed=0).solve(max_rounds=2)
        assert result.greedy_truncations == 0
        assert result.greedy_truncation_warnings == 0
        assert result.launches == 2 * BASE["num_gpus"]


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineLifecycle:
    def test_no_leak_after_generation_raises_mid_flight(
        self, engine, monkeypatch
    ):
        """Regression for the executor-lifecycle fix: the engine is
        context-managed, so a solve that raises while launches are in
        flight must still join every worker thread/process."""
        model = random_qubo(12, seed=34)
        cfg = DABSConfig(**BASE, engine=engine)
        solver = DABSSolver(model, cfg, seed=0)
        original = solver._generate_batch
        calls = [0]

        def exploding(gpu_index, rng=None):
            calls[0] += 1
            if calls[0] > 3:  # after the fleet is primed and flying
                raise RuntimeError("mid-flight host failure")
            return original(gpu_index, rng=rng)

        monkeypatch.setattr(solver, "_generate_batch", exploding)
        with pytest.raises(RuntimeError, match="mid-flight"):
            solver.solve(max_rounds=50)
        assert leaked_workers() == []

    def test_no_leak_after_device_failure(self, engine, monkeypatch):
        """A failing device surfaces as an error on the host and the
        remaining workers are still reaped."""
        from repro.engine.workers import WorkerError

        model = random_qubo(12, seed=35)
        cfg = DABSConfig(**BASE, engine=engine)
        solver = DABSSolver(model, cfg, seed=0)
        if engine == "async":

            def boom(batch):
                raise RuntimeError("device fault")

            monkeypatch.setattr(solver.gpus[0], "launch", boom)
            # thread workers route every failure through the completion
            # stream as a WorkerError — assert the type, not just "raises"
            with pytest.raises(WorkerError, match="device fault"):
                solver.solve(max_rounds=10)
        else:
            # poison the device state the child will inherit at fork
            solver.gpus[0].block_x = solver.gpus[0].block_x[:, :4].copy()
            with pytest.raises(WorkerError):
                solver.solve(max_rounds=10)
        assert leaked_workers() == []

    def test_draining_never_triggers_restart_policy(self, engine):
        """Regression: completions drained after a stop must still land in
        the pools but must not advance the stall counter into a §IV.B
        restart (which would wipe the pools post-termination)."""
        import time as time_mod

        from repro.engine.workers import LaunchCompletion
        from repro.solver.dabs import _AsyncDriver
        from repro.solver.termination import SolveLimits

        model = random_qubo(12, seed=39)
        cfg = DABSConfig(**BASE, engine=engine, restart_after_stall=1)
        solver = DABSSolver(model, cfg, seed=0)
        driver = _AsyncDriver(
            solver, SolveLimits(max_rounds=50), start=time_mod.perf_counter()
        )
        batch = solver._generate_batch(0, rng=driver._device_rngs[0])
        result, flips = solver.gpus[0].launch(batch)
        driver.halt()
        # far beyond the stall threshold (1 round × 2 devices): every
        # drained completion is absorbed without firing the restart
        for seq in range(1, 10):
            completion = LaunchCompletion(0, seq, result, flips, 0, 0)
            assert driver.collect(completion) == "continue"
        assert driver.state.restarts == 0
        assert driver.state.launches == 9  # results still folded in

    def test_back_to_back_solves_reuse_solver(self, engine):
        """Engines are per-solve; the solver object stays usable."""
        model = random_qubo(12, seed=36)
        solver = DABSSolver(model, DABSConfig(**BASE, engine=engine), seed=0)
        first = solver.solve(max_rounds=2)
        second = solver.solve(max_rounds=2)
        assert model.energy(first.best_vector) == first.best_energy
        assert model.energy(second.best_vector) == second.best_energy
        assert leaked_workers() == []
