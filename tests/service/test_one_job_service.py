"""A single solve run barrier-free: ``solve(service=SolveService(g))``.

Free-running service jobs check limits per completion, not per round,
so these tests pin down the promised semantics: every limit stops
submission promptly, in-flight launches are drained into a well-formed
result, and — because the service is context-managed — no lane or
scheduler thread survives it, even after a solve that raises mid-flight.
The limit and lifecycle cases run in both scheduling modes: free-running
and virtual time.  Free-running mode gives up run-to-run determinism, so
results are only checked for well-formedness; the bit-exact virtual-time
cases live in ``tests/service/test_service.py``.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.backends import BackendFallbackWarning
from repro.core.qubo import brute_force
from repro.engine.workers import WORKER_NAME_PREFIX, WorkerError
from repro.resilience import ChaosConfig, chaos
from repro.search.batch import BatchSearchConfig
from repro.service import SolveService
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

BASE = dict(
    num_gpus=2,
    blocks_per_gpu=4,
    pool_capacity=10,
    batch=BatchSearchConfig(batch_flip_factor=2.0),
)


#: both scheduling modes of a service job
MODES = pytest.mark.parametrize(
    "virtual_time", [False, True], ids=["free", "virtual"]
)


def leaked_workers():
    """Fleet lane threads and scheduler threads still alive."""
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(WORKER_NAME_PREFIX)
        or t.name.startswith("solve-service")
    ]


def one_job(solver, **limits):
    """Solve *solver* as the only job of a service sized to it."""
    with SolveService(solver.config.num_gpus) as service:
        return solver.solve(service=service, **limits)


def assert_well_formed(model, result):
    assert model.energy(result.best_vector) == result.best_energy
    assert result.launches >= 1
    assert result.elapsed >= 0.0
    assert leaked_workers() == []


@MODES
class TestTermination:
    def test_time_budget_stops_promptly(self, virtual_time):
        model = random_qubo(24, seed=30)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
        solver = DABSSolver(model, cfg, seed=0)
        result = one_job(solver, time_limit=0.3)
        # in-flight launches are drained, never abandoned; the envelope is
        # generous for slow machines but far below an unbounded run
        assert result.elapsed < 10.0
        assert not result.reached_target
        assert_well_formed(model, result)

    def test_target_energy_stops_and_records_tts(self, virtual_time):
        model = random_qubo(14, seed=31)
        _, opt = brute_force(model)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
        solver = DABSSolver(model, cfg, seed=0)
        result = one_job(solver, target_energy=opt, max_rounds=80)
        assert result.reached_target
        assert result.best_energy == opt
        assert result.time_to_target is not None
        assert result.time_to_target <= result.elapsed
        assert_well_formed(model, result)

    def test_max_rounds_is_per_device_launch_budget(self, virtual_time):
        model = random_qubo(12, seed=32)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
        solver = DABSSolver(model, cfg, seed=0)
        result = one_job(solver, max_rounds=5)
        assert result.rounds == 5
        assert result.launches == 5 * BASE["num_gpus"]
        assert_well_formed(model, result)

    def test_max_launches_total_budget_exact(self, virtual_time):
        model = random_qubo(12, seed=33)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
        solver = DABSSolver(model, cfg, seed=0)
        result = one_job(solver, max_launches=7)
        if virtual_time:
            # the replay checks limits per round, like the direct solve:
            # the round that crosses the budget completes
            assert result.launches == 8 and result.rounds == 4
        else:
            # submission stops exactly at the budget; all submitted
            # launches are collected
            assert result.launches == 7
        assert_well_formed(model, result)


@pytest.mark.parametrize("solver_cls", [DABSSolver, ABSSolver], ids=["dabs", "abs"])
class TestFreeRunning:
    def test_result_is_well_formed(self, solver_cls):
        model = random_qubo(16, seed=21)
        solver = solver_cls(model, DABSConfig(**BASE), seed=0)
        result = one_job(solver, max_rounds=6)
        assert model.energy(result.best_vector) == result.best_energy
        assert result.launches == 6 * BASE["num_gpus"]
        assert result.rounds == 6  # per-device launch budget fully used
        total = sum(result.counters.algorithms.values())
        assert total == result.launches * BASE["blocks_per_gpu"]
        for pool in solver.pools:
            energies = pool.energies.tolist()
            assert energies == sorted(energies)

    def test_pools_receive_solutions(self, solver_cls):
        model = random_qubo(12, seed=22)
        solver = solver_cls(model, DABSConfig(**BASE), seed=0)
        one_job(solver, max_rounds=3)
        assert all(pool.has_real_solutions() for pool in solver.pools)

    def test_history_monotone_and_attributed(self, solver_cls):
        model = random_qubo(18, seed=23)
        solver = solver_cls(model, DABSConfig(**BASE), seed=0)
        result = one_job(solver, max_rounds=8)
        energies = [event.energy for event in result.history]
        assert energies == sorted(energies, reverse=True)
        assert energies[-1] == result.best_energy

    def test_finds_optimum(self, solver_cls):
        model = random_qubo(14, seed=24)
        _, opt = brute_force(model)
        solver = solver_cls(model, DABSConfig(**BASE), seed=0)
        result = one_job(solver, target_energy=opt, max_rounds=80)
        assert result.best_energy == opt
        assert result.reached_target

    def test_restart_path_runs(self, solver_cls):
        model = random_qubo(10, seed=25)
        cfg = DABSConfig(
            num_gpus=2,
            blocks_per_gpu=2,
            pool_capacity=4,
            batch=BatchSearchConfig(batch_flip_factor=1.0),
            restart_after_stall=2,
        )
        result = one_job(solver_cls(model, cfg, seed=0), max_rounds=14)
        assert model.energy(result.best_vector) == result.best_energy


@pytest.mark.parametrize(
    "via_service",
    [None, "free", "virtual"],
    ids=["direct", "service", "service-virtual"],
)
class TestSolveStats:
    def test_greedy_truncation_counters_aggregate(self, via_service):
        """Per-device truncation counters and warning events surface in
        SolveResult on both paths.

        The injection wraps both seams a launch-equivalent passes through
        exactly once: ``launch`` (solo launches) and ``commit_packed``
        (a device's segment of a packed round)."""
        model = random_qubo(12, seed=37)
        cfg = DABSConfig(**BASE, virtual_time=via_service == "virtual")
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
        if via_service is not None:
            result = one_job(solver, max_rounds=3)
        else:
            result = solver.solve(max_rounds=3)
        assert result.launches == 3 * BASE["num_gpus"]
        assert result.greedy_truncations == 2 * result.launches
        assert result.greedy_truncation_warnings == result.launches

    def test_integer_models_never_truncate(self, via_service):
        model = random_qubo(12, seed=38)
        cfg = DABSConfig(**BASE, virtual_time=via_service == "virtual")
        solver = DABSSolver(model, cfg, seed=0)
        if via_service is not None:
            result = one_job(solver, max_rounds=2)
        else:
            result = solver.solve(max_rounds=2)
        assert result.greedy_truncations == 0
        assert result.greedy_truncation_warnings == 0
        assert result.launches == 2 * BASE["num_gpus"]


class TestLifecycle:
    @MODES
    def test_no_leak_after_generation_raises_mid_flight(
        self, monkeypatch, virtual_time
    ):
        """A solve that raises while launches are in flight fails its
        job; leaving the service joins every lane and scheduler thread."""
        model = random_qubo(12, seed=34)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
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
            one_job(solver, max_rounds=50)
        assert leaked_workers() == []

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "solo"])
    @MODES
    def test_no_leak_after_device_failure(self, monkeypatch, virtual_time, packed):
        """A failing device surfaces as a WorkerError on the host, every
        in-flight slot of the failed launch is released and the lanes
        are still reaped.

        Each launch-equivalent passes exactly one device seam: a packed
        launch commits through ``commit_packed``, a solo one (a row
        budget of one device) runs ``launch``.  The fault sits on both,
        so it fires packed — a fatal one-job pack — and solo.
        """
        model = random_qubo(12, seed=35)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
        if not packed:
            cfg = replace(cfg, coalesce_max_rows=cfg.blocks_per_gpu)
        solver = DABSSolver(model, cfg, seed=0)

        def boom(*args, **kwargs):
            raise RuntimeError("device fault")

        monkeypatch.setattr(solver.gpus[0], "launch", boom)
        monkeypatch.setattr(solver.gpus[0], "commit_packed", boom)
        with SolveService(solver.config.num_gpus) as service:
            with pytest.raises(WorkerError, match="device fault"):
                solver.solve(service=service, max_rounds=10)
            assert service.stats_snapshot().lane_inflight == (0, 0)
        assert leaked_workers() == []

    def test_a_failed_job_reports_its_first_fault(self):
        """Every device of a one-job pack faults on both backends: each
        fails alone under the pack-fault rule, and the job fails with
        the first fault (device 0), not with the last one folded."""
        model = random_qubo(24, seed=5)
        cfg = DABSConfig(**BASE, virtual_time=True)
        chaos.install(ChaosConfig(rates={"backend_raise": 1.0}))
        try:
            with SolveService(2) as service, pytest.warns(BackendFallbackWarning):
                with pytest.raises(WorkerError) as caught:
                    DABSSolver(model, cfg, seed=0).solve(max_rounds=2, service=service)
        finally:
            chaos.reset()
        assert caught.value.device_id == 0

    def test_draining_never_triggers_restart_policy(self):
        """Regression: completions drained after a stop must still land in
        the pools but must not advance the stall counter into a §IV.B
        restart (which would wipe the pools post-termination)."""
        import time as time_mod

        from repro.engine.workers import LaunchCompletion
        from repro.solver.dabs import _AsyncDriver
        from repro.solver.termination import SolveLimits

        model = random_qubo(12, seed=39)
        cfg = DABSConfig(**BASE, restart_after_stall=1)
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

    @MODES
    def test_back_to_back_solves_reuse_solver(self, virtual_time):
        """Jobs are per-solve; the solver object stays usable."""
        model = random_qubo(12, seed=36)
        cfg = DABSConfig(**BASE, virtual_time=virtual_time)
        solver = DABSSolver(model, cfg, seed=0)
        with SolveService(BASE["num_gpus"]) as service:
            first = solver.solve(max_rounds=2, service=service)
            second = solver.solve(max_rounds=2, service=service)
        assert model.energy(first.best_vector) == first.best_energy
        assert model.energy(second.best_vector) == second.best_energy
        assert leaked_workers() == []
