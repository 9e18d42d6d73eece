"""Graceful backend degradation: a failing compute backend falls back to
the next available one with a warning, and the degradation is surfaced on
the :class:`SolveResult` instead of killing the solve."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BackendFallbackWarning,
    NumpySparseBackend,
    fallback_backend,
    get_backend,
)
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import host_generator
from repro.engine.coalesce import SuperLaunch
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.resilience import ChaosConfig, RetryPolicy, chaos
from repro.resilience.chaos import ChaosError
from repro.search.batch import BatchSearchConfig
from repro.service import SolveService
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo
from tests.resilience.conftest import CHAOS_SEED

B, N = 4, 12


def make_gpu(allow_fallback: bool) -> tuple[VirtualGPU, object]:
    model = random_qubo(N, seed=3)
    gpu = VirtualGPU(
        model,
        DeviceSpec(num_blocks=B, name="test"),
        BatchSearchConfig(batch_flip_factor=2.0),
        tuple(MainAlgorithm),
        host_generator(3),
        allow_fallback=allow_fallback,
    )
    return gpu, model


def make_batch() -> PacketBatch:
    rng = np.random.default_rng(7)
    return PacketBatch.void(
        rng.integers(0, 2, size=(B, N), dtype=np.uint8),
        rng.integers(0, 5, size=B, dtype=np.uint8),
        rng.integers(0, 8, size=B, dtype=np.uint8),
    )


class TestVirtualGPUFallback:
    def test_backend_raise_degrades_and_result_stays_valid(self):
        gpu, model = make_gpu(allow_fallback=True)
        original = gpu.backend.name
        chaos.install(
            ChaosConfig(
                rates={"backend_raise": 1.0}, seed=CHAOS_SEED, max_faults=1
            )
        )
        with pytest.warns(BackendFallbackWarning, match="falling back|degrading"):
            result, flips = gpu.launch(make_batch())
        assert gpu.backend.name != original
        assert gpu.backend_fallbacks == 1
        assert len(gpu.fallback_reasons) == 1
        # the fallback backend's results obey the model: every reported
        # energy matches a direct evaluation of its vector
        for row in range(B):
            assert model.energy(result.vectors[row]) == result.energies[row]
        assert flips.shape == (B,)

    def test_fallback_disabled_by_default(self):
        gpu, _ = make_gpu(allow_fallback=False)
        chaos.install(
            ChaosConfig(
                rates={"backend_raise": 1.0}, seed=CHAOS_SEED, max_faults=1
            )
        )
        with pytest.raises(ChaosError):
            gpu.launch(make_batch())
        assert gpu.backend_fallbacks == 0

    def test_fallback_backend_skips_current(self):
        model = random_qubo(N, seed=3)
        dense = get_backend("numpy-dense")
        replacement = fallback_backend(dense, model)
        assert replacement is not None
        assert replacement.name != dense.name


class TestSolverDegradation:
    def test_mid_solve_fallback_flags_result_degraded(self):
        model = random_qubo(24, seed=5)
        cfg = DABSConfig(num_gpus=2, blocks_per_gpu=4, pool_capacity=8)
        chaos.install(
            ChaosConfig(
                rates={"backend_raise": 1.0}, seed=CHAOS_SEED, max_faults=1
            )
        )
        with pytest.warns(BackendFallbackWarning):
            result = DABSSolver(model, cfg, seed=0).solve(max_rounds=4)
        assert result.degraded
        assert len(result.degraded_reasons) == 1
        assert model.energy(result.best_vector) == result.best_energy

    def test_prepare_failure_falls_back_before_the_solve(self, monkeypatch):
        model = random_qubo(24, seed=5)

        def refuse(self, model):
            raise RuntimeError("no pages left")

        monkeypatch.setattr(NumpySparseBackend, "prepare", refuse)
        cfg = DABSConfig(
            num_gpus=1, blocks_per_gpu=4, pool_capacity=8,
            backend="numpy-sparse",
        )
        with pytest.warns(BackendFallbackWarning, match="failed to prepare"):
            solver = DABSSolver(model, cfg, seed=0)
        assert solver.gpus[0].backend.name == "numpy-dense"
        result = solver.solve(max_rounds=3)
        assert result.degraded
        assert "failed to prepare" in result.degraded_reasons[0]

    def test_prepare_failure_without_fallback_raises(self, monkeypatch):
        model = random_qubo(24, seed=5)
        monkeypatch.setattr(
            NumpySparseBackend,
            "prepare",
            lambda self, model: (_ for _ in ()).throw(RuntimeError("nope")),
        )
        cfg = DABSConfig(
            num_gpus=1, blocks_per_gpu=4, pool_capacity=8,
            backend="numpy-sparse", backend_fallback=False,
        )
        with pytest.raises(RuntimeError, match="nope"):
            DABSSolver(model, cfg, seed=0)


class TestVirtualTimeBitExactness:
    """The acceptance contract: a transparently retried solve is
    bit-exact with the fault-free solve under ``virtual_time``."""

    RETRY = RetryPolicy(max_retries=3, backoff_base=0.0)
    CFG = dict(num_gpus=2, blocks_per_gpu=4, pool_capacity=8, virtual_time=True)

    def test_retried_solve_matches_fault_free_solve(self):
        model = random_qubo(30, seed=9)
        cfg = DABSConfig(**self.CFG)

        baseline = DABSSolver(model, cfg, seed=5).solve(max_rounds=6)
        assert baseline.retries == 0 and not baseline.degraded

        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                max_faults=2,
            )
        )
        # lane-level faults need lanes: a one-job supervised service
        with SolveService(2, retry=self.RETRY) as service:
            faulted = DABSSolver(model, cfg, seed=5).solve(
                max_rounds=6, service=service
            )
        assert faulted.retries == 2
        assert faulted.best_energy == baseline.best_energy
        assert np.array_equal(faulted.best_vector, baseline.best_vector)
        assert faulted.total_flips == baseline.total_flips
        assert faulted.launches == baseline.launches
        assert faulted.rounds == baseline.rounds
        assert not faulted.degraded

    @pytest.mark.parametrize("cls", [DABSSolver, ABSSolver], ids=["dabs", "abs"])
    @pytest.mark.parametrize(
        "overrides, limits",
        [
            ({}, dict(max_rounds=8)),
            ({}, dict(max_launches=7)),  # ends inside a round
            (dict(restart_after_stall=1), dict(max_rounds=10)),
        ],
        ids=["rounds", "launch-budget-mid-round", "stall-restarts"],
    )
    def test_retry_out_of_device_order_matches_fault_free_solve(
        self, monkeypatch, cls, overrides, limits
    ):
        """Under a solo row budget each device launches as its own pack on
        the job's one lane.  Only device 0's first launch faults, so its
        retry queues behind device 1's launch and round 1 completes out
        of device order; the replay merges it back bit-exactly.  The two
        devices' round-1 bests differ on this instance, so a merge in
        arrival order changes the improvement history."""
        model = maxcut_to_qubo(g22_like(160, seed=20))
        cfg = DABSConfig(
            **self.CFG,
            coalesce_max_rows=self.CFG["blocks_per_gpu"],
            batch=BatchSearchConfig(batch_flip_factor=0.5),
            **overrides,
        )
        baseline = cls(model, cfg, seed=5).solve(**limits)
        assert baseline.retries == 0

        ran = []
        run = SuperLaunch.run

        def recorded(self, scratch_map):
            ran.append([seg.device_id for seg in self.segments])
            return run(self, scratch_map)

        monkeypatch.setattr(SuperLaunch, "run", recorded)
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                target=0,
                max_faults=1,
            )
        )
        with SolveService(2, retry=self.RETRY) as service:
            faulted = cls(model, cfg, seed=5).solve(service=service, **limits)
        assert ran[:2] == [[1], [0]]  # device 1 completed first
        assert faulted.retries == 1
        assert faulted.best_energy == baseline.best_energy
        assert np.array_equal(faulted.best_vector, baseline.best_vector)
        assert faulted.total_flips == baseline.total_flips
        assert faulted.launches == baseline.launches
        assert faulted.rounds == baseline.rounds
        assert faulted.restarts == baseline.restarts
        assert [(e.round, e.energy) for e in faulted.history] == [
            (e.round, e.energy) for e in baseline.history
        ]
        if overrides:
            assert faulted.restarts >= 1
        if "max_launches" in limits:
            assert faulted.launches == 8
