"""Tests for the double-buffered round scheduler and the solver lifecycle."""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.coalesce import SuperLaunch
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig, DABSSolver
from repro.solver.scheduler import RoundScheduler
from tests.conftest import random_qubo

CFG = DABSConfig(
    num_gpus=2,
    blocks_per_gpu=4,
    pool_capacity=10,
    batch=BatchSearchConfig(batch_flip_factor=2.0),
)


class _FakeGPU:
    """Stand-in device: records launches, tags results."""

    def __init__(self, tag):
        self.tag = tag
        self.launches = []
        self.greedy_truncations = 0
        self.truncation_events = 0

    def launch(self, batch):
        self.launches.append(batch)
        return ((self.tag, batch), np.zeros(1, dtype=np.int64))


class TestRoundScheduler:
    def test_sequential_results_in_gpu_order(self):
        gpus = [_FakeGPU("a"), _FakeGPU("b")]
        sched = RoundScheduler(gpus)
        completions = sched.submit([(1, "x"), (1, "y")])
        assert [c.batch for c in completions] == [("a", "x"), ("b", "y")]
        assert [(c.device_id, c.seq) for c in completions] == [(0, 1), (1, 1)]

    def test_skips_devices_without_an_entry(self):
        gpus = [_FakeGPU("a"), _FakeGPU("b")]
        completions = RoundScheduler(gpus).submit([None, (3, "y")])
        assert [(c.device_id, c.seq, c.batch) for c in completions] == [
            (1, 3, ("b", "y"))
        ]
        assert gpus[0].launches == []

    def test_truncations_are_device_counter_deltas(self):
        gpu = _FakeGPU("a")
        gpu.greedy_truncations = 5
        original = gpu.launch

        def truncating(batch):
            gpu.greedy_truncations += 2
            gpu.truncation_events += 1
            return original(batch)

        gpu.launch = truncating
        (completion,) = RoundScheduler([gpu]).submit([(1, "x")])
        assert completion.truncations == 2
        assert completion.truncation_events == 1

    def test_packed_results_in_gpu_order(self, monkeypatch):
        """A packed round returns each device's result at its own index,
        bit-exact with the same launches made solo on twin devices."""
        packs = []
        original = SuperLaunch.run

        def run(self, scratch_map):
            packs.append(len(self.segments))
            return original(self, scratch_map)

        monkeypatch.setattr(SuperLaunch, "run", run)
        model = random_qubo(12, seed=23)
        cfg = replace(CFG, num_gpus=3)
        solo_solver = DABSSolver(model, cfg, seed=4)
        packed_solver = DABSSolver(model, cfg, seed=4)
        entries = [(1, solo_solver._generate_batch(i)) for i in range(3)]
        solo = RoundScheduler(solo_solver.gpus).submit(entries)
        assert packs == []
        packed = RoundScheduler(packed_solver.gpus, pack_rows=256).submit(entries)
        assert packs == [3]  # one super-launch of all three devices
        assert len(packed) == 3
        for i, (solo_done, done) in enumerate(zip(solo, packed)):
            assert solo_done.device_id == done.device_id == i
            assert np.array_equal(done.batch.vectors, solo_done.batch.vectors)
            assert np.array_equal(done.batch.energies, solo_done.batch.energies)
            assert np.array_equal(done.flips, solo_done.flips)

    def test_rejects_wrong_entry_count(self):
        sched = RoundScheduler([_FakeGPU("a")])
        with pytest.raises(ValueError, match="expected 1 entries"):
            sched.submit([(1, "x"), (1, "y")])


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
        solver = DABSSolver(model, replace(CFG, coalesce=True), seed=0)
        solver.solve(max_rounds=1)
        first = dict(solver._pack_scratch)
        assert first
        solver.solve(max_rounds=2)
        assert solver._pack_scratch.keys() == first.keys()
        for key, scratch in first.items():
            assert solver._pack_scratch[key] is scratch

    def test_context_manager_closes(self):
        model = random_qubo(10, seed=24)
        with DABSSolver(model, replace(CFG, coalesce=True), seed=0) as solver:
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
