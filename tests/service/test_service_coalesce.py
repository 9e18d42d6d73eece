"""Service-level continuous batching (DESIGN.md §12).

Coalescing is a scheduling optimization, never a numerics change: a
``virtual_time`` sweep must produce bit-identical per-job results packed,
solo, or re-run — while the coalesce counters prove the packed runs
actually packed.  Packing is always on; a job's ``coalesce_max_rows``
budget of one device keeps its launches solo without touching results.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.coalesce import PackScratch
from repro.engine.workers import FleetWorkerGroup
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig
from repro.service import ProblemCache, SolveService
from tests.conftest import random_qubo, with_native

JOBS = 6
ROUNDS = 4
BLOCKS = 4


def job_config(packed=True, **fields):
    """A one-device virtual-time job; unpacked, its row budget of one
    device keeps every launch solo."""
    if not packed:
        fields["coalesce_max_rows"] = BLOCKS
    return DABSConfig(
        num_gpus=1,
        blocks_per_gpu=BLOCKS,
        pool_capacity=10,
        virtual_time=True,
        **fields,
    )


def sweep(backend, packed, seed_base=500, jobs=JOBS, configs=None):
    """One multi-tenant sweep: *jobs* tenants of the same Q over 2 lanes.

    Returns (per-job results, service stats).  All jobs run under
    ``virtual_time`` so each result is scheduling-independent — the
    cross-mode comparison is exact, not statistical.
    """
    density = 0.3 if backend == "numpy-sparse" else 1.0
    model = random_qubo(24, seed=9, density=density)
    config = job_config(packed, backend=backend)
    with SolveService(devices=2, default_config=config) as service:
        handles = [
            service.submit(
                model,
                config=configs[i] if configs else config,
                seed=seed_base + i,
                max_rounds=ROUNDS,
            )
            for i in range(jobs)
        ]
        results = [handle.result(timeout=60) for handle in handles]
        stats = service.stats()
    return results, stats


def assert_results_equal(a, b):
    for i, (ra, rb) in enumerate(zip(a, b)):
        assert ra.best_energy == rb.best_energy, f"job {i} energy diverged"
        assert np.array_equal(ra.best_vector, rb.best_vector), (
            f"job {i} vector diverged"
        )
        assert ra.launches == rb.launches, f"job {i} launches diverged"
        assert ra.total_flips == rb.total_flips, f"job {i} flips diverged"
        assert [e.energy for e in ra.history] == [
            e.energy for e in rb.history
        ], f"job {i} history diverged"


@pytest.mark.parametrize("backend", with_native("numpy-dense", "numpy-sparse"))
class TestCoalescedParity:
    def test_on_off_and_replay_are_bit_exact(self, backend):
        """Coalesced results == solo results == a coalesced re-run."""
        solo, solo_stats = sweep(backend, packed=False)
        packed, packed_stats = sweep(backend, packed=True)
        again, _ = sweep(backend, packed=True)
        assert_results_equal(solo, packed)
        assert_results_equal(packed, again)
        assert solo_stats["coalesce"]["packs"] == 0
        co = packed_stats["coalesce"]
        assert co["packs"] > 0
        assert co["segments"] > co["packs"]
        assert co["launches_saved"] == co["segments"] - co["packs"]
        assert co["rows_max"] >= 8  # at least two 4-block segments fused
        assert co["rows_mean"] > 0
        assert sum(co["lane_packs"]) == co["packs"]


class TestPackMatesRefillTogether:
    def test_cotenants_keep_full_packs(self, monkeypatch):
        """A finished pack's completions are all folded before the lane
        refills, so k co-tenants on one lane ride every launch together
        (the first rider's next launch never leaves alone)."""
        k = 3
        widths = []
        submit_packed = FleetWorkerGroup.submit_packed

        def packed(self, lane, segments):
            widths.append(len(segments))
            return submit_packed(self, lane, segments)

        monkeypatch.setattr(FleetWorkerGroup, "submit_packed", packed)
        # admit the jobs together, so their first launches pack too
        gate = threading.Event()
        admit = SolveService._admit
        monkeypatch.setattr(
            SolveService, "_admit", lambda self: gate.is_set() and admit(self)
        )
        model = random_qubo(24, seed=9)
        results = {}
        for packed in (False, True):
            config = job_config(packed)
            gate.clear()
            del widths[:]
            with SolveService(
                devices=1, default_config=config, lane_depth=k
            ) as service:
                handles = [
                    service.submit(model, seed=500 + i, max_rounds=ROUNDS)
                    for i in range(k)
                ]
                gate.set()
                results[packed] = [h.result(timeout=60) for h in handles]
        assert widths == [k] * ROUNDS
        assert_results_equal(results[False], results[True])


class TestCoalesceKnobs:
    def test_per_job_opt_out_blocks_packing(self, monkeypatch):
        """A tenant whose row budget is one device never packs — neither
        as a pack's head nor as a mate — while its co-tenants keep packing
        with each other; every result is unchanged."""
        packed_tags = []
        submit_packed = FleetWorkerGroup.submit_packed

        def record(self, lane, segments):
            if len(segments) > 1:  # a lone launch is a one-segment pack
                packed_tags.append([seg.tag for seg in segments])
            return submit_packed(self, lane, segments)

        monkeypatch.setattr(FleetWorkerGroup, "submit_packed", record)
        configs = [job_config(packed=i % 2 == 0) for i in range(JOBS)]
        mixed, stats = sweep("numpy-dense", packed=True, configs=configs)
        assert stats["coalesce"]["packs"] == len(packed_tags) > 0
        opted_out = {f"job-{i + 1}" for i in range(JOBS) if i % 2}
        assert not any(
            job_id in opted_out for tags in packed_tags for job_id, _ in tags
        )
        solo, _ = sweep("numpy-dense", packed=False)
        assert_results_equal(mixed, solo)

    def test_max_rows_validated(self):
        with pytest.raises(ValueError, match="coalesce_max_rows"):
            DABSConfig(coalesce_max_rows=0)

    def test_max_rows_caps_pack_width(self):
        """A row budget of two launches caps every pack at two segments."""
        config = job_config(coalesce_max_rows=2 * BLOCKS)
        results, stats = sweep("numpy-dense", packed=True, configs=[config] * JOBS)
        co = stats["coalesce"]
        assert co["packs"] > 0 and co["rows_max"] == 2 * BLOCKS
        assert co["segments"] == 2 * co["packs"]
        solo, _ = sweep("numpy-dense", packed=False)
        assert_results_equal(results, solo)


class TestLaneBuffers:
    """A lane owns one pack-buffer set per pack key and frees the sets
    that neither its remaining jobs nor the problem cache can use."""

    CONFIG = DABSConfig(num_gpus=2, blocks_per_gpu=2, pool_capacity=4)

    def lane_buffers(self, service):
        return [dict(buffers) for buffers in service._group._pack_scratch.values()]

    def test_unique_models_keep_at_most_the_cached_buffers(self):
        """Every job brings a new model: once the jobs are done, a lane
        holds the buffers of cached problems only, at most the cache's
        capacity, instead of one set per job it ever ran.  The scheduler
        frees buffers while the lane threads run on others; a short
        switch interval interleaves the two."""
        cache = ProblemCache(capacity=4)
        models = [random_qubo(12, seed=200 + i) for i in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SolveService(2, default_config=self.CONFIG, cache=cache) as service:
                handles = [
                    service.submit(model, seed=i, max_rounds=2)
                    for i, model in enumerate(models)
                ]
                results = [handle.result(timeout=60) for handle in handles]
                lanes = self.lane_buffers(service)
                cached = {id(kernel) for kernel in cache.kernels()}
        finally:
            sys.setswitchinterval(interval)
        for model, result in zip(models, results):
            assert model.energy(result.best_vector) == result.best_energy
        assert sum(map(len, lanes)) > 0
        for buffers in lanes:
            assert len(buffers) <= cache.capacity
            assert all(id(s.state.kernel) in cached for s in buffers.values())

    def test_config_sweep_keeps_one_set_per_cached_kernel(self):
        """Jobs of one model with tabu periods 1..10 share a kernel but
        not a pack key: once they are done, a lane keeps one set of the
        cached kernel instead of one set per config it ran."""
        cache = ProblemCache(capacity=4)
        model = random_qubo(48, seed=400)
        with SolveService(2, default_config=self.CONFIG, cache=cache) as service:
            for period in range(1, 11):
                config = replace(self.CONFIG, batch=BatchSearchConfig(tabu_period=period))
                service.submit(
                    model, config=config, seed=period, max_rounds=2
                ).result(timeout=60)
            lanes = self.lane_buffers(service)
        assert sum(map(len, lanes)) > 0
        for buffers in lanes:
            assert len(buffers) <= cache.capacity
            kernels = [id(s.state.kernel) for s in buffers.values()]
            assert len(kernels) == len(set(kernels))

    def test_cache_hits_reuse_their_buffers(self, monkeypatch):
        """Jobs over three shared instances build one buffer set each,
        once, and every later job runs on it."""
        built = []
        init = PackScratch.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PackScratch, "__init__", counted)
        models = [random_qubo(12, seed=300 + i) for i in range(3)]
        with SolveService(2, default_config=self.CONFIG) as service:
            for i in range(9):
                service.submit(models[i % 3], seed=i, max_rounds=2).result(timeout=60)
            lanes = self.lane_buffers(service)
        assert len(built) == 3
        assert sorted(id(s) for buffers in lanes for s in buffers.values()) == sorted(
            map(id, built)
        )
