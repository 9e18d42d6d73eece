"""SolveService: multiplexing, fairness, cancellation, determinism.

The cancellation/leak tests mirror ``tests/service/test_one_job_service``:
whatever happens to a job — cancel, failure, drain — no worker thread may
outlive the service, and every in-flight launch is either folded or
discarded, never abandoned.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import MainAlgorithm
from repro.core.qubo import brute_force
from repro.engine.workers import WORKER_NAME_PREFIX, WorkerError
from repro.search.batch import BatchSearchConfig
from repro.service import (
    JobCancelledError,
    JobStatus,
    ServiceOverloadedError,
    SolveService,
)
from repro.service import service as service_module
from repro.service.service import fair_pick
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import keyless, random_qubo

BASE = dict(num_gpus=2, blocks_per_gpu=4, pool_capacity=10)


def leaked_workers():
    """Fleet lane threads and scheduler threads still alive."""
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith(WORKER_NAME_PREFIX)
        or t.name.startswith("solve-service")
    ]


class SleepyGPU:
    """Proxy device adding fixed kernel latency (GIL-releasing sleeps),
    emulating a busy GPU so scheduling decisions are observable."""

    def __init__(self, gpu, delay: float) -> None:
        self._gpu = gpu
        self._delay = delay

    def launch(self, batch):
        time.sleep(self._delay)
        return self._gpu.launch(batch)

    def reset(self) -> None:
        self._gpu.reset()

    def __getattr__(self, name):
        return getattr(self._gpu, name)


def sleepy_solver(model, delay: float, seed: int = 0, **cfg) -> DABSSolver:
    solver = DABSSolver(model, DABSConfig(**{**BASE, **cfg}), seed=seed)
    solver.gpus = [SleepyGPU(gpu, delay) for gpu in solver.gpus]
    return solver


class TestRoundTrip:
    def test_single_job_round_trip(self):
        """The service smoke test: submit → schedule → stream → result."""
        model = random_qubo(20, seed=1)
        with SolveService(devices=2) as service:
            handle = service.submit(model, max_rounds=5, seed=0)
            result = handle.result(timeout=60)
        assert handle.status is JobStatus.DONE
        assert model.energy(result.best_vector) == result.best_energy
        assert result.launches == 5 * 2
        assert leaked_workers() == []

    def test_many_jobs_multiplex(self):
        models = [random_qubo(12 + 4 * i, seed=i) for i in range(5)]
        with SolveService(devices=3) as service:
            handles = [
                service.submit(m, max_rounds=4, seed=i, devices=1 + i % 2)
                for i, m in enumerate(models)
            ]
            results = [h.result(timeout=60) for h in handles]
        for model, result in zip(models, results):
            assert model.energy(result.best_vector) == result.best_energy
        assert leaked_workers() == []

    def test_solve_many_order_and_results(self):
        models = [random_qubo(10, seed=s) for s in (1, 2, 3)]
        with SolveService(devices=2) as service:
            results = service.solve_many(
                [{"model": m, "max_rounds": 3, "seed": s} for s, m in enumerate(models)]
            )
        assert len(results) == 3
        for model, result in zip(models, results):
            assert model.energy(result.best_vector) == result.best_energy

    def test_incumbent_stream_is_improving(self):
        model = random_qubo(24, seed=2)
        seen = []
        with SolveService(devices=2) as service:
            handle = service.submit(
                model, max_rounds=6, seed=0, on_improvement=seen.append
            )
            streamed = list(handle.incumbents(timeout=60))
            result = handle.result(timeout=60)
        energies = [u.energy for u in streamed]
        assert energies  # VOID → first fold always improves
        assert energies == sorted(energies, reverse=True)
        assert len(set(energies)) == len(energies)  # strictly improving
        assert energies[-1] == result.best_energy
        assert [u.energy for u in seen] == energies
        assert model.energy(streamed[-1].vector) == result.best_energy

    def test_cache_reused_across_submissions(self):
        model = random_qubo(16, seed=3)
        with SolveService(devices=2) as service:
            service.submit(model, max_rounds=2, seed=0).result(timeout=60)
            service.submit(model, max_rounds=2, seed=1).result(timeout=60)
            stats = service.stats()
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == 1

    def test_stats_surface_per_lane_utilization(self, monkeypatch):
        """Cumulative per-lane launch counters: every submitted launch is
        eventually collected, and the totals match the jobs' results.  A
        packable job runs each round as one pass of one lane, so two
        concurrent jobs cover both lanes while a lone job uses one."""
        model = random_qubo(16, seed=4)
        config = DABSConfig(**BASE)
        # admit both jobs in one scheduler pass, so they run concurrently
        gate = threading.Event()
        admit = SolveService._admit
        monkeypatch.setattr(
            SolveService, "_admit", lambda self: gate.is_set() and admit(self)
        )
        with SolveService(devices=2, default_config=config) as service:
            handles = [
                service.submit(model, max_rounds=4, seed=seed) for seed in (0, 1)
            ]
            gate.set()
            results = [handle.result(timeout=60) for handle in handles]
            stats = service.stats()
        assert len(stats["lane_launches"]) == 2
        assert stats["lane_launches"] == stats["lane_completed"]
        assert stats["lane_launches"] == [result.launches for result in results]
        assert all(count > 0 for count in stats["lane_launches"])
        assert stats["lane_inflight"] == [0, 0]

        with SolveService(devices=2, default_config=config) as service:
            result = service.submit(model, max_rounds=4, seed=0).result(
                timeout=60
            )
            stats = service.stats()
        assert stats["lane_launches"] == [result.launches, 0]
        assert stats["lane_completed"] == [result.launches, 0]
        assert stats["lane_inflight"] == [0, 0]

    def test_submit_and_close_wake_the_scheduler(self, monkeypatch):
        """Admission and shutdown never wait out the scheduler's poll
        interval: a submit and a close each wake the loop."""
        monkeypatch.setattr(service_module, "_POLL_INTERVAL", 30.0)
        model = random_qubo(12, seed=5)
        service = SolveService(devices=2)
        try:
            # a fresh service, then the same service once it is idle
            for seed in (0, 1):
                start = time.monotonic()
                service.submit(model, max_rounds=3, seed=seed).result(timeout=5)
                assert time.monotonic() - start < 5
        finally:
            start = time.monotonic()
            service.close()
        assert time.monotonic() - start < 5
        assert leaked_workers() == []


def mt_state(solver):
    state = solver._host_rng.bit_generator.state["state"]
    return state["pos"], state["key"]


def assert_same_solve(direct_solver, direct, via_solver, via):
    """Every observable of two solves of identically seeded solvers is
    bit-identical: result, history, final pools, host RNG and the
    device-resident state (block solutions, RNG lanes, CyclicMin
    cursors)."""
    assert via.best_energy == direct.best_energy
    assert np.array_equal(via.best_vector, direct.best_vector)
    assert via.total_flips == direct.total_flips
    assert via.launches == direct.launches
    assert via.rounds == direct.rounds
    assert via.restarts == direct.restarts
    assert via.reached_target == direct.reached_target
    assert via.first_found == direct.first_found
    assert via.greedy_truncations == direct.greedy_truncations
    assert via.greedy_truncation_warnings == direct.greedy_truncation_warnings
    assert via.degraded_reasons == direct.degraded_reasons
    assert via.counters.algorithms == direct.counters.algorithms
    assert via.counters.operations == direct.counters.operations
    assert [
        (e.round, e.energy, e.algorithm, e.operation) for e in via.history
    ] == [(e.round, e.energy, e.algorithm, e.operation) for e in direct.history]
    for direct_pool, via_pool in zip(direct_solver.pools, via_solver.pools):
        assert np.array_equal(direct_pool.vectors, via_pool.vectors)
        assert np.array_equal(direct_pool.energies, via_pool.energies)
        assert np.array_equal(direct_pool.algorithms, via_pool.algorithms)
        assert np.array_equal(direct_pool.operations, via_pool.operations)
    direct_pos, direct_key = mt_state(direct_solver)
    via_pos, via_key = mt_state(via_solver)
    assert direct_pos == via_pos and np.array_equal(direct_key, via_key)
    for direct_gpu, via_gpu in zip(direct_solver.gpus, via_solver.gpus):
        assert np.array_equal(direct_gpu.rng_state, via_gpu.rng_state)
        assert np.array_equal(direct_gpu.block_x, via_gpu.block_x)
        assert direct_gpu.launch_count == via_gpu.launch_count
        cyclic = MainAlgorithm.CYCLICMIN
        if cyclic in direct_gpu.algorithms:
            direct_cursor = direct_gpu.algorithms[cyclic]._cursor
            via_cursor = via_gpu.algorithms[cyclic]._cursor
            assert (direct_cursor is None) == (via_cursor is None)
            if direct_cursor is not None:
                assert np.array_equal(direct_cursor, via_cursor)


PARITY_BASE = dict(BASE, batch=BatchSearchConfig(batch_flip_factor=2.0))

#: name -> (solver class, config overrides, model (n, seed), limits); the
#: "target" case's limit is filled in with the brute-force optimum
PARITY_CASES = {
    "dabs-rounds": (DABSSolver, {}, (16, 20), dict(max_rounds=8)),
    "dabs-stall-restarts": (
        DABSSolver,
        dict(restart_after_stall=2),
        (16, 20),
        dict(max_rounds=10),
    ),
    "dabs-collapse-restarts": (
        DABSSolver,
        dict(restart_on_collapse=0.4),
        (16, 20),
        dict(max_rounds=10),
    ),
    "dabs-target": (DABSSolver, {}, (16, 20), dict(max_rounds=60)),
    "dabs-launch-budget": (DABSSolver, {}, (16, 20), dict(max_launches=10)),
    # a budget that ends inside a round: the crossing round completes
    "dabs-launch-budget-mid-round": (
        DABSSolver,
        {},
        (16, 20),
        dict(max_launches=7),
    ),
    "dabs-three-devices": (
        DABSSolver,
        dict(num_gpus=3, pool_capacity=8),
        (20, 3),
        dict(max_rounds=9),
    ),
    # one device: the replay's per-device clock has no peer to order against
    "dabs-one-device": (DABSSolver, dict(num_gpus=1), (16, 21), dict(max_rounds=8)),
    "abs-rounds": (ABSSolver, {}, (16, 20), dict(max_rounds=8)),
    "abs-launch-budget": (ABSSolver, {}, (16, 20), dict(max_launches=10)),
    "abs-stall-restarts": (
        ABSSolver,
        dict(restart_after_stall=2),
        (16, 20),
        dict(max_rounds=10),
    ),
    "abs-target": (ABSSolver, {}, (16, 20), dict(max_rounds=60)),
}


@st.composite
def parity_draws(draw):
    """(solver class, config overrides, limits) for the parity property."""
    num_gpus = draw(st.sampled_from([1, 2, 3]))
    cls = draw(st.sampled_from([DABSSolver, ABSSolver]))
    kind = draw(st.sampled_from(["rounds", "launch-budget", "stall-restarts"]))
    overrides = dict(num_gpus=num_gpus)
    if kind == "rounds":
        limits = dict(max_rounds=draw(st.integers(1, 6)))
    elif kind == "launch-budget":
        # ends inside a round whenever there is more than one device
        whole = draw(st.integers(0, 3))
        part = draw(st.integers(1, max(num_gpus - 1, 1)))
        limits = dict(max_launches=whole * num_gpus + part)
    else:
        overrides["restart_after_stall"] = draw(st.integers(1, 2))
        limits = dict(max_rounds=draw(st.integers(3, 8)))
    return cls, overrides, limits


class TestVirtualTimeParity:
    """The determinism contract: a virtual-time job is bit-exact with a
    direct solve of the same solver, regardless of fleet contention."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), case=parity_draws())
    def test_direct_solve_equals_one_job_service_property(self, seed, case):
        cls, overrides, limits = case
        model = random_qubo(14, seed=seed % 97)
        cfg = DABSConfig(**dict(PARITY_BASE, **overrides))
        direct_solver = cls(model, cfg, seed=seed)
        direct = direct_solver.solve(**limits)
        via_solver = cls(model, replace(cfg, virtual_time=True), seed=seed)
        with SolveService(cfg.num_gpus) as service:
            via = via_solver.solve(service=service, **limits)
        assert_same_solve(direct_solver, direct, via_solver, via)

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "solo"])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_one_job_service_matches_direct_solve(self, case, packed):
        """``solve(service=SolveService(g))`` — the barrier-free way to
        run one solve — replays the direct round loop bit-exactly, packed
        or with a row budget of one device (every launch solo)."""
        cls, overrides, (n, model_seed), limits = PARITY_CASES[case]
        model = random_qubo(n, seed=model_seed)
        if case.endswith("-target"):
            limits = dict(limits, target_energy=brute_force(model)[1])
        cfg = DABSConfig(**dict(PARITY_BASE, **overrides))
        if not packed:
            cfg = replace(cfg, coalesce_max_rows=cfg.blocks_per_gpu)
        direct_solver = cls(model, cfg, seed=5)
        direct = direct_solver.solve(**limits)
        via_solver = cls(model, replace(cfg, virtual_time=True), seed=5)
        with SolveService(cfg.num_gpus) as service:
            via = via_solver.solve(service=service, **limits)
        assert_same_solve(direct_solver, direct, via_solver, via)
        assert via.launches == via.rounds * cfg.num_gpus
        if case.endswith("-stall-restarts"):
            assert via.restarts >= 1  # the restart path was exercised
        if case.endswith("-target"):
            assert via.reached_target and via.time_to_target is not None
        if case.endswith("-mid-round"):
            assert via.launches == 8

    @pytest.mark.parametrize("cls", [DABSSolver, ABSSolver], ids=["dabs", "abs"])
    @pytest.mark.parametrize(
        "overrides, limits",
        [
            ({}, dict(max_rounds=8)),
            ({}, dict(max_launches=7)),  # ends inside a round
            (dict(restart_after_stall=2), dict(max_rounds=10)),
        ],
        ids=["rounds", "launch-budget-mid-round", "stall-restarts"],
    )
    def test_multi_lane_job_matches_direct_solve(self, cls, overrides, limits):
        """Devices without a pack key (proxies) take one lane each, so a
        round's launches run concurrently and complete in any order;
        round r+1 goes out when round r folds, bit-exact with the direct
        solve."""
        model = random_qubo(16, seed=20)
        cfg = DABSConfig(**dict(PARITY_BASE, **overrides))

        def build(config):
            return keyless(cls(model, config, seed=5))

        direct_solver = build(cfg)
        direct = direct_solver.solve(**limits)
        via_solver = build(replace(cfg, virtual_time=True))
        with SolveService(cfg.num_gpus) as service:
            via = via_solver.solve(service=service, **limits)
            stats = service.stats_snapshot()
        assert_same_solve(direct_solver, direct, via_solver, via)
        assert stats.lane_launches == (via.rounds,) * cfg.num_gpus
        assert stats.coalesce.packs == 0
        if overrides:
            assert via.restarts >= 1
        if "max_launches" in limits:
            assert via.launches == 8

    def test_one_job_round_is_one_pack(self):
        """A packable one-job service runs each round as one lane pass:
        ``R`` rounds on 2 devices are ``R`` packs of 2 segments on one
        lane, bit-exact with the direct solve."""
        rounds = 6
        model = random_qubo(16, seed=20)
        cfg = DABSConfig(**PARITY_BASE)
        direct_solver = DABSSolver(model, cfg, seed=5)
        direct = direct_solver.solve(max_rounds=rounds)
        via_solver = DABSSolver(model, replace(cfg, virtual_time=True), seed=5)
        with SolveService(cfg.num_gpus) as service:
            via = via_solver.solve(service=service, max_rounds=rounds)
            coalesce = service.stats_snapshot().coalesce
        assert_same_solve(direct_solver, direct, via_solver, via)
        assert (coalesce.packs, coalesce.segments) == (rounds, 2 * rounds)
        assert coalesce.lane_packs == (rounds, 0)

    @pytest.mark.parametrize("restart_after_stall", [None, 3])
    def test_service_job_matches_direct_solve(self, restart_after_stall):
        model = random_qubo(32, seed=5)
        cfg = DABSConfig(**BASE, restart_after_stall=restart_after_stall)
        direct_solver = DABSSolver(model, cfg, seed=0)
        direct = direct_solver.solve(max_rounds=10)
        via_solver = DABSSolver(model, replace(cfg, virtual_time=True), seed=0)
        with SolveService(devices=3) as service:
            # a competing free-running tenant on the same lanes
            noise = service.submit(
                random_qubo(16, seed=9), max_rounds=20, seed=4
            )
            via = via_solver.solve(max_rounds=10, service=service)
            noise.result(timeout=60)
        assert_same_solve(direct_solver, direct, via_solver, via)

    def test_submitted_model_virtual_time_is_deterministic(self):
        """Two service runs of the same virtual-time submission agree."""
        model = random_qubo(24, seed=6)
        cfg = DABSConfig(**BASE, virtual_time=True)
        outcomes = []
        for _ in range(2):
            with SolveService(devices=2) as service:
                handle = service.submit(
                    model, config=cfg, seed=7, max_rounds=6
                )
                outcomes.append(handle.result(timeout=60))
        assert outcomes[0].best_energy == outcomes[1].best_energy
        assert np.array_equal(outcomes[0].best_vector, outcomes[1].best_vector)
        assert [e.energy for e in outcomes[0].history] == [
            e.energy for e in outcomes[1].history
        ]


class TestFairness:
    def test_fair_pick_priority_wins(self):
        high = SimpleNamespace(priority=2, weighted=100.0, seq=2)
        low = SimpleNamespace(priority=0, weighted=0.0, seq=1)
        assert fair_pick([(low, 0), (high, 0)]) == (high, 0)

    def test_fair_pick_weighted_share(self):
        # B has 3× the share: its counter advances by 1/3 per launch, so
        # with 30 launches (weighted 10) it is still the less-served job
        # against A's 11 (weighted 11)
        a = SimpleNamespace(priority=0, weighted=11.0, seq=1)
        b = SimpleNamespace(priority=0, weighted=30 / 3.0, seq=2)
        assert fair_pick([(a, 0), (b, 0)]) == (b, 0)
        b.weighted = 34 / 3.0  # > 11 → now A is owed
        assert fair_pick([(a, 0), (b, 0)]) == (a, 0)

    def test_fair_pick_tie_breaks_by_admission_order(self):
        a = SimpleNamespace(priority=0, weighted=0.0, seq=1)
        b = SimpleNamespace(priority=0, weighted=0.0, seq=2)
        assert fair_pick([(b, 0), (a, 0)]) == (a, 0)

    def test_late_arrival_is_baselined_not_privileged(self):
        """A newcomer must share the lane with an established tenant, not
        starve it while catching up to the incumbent's lifetime total."""
        model = random_qubo(12, seed=7)
        with SolveService(devices=1) as service:
            incumbent = service.submit_solver(
                sleepy_solver(model, 0.004, seed=1, num_gpus=1),
                max_rounds=400,
            )
            # let the incumbent build up a big launch count
            while service.job_stats(incumbent.job_id)["launches_submitted"] < 30:
                time.sleep(0.005)
            newcomer = service.submit_solver(
                sleepy_solver(model, 0.004, seed=2, num_gpus=1),
                max_rounds=20,
            )
            before = service.job_stats(incumbent.job_id)["launches_submitted"]
            newcomer.result(timeout=60)
            after = service.job_stats(incumbent.job_id)["launches_submitted"]
            incumbent.cancel()
            incumbent.wait(timeout=60)
        # the incumbent kept receiving launches while the newcomer ran
        # (~alternating); without the baseline it would receive none
        assert after - before >= 8, (before, after)

    def test_share_weights_launch_rate(self):
        """On one contended lane a share-3 job gets ~3× the launch rate:
        when it finishes its 30 launches the share-1 job should have been
        handed roughly 10."""
        model = random_qubo(12, seed=8)
        with SolveService(devices=1) as service:
            slow = service.submit_solver(
                sleepy_solver(model, 0.004, seed=1, num_gpus=1),
                max_rounds=40,
                share=1.0,
            )
            fast = service.submit_solver(
                sleepy_solver(model, 0.004, seed=2, num_gpus=1),
                max_rounds=30,
                share=3.0,
            )
            fast.result(timeout=60)
            sampled = service.job_stats(slow.job_id)["launches_submitted"]
            slow.cancel()
            slow.wait(timeout=60)
        assert 4 <= sampled <= 22, sampled

    def test_priority_preempts_scheduling(self):
        """A high-priority arrival takes over the lane; the low-priority
        job barely advances until it completes."""
        model = random_qubo(12, seed=9)
        with SolveService(devices=1) as service:
            low = service.submit_solver(
                sleepy_solver(model, 0.004, seed=1, num_gpus=1),
                max_rounds=60,
                priority=0,
            )
            high = service.submit_solver(
                sleepy_solver(model, 0.004, seed=2, num_gpus=1),
                max_rounds=25,
                priority=5,
            )
            high.result(timeout=60)
            low_progress = service.job_stats(low.job_id)["launches_submitted"]
            low.cancel()
            low.wait(timeout=60)
        assert low_progress <= 12, low_progress
        assert leaked_workers() == []


class TestCancellation:
    def test_cancel_mid_flight_returns_partial_result(self):
        model = random_qubo(16, seed=10)
        with SolveService(devices=2) as service:
            handle = service.submit_solver(
                sleepy_solver(model, 0.01, seed=0), max_rounds=500
            )
            # wait until genuinely mid-flight
            assert next(iter(handle.incumbents(timeout=60))) is not None
            handle.cancel()
            result = handle.result(timeout=60)
            assert handle.status is JobStatus.CANCELLED
            assert model.energy(result.best_vector) == result.best_energy
            assert result.launches < 500 * 2
            # the service survives a cancel: submit again
            again = service.submit(model, max_rounds=2, seed=1)
            assert again.result(timeout=60).launches == 4
        assert leaked_workers() == []

    def test_cancel_virtual_time_job_discards_cleanly(self):
        model = random_qubo(16, seed=11)
        cfg = DABSConfig(**BASE, virtual_time=True)
        with SolveService(devices=2) as service:
            solver = DABSSolver(model, cfg, seed=0)
            solver.gpus = [SleepyGPU(g, 0.01) for g in solver.gpus]
            handle = service.submit_solver(solver, max_rounds=500)
            assert next(iter(handle.incumbents(timeout=60))) is not None
            handle.cancel()
            result = handle.result(timeout=60)
            assert handle.status is JobStatus.CANCELLED
            assert model.energy(result.best_vector) == result.best_energy
        assert leaked_workers() == []

    def test_cancel_queued_job_never_starts(self):
        model = random_qubo(12, seed=12)
        with SolveService(devices=1, max_active=1) as service:
            running = service.submit_solver(
                sleepy_solver(model, 0.01, seed=0, num_gpus=1), max_rounds=100
            )
            queued = service.submit(model, max_rounds=100, seed=1)
            queued.cancel()
            queued.wait(timeout=60)
            assert queued.status is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                queued.result()
            running.cancel()
            running.wait(timeout=60)
        assert leaked_workers() == []

    def test_close_cancel_tears_everything_down(self):
        model = random_qubo(12, seed=13)
        service = SolveService(devices=2)
        handles = [
            service.submit_solver(
                sleepy_solver(model, 0.01, seed=s), max_rounds=500
            )
            for s in range(3)
        ]
        time.sleep(0.05)
        service.close(cancel=True)
        for handle in handles:
            assert handle.done()
            assert handle.status is JobStatus.CANCELLED
        assert leaked_workers() == []


class TestAdmissionControl:
    def test_nonblocking_submit_raises_when_full(self):
        model = random_qubo(12, seed=14)
        with SolveService(devices=1, max_queue=1) as service:
            long_job = service.submit_solver(
                sleepy_solver(model, 0.01, seed=0, num_gpus=1), max_rounds=500
            )
            with pytest.raises(ServiceOverloadedError):
                service.submit(model, max_rounds=1, block=False)
            long_job.cancel()
            long_job.wait(timeout=60)

    def test_blocking_submit_times_out(self):
        model = random_qubo(12, seed=15)
        with SolveService(devices=1, max_queue=1) as service:
            long_job = service.submit_solver(
                sleepy_solver(model, 0.01, seed=0, num_gpus=1), max_rounds=500
            )
            with pytest.raises(ServiceOverloadedError, match="timed out"):
                service.submit(model, max_rounds=1, timeout=0.05)
            long_job.cancel()
            long_job.wait(timeout=60)

    def test_blocking_submit_proceeds_when_space_frees(self):
        model = random_qubo(12, seed=16)
        with SolveService(devices=1, max_queue=1) as service:
            first = service.submit(model, max_rounds=2, seed=0)
            # blocks until the first job finishes, then is admitted
            second = service.submit(model, max_rounds=2, seed=1, timeout=60)
            assert first.result(timeout=60).launches == 2
            assert second.result(timeout=60).launches == 2

    def test_submit_after_close_raises(self):
        from repro.service import ServiceClosedError

        service = SolveService(devices=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(random_qubo(8, seed=17), max_rounds=1)


class TestFailureIsolation:
    def test_device_fault_fails_only_that_job(self):
        model = random_qubo(12, seed=18)
        bad = DABSSolver(model, DABSConfig(**BASE), seed=0)

        def boom(batch):
            raise RuntimeError("device fault")

        bad.gpus[0] = SimpleNamespace(
            launch=boom,
            reset=lambda: None,
            greedy_truncations=0,
            truncation_events=0,
        )
        with SolveService(devices=2) as service:
            victim = service.submit_solver(bad, max_rounds=10)
            bystander = service.submit(model, max_rounds=5, seed=1)
            with pytest.raises(WorkerError, match="device fault"):
                victim.result(timeout=60)
            assert victim.status is JobStatus.FAILED
            result = bystander.result(timeout=60)
            assert result.launches == 5 * 2
        assert leaked_workers() == []

    def test_raising_on_improvement_fails_the_job(self):
        """A callback exception fails its job with that exception."""
        model = random_qubo(12, seed=19)

        def boom(update):
            raise KeyError("callback bug")

        with SolveService(devices=2) as service:
            handle = service.submit(
                model, max_rounds=50, seed=0, on_improvement=boom
            )
            with pytest.raises(KeyError, match="callback bug"):
                handle.result(timeout=60)
            assert handle.status is JobStatus.FAILED
        assert leaked_workers() == []

    def test_reset_fault_fails_the_job_not_the_fleet(self):
        """A device reset raising during a §IV.B restart must surface as
        a job failure (not vanish in an unchecked future) while other
        tenants keep running."""
        model = random_qubo(12, seed=21)
        bad = DABSSolver(
            model,
            DABSConfig(**{**BASE, "num_gpus": 1}, restart_after_stall=1),
            seed=0,
        )

        def boom():
            raise RuntimeError("reset fault")

        bad.gpus[0].reset = boom
        with SolveService(devices=2) as service:
            victim = service.submit_solver(bad, max_rounds=200)
            bystander = service.submit(model, max_rounds=5, seed=1)
            with pytest.raises(WorkerError, match="reset fault"):
                victim.result(timeout=60)
            assert victim.status is JobStatus.FAILED
            assert bystander.result(timeout=60).launches == 5 * 2
        assert leaked_workers() == []

    def test_bad_submission_fails_at_admission(self):
        with SolveService(devices=1) as service:
            handle = service.submit("not a model", max_rounds=1)
            with pytest.raises(Exception):
                handle.result(timeout=60)
            assert handle.status is JobStatus.FAILED
            # service is still healthy
            ok = service.submit(random_qubo(8, seed=19), max_rounds=1, seed=0)
            ok.result(timeout=60)
        assert leaked_workers() == []


class TestSolverStatePersistence:
    def test_back_to_back_submissions_continue_like_solve(self):
        """submit_solver adopts the solver's state: two service runs equal
        two direct solve() calls (virtual-time determinism)."""
        model = random_qubo(20, seed=20)
        cfg = DABSConfig(**BASE, virtual_time=True)
        direct = DABSSolver(model, cfg, seed=3)
        first_direct = direct.solve(max_rounds=4)
        second_direct = direct.solve(max_rounds=4)
        via = DABSSolver(model, cfg, seed=3)
        with SolveService(devices=2) as service:
            first_via = via.solve(max_rounds=4, service=service)
            second_via = via.solve(max_rounds=4, service=service)
        assert first_via.best_energy == first_direct.best_energy
        assert second_via.best_energy == second_direct.best_energy
        assert np.array_equal(
            second_via.best_vector, second_direct.best_vector
        )
