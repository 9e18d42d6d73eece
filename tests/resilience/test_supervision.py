"""Supervised fleet lanes: retry, respawn, hang detection, budgets.

The recovery contract (DESIGN.md §11): a supervised group absorbs a
worker fault by re-issuing the recorded launch — identical batch,
identical sequence number — so the completion stream the scheduler consumes
is indistinguishable from a fault-free run whenever the fault pre-empted
the launch.  Exhausted recovery surfaces as a :class:`WorkerError`
carrying a structured :class:`FailureReport`.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import host_generator
from repro.engine.workers import FleetWorkerGroup, WorkerError
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.resilience import ChaosConfig, FailureReport, RetryPolicy, chaos
from repro.search.batch import BatchSearchConfig
from tests.conftest import random_qubo
from tests.resilience.conftest import CHAOS_SEED

B, N = 4, 12

#: retries without wall-clock delay — the unit tests assert logic, not timing
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0)


def make_gpu(seed: int = 3) -> VirtualGPU:
    model = random_qubo(N, seed=seed)
    return VirtualGPU(
        model,
        DeviceSpec(num_blocks=B, name="test"),
        BatchSearchConfig(batch_flip_factor=2.0),
        tuple(MainAlgorithm),
        host_generator(seed),
    )


def make_batch(seed: int = 7) -> PacketBatch:
    rng = np.random.default_rng(seed)
    return PacketBatch.void(
        rng.integers(0, 2, size=(B, N), dtype=np.uint8),
        rng.integers(0, 5, size=B, dtype=np.uint8),
        rng.integers(0, 8, size=B, dtype=np.uint8),
    )


def collect_one(group, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        completion = group.next_completion(0.2)
        if completion is not None:
            return completion
    raise AssertionError("no completion within the test deadline")


class TestFleetRetry:
    def test_injected_fault_is_retried_bit_exactly(self):
        """A chaos fault pre-empts the launch, so the retried completion
        must be bit-identical to a fault-free run of the same GPU."""
        expect, expect_flips = make_gpu().launch(make_batch())

        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                max_faults=1,
            )
        )
        with FleetWorkerGroup(1, retry=FAST_RETRY) as group:
            group.submit_launch(0, 0, 1, make_gpu(), make_batch(), tag="job")
            completion = collect_one(group)
        assert completion.seq == 1 and completion.tag == "job"
        assert np.array_equal(completion.batch.vectors, expect.vectors)
        assert np.array_equal(completion.batch.energies, expect.energies)
        assert np.array_equal(completion.flips, expect_flips)
        assert group.retries == 1
        assert group.retry_counts == {"job": 1}

    def test_exhaustion_raises_with_failure_report(self):
        chaos.install(
            ChaosConfig(rates={"launch_exception": 1.0}, seed=CHAOS_SEED)
        )
        retry = RetryPolicy(max_retries=1, backoff_base=0.0)
        with FleetWorkerGroup(1, retry=retry) as group:
            group.submit_launch(0, 0, 1, make_gpu(), make_batch(), tag="job")
            with pytest.raises(WorkerError, match="chaos") as excinfo:
                collect_one(group)
        report = excinfo.value.report
        assert isinstance(report, FailureReport)
        assert report.kind == "launch" and report.fatal
        assert report.attempts == 2 and report.retries == 1
        assert len(report.details) == 2
        assert excinfo.value.tag == "job"
        assert "launch failure" in report.summary()

    def test_unsupervised_group_fails_on_first_fault(self):
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                max_faults=1,
            )
        )
        with FleetWorkerGroup(1) as group:
            group.submit_launch(0, 0, 1, make_gpu(), make_batch())
            with pytest.raises(WorkerError) as excinfo:
                collect_one(group)
        assert excinfo.value.report is not None
        assert group.retries == 0

    def test_failure_budget_is_a_circuit_breaker(self):
        """max_retries would allow recovery, but the per-job budget says
        the second fault is one too many."""
        chaos.install(
            ChaosConfig(rates={"launch_exception": 1.0}, seed=CHAOS_SEED)
        )
        retry = RetryPolicy(
            max_retries=10, backoff_base=0.0, failure_budget=1
        )
        with FleetWorkerGroup(1, retry=retry) as group:
            group.submit_launch(0, 0, 1, make_gpu(), make_batch())
            with pytest.raises(WorkerError):
                collect_one(group)
        assert group.retries == 1  # one re-issue happened before the trip

    def test_backoff_schedule_is_capped_exponential(self):
        policy = RetryPolicy(
            max_retries=5,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_cap=0.3,
        )
        assert [policy.delay(k) for k in range(5)] == [
            0.0,
            0.1,
            0.2,
            0.3,
            0.3,
        ]

    def test_forget_prunes_supervision_tallies(self):
        """A long-lived fleet drops a finished job's budget/retry
        accounting (the service calls forget at finalization)."""
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                max_faults=1,
            )
        )
        with FleetWorkerGroup(1, retry=FAST_RETRY) as group:
            group.submit_launch(0, 0, 1, make_gpu(), make_batch(), tag="job")
            collect_one(group)
            assert group.retry_counts and group._fault_counts
            group.forget("job")
            assert group.retry_counts == {} and group._fault_counts == {}

    def test_slow_launch_is_quarantined_and_late_result_delivered(self, device_hooks):
        """launch_timeout respawns the lane, but the overdue launch is
        NOT re-issued while its abandoned thread still owns the gpu: the
        reaper waits for the thread to exit and the (bit-exact) late
        result is delivered — the launch runs exactly once, so two
        threads never mutate the same device state."""
        expect, expect_flips = make_gpu().launch(make_batch())
        gpu = make_gpu()
        calls = []

        def slow_once():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(1.0)

        device_hooks[gpu] = slow_once
        retry = RetryPolicy(
            max_retries=2,
            backoff_base=0.0,
            launch_timeout=0.2,
            hang_grace=30.0,
        )
        with FleetWorkerGroup(1, retry=retry) as group:
            group.submit_launch(0, 0, 1, gpu, make_batch())
            completion = collect_one(group)
            assert np.array_equal(completion.batch.vectors, expect.vectors)
            assert np.array_equal(completion.flips, expect_flips)
            assert len(calls) == 1  # never re-issued concurrently
            assert group.respawns == 1 and group.retries == 0

    def test_preempted_hang_is_retried_bit_exactly(self, device_hooks):
        """A hang that ends in an exception is a pre-empted launch: once
        the abandoned thread has exited, the re-issue on the fresh lane
        is bit-identical to a fault-free run."""
        expect, expect_flips = make_gpu().launch(make_batch())
        gpu = make_gpu()
        calls = []

        def hang_then_raise():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(0.5)
                raise RuntimeError("kernel wedged, then died")

        device_hooks[gpu] = hang_then_raise
        retry = RetryPolicy(
            max_retries=2,
            backoff_base=0.0,
            launch_timeout=0.1,
            hang_grace=30.0,
        )
        with FleetWorkerGroup(1, retry=retry) as group:
            group.submit_launch(0, 0, 1, gpu, make_batch(), tag="job")
            completion = collect_one(group)
            assert np.array_equal(completion.batch.vectors, expect.vectors)
            assert np.array_equal(completion.flips, expect_flips)
            assert len(calls) == 2
            assert group.respawns == 1 and group.retries == 1

    def test_wedged_launch_fails_hang_and_lane_survives(self, device_hooks):
        """A thread that outlives hang_grace is unrecoverable: its
        launch fails with a kind="hang" report (never re-issued — the
        live thread still owns that gpu) while the respawned lane keeps
        serving other tenants."""
        release = threading.Event()
        expect, _ = make_gpu().launch(make_batch())
        wedged = make_gpu()
        device_hooks[wedged] = lambda: release.wait(30.0)

        retry = RetryPolicy(
            max_retries=5,
            backoff_base=0.0,
            launch_timeout=0.1,
            hang_grace=0.1,
        )
        try:
            with FleetWorkerGroup(1, retry=retry) as group:
                group.submit_launch(
                    0, 0, 1, wedged, make_batch(), tag="stuck"
                )
                with pytest.raises(WorkerError) as excinfo:
                    collect_one(group)
                assert excinfo.value.tag == "stuck"
                assert excinfo.value.report.kind == "hang"
                assert excinfo.value.report.fatal
                # the lane is fresh: an untouched gpu completes on it
                group.submit_launch(
                    0, 0, 1, make_gpu(), make_batch(), tag="ok"
                )
                completion = collect_one(group)
                assert completion.tag == "ok"
                assert np.array_equal(
                    completion.batch.vectors, expect.vectors
                )
        finally:
            release.set()

    def test_seized_cotenant_launch_survives_a_fatal_hang(self, device_hooks):
        """One job's unrecoverable hang must not strand the co-tenant
        launches seized with the lane: they re-issue on the fresh
        executor and complete while the wedged job fails alone."""
        release = threading.Event()
        expect, expect_flips = make_gpu().launch(make_batch())
        wedged = make_gpu()
        device_hooks[wedged] = lambda: release.wait(30.0)

        retry = RetryPolicy(
            max_retries=5,
            backoff_base=0.0,
            launch_timeout=0.1,
            hang_grace=0.1,
        )
        try:
            with FleetWorkerGroup(1, retry=retry) as group:
                group.submit_launch(
                    0, 0, 1, wedged, make_batch(), tag="a"
                )
                group.submit_launch(
                    0, 1, 1, make_gpu(), make_batch(), tag="b"
                )
                outcomes = {}
                deadline = time.monotonic() + 30.0
                while len(outcomes) < 2 and time.monotonic() < deadline:
                    try:
                        completion = group.next_completion(0.2)
                    except WorkerError as err:
                        outcomes[err.tag] = err
                    else:
                        if completion is not None:
                            outcomes[completion.tag] = completion
                assert isinstance(outcomes["a"], WorkerError)
                assert outcomes["a"].report.kind == "hang"
                completion = outcomes["b"]
                assert np.array_equal(
                    completion.batch.vectors, expect.vectors
                )
                assert np.array_equal(completion.flips, expect_flips)
        finally:
            release.set()
