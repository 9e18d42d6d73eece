"""Launch coalescing (DESIGN.md §12): packed execution and worker plumbing.

The contract under test: a :class:`SuperLaunch` over pack-compatible
segments is **bit-exact per job** against running each segment's launch
solo — result vectors and energies, flip counts, the device-persistent
block solutions and RNG lane states, and the device counters.  On top of
that, the worker group must split a failed pack of several jobs back
into one-segment packs without charging any rider's fault budget, retry a
failed one-job pack whole, charged once, as that job's launch, and treat
a failing one-segment pack as the solo launch it is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import BackendFallbackWarning, prepare_problem
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.qubo import QUBOModel
from repro.core.rng import host_generator
from repro.engine.coalesce import PackScratch, PackSegment, SuperLaunch
from repro.engine.workers import FleetWorkerGroup, WorkerError
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.resilience import ChaosConfig, RetryPolicy, chaos
from repro.search.batch import BatchSearchConfig
from tests.conftest import random_qubo, with_native

BACKENDS = with_native("numpy-dense", "numpy-sparse")
ALL_ALGS = list(MainAlgorithm)

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0)


@pytest.fixture(autouse=True)
def clean_chaos():
    chaos.install(None)
    yield
    chaos.install(None)


def make_fleet(backend_name, n, blocks, count, density=1.0, seed=3):
    """*count* devices sharing one prepared problem (the cache-hit shape)."""
    model = random_qubo(n, seed=seed, density=density)
    prepared = prepare_problem(model, backend_name)
    config = BatchSearchConfig(batch_flip_factor=2.0)
    return [
        VirtualGPU(
            model,
            DeviceSpec(num_blocks=blocks),
            config,
            tuple(MainAlgorithm),
            host_generator(100 + i),
            backend=prepared.backend,
            kernel=prepared.kernel,
        )
        for i in range(count)
    ]


def make_batch(n, blocks, algs, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(blocks, n), dtype=np.uint8)
    algorithms = np.array(
        [int(algs[i % len(algs)]) for i in range(blocks)], dtype=np.uint8
    )
    operations = rng.integers(0, 4, size=blocks, dtype=np.uint8)
    return PacketBatch.void(vectors, algorithms, operations)


def assert_device_parity(solo, packed):
    assert np.array_equal(solo.block_x, packed.block_x)
    assert np.array_equal(solo.rng_state, packed.rng_state)
    assert solo.total_flips == packed.total_flips
    assert solo.greedy_truncations == packed.greedy_truncations
    assert solo.truncation_events == packed.truncation_events
    assert solo.launch_count == packed.launch_count


class TestPackedParity:
    """SuperLaunch.run vs per-device VirtualGPU.launch, bit for bit."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("alg", ALL_ALGS, ids=lambda a: a.name)
    def test_single_algorithm_pack(self, backend_name, alg):
        self.check(backend_name, 32, 5, [[alg], [alg], [alg]])

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_mixed_algorithm_pack(self, backend_name):
        self.check(
            backend_name,
            48,
            7,
            [ALL_ALGS, ALL_ALGS[::-1], [ALL_ALGS[1], ALL_ALGS[0]]],
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_two_and_four_segment_packs(self, backend_name):
        self.check(backend_name, 24, 3, [ALL_ALGS[:2], ALL_ALGS[2:]])
        self.check(
            backend_name,
            40,
            6,
            [ALL_ALGS, [ALL_ALGS[4]], [ALL_ALGS[2]], ALL_ALGS[1:4]],
        )

    @staticmethod
    def check(backend_name, n, blocks, alg_lists, launches=3):
        density = 0.3 if backend_name == "numpy-sparse" else 1.0
        k = len(alg_lists)
        solo = make_fleet(backend_name, n, blocks, k, density=density)
        packed = make_fleet(backend_name, n, blocks, k, density=density)
        key = packed[0].pack_key
        assert key is not None
        assert all(gpu.pack_key == key for gpu in packed)

        scratch = {}
        # consecutive launches: device state (X, RNG lanes, cursors) must
        # carry across packs exactly as it does across solo launches
        for launch_i in range(launches):
            batches = [
                make_batch(n, blocks, alg_lists[j], seed=10 * launch_i + j)
                for j in range(k)
            ]
            solo_results = [solo[j].launch(batches[j]) for j in range(k)]
            segments = [
                PackSegment(j, launch_i, packed[j], batches[j], ("job", j))
                for j in range(k)
            ]
            pack_results = SuperLaunch(segments).run(scratch)
            for j in range(k):
                (expect, expect_flips), got = solo_results[j], pack_results[j]
                assert np.array_equal(expect.vectors, got.result.vectors)
                assert np.array_equal(expect.energies, got.result.energies)
                assert np.array_equal(expect_flips, got.flips)
                assert_device_parity(solo[j], packed[j])


class TestPackScratchBound:
    """A long-lived lane's merged buffers do not grow with the number of
    distinct pack compositions it has run."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_window_count_and_bytes_stay_bounded(self, backend_name):
        n, blocks, count = 16, 3, 6
        gpus = make_fleet(backend_name, n, blocks, count)
        rng = np.random.default_rng(0)
        scratch = {}
        # 64 windows of at most every row, at most 32 bytes per row-bit of
        # per-window scratch rows (three int64, three bool and σ's int8)
        bound_bytes = 64 * count * blocks * n * 32
        for launch in range(200):
            chosen = np.flatnonzero(rng.random(count) < 0.6)
            chosen = chosen if chosen.size else np.array([launch % count])
            segments = []
            for j in chosen.tolist():
                algs = rng.choice(ALL_ALGS, size=rng.integers(1, 4), replace=False).tolist()
                batch = make_batch(n, blocks, algs, seed=launch * count + j)
                segments.append(PackSegment(j, launch, gpus[j], batch, None))
            SuperLaunch(segments).run(scratch)
            (buffers,) = scratch.values()
            windows = [triple for _, triple in buffers._windows.values()]
            assert len(windows) <= 64
            owned = sum(a.nbytes for state, _, _ in windows for a in state._scratch.values())
            assert owned <= bound_bytes

    def test_a_pack_keeps_every_window_it_used(self, monkeypatch):
        """Eviction takes only earlier packs' windows, so a pack with more
        spans than the bound never rebuilds one of its own."""
        monkeypatch.setattr(PackScratch, "MAX_WINDOWS", 2)
        (gpu,) = make_fleet("numpy-sparse", 8, 6, 1)
        scratch = PackScratch(gpu.model, gpu.backend, gpu.kernel, gpu.config, 6)
        scratch.begin_pack()
        first = [scratch.window(0, stop) for stop in range(1, 6)]
        assert [scratch.window(0, stop) for stop in range(1, 6)] == first
        assert len(scratch._windows) == 5
        scratch.begin_pack()
        assert scratch.window(0, 5) is first[-1]
        scratch.window(2, 6)
        assert list(scratch._windows) == [(0, 5), (2, 6)]


class TestPackKey:
    """The compatibility gate: who may ride a super-launch."""

    def test_same_prepared_problem_shares_a_key(self):
        gpus = make_fleet("numpy-dense", 16, 4, 2)
        assert gpus[0].pack_key == gpus[1].pack_key is not None

    def test_different_kernels_do_not_match(self):
        a = make_fleet("numpy-dense", 16, 4, 1, seed=3)[0]
        b = make_fleet("numpy-dense", 16, 4, 1, seed=4)[0]
        assert a.pack_key != b.pack_key

    def test_different_search_config_does_not_match(self):
        model = random_qubo(16, seed=3)
        prepared = prepare_problem(model, "numpy-dense")
        gpus = [
            VirtualGPU(
                model,
                DeviceSpec(num_blocks=4),
                BatchSearchConfig(batch_flip_factor=factor),
                tuple(MainAlgorithm),
                host_generator(1),
                backend=prepared.backend,
                kernel=prepared.kernel,
            )
            for factor in (1.0, 2.0)
        ]
        assert gpus[0].pack_key != gpus[1].pack_key

    def test_float_model_is_refused(self):
        """A device never holds a float model, so it always has a key."""
        rng = np.random.default_rng(0)
        mat = np.triu(rng.normal(size=(12, 12)))
        with pytest.raises(ValueError, match="integer weights"):
            VirtualGPU(
                QUBOModel(mat),
                DeviceSpec(num_blocks=4),
                BatchSearchConfig(),
                tuple(MainAlgorithm),
                host_generator(1),
            )


def collect(group, want, timeout=30.0):
    """Drain *want* completions; WorkerErrors are collected, not raised."""
    import time

    completions, errors = [], []
    deadline = time.monotonic() + timeout
    while len(completions) + len(errors) < want:
        assert time.monotonic() < deadline, "test deadline exceeded"
        try:
            completion = group.next_completion(0.2)
        except WorkerError as err:
            errors.append(err)
            continue
        if completion is not None:
            completions.append(completion)
    return completions, errors


class TestWorkerPacking:
    """submit_packed: delivery, fault splitting, budget fairness."""

    @staticmethod
    def expected_solo(n=20, blocks=4):
        gpus = make_fleet("numpy-dense", n, blocks, 2)
        batches = [make_batch(n, blocks, ALL_ALGS, seed=j) for j in range(2)]
        return [gpus[j].launch(batches[j]) for j in range(2)]

    @staticmethod
    def submit_pack(group, n=20, blocks=4, jobs=("job0", "job1")):
        gpus = make_fleet("numpy-dense", n, blocks, 2)
        batches = [make_batch(n, blocks, ALL_ALGS, seed=j) for j in range(2)]
        group.submit_packed(
            0,
            [
                PackSegment(j, 1, gpus[j], batches[j], (jobs[j], j))
                for j in range(2)
            ],
        )

    def test_packed_completions_match_solo(self):
        expect = self.expected_solo()
        with FleetWorkerGroup(1) as group:
            self.submit_pack(group)
            completions, errors = collect(group, 2)
        assert not errors
        by_device = {c.device_id: c for c in completions}
        for j in range(2):
            got = by_device[j]
            assert got.seq == 1 and got.tag == (f"job{j}", j)
            assert np.array_equal(got.batch.vectors, expect[j][0].vectors)
            assert np.array_equal(got.batch.energies, expect[j][0].energies)
            assert np.array_equal(got.flips, expect[j][1])

    def test_pack_fault_splits_and_charges_nobody(self):
        """A transient pack fault re-issues every segment solo, bit-exact,
        with no retry charged to any rider (the culprit is unknown)."""
        expect = self.expected_solo()
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0}, seed=0, max_faults=1
            )
        )
        with FleetWorkerGroup(1, retry=FAST_RETRY) as group:
            self.submit_pack(group)
            completions, errors = collect(group, 2)
            assert group.pack_splits == 1
            assert group.retry_counts == {}
        assert not errors
        by_device = {c.device_id: c for c in completions}
        for j in range(2):
            assert np.array_equal(
                by_device[j].batch.vectors, expect[j][0].vectors
            )
            assert np.array_equal(
                by_device[j].batch.energies, expect[j][0].energies
            )

    def test_one_job_pack_fault_retries_whole_and_charges_once(self):
        """A pack of one job's devices is that job's launch: a transient
        fault re-issues it whole, bit-exact, charged once, never split."""
        expect = self.expected_solo()
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0}, seed=0, max_faults=1
            )
        )
        with FleetWorkerGroup(1, retry=FAST_RETRY) as group:
            self.submit_pack(group, jobs=("job", "job"))
            completions, errors = collect(group, 2)
            assert group.pack_splits == 0
            assert group.retry_counts == {"job": 1}
        assert not errors
        by_device = {c.device_id: c for c in completions}
        for j in range(2):
            assert by_device[j].tag == ("job", j)
            assert np.array_equal(
                by_device[j].batch.vectors, expect[j][0].vectors
            )
            assert np.array_equal(by_device[j].flips, expect[j][1])

    def test_unsupervised_one_job_pack_fault_names_every_segment(self):
        """Without a retry policy a one-job pack fails as one error that
        carries the job's tag and every segment's tag."""
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0}, seed=0, max_faults=1
            )
        )
        with FleetWorkerGroup(1) as group:
            self.submit_pack(group, jobs=("job", "job"))
            completions, errors = collect(group, 1)
            assert group.pack_splits == 0
        assert completions == []
        assert errors[0].tag == ("job", 0)
        assert errors[0].tags == (("job", 0), ("job", 1))

    def test_persistent_fault_fails_only_its_owner(self):
        """Budget exhaustion of one segment must not fail its pack-mates."""
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0}, seed=0, target=1
            )
        )
        retry = RetryPolicy(max_retries=1, backoff_base=0.0)
        with FleetWorkerGroup(1, retry=retry) as group:
            self.submit_pack(group)
            completions, errors = collect(group, 2)
            assert group.pack_splits == 1
        assert [c.device_id for c in completions] == [0]
        assert len(errors) == 1
        assert errors[0].tag == ("job1", 1)
        assert errors[0].report is not None and errors[0].report.fatal

    def test_culprit_keeps_the_pack_retry_bound(self, monkeypatch):
        """A segment the pack-fault rule fails keeps its pack's attempt
        count and failure history: a one-job pack already retried once
        leaves its culprit no retry under ``max_retries=1``.  The culprit
        degrades, faults again in its re-planned pack and fails alone;
        the failed pack counts as one split, not one per re-plan."""
        chaos.install(ChaosConfig(rates={"launch_exception": 1.0}, seed=0, max_faults=1))
        gpus = make_fleet("numpy-dense", 20, 4, 2)
        gpus[1].allow_fallback = True
        batches = [make_batch(20, 4, ALL_ALGS, seed=j) for j in range(2)]
        original = SuperLaunch.run

        def device1_faults(self, scratch_map):
            for seg in self.segments:
                if seg.device_id == 1:
                    self.culprit = seg
                    raise RuntimeError("kernel fault on device 1")
            return original(self, scratch_map)

        monkeypatch.setattr(SuperLaunch, "run", device1_faults)
        retry = RetryPolicy(max_retries=1, backoff_base=0.0)
        with FleetWorkerGroup(1, retry=retry) as group:
            segments = [PackSegment(j, 1, gpus[j], batches[j], ("job", j)) for j in range(2)]
            group.submit_packed(0, segments)
            with pytest.warns(BackendFallbackWarning):
                completions, errors = collect(group, 2)
            assert group.pack_splits == 1
        assert gpus[1].backend_fallbacks == 1
        assert [c.device_id for c in completions] == [0]
        assert len(errors) == 1 and errors[0].tag == ("job", 1)
        report = errors[0].report
        assert report.attempts == 2 and len(report.details) == 2

    @pytest.mark.filterwarnings("ignore::repro.backends.BackendFallbackWarning")
    def test_failing_lone_launch_degrades_once_and_retries_whole(self):
        """A one-segment pack whose backend raises degrades its device
        once, is charged one fault and is retried whole, bit-exact with
        a twin that degraded before launching; it is no pack split."""
        chaos.install(ChaosConfig(rates={"backend_raise": 1.0}, seed=0, max_faults=2))
        gpu, twin = make_fleet("numpy-dense", 20, 4, 2, seed=3)
        twin.rng_state[...] = gpu.rng_state
        gpu.allow_fallback = twin.allow_fallback = True
        batch = make_batch(20, 4, ALL_ALGS, seed=0)
        with FleetWorkerGroup(1, retry=FAST_RETRY) as group:
            group.submit_launch(0, 0, 1, gpu, batch, tag=("job", 0))
            completions, errors = collect(group, 1)
            counts = (
                group.pack_splits,
                group.retries,
                dict(group.retry_counts),
                dict(group._fault_counts),
            )
        assert not errors
        assert counts == (0, 1, {"job": 1}, {"job": 1})
        assert gpu.backend_fallbacks == 1 and gpu.launch_count == 1
        chaos.install(None)
        twin._degrade(RuntimeError("twin"))
        expect, expect_flips = twin.launch(batch)
        (got,) = completions
        assert got.tag == ("job", 0)
        assert np.array_equal(got.batch.vectors, expect.vectors)
        assert np.array_equal(got.flips, expect_flips)
        assert_device_parity(twin, gpu)
