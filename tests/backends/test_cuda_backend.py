"""CUDA backend parity and wiring tests.

Runs against whatever ``numba.cuda`` runtime is present — real hardware or
the CUDA simulator (``NUMBA_ENABLE_CUDASIM=1``, the CI ``cuda-sim`` job) —
and falls back to the pure-Python stub in ``tests/backends/cuda_stub.py``
when neither is available, so the kernels' cooperative structure is
exercised on every box.  The parity assertions are the backend contract:
a cuda launch — one super-launch, like every launch — must reproduce the
numpy stepwise trajectory bit-exactly, including the final RNG lane
states; and cuda devices pack, solo or across jobs, bit-exactly with
numpy-dense.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends.cuda as cuda_mod
from repro.backends import (
    BackendUnavailableError,
    available_backends,
    backend_names,
    get_backend,
    prepare_problem,
    resolve_backend,
)
from repro.backends.base import GreedyTruncationWarning
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm
from repro.core.rng import XorShift64Star, host_generator, spawn_device_seeds
from repro.core.sparse import SparseQUBOModel
from repro.engine.coalesce import PackSegment, SuperLaunch
from repro.search.batch import BatchSearchConfig, BestTracker, run_batch_search
from repro.search.maxmin import MaxMinSearch
from repro.search.randommin import RandomMinSearch
from repro.search.tabu import TabuTracker
from tests.backends import cuda_stub
from tests.backends.launch_parity import (
    assert_same,
    launch_vs_stepwise,
    make_batch,
    make_gpu,
    observe,
    stepwise_launch,
)
from tests.conftest import random_qubo

M, C, R, P, T = (
    MainAlgorithm.MAXMIN,
    MainAlgorithm.CYCLICMIN,
    MainAlgorithm.RANDOMMIN,
    MainAlgorithm.POSITIVEMIN,
    MainAlgorithm.TWONEIGHBOR,
)

N = 24
BATCH = 5


@pytest.fixture(scope="module", autouse=True)
def cuda_runtime():
    """Use the real ``numba.cuda`` when it can run (hardware or CUDASIM);
    otherwise swap in the stub for this module only.  A small block width
    keeps the threaded stub and the simulator fast while still exercising
    the tree reductions."""
    from repro.backends import _lookup

    _lookup("cuda")  # materialize the lazy registration
    mp = pytest.MonkeyPatch()
    if not cuda_mod.CudaBackend.is_available():
        mp.setattr(cuda_mod, "cuda", cuda_stub)
        mp.setattr(cuda_mod, "_CUDA_IMPORT_ERROR", None)
    mp.setenv(cuda_mod._TPB_ENV, "4")
    cuda_mod._clear_kernel_cache()
    yield
    mp.undo()
    cuda_mod._clear_kernel_cache()


def dense_model():
    return random_qubo(N, seed=3, density=0.4)


def sparse_model():
    return SparseQUBOModel.from_dense(dense_model())


def stepwise_search(model, backend):
    """One stepwise MaxMin batch search; every observable of it."""
    config = BatchSearchConfig(batch_flip_factor=2.0, tabu_period=8)
    state = BatchDeltaState(model, batch=BATCH, backend=backend)
    host = np.random.default_rng(6)
    state.reset(host.integers(0, 2, size=(BATCH, model.n), dtype=np.uint8))
    lanes = XorShift64Star(spawn_device_seeds(host_generator(5), (BATCH, model.n)))
    targets = host.integers(0, 2, size=(BATCH, model.n), dtype=np.uint8)
    tracker, flips = run_batch_search(state, targets, MaxMinSearch(), lanes, config)
    return {
        "x": state.x.copy(),
        "energy": state.energy.copy(),
        "flips": flips,
        "best_x": tracker.best_x.copy(),
        "best_energy": tracker.best_energy.copy(),
        "greedy_truncated": tracker.greedy_truncated.copy(),
        "lanes": lanes.state.copy(),
    }


def assert_same_trajectory(ref, got, label):
    for key, expected in ref.items():
        assert np.array_equal(got[key], expected), f"{key} diverged for {label}"


@pytest.mark.parametrize("algorithm", list(MainAlgorithm), ids=lambda a: a.name)
@pytest.mark.parametrize("tabu_period", [0, 8])
def test_cuda_launch_matches_numpy_stepwise(algorithm, tabu_period):
    """Full searches on the device kernels are bit-exact vs the reference."""
    assert_same(*launch_vs_stepwise(dense_model(), algorithm, "cuda", tabu_period, "numpy-dense"))


@pytest.mark.parametrize("algorithm", list(MainAlgorithm), ids=lambda a: a.name)
@pytest.mark.parametrize("tabu_period", [0, 8])
def test_cuda_sparse_ell_matches_reference(algorithm, tabu_period):
    """The ELL coupling path on the device matches the CSR host reference."""
    assert_same(*launch_vs_stepwise(sparse_model(), algorithm, "cuda", tabu_period, "numpy-sparse"))


def test_cuda_sparse_csr_matches_reference(monkeypatch):
    """Degree-skewed graphs (no ELL) use the CSR-range device path."""
    import repro.backends.numpy_sparse as nps

    monkeypatch.setattr(nps, "_ELL_MAX_BLOWUP", 0.0)
    model = sparse_model()
    assert cuda_mod.CudaBackend().prepare(model).storage == cuda_mod._STORAGE_CSR
    assert_same(*launch_vs_stepwise(model, M, "cuda", 8, "numpy-sparse"))


def test_cuda_wide_tabu_all_tabu_fallback():
    """tabu_period ≥ n exercises the all-tabu full-fallback branch."""
    assert_same(*launch_vs_stepwise(dense_model(), M, "cuda", N + 6, "numpy-dense"))


def test_cuda_tpb_one_degenerate_block(monkeypatch):
    """A one-thread block degenerates every reduction; still bit-exact."""
    monkeypatch.setenv(cuda_mod._TPB_ENV, "1")
    assert_same(*launch_vs_stepwise(dense_model(), M, "cuda", 8, "numpy-dense"))


class TestPackedCuda:
    """cuda devices pack: the per-row tabu clock lets one super-launch
    stack several devices' rows, every algorithm mixed."""

    #: three launches in a row, all five algorithms mixed per device
    ROUNDS = [
        ([M, C, R, P, T], [T, P, C, M, R]),
        ([R, R, T, M, C], [M, C, P, T, R]),
        ([C, T, M, P, R], [P, M, R, C, T]),
    ]

    def devices(self, backend, tabu_period, blocks, seeds):
        model = dense_model()
        config = BatchSearchConfig(tabu_period=tabu_period, cyclicmin_c=8, randommin_c=8)
        prepared = prepare_problem(model, backend)
        assert prepared.backend.name == backend
        return [
            make_gpu(model, b, config, seed=seed, backend=prepared.backend, kernel=prepared.kernel)
            for b, seed in zip(blocks, seeds)
        ]

    def check_packed(self, tabu_period, blocks, seeds):
        packed = self.devices("cuda", tabu_period, blocks, seeds)
        assert len({gpu.pack_key for gpu in packed}) == 1
        solo = self.devices("numpy-dense", tabu_period, blocks, seeds)
        oracle = self.devices("numpy-dense", tabu_period, blocks, seeds)
        scratch = {}
        for i, algs in enumerate(self.ROUNDS):
            batches = [
                make_batch(alg_row[: gpu.num_blocks], N, seed=10 * i + d)
                for d, (gpu, alg_row) in enumerate(zip(packed, algs))
            ]
            pack = SuperLaunch(
                [
                    PackSegment(d, i, gpu, batch, None)
                    for d, (gpu, batch) in enumerate(zip(packed, batches))
                ]
            )
            results = pack.run(scratch)
            for d, res in enumerate(results):
                got = observe(packed[d], (res.result, res.flips))
                assert_same(got, observe(solo[d], solo[d].launch(batches[d])))
                assert_same(got, observe(oracle[d], stepwise_launch(oracle[d], batches[d])))
        assert all(gpu.algorithms[C]._cursor is not None for gpu in packed)

    @pytest.mark.parametrize("tabu_period", [0, 8], ids=["no-tabu", "tabu"])
    def test_two_devices_pack_bit_exact(self, tabu_period):
        """One job's two devices as one super-launch per round."""
        self.check_packed(tabu_period, blocks=[5, 5], seeds=[5, 5])

    @pytest.mark.parametrize("tabu_period", [0, 8], ids=["no-tabu", "tabu"])
    def test_two_jobs_pack_bit_exact(self, tabu_period):
        """Two jobs' devices — other seeds, other block counts — as one
        super-launch per round."""
        self.check_packed(tabu_period, blocks=[5, 3], seeds=[5, 9])

    def test_served_job_packs_and_matches_direct_solve(self):
        """A served virtual-time cuda job packs its round on one lane and
        equals the direct solve."""
        from dataclasses import replace

        from repro.service import SolveService
        from repro.solver.dabs import DABSConfig, DABSSolver

        model = random_qubo(12, seed=5, density=0.5)
        cfg = DABSConfig(num_gpus=2, blocks_per_gpu=3, pool_capacity=8, backend="cuda")
        rounds = 3
        direct_solver = DABSSolver(model, cfg, seed=7)
        direct = direct_solver.solve(max_rounds=rounds)
        via_solver = DABSSolver(model, replace(cfg, virtual_time=True), seed=7)
        with SolveService(cfg.num_gpus) as service:
            via = via_solver.solve(service=service, max_rounds=rounds)
            coalesce = service.stats_snapshot().coalesce
        assert {gpu.backend.name for gpu in via_solver.gpus} == {"cuda"}
        assert coalesce.packs == rounds > 0
        assert sorted(coalesce.lane_packs) == [0, rounds]
        assert via.best_energy == direct.best_energy
        assert np.array_equal(via.best_vector, direct.best_vector)
        assert via.total_flips == direct.total_flips
        for a, b in zip(direct_solver.gpus, via_solver.gpus):
            assert np.array_equal(a.block_x, b.block_x)
            assert np.array_equal(a.rng_state, b.rng_state)

    def test_fractional_model_refused(self):
        from repro.core.qubo import QUBOModel
        from repro.gpu.device import DeviceSpec
        from repro.gpu.virtual_gpu import VirtualGPU

        mat = np.zeros((4, 4))
        mat[0, 1] = 1.5
        with pytest.raises(ValueError, match="integer weights"):
            VirtualGPU(
                QUBOModel(mat, name="f"),
                DeviceSpec(num_blocks=2),
                BatchSearchConfig(),
                tuple(MainAlgorithm),
                host_generator(0),
                backend="cuda",
            )


class TestLargeNRngParity:
    """Integer-key RNG parity at large n (the int64-guard edge of PR 3):
    keys stay 53-bit exact and every lane advances in canonical order even
    when n is far beyond the block width (here 521 lanes over 4 threads,
    with a non-divisible remainder)."""

    N_LARGE = 521

    def run_main(self, backend, algorithm_cls, iters=6):
        n = self.N_LARGE
        model = random_qubo(n, seed=11, density=0.05)
        state = BatchDeltaState(model, batch=2, backend=backend)
        host = np.random.default_rng(4)
        state.reset(host.integers(0, 2, size=(2, n), dtype=np.uint8))
        lanes = XorShift64Star(spawn_device_seeds(host_generator(9), (2, n)))
        tabu = TabuTracker(2, n, 8)
        tracker = BestTracker(state)
        alg = algorithm_cls()
        alg.begin(state, iters)
        spec = alg.lower(state, iters)
        flips = state.backend.run_main_phase(state, spec, iters, lanes, tabu, tracker)
        return {
            "x": state.x.copy(),
            "energy": state.energy.copy(),
            "delta": state.delta.copy(),
            "flips": flips,
            "stamps": tabu.stamps.copy(),
            "best_x": tracker.best_x.copy(),
            "best_energy": tracker.best_energy.copy(),
            "lanes": lanes.state.copy(),
        }

    @pytest.mark.parametrize("algorithm_cls", [MaxMinSearch, RandomMinSearch])
    def test_main_phase_parity(self, algorithm_cls):
        ref = self.run_main("numpy-dense", algorithm_cls)
        got = self.run_main("cuda", algorithm_cls)
        assert_same_trajectory(ref, got, f"{algorithm_cls.__name__} (n=521)")


class TestGreedyTruncation:
    """`greedy_truncations` surface identically on the cuda path."""

    def run_greedy(self, backend, max_iters):
        model = dense_model()
        state = BatchDeltaState(model, batch=3, backend=backend)
        state.reset(np.ones((3, model.n), dtype=np.uint8))
        tabu = TabuTracker(3, model.n, 8)
        tracker = BestTracker(state)
        flips, truncated = state.backend.run_greedy_phase(
            state, tabu, tracker, max_iters=max_iters
        )
        return state, flips, truncated

    def test_truncated_descent_warns_flags_and_matches(self):
        with pytest.warns(GreedyTruncationWarning):
            state, flips, truncated = self.run_greedy("cuda", 1)
        with pytest.warns(GreedyTruncationWarning):
            ref_state, ref_flips, ref_truncated = self.run_greedy("numpy-dense", 1)
        assert truncated.any()
        assert np.array_equal(truncated, ref_truncated)
        assert np.array_equal(flips, ref_flips)
        assert np.array_equal(state.x, ref_state.x)
        assert np.array_equal(state.energy, ref_state.energy)
        assert np.array_equal(truncated, ~state.is_local_minimum())

    def test_converged_descent_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, flips, truncated = self.run_greedy("cuda", None)
        assert not truncated.any()
        assert np.all(state.is_local_minimum())


class TestDeviceMemoryOwnership:
    def test_device_mirror_persists_across_phases(self):
        """Per-state device buffers are allocated once and re-staged."""
        model = dense_model()
        state = BatchDeltaState(model, batch=2, backend="cuda")
        state.reset(np.ones((2, model.n), dtype=np.uint8))
        tabu = TabuTracker(2, model.n, 8)
        tracker = BestTracker(state)
        state.backend.run_greedy_phase(state, tabu, tracker)
        mirror = state.device
        assert isinstance(mirror, cuda_mod._DeviceMirror)
        state.reset(np.ones((2, model.n), dtype=np.uint8))
        tracker.reset(state)
        state.backend.run_greedy_phase(state, tabu, tracker)
        assert state.device is mirror  # no reallocation churn

    def test_repeated_mixed_launch_builds_no_mirror(self, monkeypatch):
        """A super-launch's span and part windows keep their device
        mirrors: replaying a mixed-algorithm launch from the same device
        state walks the same windows and allocates nothing new."""
        built = []
        init = cuda_mod._DeviceMirror.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cuda_mod._DeviceMirror, "__init__", counting_init)
        config = BatchSearchConfig(batch_flip_factor=2.0, tabu_period=8)
        gpu = make_gpu(dense_model(), BATCH, config, backend="cuda", start=7)
        batch = make_batch([M, C, R, P, M], N, seed=3)
        x, lanes = gpu.block_x.copy(), gpu.rng_state.copy()
        first, _ = gpu.launch(batch)
        assert built
        cyclic = gpu.algorithms[C]
        cyclic._cursor = None  # replay from the same fresh cursor
        gpu.block_x[...], gpu.rng_state[...] = x, lanes
        count = len(built)
        again, _ = gpu.launch(batch)
        assert np.array_equal(again.vectors, first.vectors)
        assert len(built) == count

    def test_prepared_problem_carries_device_tables(self):
        """ProblemCache-style reuse: one upload, shared by many states."""
        model = dense_model()
        prep = prepare_problem(model, "cuda")
        assert isinstance(prep.kernel, cuda_mod._CudaKernel)
        s1 = BatchDeltaState(model, batch=2, backend=prep.backend, kernel=prep.kernel)
        s2 = BatchDeltaState(model, batch=3, backend=prep.backend, kernel=prep.kernel)
        assert s1.kernel is prep.kernel and s2.kernel is prep.kernel
        # attribute forwarding keeps the stepwise host paths working
        assert np.array_equal(prep.kernel.lin, np.asarray(model.linear))

    def test_stepwise_host_path_delegates(self):
        """Stepwise flips run on the host delegate, bit-exactly."""
        model = dense_model()
        ref = stepwise_search(model, "numpy-dense")
        got = stepwise_search(model, "cuda")
        assert_same_trajectory(ref, got, "MaxMinSearch (cuda stepwise)")


class TestRegistryAndConfig:
    def test_cuda_always_in_backend_names(self):
        assert "cuda" in backend_names()

    def test_cuda_available_under_runtime(self):
        assert "cuda" in available_backends()
        backend = get_backend("cuda")
        assert isinstance(backend, cuda_mod.CudaBackend)

    def test_unavailable_error_names_and_lists_backends(self, monkeypatch):
        monkeypatch.setattr(cuda_mod, "cuda", None)
        monkeypatch.setattr(
            cuda_mod, "_CUDA_IMPORT_ERROR", "No module named 'numba'"
        )
        with pytest.raises(BackendUnavailableError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "'cuda'" in message
        assert "registered:" in message and "available:" in message
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = resolve_backend("cuda", dense_model())
        assert backend.name == "numpy-dense"

    def test_config_accepts_cuda(self):
        from repro.solver.dabs import DABSConfig

        DABSConfig(backend="cuda")  # validates regardless of availability

    def test_tpb_env_validation(self, monkeypatch):
        monkeypatch.setenv(cuda_mod._TPB_ENV, "3")
        with pytest.raises(ValueError, match="power of two"):
            cuda_mod._threads_per_block()
        monkeypatch.setenv(cuda_mod._TPB_ENV, "2048")
        with pytest.raises(ValueError, match="power of two"):
            cuda_mod._threads_per_block()
        monkeypatch.delenv(cuda_mod._TPB_ENV)
        assert cuda_mod._threads_per_block() == cuda_mod._TPB_DEFAULT


def test_solver_end_to_end_matches_numpy():
    """DABSConfig(backend="cuda") solves bit-identically to numpy-dense."""
    from repro.solver.dabs import DABSConfig, DABSSolver

    model = random_qubo(12, seed=5, density=0.5)

    def solve(backend):
        config = DABSConfig(num_gpus=1, blocks_per_gpu=2, backend=backend)
        return DABSSolver(model, config, seed=7).solve(max_rounds=1)

    ref = solve("numpy-dense")
    got = solve("cuda")
    assert got.best_energy == ref.best_energy
    assert np.array_equal(got.best_vector, ref.best_vector)
