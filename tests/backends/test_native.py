"""The native backend: its loader, its phase bodies and its pack search.

The loader tests build into a fresh cache directory each (``tmp_path``)
with the host's own C compiler, so they also run where the suite itself
is run with ``CC=/nonexistent/cc``.  The phase tests hold each native
phase body against ``numpy-sparse``'s NumPy body on twin states whose
tabu history, vector clock and RNG lanes are random, bit for bit: ``x``,
energies, Δ, stamps, best memory, flips, lanes and the CyclicMin cursor.
The search tests hold a whole pack's one-call search against
numpy-sparse's wave loop on every committed observable.  The scan-boundary
tests repeat both at row lengths around the row scans' block widths, and
the fold-bound tests set the prior best exactly at the energy the fold
can reach.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailableError,
    auto_backend_name,
    available_backends,
    get_backend,
    prepare_problem,
    resolve_backend,
)
from repro.backends import base as base_mod
from repro.backends import native as native_mod
from repro.backends.base import ComputeBackend, GreedyTruncationWarning, search_phase_calls
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star, host_generator
from repro.core.sparse import SparseQUBOModel
from repro.engine.coalesce import PackSegment, SegmentResult, SuperLaunch, run_pack
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.search.batch import BatchSearchConfig, BestTracker
from repro.search.cyclicmin import CyclicMinSearch
from repro.search.maxmin import MaxMinSearch
from repro.search.positivemin import PositiveMinSearch
from repro.search.randommin import RandomMinSearch
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch
from tests.backends.launch_parity import assert_same, launch_vs_stepwise
from tests.conftest import random_qubo

SRC = Path(native_mod.__file__).resolve().parents[2]
HOST_CC = sysconfig.get_config_var("CC") or "cc"

needs_native = pytest.mark.skipif(
    "native" not in available_backends(), reason="the native kernels do not build here"
)


@pytest.fixture
def host_cc(monkeypatch, tmp_path):
    """The host's C compiler and an empty cache directory."""
    if shutil.which(HOST_CC.split()[0]) is None:
        pytest.skip(f"no C compiler {HOST_CC!r}")
    monkeypatch.setenv("CC", HOST_CC)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro"


def cache_files(cache: Path) -> list[str]:
    return sorted(path.name for path in cache.iterdir() if not path.name.endswith(".lock"))


def build_in_subprocess(env_cache: Path) -> subprocess.Popen:
    code = (
        "from repro.backends.native import _library\n"
        "lib = _library()\n"
        "assert not isinstance(lib, str), lib\n"
    )
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "CC": HOST_CC,
        "XDG_CACHE_HOME": str(env_cache),
        "PYTHONPATH": str(SRC),
    }
    return subprocess.Popen(
        [sys.executable, "-c", code], env=env, stderr=subprocess.PIPE, text=True
    )


class TestLoader:
    def test_cold_compile_loads_and_runs(self, host_cc):
        lib = native_mod._library()
        assert not isinstance(lib, str), lib
        files = cache_files(host_cc)
        assert len(files) == 2 and {Path(f).suffix for f in files} == {".so", ".sha256"}
        model = random_qubo(16, seed=3)
        assert_same(*launch_vs_stepwise(model, MainAlgorithm.MAXMIN, "native", 4, "numpy-sparse"))

    def test_two_processes_compiling_at_once_leave_one_library(self, host_cc):
        procs = [build_in_subprocess(host_cc.parent) for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        files = cache_files(host_cc)
        assert len(files) == 2, files  # one library and its digest, no temp files
        assert not isinstance(native_mod._library(), str)

    def test_truncated_library_is_rebuilt_not_loaded(self, host_cc):
        # built in another process: this one must never have mapped the
        # file it truncates
        proc = build_in_subprocess(host_cc.parent)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        (so,) = host_cc.glob("*.so")
        size = so.stat().st_size
        with open(so, "r+b") as handle:
            handle.truncate(size // 2)
        assert not isinstance(native_mod._library(), str)
        assert so.stat().st_size == size
        assert so.with_suffix(".sha256").read_text() == native_mod._digest_of(so)

    def test_a_changed_compiler_or_cache_directory_is_noticed(self, host_cc, monkeypatch):
        """The library is memoized on the environment's raw strings, so
        each new CC or XDG_CACHE_HOME looks the library up again."""
        lib = native_mod._library()
        assert not isinstance(lib, str), lib
        assert native_mod._library() is lib
        other = host_cc.parent / "other"
        monkeypatch.setenv("XDG_CACHE_HOME", str(other))
        moved = native_mod._library()
        assert not isinstance(moved, str) and moved is not lib
        assert len(cache_files(other / "repro")) == 2
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert "cannot build" in native_mod.NativeBackend.unavailable_reason()
        assert not native_mod.NativeBackend.is_available()
        monkeypatch.setenv("CC", HOST_CC)
        assert native_mod._library() is moved
        monkeypatch.setenv("XDG_CACHE_HOME", str(host_cc.parent))
        assert native_mod._library() is lib

    def test_no_compiler_means_numpy_rule_and_a_warned_fallback(self, no_native):
        assert "native" not in available_backends()
        assert "cannot build" in native_mod.NativeBackend.unavailable_reason()
        with pytest.raises(BackendUnavailableError, match="'native'"):
            get_backend("native")
        # the NumPy rule itself is pinned in test_registry.TestAutoRule
        sparse = SparseQUBOModel(10, {(0, 1): -2, (2, 2): 3})
        assert auto_backend_name(sparse) == "numpy-sparse"
        assert auto_backend_name(random_qubo(16, seed=0)) == "numpy-dense"
        with pytest.warns(RuntimeWarning, match="'native' is unavailable.*falling back"):
            assert resolve_backend("native", sparse).name == "numpy-sparse"

    def test_cli_backend_native_warns_and_falls_back(self, no_native, tmp_path, capsys):
        from repro.cli import main
        from repro.io.formats import write_qubo

        path = tmp_path / "m.qubo"
        write_qubo(path, random_qubo(12, seed=4))
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert main([str(path), "--rounds", "2", "--backend", "native"]) == 0
        assert "energy  : " in capsys.readouterr().out

    @needs_native
    def test_auto_picks_native_for_every_model(self):
        for model in (
            SparseQUBOModel(10, {(0, 1): -2, (2, 2): 3}),
            random_qubo(16, seed=0),
            random_qubo(300, seed=2, density=0.5),
        ):
            assert auto_backend_name(model) == "native"


# -- phase bodies against numpy-sparse ---------------------------------------
N = 24
ROWS = 6


def twins(model, period, seed, clock_spread=5, rows=ROWS):
    """Identical (state, tabu, tracker) triples on native and numpy-sparse,
    with random solutions, stamps and a vector clock."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(rows, model.n), dtype=np.uint8)
    clock = rng.integers(0, clock_spread + 1, size=rows) + period + 2
    # every stamp is of an earlier flip of its row
    stamps = rng.integers(-period - 1, clock[:, None], size=(rows, model.n))
    out = []
    for name in ("native", "numpy-sparse"):
        state = BatchDeltaState(model, rows, backend=name)
        state.reset(x)
        tabu = TabuTracker(rows, model.n, period)
        tabu.vectorize_clock()[...] = clock
        tabu.stamps[...] = stamps
        tracker = BestTracker(state)
        out.append((state, tabu, tracker))
    return out


def observed(state, tabu, tracker, *extra):
    return (state.x, state.energy, state.delta, tabu.stamps, tabu.clock,
            tracker.best_x, tracker.best_energy, *extra)


def assert_twins(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def model_for(dense):
    model = random_qubo(N, seed=11, density=0.5)
    return model if dense else SparseQUBOModel.from_dense(model)


ALGORITHMS = [MaxMinSearch, CyclicMinSearch, RandomMinSearch, PositiveMinSearch]


@needs_native
class TestPhaseParity:
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    @pytest.mark.parametrize("period", [0, 5])
    def test_straight(self, dense, period):
        model = model_for(dense)
        targets = np.random.default_rng(9).integers(0, 2, size=(ROWS, N), dtype=np.uint8)
        runs = []
        for state, tabu, tracker in twins(model, period, seed=1):
            flips = state.backend.run_straight_phase(state, targets, tabu, tracker)
            runs.append(observed(state, tabu, tracker, flips))
        assert_twins(*runs)

    @pytest.mark.parametrize("cap", [None, 1, 3])
    def test_greedy_with_and_without_cap(self, cap):
        runs = []
        for state, tabu, tracker in twins(model_for(True), 5, seed=2):
            state.reset(np.ones((ROWS, N), dtype=np.uint8))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                flips, truncated = state.backend.run_greedy_phase(state, tabu, tracker, cap)
            assert truncated.any() == (cap is not None)
            expected = [GreedyTruncationWarning] if cap is not None else []
            assert [w.category for w in caught] == expected
            runs.append(observed(state, tabu, tracker, flips, truncated))
        assert_twins(*runs)

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.__name__)
    @pytest.mark.parametrize("period", [0, 5, N, N + 7], ids=lambda p: f"period{p}")
    def test_main_one_kind(self, algorithm, period):
        """A vector clock and tabu history per row; ``period >= n`` takes
        every all-tabu fallback."""
        self.check_main([algorithm], period, iterations=2 * N)

    @pytest.mark.parametrize("period", [0, 6])
    def test_main_mixed_kinds_in_one_call(self, period):
        """A packed wave: one row-range part per kind, one native call."""
        self.check_main(ALGORITHMS, period, iterations=N + 3, rows_per_part=[1, 2, 1, 2])

    def test_main_fixed_sequence(self):
        self.check_main([TwoNeighborSearch], 4, iterations=2 * N - 1)

    @staticmethod
    def check_main(algorithms, period, iterations, rows_per_part=None, model=None,
                   all_tabu=False):
        """*all_tabu* stamps every bit one step before the clock, so with
        a period longer than the phase no bit is ever free."""
        model = model or model_for(True)
        rows_per_part = rows_per_part or [ROWS]
        total, n = sum(rows_per_part), model.n
        lanes0 = np.random.default_rng(5).integers(1, 2**63, size=(total, n), dtype=np.uint64)
        cursor0 = np.random.default_rng(6).integers(0, n, size=total)
        runs = []
        for state, tabu, tracker in twins(model, period, seed=3, rows=total):
            if all_tabu:
                tabu.stamps[...] = tabu.clock[:, None] - 1
            lanes = lanes0.copy()
            cursor = cursor0.copy()
            parts = []
            lo = 0
            for cls, rows in zip(algorithms, rows_per_part):
                alg = cls()
                window = state.row_window(lo, lo + rows)
                alg.begin(window, iterations)
                spec = alg.lower(window, iterations)
                if spec.cursor is not None:
                    spec = replace(spec, cursor=cursor[lo : lo + rows])
                parts.append((lo, lo + rows, spec, XorShift64Star.view(lanes[lo : lo + rows])))
                lo += rows
            flips = state.backend.run_main_phase(state, parts, iterations, None, tabu, tracker)
            runs.append(observed(state, tabu, tracker, flips, lanes, cursor))
        assert_twins(*runs)

    def test_threads_run_phases_at_once_bit_exactly(self):
        """More threads than cores, each running whole phases on its own
        state: the native calls run without the GIL and share no scratch,
        so every thread ends exactly where a serial run ends."""
        model = random_qubo(64, seed=21, density=0.3)
        targets = np.random.default_rng(1).integers(0, 2, size=(ROWS, 64), dtype=np.uint8)

        def run(seed):
            state = BatchDeltaState(model, ROWS, backend="native")
            state.reset(np.random.default_rng(seed).integers(0, 2, size=(ROWS, 64), dtype=np.uint8))
            tabu = TabuTracker(ROWS, 64, 6)
            tabu.vectorize_clock()
            tracker = BestTracker(state)
            lanes = XorShift64Star(np.arange(1, ROWS * 64 + 1, dtype=np.uint64).reshape(ROWS, 64))
            spec = MaxMinSearch().lower(state, 200)
            for _ in range(5):
                state.backend.run_straight_phase(state, targets, tabu, tracker)
                state.backend.run_greedy_phase(state, tabu, tracker)
                state.backend.run_main_phase(state, spec, 200, lanes, tabu, tracker)
            return observed(state, tabu, tracker, lanes.state)

        seeds = range(6)
        serial = [run(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                threaded = list(pool.map(run, seeds))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert_twins(a, b)



# -- the reset entry and the bound call arguments ------------------------------
def linear_model(dense):
    """A random model with linear terms and negative weights."""
    model = random_qubo(N, seed=17, density=0.4, wmax=1000)
    assert np.any(model.linear != 0)
    return model if dense else SparseQUBOModel.from_dense(model)


@needs_native
class TestReset:
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    def test_whole_state_matches_numpy_sparse(self, dense):
        model = linear_model(dense)
        x = np.random.default_rng(3).integers(0, 2, size=(ROWS, N), dtype=np.uint8)
        x[0] = 0
        x[1] = 1
        native, reference = (BatchDeltaState(model, ROWS, backend=name) for name in ("native", "numpy-sparse"))
        for state in (native, reference):
            state.reset(x)
        assert_twins((native.x, native.energy, native.delta), (reference.x, reference.energy, reference.delta))
        assert [model.energy(row) for row in x] == native.energy.tolist()

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    def test_row_windows_match_numpy_sparse(self, dense):
        """A window's reset rewrites its own rows only, through the window's
        own bound arguments."""
        model = linear_model(dense)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(ROWS, N), dtype=np.uint8)
        runs = []
        for name in ("native", "numpy-sparse"):
            state = BatchDeltaState(model, ROWS, backend=name)
            state.reset(x)
            for lo, hi in [(1, 4), (4, 6), (1, 4)]:
                window = state.row_window(lo, hi)
                window.reset(np.random.default_rng(hi).integers(0, 2, size=(hi - lo, N), dtype=np.uint8))
            runs.append((state.x, state.energy, state.delta))
        assert_twins(*runs)


@needs_native
class TestBoundArgumentChecks:
    """The pointer checks run when a state's arguments are bound, and
    still refuse what they refused per call."""

    def run_greedy(self, state, tabu, tracker):
        return state.backend.run_greedy_phase(state, tabu, tracker)

    def test_wrong_dtype_is_refused(self):
        state, tabu, tracker = twins(model_for(True), 5, seed=1)[0]
        self.run_greedy(state, tabu, tracker)
        tabu._stamp = tabu.stamps.astype(np.int32)
        with pytest.raises(TypeError, match="C-contiguous int64, got int32"):
            self.run_greedy(state, tabu, tracker)

    def test_non_contiguous_is_refused(self):
        state, tabu, tracker = twins(model_for(True), 5, seed=1)[0]
        self.run_greedy(state, tabu, tracker)
        other = BestTracker(state)
        other.best_x = np.repeat(other.best_x, 2, axis=1)[:, ::2]
        with pytest.raises(TypeError, match="C-contiguous uint8"):
            self.run_greedy(state, tabu, other)

    def test_mis_shaped_is_refused(self):
        state, tabu, tracker = twins(model_for(True), 5, seed=1)[0]
        self.run_greedy(state, tabu, tracker)
        with pytest.raises(ValueError, match=r"shape \(6, 24\), got \(6, 23\)"):
            state.backend.run_straight_phase(state, state.x[:, :-1].copy(), tabu, tracker)
        short = TabuTracker(ROWS - 1, N, 5)
        short.vectorize_clock()
        with pytest.raises(ValueError, match=r"shape \(6, 24\), got \(5, 24\)"):
            self.run_greedy(state, short, tracker)

    def test_scalar_clock_goes_in_per_call(self):
        """A scalar clock is never bound: each call takes its current value."""
        runs = []
        for state, _, tracker in twins(model_for(True), 5, seed=2):
            tabu = TabuTracker(ROWS, N, 5)
            tabu.clock = 7
            targets = np.random.default_rng(8).integers(0, 2, size=(ROWS, N), dtype=np.uint8)
            state.backend.run_straight_phase(state, targets, tabu, tracker)
            state.backend.run_greedy_phase(state, tabu, tracker)
            runs.append(observed(state, tabu, tracker))
        assert_twins(*runs)


@needs_native
class TestRegrownScratch:
    def test_larger_pack_regrows_the_scratch_bit_exactly(self):
        """A 2-segment pack, a 4-segment pack that regrows the merged
        buffers, then a 2-segment pack again, on one scratch map: every
        device ends where its solo launches end."""
        from tests.engine.test_coalesce import assert_device_parity, make_batch, make_fleet

        n, blocks = 32, 5
        algs = list(MainAlgorithm)
        solo = make_fleet("native", n, blocks, 4)
        packed = make_fleet("native", n, blocks, 4)
        scratch = {}
        capacities = []
        for launch, count in enumerate((2, 4, 2)):
            batches = [make_batch(n, blocks, algs[j:] + algs[:j], seed=10 * launch + j) for j in range(count)]
            expected = [solo[j].launch(batches[j]) for j in range(count)]
            segments = [PackSegment(j, launch, packed[j], batches[j], None) for j in range(count)]
            for (result, flips), got in zip(expected, SuperLaunch(segments).run(scratch)):
                assert np.array_equal(result.vectors, got.result.vectors)
                assert np.array_equal(result.energies, got.result.energies)
                assert np.array_equal(flips, got.flips)
            for j in range(4):
                assert_device_parity(solo[j], packed[j])
            (buffers,) = scratch.values()
            capacities.append(buffers.capacity)
        assert capacities == [2 * blocks, 4 * blocks, 4 * blocks]


# -- the row split at g22 size ------------------------------------------------
#: a G22-like MaxCut QUBO and the 32 rows of one device: every phase call
#: here spreads its rows over the allowed CPUs (main phases of G22_STEPS)
G22_N = 512
G22_ROWS = 32
G22_STEPS = 96
ALL_KINDS = [*ALGORITHMS, TwoNeighborSearch]


def g22_model(dense):
    model = maxcut_to_qubo(g22_like(G22_N, seed=22))
    return model if dense else SparseQUBOModel.from_dense(model)


def allowed_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def split_run():
    """Straight, capped greedy, greedy and a mixed main phase on one g22
    state and its twin, as the observed arrays of each side."""
    model = g22_model(False)
    n = model.n
    targets = np.random.default_rng(9).integers(0, 2, size=(G22_ROWS, n), dtype=np.uint8)
    lanes0 = np.random.default_rng(5).integers(1, 2**63, size=(G22_ROWS, n), dtype=np.uint64)
    runs = []
    for state, tabu, tracker in twins(model, 20, seed=4, clock_spread=9, rows=G22_ROWS):
        backend = state.backend
        lanes = lanes0.copy()
        out = [backend.run_straight_phase(state, targets, tabu, tracker)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GreedyTruncationWarning)
            out += backend.run_greedy_phase(state, tabu, tracker, 5)
        out += backend.run_greedy_phase(state, tabu, tracker)
        parts, lo = [], 0
        for cls, rows in zip(ALL_KINDS, [7, 6, 7, 6, 6]):
            window = state.row_window(lo, lo + rows)
            alg = cls()
            alg.begin(window, G22_STEPS)
            spec = alg.lower(window, G22_STEPS)
            parts.append((lo, lo + rows, spec, XorShift64Star.view(lanes[lo : lo + rows])))
            lo += rows
        out.append(backend.run_main_phase(state, parts, G22_STEPS, None, tabu, tracker))
        runs.append([*observed(state, tabu, tracker, *out), lanes])
    return runs


@needs_native
class TestSplitPath:
    """Every phase at g22 size, where one call spreads its rows over the
    allowed CPUs, bit for bit against numpy-sparse."""

    def test_thread_rule(self):
        threads = native_mod._library().repro_threads
        cpus = allowed_cpus()
        # stream-sized calls: 16 rows at n = 96, a main phase of 2n iterations
        assert threads(16, 16 * 96 * 96) == 1
        assert threads(8, 8 * 96 * 191) == 1
        # g22-sized: a greedy descent (n / 8 steps a row), a straight walk
        assert threads(G22_ROWS, G22_ROWS * 512 * 64) == min(2, cpus)
        assert threads(G22_ROWS, G22_ROWS * 512 * 512) == min(G22_ROWS, cpus)
        # never more threads than rows
        assert threads(1, 1 << 40) == 1

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    def test_straight(self, dense):
        model = g22_model(dense)
        targets = np.random.default_rng(9).integers(0, 2, size=(G22_ROWS, G22_N), dtype=np.uint8)
        runs = []
        for state, tabu, tracker in twins(model, 20, seed=1, clock_spread=9, rows=G22_ROWS):
            flips = state.backend.run_straight_phase(state, targets, tabu, tracker)
            runs.append(observed(state, tabu, tracker, flips))
        assert_twins(*runs)

    @pytest.mark.parametrize("cap", [None, 5])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    def test_greedy_with_and_without_cap(self, dense, cap):
        runs = []
        for state, tabu, tracker in twins(g22_model(dense), 20, seed=2, rows=G22_ROWS):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                flips, truncated = state.backend.run_greedy_phase(state, tabu, tracker, cap)
            assert truncated.all() == (cap is not None)
            assert bool(caught) == (cap is not None)
            runs.append(observed(state, tabu, tracker, flips, truncated))
        assert_twins(*runs)

    @pytest.mark.parametrize("algorithm", ALL_KINDS, ids=lambda a: a.__name__)
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    def test_main_one_kind(self, dense, algorithm):
        TestPhaseParity.check_main(
            [algorithm], 20, G22_STEPS, rows_per_part=[G22_ROWS], model=g22_model(dense)
        )

    def test_main_mixed_kinds_in_one_call(self):
        TestPhaseParity.check_main(
            ALL_KINDS, 20, G22_STEPS, rows_per_part=[7, 6, 7, 6, 6], model=g22_model(False)
        )

    @pytest.mark.skipif(allowed_cpus() < 2, reason="needs two CPUs to differ from the default")
    def test_one_allowed_cpu_gives_identical_outputs(self, tmp_path):
        """A process pinned to one CPU runs every call on one thread and
        ends exactly where the spread calls end."""
        out = tmp_path / "pinned.npz"
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro.backends import native\n"
            "assert native._library().repro_threads(32, 1 << 40) == 1\n"
            "from tests.backends.test_native import split_run\n"
            "native_run, _ = split_run()\n"
            "np.savez(sys.argv[1], *native_run)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)])}
        done = subprocess.run(
            [sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        native_run, reference = split_run()
        with np.load(out) as pinned:
            assert_twins([pinned[f"arr_{k}"] for k in range(len(pinned.files))], native_run)
        assert_twins(native_run, reference)


# -- a pack's whole search in one call ------------------------------------------
TWO = MainAlgorithm.TWONEIGHBOR
MIXED = [
    list(MainAlgorithm),
    [MainAlgorithm.CYCLICMIN, TWO],
    [MainAlgorithm.RANDOMMIN],
    list(MainAlgorithm)[::-1],
]


def search_run(
    backend, model, blocks, alg_lists, tabu_period=8, flip_factor=1.0, launches=2, seed=7
):
    """Launch *launches* packs of one segment per entry of *alg_lists*
    (batches drawn from *seed*) on a fresh fleet of *backend*: every
    committed observable, and per launch the GreedyTruncationWarnings
    raised."""
    prepared = prepare_problem(model, backend)
    config = BatchSearchConfig(batch_flip_factor=flip_factor, tabu_period=tabu_period)
    gpus = [
        VirtualGPU(
            model, DeviceSpec(num_blocks=blocks), config, tuple(MainAlgorithm),
            host_generator(100 + i), backend=prepared.backend, kernel=prepared.kernel,
        )
        for i in range(len(alg_lists))
    ]
    rng = np.random.default_rng(seed)
    scratch, out, warned = {}, [], []
    for launch in range(launches):
        segments = []
        for j, algs in enumerate(alg_lists):
            batch = PacketBatch.void(
                rng.integers(0, 2, size=(blocks, model.n), dtype=np.uint8),
                np.array([int(algs[k % len(algs)]) for k in range(blocks)], dtype=np.uint8),
                rng.integers(0, 4, size=blocks, dtype=np.uint8),
            )
            segments.append(PackSegment(j, launch, gpus[j], batch, None))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            done = SuperLaunch(segments).run(scratch)
        warned.append(sum(w.category is GreedyTruncationWarning for w in caught))
        out += [a for res in done for a in (res.result.vectors, res.result.energies, res.flips)]
    for gpu in gpus:
        out += [
            gpu.block_x, gpu.rng_state,
            gpu.algorithms[MainAlgorithm.CYCLICMIN].export_cursor(blocks),
            np.array(
                [gpu.total_flips, gpu.greedy_truncations, gpu.truncation_events, gpu.launch_count]
            ),
        ]
    return out, warned


@pytest.fixture
def searches(monkeypatch):
    """Every run_search's (greedy, main) phases per cell and TwoNeighbor
    flags, and the phase-runner calls of the wave loop."""
    log = {"searches": [], "runner": np.zeros(3, dtype=np.int64)}
    for cls in (ComputeBackend, native_mod.NativeBackend):
        original = cls.run_search

        def search(self, cells, budget, _original=original):
            flips, greedies, mains = _original(self, cells, budget)
            log["searches"].append((self.name, greedies, mains, cells.two))
            return flips, greedies, mains

        monkeypatch.setattr(cls, "run_search", search)
    for k, name in enumerate(("run_straight_phase", "run_greedy_phase", "run_main_phase")):
        original = getattr(ComputeBackend, name)

        def phase(self, *args, _k=k, _original=original, **kwargs):
            log["runner"][_k] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ComputeBackend, name, phase)
    return log


@needs_native
class TestSearchParity:
    """Native run_search against numpy-sparse's wave loop, on whole packs:
    result packets, per-row flips, x, lanes, CyclicMin cursors and device
    counters, bit for bit, and the same phases per cell."""

    def check(self, searches, alg_lists, n=40, blocks=6, **kwargs):
        model = SparseQUBOModel.from_dense(random_qubo(n, seed=31, density=0.3))
        reference, ref_warned = search_run("numpy-sparse", model, blocks, alg_lists, **kwargs)
        runner = searches["runner"].copy()
        ref_searches = searches["searches"][:]
        searches["searches"].clear()
        got, warned = search_run("native", model, blocks, alg_lists, **kwargs)
        assert_twins(got, reference)
        # native calls no runner, and its phase counts are the wave loop's
        assert (searches["runner"] == runner).all()
        assert len(searches["searches"]) == len(ref_searches)
        calls = np.zeros(3, dtype=np.int64)
        for (_, greedies, mains, two), (_, ref_greedies, ref_mains, _) in zip(
            searches["searches"], ref_searches
        ):
            assert np.array_equal(greedies, ref_greedies) and np.array_equal(mains, ref_mains)
            calls += search_phase_calls(greedies, mains, two)
        assert (calls == runner).all()
        return searches["searches"], warned, ref_warned

    @pytest.mark.parametrize("tabu_period", [0, 8], ids=["tabu-off", "tabu-on"])
    def test_mixed_pack_of_four_segments(self, searches, tabu_period):
        self.check(searches, MIXED, tabu_period=tabu_period)

    @pytest.mark.parametrize("tabu_period", [0, 8], ids=["tabu-off", "tabu-on"])
    def test_two_segment_pack(self, searches, tabu_period):
        self.check(searches, MIXED[:2], tabu_period=tabu_period)

    def test_twoneighbor_cells_only(self, searches):
        done, _, _ = self.check(searches, [[TWO], [TWO], [TWO]])
        for _, greedies, mains, two in done:
            assert two.all() and (mains == 1).all() and (greedies == 2).all()

    def test_one_cell_pack(self, searches):
        done, _, _ = self.check(searches, [[MainAlgorithm.MAXMIN]])
        assert all(greedies.size == 1 for _, greedies, _, _ in done)

    def test_cells_finish_in_different_waves(self, searches):
        done, _, _ = self.check(searches, MIXED, flip_factor=1.5)
        assert any(len(set(mains[~two].tolist())) > 1 for _, _, mains, two in done)

    def test_truncating_greedy_cap_warns_once_per_pack(self, searches, monkeypatch):
        # the cap both searches read: native's call and the wave loop's
        # greedy body
        for module in (native_mod, base_mod):
            monkeypatch.setattr(module, "greedy_iteration_cap", lambda n: 2)
        _, warned, ref_warned = self.check(searches, MIXED)
        assert warned == [1, 1]
        assert min(ref_warned) >= 1

    def test_searches_from_many_threads_at_once(self):
        """More Python threads than cores, each running g22-sized pack
        searches that spread over the CPUs themselves: the calls share no
        scratch, so every thread ends exactly where a serial run ends."""
        model = g22_model(False)

        def run(seed):
            return search_run("native", model, 16, MIXED[:2], flip_factor=0.3, seed=seed)[0]

        seeds = range(6)
        serial = [run(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                threaded = list(pool.map(run, seeds, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert_twins(a, b)

    def test_a_search_that_cannot_allocate_is_replanned(self, monkeypatch):
        """A search call that fails commits nothing: the pack re-plans as
        one-segment packs, which end where solo numpy-sparse launches end."""
        lib = native_mod._library()
        calls = []

        class FirstSearchFails:
            def __getattr__(self, name):
                return getattr(lib, name)

            def repro_search(self, *args):
                calls.append(args)
                return 1 if len(calls) == 1 else lib.repro_search(*args)

        monkeypatch.setattr(native_mod, "_library", FirstSearchFails)
        # the registry's backend keeps the library its last prepare bound
        monkeypatch.setitem(vars(get_backend("native")), "_lib", lib)
        model = SparseQUBOModel.from_dense(random_qubo(32, seed=5, density=0.3))
        fleets = {}
        for name in ("native", "numpy-sparse"):
            prepared = prepare_problem(model, name)
            fleets[name] = [
                VirtualGPU(
                    model, DeviceSpec(num_blocks=4), BatchSearchConfig(), tuple(MainAlgorithm),
                    host_generator(100 + j), backend=prepared.backend,
                    kernel=prepared.kernel,
                )
                for j in range(2)
            ]
        rng = np.random.default_rng(3)
        batches = [
            PacketBatch.void(
                rng.integers(0, 2, size=(4, 32), dtype=np.uint8),
                np.array([0, 1, 2, 4], dtype=np.uint8),
                np.zeros(4, dtype=np.uint8),
            )
            for _ in range(2)
        ]
        segments = [
            PackSegment(j, 0, gpu, batch, None)
            for j, (gpu, batch) in enumerate(zip(fleets["native"], batches))
        ]
        outcomes = run_pack(SuperLaunch(segments), {})
        assert len(calls) == 3  # the failed pack, then one search per segment
        for (_, done), gpu, ref, batch in zip(
            outcomes, fleets["native"], fleets["numpy-sparse"], batches
        ):
            assert isinstance(done, SegmentResult)
            result, flips = ref.launch(batch)
            assert_twins(
                (done.result.vectors, done.result.energies, done.flips, gpu.block_x, gpu.rng_state),
                (result.vectors, result.energies, flips, ref.block_x, ref.rng_state),
            )
            assert (gpu.total_flips, gpu.launch_count) == (ref.total_flips, ref.launch_count)

    def test_one_allowed_cpu_gives_identical_outputs(self, tmp_path):
        """A g22-sized mixed pack spreads its search over the allowed CPUs;
        pinned to one CPU it runs on one thread and ends exactly where the
        spread search and numpy-sparse's wave loop end."""
        out = tmp_path / "pinned.npz"
        code = (
            "import os, sys\n"
            "import numpy as np\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from tests.backends.test_native import g22_search\n"
            "np.savez(sys.argv[1], *g22_search('native'))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(SRC.parent)])}
        done = subprocess.run(
            [sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        spread = g22_search("native")
        with np.load(out) as pinned:
            assert_twins([pinned[f"arr_{k}"] for k in range(len(pinned.files))], spread)
        assert_twins(spread, g22_search("numpy-sparse"))


def g22_search(backend):
    """Two g22-sized packs of two 16-row mixed segments: the observables."""
    return search_run(backend, g22_model(False), 16, MIXED[:2], flip_factor=0.3)[0]


# -- row lengths at the scan blocks, and the fold's bound -----------------------
#: row lengths at and around the first-index blocks (16 or 32 entries),
#: row_min's 32 accumulators and the 512-bit vectors, up to g22 size
SCAN_NS = [1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 511, 512, 513]


def pm1_maxcut(n, seed=0):
    """A MaxCut QUBO on *n* nodes with ±1 weights and average degree about
    six: its Δ rows hold few distinct values, so most minimums tie and the
    first index has to win."""
    rng = np.random.default_rng(seed)
    edges = np.triu(rng.random((n, n)) < min(1.0, 6 / max(n - 1, 1)), 1)
    adjacency = edges * rng.choice(np.array([-1, 1]), size=(n, n))
    return SparseQUBOModel.from_dense(maxcut_to_qubo(adjacency + adjacency.T))


@needs_native
class TestScanBoundaries:
    """Every phase and a whole pack's search at row lengths around the scan
    widths, on tie-heavy rows, bit for bit against numpy-sparse."""

    ROWS = 4

    @pytest.mark.parametrize("n", SCAN_NS)
    def test_straight_and_greedy(self, n):
        model = pm1_maxcut(n)
        targets = np.random.default_rng(9).integers(0, 2, size=(self.ROWS, n), dtype=np.uint8)
        runs = []
        for state, tabu, tracker in twins(model, 3, seed=1, rows=self.ROWS):
            backend = state.backend
            out = [backend.run_straight_phase(state, targets, tabu, tracker)]
            out += backend.run_greedy_phase(state, tabu, tracker)
            runs.append(observed(state, tabu, tracker, *out))
        assert_twins(*runs)

    @pytest.mark.parametrize("period", [3, 10**6], ids=["tabu", "all-tabu"])
    @pytest.mark.parametrize("n", SCAN_NS)
    def test_main_each_kind(self, n, period):
        """One row per kind in one call, windows that wrap around the row;
        in the all-tabu case every bit is stamped just before the phase
        and the period outlasts it, so every step takes its kind's
        all-tabu fallback."""
        TestPhaseParity.check_main(
            ALL_KINDS, period, min(2 * n, 64), rows_per_part=[1] * len(ALL_KINDS),
            model=pm1_maxcut(n, seed=1), all_tabu=period > 64,
        )

    @pytest.mark.parametrize("n", SCAN_NS)
    def test_pack_search(self, n):
        model = pm1_maxcut(n, seed=2)
        got, reference = (
            search_run(name, model, 3, MIXED[:2], tabu_period=3, launches=1)[0]
            for name in ("native", "numpy-sparse")
        )
        assert_twins(got, reference)


def at_a_local_minimum(model, rows, name):
    """A state of *rows* greedy-descended rows on *name*, every Δ ≥ 0."""
    state = BatchDeltaState(model, rows, backend=name)
    state.reset(np.random.default_rng(5).integers(0, 2, size=(rows, model.n), dtype=np.uint8))
    tabu = TabuTracker(rows, model.n, 0)
    tabu.vectorize_clock()
    state.backend.run_greedy_phase(state, tabu, BestTracker(state))
    assert (state.delta >= 0).all()
    return state, tabu


@needs_native
class TestFoldBound:
    """The fold after one uphill flip from a local minimum, with the prior
    best set at the neighbour energy nb it can reach: nb == best must not
    fold and nb == best − 1 must.  Before the flip every Δ is ≥ 0, so only
    the flipped bit's new Δ, the negated old one, makes the neighbour
    reachable."""

    N = 64
    ROWS = 4

    def check(self, phase, margin):
        model = pm1_maxcut(self.N, seed=3)
        # the flipped bit, per row: one with a positive Δ
        probe, _ = at_a_local_minimum(model, self.ROWS, "numpy-sparse")
        bits = (probe.delta > 0).argmax(axis=1)
        assert (probe.delta[np.arange(self.ROWS), bits] > 0).all()
        after = probe.x.copy()
        after[np.arange(self.ROWS), bits] ^= 1
        probe.reset(after)
        nb = probe.energy + probe.delta.min(axis=1)
        # the best memory after the phase: the neighbour, or as it was set
        expected = np.zeros_like(after)
        if margin:
            expected[...] = after
            expected[np.arange(self.ROWS), probe.delta.argmin(axis=1)] ^= 1
        runs = []
        for name in ("native", "numpy-sparse"):
            state, tabu = at_a_local_minimum(model, self.ROWS, name)
            tracker = BestTracker(state)
            tracker.best_x[...] = 0
            tracker.best_energy[...] = nb + margin
            phase(state, tabu, tracker, bits)
            runs.append(observed(state, tabu, tracker))
            assert np.array_equal(tracker.best_energy, nb)
            assert np.array_equal(tracker.best_x, expected)
        assert_twins(*runs)

    @staticmethod
    def straight(state, tabu, tracker, bits):
        targets = state.x.copy()
        targets[np.arange(len(bits)), bits] ^= 1
        state.backend.run_straight_phase(state, targets, tabu, tracker)

    @staticmethod
    def sequence(state, tabu, tracker, bits):
        """A one-step fixed traversal (TwoNeighbor's kind) flipping each
        row's bit."""
        spec = TwoNeighborSearch().lower(state, 1)
        lanes = np.ones(state.x.shape, dtype=np.uint64)
        parts = []
        for r, bit in enumerate(bits.tolist()):
            one = replace(spec, sequence=np.array([bit], dtype=np.int64))
            parts.append((r, r + 1, one, XorShift64Star.view(lanes[r : r + 1])))
        state.backend.run_main_phase(state, parts, 1, None, tabu, tracker)

    @pytest.mark.parametrize("margin", [0, 1], ids=["nb-equals-best", "nb-below-best"])
    @pytest.mark.parametrize("phase", ["straight", "sequence"])
    def test_fold_at_the_neighbour_energy(self, phase, margin):
        self.check(getattr(self, phase), margin)
