"""Backend parity: every backend must produce bit-identical trajectories.

The backends are only allowed to differ in *how* they compute, never in
*what*: for the same model and seed, the (vector, energy, flip-count)
trajectory must match across every available backend — on dense and
sparse models alike.  This is the
contract that lets ``auto`` switch kernels by density without changing
results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import available_backends
from repro.core.delta import BatchDeltaState
from repro.core.rng import XorShift64Star, host_generator, spawn_device_seeds
from repro.core.sparse import SparseQUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.search import build_main_algorithms
from repro.search.batch import BatchSearchConfig, run_batch_search
from repro.search.greedy import greedy_descent
from repro.search.straight import straight_walk
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

BACKENDS = sorted(available_backends())
NUMPY_BACKENDS = ["numpy-dense", "numpy-sparse"]

def dense_model(n=24, seed=3, density=0.4):
    return random_qubo(n, seed=seed, density=density)


def sparse_model(n=24, seed=3, density=0.4):
    return SparseQUBOModel.from_dense(dense_model(n, seed, density))


def trajectory(model, backend, flips=40, batch=5, seed=9):
    """Run a fixed masked flip sequence; return the full final state."""
    state = BatchDeltaState(model, batch=batch, backend=backend)
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        idx = rng.integers(0, model.n, size=batch)
        active = rng.random(batch) < 0.8
        state.flip(idx, active)
    return state.x.copy(), state.energy.copy(), state.delta.copy()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("make_model", [dense_model, sparse_model])
class TestKernelParity:
    def test_flip_trajectory_matches_dense_reference(self, backend, make_model):
        x_ref, e_ref, d_ref = trajectory(make_model(), "numpy-dense")
        x, e, d = trajectory(make_model(), backend)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(e, e_ref)
        assert np.array_equal(d, d_ref)

    def test_trajectory_consistent_with_recompute(self, backend, make_model):
        model = make_model()
        state = BatchDeltaState(model, batch=4, backend=backend)
        rng = np.random.default_rng(1)
        state.reset(rng.integers(0, 2, size=(4, model.n), dtype=np.uint8))
        for _ in range(30):
            state.flip(rng.integers(0, model.n, size=4))
        e, d = state.energy.copy(), state.delta.copy()
        state.recompute()
        assert np.array_equal(state.energy, e)
        assert np.array_equal(state.delta, d)

    def test_greedy_and_straight_loops_match(self, backend, make_model):
        model = make_model()
        rng = np.random.default_rng(2)
        start = rng.integers(0, 2, size=(6, model.n), dtype=np.uint8)
        targets = rng.integers(0, 2, size=(6, model.n), dtype=np.uint8)

        def run(b):
            state = BatchDeltaState(model, batch=6, backend=b)
            state.reset(start)
            f1 = straight_walk(state, targets)
            f2 = greedy_descent(state)
            return state.x.copy(), state.energy.copy(), f1 + f2

        x_ref, e_ref, f_ref = run("numpy-dense")
        x, e, f = run(backend)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(e, e_ref)
        assert np.array_equal(f, f_ref)

    def test_batch_search_trajectory_matches(self, backend, make_model):
        model = make_model()
        config = BatchSearchConfig(batch_flip_factor=2.0)

        def run(b):
            algorithm = next(iter(build_main_algorithms(config).values()))
            state = BatchDeltaState(model, batch=4, backend=b)
            lanes = XorShift64Star(
                spawn_device_seeds(host_generator(5), (4, model.n))
            )
            rng = np.random.default_rng(6)
            targets = rng.integers(0, 2, size=(4, model.n), dtype=np.uint8)
            tracker, flips = run_batch_search(
                state, targets, algorithm, lanes, config
            )
            return tracker.best_x.copy(), tracker.best_energy.copy(), flips

        x_ref, e_ref, f_ref = run("numpy-dense")
        x, e, f = run(backend)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(e, e_ref)
        assert np.array_equal(f, f_ref)


class TestSolverParity:
    """Acceptance: DABS runs bit-identically under every backend setting."""

    CFG = dict(
        num_gpus=2,
        blocks_per_gpu=4,
        pool_capacity=10,
        batch=BatchSearchConfig(batch_flip_factor=2.0),
    )

    def _solve(self, model, backend):
        cfg = DABSConfig(backend=backend, **self.CFG)
        return DABSSolver(model, cfg, seed=11).solve(max_rounds=4)

    @pytest.mark.parametrize("backend", ["numpy-sparse", "auto", None])
    def test_dense_model_identical_across_backends(self, backend):
        model = dense_model(n=18)
        ref = self._solve(model, "numpy-dense")
        res = self._solve(model, backend)
        assert res.best_energy == ref.best_energy
        assert np.array_equal(res.best_vector, ref.best_vector)
        assert res.total_flips == ref.total_flips

    @pytest.mark.parametrize("backend", ["numpy-dense", "auto"])
    def test_sparse_model_identical_across_backends(self, backend):
        model = sparse_model(n=18)
        ref = self._solve(model, "numpy-sparse")
        res = self._solve(model, backend)
        assert res.best_energy == ref.best_energy
        assert np.array_equal(res.best_vector, ref.best_vector)
        assert res.total_flips == ref.total_flips

    def test_env_var_selection_is_bit_exact(self, monkeypatch):
        model = dense_model(n=16)
        ref = self._solve(model, None)
        monkeypatch.setenv("REPRO_BACKEND", "numpy-sparse")
        res = self._solve(model, None)
        assert res.best_energy == ref.best_energy
        assert np.array_equal(res.best_vector, ref.best_vector)


class TestRowWindowFlip:
    """Flips through a mid-pack row window (the super-launch span shape):
    the sparse backend's flat ``row·n + col`` indexing must land on the
    window's rows, never on the rows before or after it."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_sparse_window_matches_dense_window(self, masked):
        model = random_qubo(30, seed=5, density=0.3)
        start = np.random.default_rng(2).integers(0, 2, size=(16, model.n))
        states = {}
        for backend in ("numpy-dense", "numpy-sparse"):
            state = BatchDeltaState(model, batch=16, backend=backend)
            state.reset(start)
            states[backend] = state
        assert states["numpy-sparse"].kernel.ell_cols is not None
        before = {
            name: (s.x.copy(), s.energy.copy(), s.delta.copy())
            for name, s in states.items()
        }
        windows = {name: s.row_window(3, 9) for name, s in states.items()}
        rng = np.random.default_rng(7)
        for _ in range(40):
            idx = rng.integers(0, model.n, size=6)
            active = rng.random(6) < 0.7 if masked else None
            for window in windows.values():
                window.flip(idx, active)
        dense, sparse = windows["numpy-dense"], windows["numpy-sparse"]
        assert np.array_equal(sparse.x, dense.x)
        assert np.array_equal(sparse.energy, dense.energy)
        assert np.array_equal(sparse.delta, dense.delta)
        sigma = sparse._scratch["sigma8"]
        assert np.array_equal(sigma, 2 * dense.x.astype(np.int8) - 1)
        for name, state in states.items():
            x0, e0, d0 = before[name]
            outside = np.r_[0:3, 9:16]
            assert np.array_equal(state.x[outside], x0[outside]), name
            assert np.array_equal(state.energy[outside], e0[outside]), name
            assert np.array_equal(state.delta[outside], d0[outside]), name
        state = states["numpy-sparse"]
        state.recompute()
        assert np.array_equal(state.delta[3:9], dense.delta)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    flips=st.integers(min_value=1, max_value=60),
)
def test_property_dense_sparse_kernels_bit_exact(seed, flips):
    """Any masked flip sequence gives identical states on both kernels."""
    model = random_qubo(12, seed=21, density=0.6)
    x1, e1, d1 = trajectory(model, "numpy-dense", flips=flips, seed=seed)
    x2, e2, d2 = trajectory(model, "numpy-sparse", flips=flips, seed=seed)
    assert np.array_equal(x1, x2)
    assert np.array_equal(e1, e2)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("backend", NUMPY_BACKENDS)
@pytest.mark.parametrize(
    "model",
    [
        random_qubo(30, seed=5, density=0.6),
        SparseQUBOModel.from_dense(random_qubo(30, seed=6, density=0.3)),
        maxcut_to_qubo(g22_like(64, seed=2)),
    ],
    ids=["dense", "sparse", "maxcut"],
)
def test_reset_energies_match_model_energy(backend, model):
    """Integer resets derive E from the Δ product; each row must equal
    the model's own energy of that vector."""
    rng = np.random.default_rng(8)
    xs = rng.integers(0, 2, size=(6, model.n), dtype=np.uint8)
    assert np.any(np.asarray(model.linear) != 0)
    state = BatchDeltaState(model, batch=6, backend=backend)
    state.reset(xs)
    assert state.energy.dtype == np.int64
    assert state.energy.tolist() == [model.energy(x) for x in xs]
