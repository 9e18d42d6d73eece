"""Closed-form TwoNeighbor traversal: bit-exact with the per-flip loop.

A full traversal on an integer model runs as one closed-form kernel
(:mod:`repro.backends.traversal`) instead of ``2n − 1`` flip-and-fold
steps.  These tests hold the two together on every observable the phase
touches — x, energy, Δ, the sparse σ cache, the best tracker, the tabu
stamps and the clock — and pin which path runs, so a silent fallback to
the loop cannot go unnoticed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.traversal import (
    EllTraversal,
    last_flip_steps,
    two_neighbor_flip_sequence,
)
from repro.core.delta import BatchDeltaState
from repro.core.qubo import QUBOModel
from repro.core.sparse import SparseQUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo, random_complete_graph
from repro.search.batch import BestTracker
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch
from tests.conftest import random_qubo

NUMPY_BACKENDS = ["numpy-dense", "numpy-sparse"]


def maxcut_model(n: int) -> QUBOModel:
    """MaxCut QUBO: unit or ±1 weights, so Δ ties are everywhere."""
    if n < 8:
        return maxcut_to_qubo(random_complete_graph(n, seed=n))
    return maxcut_to_qubo(g22_like(n, seed=n))


def qubo_model(n: int) -> QUBOModel:
    """Random integer QUBO with linear terms (fully coupled when tiny)."""
    return random_qubo(n, seed=n + 1, density=1.0 if n < 8 else 0.5)


def phase_setup(model, backend, batch, tabu_period, vector_clock, seed=0):
    """A state mid-search: random start, a few incremental flips, live
    stamps and clock, and a best tracker that has folded the start."""
    rng = np.random.default_rng(seed)
    state = BatchDeltaState(model, batch=batch, backend=backend)
    state.reset(rng.integers(0, 2, size=(batch, model.n), dtype=np.uint8))
    for _ in range(3):
        state.flip(rng.integers(0, model.n, size=batch))
    tabu = TabuTracker(batch, model.n, tabu_period)
    tabu.stamps[...] = rng.integers(-20, 10, size=tabu.stamps.shape)
    tabu.clock = 11
    if vector_clock:
        tabu.vectorize_clock()[...] = rng.integers(5, 40, size=batch)
    tracker = BestTracker(state)
    tracker.fold(state)
    return state, tabu, tracker


def observables(state, tabu, tracker) -> dict:
    sigma = state._scratch.get("sigma8")
    return {
        "x": state.x.copy(),
        "energy": state.energy.copy(),
        "delta": state.delta.copy(),
        "sigma8": None if sigma is None else sigma.copy(),
        "best_x": tracker.best_x.copy(),
        "best_energy": tracker.best_energy.copy(),
        "stamps": tabu.stamps.copy(),
        "clock": np.array(tabu.clock, copy=True),
    }


def traverse(model, backend, batch, tabu_period, vector_clock, closed_form,
             prior_best=None):
    state, tabu, tracker = phase_setup(
        model, backend, batch, tabu_period, vector_clock
    )
    if prior_best is not None:
        tracker.best_energy[...] = prior_best
    search = TwoNeighborSearch()
    iterations = search.num_iterations(model.n)
    spec = search.lower(state, iterations)
    be = state.backend
    if closed_form:
        assert state.kernel.traversal is not None
        be.run_main_phase(state, spec, iterations, None, tabu, tracker)
    else:
        be._fixed_sequence_loop(state, spec, iterations, tabu, tracker)
    return observables(state, tabu, tracker)


def assert_same(got: dict, ref: dict, label: str) -> None:
    for key, expected in ref.items():
        if expected is None:
            assert got[key] is None, f"{key} appeared ({label})"
            continue
        assert np.array_equal(got[key], expected), f"{key} diverged ({label})"


@pytest.mark.parametrize("backend", NUMPY_BACKENDS)
@pytest.mark.parametrize(
    "tabu_period, vector_clock", [(0, False), (8, False), (8, True)]
)
@pytest.mark.parametrize("batch", [1, 7, 16])
@pytest.mark.parametrize("n", [2, 3, 33, 512])
@pytest.mark.parametrize("make_model", [qubo_model, maxcut_model])
def test_closed_form_matches_loop(
    backend, tabu_period, vector_clock, batch, n, make_model
):
    model = make_model(n)
    args = (model, backend, batch, tabu_period, vector_clock)
    ref = traverse(*args, closed_form=False)
    got = traverse(*args, closed_form=True)
    assert_same(got, ref, f"{make_model.__name__} n={n} B={batch} {backend}")


@pytest.mark.parametrize("backend", NUMPY_BACKENDS)
@pytest.mark.parametrize("n", [3, 33])
def test_prior_best_below_every_state_keeps_tracker(backend, n):
    model = maxcut_model(n)
    floor = -(10**9)
    ref = traverse(model, backend, 7, 8, False, False, prior_best=floor)
    got = traverse(model, backend, 7, 8, False, True, prior_best=floor)
    assert_same(got, ref, f"n={n} {backend}")
    assert np.all(got["best_energy"] == floor)


@pytest.mark.parametrize("batch", [1, 5])
def test_single_bit_model_matches_loop(batch):
    """n = 1: the traversal is one flip; only the dense kernel has tables."""
    model = random_qubo(1, seed=3)
    ref = traverse(model, "numpy-dense", batch, 8, True, False)
    got = traverse(model, "numpy-dense", batch, 8, True, True)
    assert_same(got, ref, f"n=1 B={batch}")


@pytest.mark.parametrize("n", [3, 33])
def test_sparse_model_input_matches_loop(n):
    model = SparseQUBOModel.from_dense(qubo_model(n))
    ref = traverse(model, "numpy-sparse", 7, 8, True, False)
    got = traverse(model, "numpy-sparse", 7, 8, True, True)
    assert_same(got, ref, f"sparse model n={n}")


def test_last_flip_steps_follow_the_sequence():
    for n in (1, 2, 3, 6, 33):
        seq = two_neighbor_flip_sequence(n)
        last = [int(np.flatnonzero(seq == bit).max()) for bit in range(n)]
        assert last_flip_steps(n).tolist() == last


def test_key_overflow_guard_refuses_the_tables():
    """Weights too large for the packed (value, index) keys keep the loop."""
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.full(2, 2**60, dtype=np.int64)
    ell_cols = indices.reshape(2, 1)
    ell_data = data.reshape(2, 1)
    lin = np.zeros(2, dtype=np.int64)
    assert EllTraversal.build(indptr, indices, data, ell_cols, ell_data, lin) is None


class TestWhichPathRuns:
    """One flip call per closed-form phase; 2n − 1 (or ``iterations``)
    whenever the phase keeps the per-flip loop."""

    @staticmethod
    def count_flips(monkeypatch, backend_name):
        be = get_backend(backend_name)
        calls = []
        real = type(be).flip

        def counted(state, idx, active=None):
            calls.append(1)
            real(be, state, idx, active)

        monkeypatch.setattr(be, "flip", counted)
        return calls

    @staticmethod
    def main_phase(model, backend, calls, iterations=None, batch=4):
        """Run one TwoNeighbor main phase; *calls* counts only its flips."""
        state, tabu, tracker = phase_setup(model, backend, batch, 8, False)
        search = TwoNeighborSearch()
        if iterations is None:
            iterations = search.num_iterations(model.n)
        spec = search.lower(state, iterations)
        calls.clear()
        state.backend.run_main_phase(state, spec, iterations, None, tabu, tracker)
        return observables(state, tabu, tracker)

    @pytest.mark.parametrize("backend", NUMPY_BACKENDS)
    def test_integer_full_traversal_is_one_flip(self, monkeypatch, backend):
        model = maxcut_model(33)
        calls = self.count_flips(monkeypatch, backend)
        self.main_phase(model, backend, calls)
        assert len(calls) == 1

    def test_float_model_keeps_the_loop(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = QUBOModel(np.triu(rng.normal(size=(9, 9))))
        state = BatchDeltaState(model, batch=2, backend="numpy-dense")
        assert state.kernel.traversal is None
        calls = self.count_flips(monkeypatch, "numpy-dense")
        self.main_phase(model, "numpy-dense", calls)
        assert len(calls) == 2 * model.n - 1

    @pytest.mark.parametrize("backend", NUMPY_BACKENDS)
    def test_partial_traversal_keeps_the_loop(self, monkeypatch, backend):
        model = maxcut_model(33)
        calls = self.count_flips(monkeypatch, backend)
        self.main_phase(model, backend, calls, iterations=10)
        assert len(calls) == 10

    def test_degree_skewed_sparse_model_keeps_the_loop(self, monkeypatch):
        """A star graph's ELL padding is refused, so there are no tables;
        the loop still runs the traversal and matches the dense kernel."""
        n = 40
        terms = {(0, j): 1 + j % 3 for j in range(1, n)}
        terms.update({(j, j): -j for j in range(n)})
        model = SparseQUBOModel(n, terms)
        state = BatchDeltaState(model, batch=2, backend="numpy-sparse")
        assert state.kernel.ell_cols is None
        assert state.kernel.traversal is None
        calls = self.count_flips(monkeypatch, "numpy-sparse")
        got = self.main_phase(model, "numpy-sparse", calls)
        assert len(calls) == 2 * n - 1
        ref = self.main_phase(model.to_dense(), "numpy-dense", [])
        for key in ("x", "energy", "delta", "best_x", "best_energy", "stamps"):
            assert np.array_equal(got[key], ref[key]), key


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
