"""TwoNeighbor traversal: the fused phase is bit-exact with the stepwise
reference.

A TwoNeighbor main phase flips the fixed ``2n − 1``-bit sequence.  Every
backend runs it through its fused phase runner
(:meth:`ComputeBackend.run_main_phase`); the stepwise reference
(:func:`repro.search.batch.run_main_phase`) does one ``select`` → flip →
stamp → fold round-trip per step.  These tests hold the two together on
every observable the phase touches — x, energy, Δ, the sparse σ cache, the
best tracker, the tabu stamps and the clock — and pin the number of flips
the numpy backends issue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, get_backend
from repro.core.delta import BatchDeltaState
from repro.core.qubo import QUBOModel
from repro.core.rng import XorShift64Star, host_generator, spawn_device_seeds
from repro.core.sparse import SparseQUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo, random_complete_graph
from repro.search.batch import BestTracker
from repro.search.batch import run_main_phase as stepwise_main_phase
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch
from tests.conftest import random_qubo

BACKENDS = sorted(available_backends())
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


def traverse(model, backend, batch, tabu_period, vector_clock, fused,
             prior_best=None, iterations=None):
    state, tabu, tracker = phase_setup(
        model, backend, batch, tabu_period, vector_clock
    )
    if prior_best is not None:
        tracker.best_energy[...] = prior_best
    search = TwoNeighborSearch()
    if iterations is None:
        iterations = search.num_iterations(model.n)
    # TwoNeighbor draws no random numbers, but the fused runners take lanes
    lanes = XorShift64Star(spawn_device_seeds(host_generator(1), (batch, model.n)))
    if fused:
        spec = search.lower(state, iterations)
        flips = state.backend.run_main_phase(
            state, spec, iterations, lanes, tabu, tracker
        )
    else:
        flips = stepwise_main_phase(state, search, iterations, lanes, tabu, tracker)
    assert np.all(np.asarray(flips) == iterations)
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
def test_fused_traversal_matches_stepwise(
    backend, tabu_period, vector_clock, batch, n, make_model
):
    model = make_model(n)
    args = (model, backend, batch, tabu_period, vector_clock)
    ref = traverse(*args, fused=False)
    got = traverse(*args, fused=True)
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
def test_single_bit_model_matches_stepwise(batch):
    """n = 1: the traversal is one flip of bit 0."""
    model = random_qubo(1, seed=3)
    ref = traverse(model, "numpy-dense", batch, 8, True, False)
    got = traverse(model, "numpy-dense", batch, 8, True, True)
    assert_same(got, ref, f"n=1 B={batch}")


@pytest.mark.parametrize("n", [3, 33])
def test_sparse_model_input_matches_stepwise(n):
    model = SparseQUBOModel.from_dense(qubo_model(n))
    ref = traverse(model, "numpy-sparse", 7, 8, True, False)
    got = traverse(model, "numpy-sparse", 7, 8, True, True)
    assert_same(got, ref, f"sparse model n={n}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("iterations", [1, 10, 64])
def test_partial_and_wrapped_traversals_match_stepwise(backend, iterations):
    """Budgets shorter than ``2n − 1`` stop mid-sequence; longer ones wrap
    round to bit 0 again, on every backend."""
    model = maxcut_model(33)
    ref = traverse(model, backend, 7, 8, True, False, iterations=iterations)
    got = traverse(model, backend, 7, 8, True, True, iterations=iterations)
    assert_same(got, ref, f"iterations={iterations} {backend}")


class TestTwoNeighborTraversal:
    """A numpy TwoNeighbor phase flips once per step on every layout, the
    CSR range path included."""

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
    def test_full_traversal_flips_once_per_step(self, monkeypatch, backend):
        model = maxcut_model(33)
        calls = self.count_flips(monkeypatch, backend)
        self.main_phase(model, backend, calls)
        assert len(calls) == 2 * 33 - 1

    @pytest.mark.parametrize("backend", NUMPY_BACKENDS)
    def test_partial_traversal_flips_once_per_step(self, monkeypatch, backend):
        model = maxcut_model(33)
        calls = self.count_flips(monkeypatch, backend)
        self.main_phase(model, backend, calls, iterations=10)
        assert len(calls) == 10

    def test_degree_skewed_sparse_model_keeps_the_loop(self, monkeypatch):
        """A star graph's ELL padding is refused, so the CSR range path
        runs the traversal; it still matches the dense kernel."""
        n = 40
        terms = {(0, j): 1 + j % 3 for j in range(1, n)}
        terms.update({(j, j): -j for j in range(n)})
        model = SparseQUBOModel(n, terms)
        state = BatchDeltaState(model, batch=2, backend="numpy-sparse")
        assert state.kernel.ell_cols is None
        calls = self.count_flips(monkeypatch, "numpy-sparse")
        got = self.main_phase(model, "numpy-sparse", calls)
        assert len(calls) == 2 * n - 1
        ref = self.main_phase(model.to_dense(), "numpy-dense", [])
        for key in ("x", "energy", "delta", "best_x", "best_energy", "stamps"):
            assert np.array_equal(got[key], ref[key]), key
