"""Mixed-algorithm main waves (DESIGN.md §12).

A packed round runs the main phases of all its non-TwoNeighbor cells as
one lockstep loop per contiguous span of running cells: each
same-algorithm run of cells is one row-range part of a single
``run_main_phase`` call, and one flip and one best-tracker fold per
iteration cover every part.  The contract under test: such rounds are
**bit-exact** against solo launches (a row budget of one device) — the
result, history, pools, ``block_x``, RNG lanes and CyclicMin cursor —
and the lockstep path is really taken (a silent per-algorithm fallback would also be bit-exact,
so the flip calls are pinned too).  ``native`` runs a pack's whole search
in one C call, which calls no phase runner: its packed solve is held
bit-exact against numpy-sparse's packed solve of the same model, each
pack's cells ran the same greedy and main phases in both, and those
counts give numpy-sparse's runner calls; the wave assertions then run
on numpy-sparse's waves.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.base import search_phase_calls
from repro.backends.spec import KIND_FIXED_SEQUENCE, SelectionSpec
from repro.core.packet import MainAlgorithm
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo, with_native
from tests.solver.test_round_packing import assert_bit_exact

N = 40
BACKENDS = with_native("numpy-dense", "numpy-sparse")
NON_TN = (
    MainAlgorithm.MAXMIN,
    MainAlgorithm.CYCLICMIN,
    MainAlgorithm.RANDOMMIN,
    MainAlgorithm.POSITIVEMIN,
)
NON_TN_KINDS = 4


def config(tabu_period, with_twoneighbor, backend, flip_factor=1.0):
    algs = NON_TN + ((MainAlgorithm.TWONEIGHBOR,) if with_twoneighbor else ())
    return DABSConfig(
        num_gpus=2,
        blocks_per_gpu=10,
        pool_capacity=10,
        batch=BatchSearchConfig(
            batch_flip_factor=flip_factor, tabu_period=tabu_period
        ),
        algorithm_set=algs,
        backend=backend,
    )


class WaveLog:
    """Phase calls of the packed solve, split into waves.

    A wave is the run of main-phase calls after a run of greedy calls
    (the executor's greedy → budget test → main loop); each main call is
    logged with its part kinds and the flips it issued.  ``calls``
    counts the (straight, greedy, main) runner calls, ``searches`` holds
    each pack's (greedy phases, main phases, TwoNeighbor flags) per cell.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.waves: list[list[dict]] = []
        self._in_main = False
        self.current: dict | None = None
        self.calls = np.zeros(3, dtype=np.int64)
        self.searches: list[tuple] = []

    def straight(self) -> None:
        self.calls[0] += 1

    def greedy(self) -> None:
        self.calls[1] += 1
        self._in_main = False

    def main(self, spec, iterations) -> dict:
        self.calls[2] += 1
        if not self._in_main:
            self.waves.append([])
            self._in_main = True
        if isinstance(spec, SelectionSpec):
            kinds = [spec.kind]
        else:
            kinds = [part[2].kind for part in spec]
        call = {"kinds": kinds, "iterations": iterations, "flips": 0}
        self.waves[-1].append(call)
        return call


@pytest.fixture
def wave_log(monkeypatch):
    # patched on the registry instances the solvers resolve to, calling
    # the class methods: instance attributes shadow class patches.  Set
    # in the instance __dict__, so undoing deletes them again (a
    # setattr undo would leave the old bound methods behind, shadowing
    # later class patches)
    log = WaveLog()
    for name in BACKENDS:
        backend = get_backend(name)
        cls = type(backend)

        def main_phase(state, spec, iterations, rng, tabu, tracker, _be=backend, _cls=cls):
            log.current = log.main(spec, iterations)
            try:
                return _cls.run_main_phase(_be, state, spec, iterations, rng, tabu, tracker)
            finally:
                log.current = None

        def straight_phase(*args, _be=backend, _cls=cls, **kwargs):
            log.straight()
            return _cls.run_straight_phase(_be, *args, **kwargs)

        def greedy_phase(*args, _be=backend, _cls=cls, **kwargs):
            log.greedy()
            return _cls.run_greedy_phase(_be, *args, **kwargs)

        def flip(state, idx, active=None, _be=backend, _cls=cls):
            if log.current is not None:
                log.current["flips"] += 1
            return _cls.flip(_be, state, idx, active)

        def search(cells, *args, _be=backend, _cls=cls, **kwargs):
            flips, greedies, mains = _cls.run_search(_be, cells, *args, **kwargs)
            log.searches.append((greedies, mains, cells.two))
            return flips, greedies, mains

        monkeypatch.setitem(vars(backend), "run_main_phase", main_phase)
        monkeypatch.setitem(vars(backend), "run_greedy_phase", greedy_phase)
        monkeypatch.setitem(vars(backend), "run_straight_phase", straight_phase)
        monkeypatch.setitem(vars(backend), "flip", flip)
        monkeypatch.setitem(vars(backend), "run_search", search)
    return log


def solve(model, cfg, packed, seed, rounds):
    """A direct solve; unpacked, the row budget of one device keeps every
    launch solo."""
    if not packed:
        cfg = replace(cfg, coalesce_max_rows=cfg.blocks_per_gpu)
    solver = DABSSolver(model, cfg, seed=seed)
    return solver, solver.solve(max_rounds=rounds)


def run_pair(wave_log, cfg, seed, rounds=3):
    """The packed solve's waves, after holding it bit-exact against solo
    launches; for ``native``, the waves of numpy-sparse's packed solve,
    after holding native's against it (see the module docstring)."""
    density = 0.3 if cfg.backend == "numpy-sparse" else 1.0
    model = random_qubo(N, seed=60 + seed, density=density)
    solo = solve(model, cfg, False, seed, rounds)
    wave_log.clear()
    packed = solve(model, cfg, True, seed, rounds)
    assert_bit_exact(*solo, *packed)
    if cfg.backend != "native":
        return wave_log.waves
    assert not wave_log.calls.any() and wave_log.searches
    searches = wave_log.searches
    wave_log.clear()
    reference = solve(model, replace(cfg, backend="numpy-sparse"), True, seed, rounds)
    assert_bit_exact(*reference, *packed)
    assert len(searches) == len(wave_log.searches)
    calls = np.zeros(3, dtype=np.int64)
    for (greedies, mains, two), (ref_greedies, ref_mains, ref_two) in zip(
        searches, wave_log.searches
    ):
        assert np.array_equal(greedies, ref_greedies) and np.array_equal(mains, ref_mains)
        assert np.array_equal(two, ref_two)
        calls += search_phase_calls(greedies, mains, two)
    assert (calls == wave_log.calls).all()
    return wave_log.waves


def assert_lockstep(waves, main_iters):
    """Every non-TwoNeighbor main call issued one flip per iteration,
    however many algorithms it mixed."""
    for wave in waves:
        for call in wave:
            if KIND_FIXED_SEQUENCE in call["kinds"]:
                assert call["kinds"] == [KIND_FIXED_SEQUENCE]
                continue
            assert call["iterations"] == main_iters
            assert call["flips"] == main_iters
            assert len(set(call["kinds"])) == len(call["kinds"])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("tabu_period", [0, 8])
@pytest.mark.parametrize("with_twoneighbor", [False, True])
def test_all_four_algorithms_share_a_wave(
    wave_log, backend, tabu_period, with_twoneighbor
):
    cfg = config(tabu_period, with_twoneighbor, backend, flip_factor=2.0)
    waves = run_pair(wave_log, cfg, seed=1)
    main_iters = cfg.batch.main_iterations(N)
    assert_lockstep(waves, main_iters)
    calls = [call for wave in waves for call in wave]
    # a wave runs every non-TwoNeighbor algorithm in one call: one part
    # per algorithm, in cell (algorithm) order
    assert any(len(call["kinds"]) == NON_TN_KINDS for call in calls)
    traversals = [c for c in calls if c["kinds"] == [KIND_FIXED_SEQUENCE]]
    assert bool(traversals) == with_twoneighbor


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("tabu_period", [0, 8])
def test_finished_cell_between_running_cells(wave_log, backend, tabu_period):
    # a small budget: cells finish after different numbers of waves, so
    # some wave has a finished cell between running ones and splits its
    # non-TwoNeighbor cells into two lockstep spans
    cfg = config(tabu_period, True, backend, flip_factor=0.6)
    waves = run_pair(wave_log, cfg, seed=5, rounds=4)
    main_iters = cfg.batch.main_iterations(N)
    assert_lockstep(waves, main_iters)
    split = [
        wave
        for wave in waves
        if sum(KIND_FIXED_SEQUENCE not in call["kinds"] for call in wave) >= 2
    ]
    assert split, "no wave had a finished cell between running cells"
