"""Counted-work pin: the exact kernel work of one fixed solve.

A fixed-seed DABS solve of the MaxCut QUBO of ``g22_like(128, seed=22)``
— 2 devices × 16 blocks, pool 100, two rounds — is run directly on each
backend and as a served virtual-time job.  Every count below is an exact figure
of that solve: fused phase calls per kind, launches, one-kernel passes
(super-launches) with their segments and rows, and flips.  A change to
the launch path that keeps results but adds phase calls, splits a pack
or changes a flip count moves one of these numbers, so the pin fails.

The NumPy backends run the wave loop, so their phase calls are counted
at the three public runners.  ``native`` runs a pack's whole search in
one C call, which writes each cell's greedy and main phase counts; its
phase calls are the ones the wave loop would have made for those counts
(:func:`~repro.backends.base.search_phase_calls`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.backends import available_backends
from repro.backends.base import ComputeBackend, search_phase_calls
from repro.engine.coalesce import SuperLaunch
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.service import SolveService
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import with_native

PHASES = ("run_straight_phase", "run_greedy_phase", "run_main_phase")
CONFIG = DABSConfig(num_gpus=2, blocks_per_gpu=16, pool_capacity=100)
ROUNDS = 2
SEED = 22

#: per backend: straight, greedy and main phase calls; launches; one-kernel
#: passes with their segment and row counts; total flips; best energy
EXPECTED = {
    "numpy-dense": dict(
        straight=2, greedy=14, main=14, launches=4, passes=2,
        segments=4, rows=64, flips=12250, energy=-839,
    ),
    "numpy-sparse": dict(
        straight=2, greedy=14, main=14, launches=4, passes=2,
        segments=4, rows=64, flips=12250, energy=-839,
    ),
    "native": dict(
        straight=2, greedy=14, main=14, launches=4, passes=2,
        segments=4, rows=64, flips=12250, energy=-839,
    ),
}
#: the pinned backends this host runs (native needs a C compiler)
PINNED = sorted(with_native("numpy-dense", "numpy-sparse"))


def model():
    return maxcut_to_qubo(g22_like(128, seed=22), name="g22-128")


@pytest.fixture
def counted(monkeypatch):
    """Phase calls per kind, and (segments, rows) of every one-kernel pass;
    native's from the phase counts its search writes."""
    calls: Counter = Counter()
    passes: list[tuple[int, int]] = []
    for name in PHASES:
        original = getattr(ComputeBackend, name)

        def phase(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ComputeBackend, name, phase)
    if "native" in available_backends():
        from repro.backends.native import NativeBackend

        search = NativeBackend.run_search

        def counted_search(self, cells, *args, **kwargs):
            flips, greedies, mains = search(self, cells, *args, **kwargs)
            for name, count in zip(PHASES, search_phase_calls(greedies, mains, cells.two)):
                calls[name] += count
            return flips, greedies, mains

        monkeypatch.setattr(NativeBackend, "run_search", counted_search)
    run = SuperLaunch.run

    def counted_run(self, scratch_map):
        passes.append((len(self.segments), self.total_rows))
        return run(self, scratch_map)

    monkeypatch.setattr(SuperLaunch, "run", counted_run)
    return calls, passes


def observed(calls, passes, result):
    return dict(
        straight=calls["run_straight_phase"],
        greedy=calls["run_greedy_phase"],
        main=calls["run_main_phase"],
        launches=result.launches,
        passes=len(passes),
        segments=sum(segments for segments, _ in passes),
        rows=sum(rows for _, rows in passes),
        flips=result.total_flips,
        energy=result.best_energy,
    )


@pytest.mark.parametrize("backend", PINNED)
def test_direct_solve_work_is_pinned(backend, counted):
    calls, passes = counted
    cfg = replace(CONFIG, backend=backend)
    result = DABSSolver(model(), cfg, seed=SEED).solve(max_rounds=ROUNDS)
    assert observed(calls, passes, result) == EXPECTED[backend]


@pytest.mark.parametrize("backend", PINNED)
def test_served_job_work_is_pinned(backend, counted):
    """The served virtual-time job does the direct solve's work, as one
    pack per round on one lane."""
    calls, passes = counted
    cfg = replace(CONFIG, backend=backend, virtual_time=True)
    solver = DABSSolver(model(), cfg, seed=SEED)
    with SolveService(CONFIG.num_gpus) as service:
        result = solver.solve(service=service, max_rounds=ROUNDS)
        coalesce = service.stats_snapshot().coalesce
    assert observed(calls, passes, result) == EXPECTED[backend]
    assert (coalesce.packs, coalesce.segments) == (ROUNDS, ROUNDS * CONFIG.num_gpus)
    assert sorted(coalesce.lane_packs) == [0, ROUNDS]


@pytest.mark.skipif("native" not in PINNED, reason="needs the native backend")
def test_native_direct_solve_resets_nothing(monkeypatch):
    """Every launch of the pinned solve gathers its devices' resident Δ
    rows (a fresh device's: the linear term), so no Δ reset runs."""
    from repro.backends.native import NativeBackend

    resets = []
    compute = NativeBackend._compute_from_x

    def counted_reset(self, state):
        resets.append(state.batch)
        return compute(self, state)

    monkeypatch.setattr(NativeBackend, "_compute_from_x", counted_reset)
    result = DABSSolver(model(), replace(CONFIG, backend="native"), seed=SEED).solve(
        max_rounds=ROUNDS
    )
    assert result.total_flips == EXPECTED["native"]["flips"]
    assert resets == []
