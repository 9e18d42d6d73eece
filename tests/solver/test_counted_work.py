"""Counted-work pin: the exact kernel work of one fixed solve.

A fixed-seed DABS solve of the MaxCut QUBO of ``g22_like(128, seed=22)``
— 2 devices × 16 blocks, pool 100, two rounds — is run directly on each
numpy backend
and as a served virtual-time job.  Every count below is an exact figure
of that solve: fused phase calls per kind, launches, one-kernel passes
(super-launches) with their segments and rows, and flips.  A change to
the launch path that keeps results but adds phase calls, splits a pack
or changes a flip count moves one of these numbers, so the pin fails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.backends.base import ComputeBackend
from repro.engine.coalesce import SuperLaunch
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.service import SolveService
from repro.solver.dabs import DABSConfig, DABSSolver

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
}


def model():
    return maxcut_to_qubo(g22_like(128, seed=22), name="g22-128")


@pytest.fixture
def counted(monkeypatch):
    """Phase calls per kind, and (segments, rows) of every one-kernel pass."""
    calls: Counter = Counter()
    passes: list[tuple[int, int]] = []
    for name in PHASES:
        original = getattr(ComputeBackend, name)

        def phase(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ComputeBackend, name, phase)
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


@pytest.mark.parametrize("backend", sorted(EXPECTED))
def test_direct_solve_work_is_pinned(backend, counted):
    calls, passes = counted
    cfg = replace(CONFIG, backend=backend)
    result = DABSSolver(model(), cfg, seed=SEED).solve(max_rounds=ROUNDS)
    assert observed(calls, passes, result) == EXPECTED[backend]


@pytest.mark.parametrize("backend", sorted(EXPECTED))
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
