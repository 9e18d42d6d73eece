"""Packed rounds: a direct solve runs each round as fused super-launches.

A direct solve's one-job service puts a packable job's devices on one
lane and runs each round's pack-compatible devices as one
:class:`~repro.engine.coalesce.SuperLaunch` (DESIGN.md §3, §12).  The
contract under test: a packed solve is **bit-exact** against the same
solve with every launch solo (``coalesce_max_rows=blocks_per_gpu``, a
row budget of one device) — the result, the pools it leaves,
and every device's persistent state — and devices without a pack key
(proxies) keep launching solo.  A failing pack follows one rule on every path: the
failure cases run direct and through a threaded one-job service.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.backends import BackendFallbackWarning
from repro.core.packet import MainAlgorithm
from repro.engine.coalesce import SuperLaunch
from repro.engine.workers import WorkerError
from repro.resilience import ChaosConfig, chaos
from repro.resilience.chaos import ChaosError
from repro.search.batch import BatchSearchConfig
from repro.service import SolveService
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import keyless, random_qubo

CFG = DABSConfig(
    num_gpus=3,
    blocks_per_gpu=4,
    pool_capacity=10,
    batch=BatchSearchConfig(batch_flip_factor=2.0),
)
ROUNDS = 4


@pytest.fixture(autouse=True)
def clean_chaos():
    chaos.reset()
    chaos.install(None)
    yield
    chaos.reset()
    chaos.install(None)


def record_runs(monkeypatch, record):
    """Call ``record(pack)`` before every ``SuperLaunch.run``."""
    original = SuperLaunch.run

    def run(self, scratch_map):
        record(self)
        return original(self, scratch_map)

    monkeypatch.setattr(SuperLaunch, "run", run)


@pytest.fixture
def packs(monkeypatch):
    """Segment count of every super-launch of several devices, in order."""
    seen: list[int] = []

    def record(pack):
        if len(pack.segments) > 1:
            seen.append(len(pack.segments))

    record_runs(monkeypatch, record)
    return seen


@pytest.fixture
def passes(monkeypatch):
    """Segment count of every one-kernel pass, in order: a super-launch
    of a round's devices, or one device's one-segment launch."""
    seen: list[int] = []
    record_runs(monkeypatch, lambda pack: seen.append(len(pack.segments)))
    return seen


@pytest.fixture
def solo_launches(monkeypatch):
    """Device name of every solo launch (a one-segment run), in order."""
    seen: list[str] = []

    def record(pack):
        if len(pack.segments) == 1:
            seen.append(pack.segments[0].gpu.spec.name)

    record_runs(monkeypatch, record)
    return seen


def solve(
    model, cfg, packed, seed, solver_cls=DABSSolver, prepare=None, path="direct"
):
    """Solve ``ROUNDS`` rounds directly, or (``path="served"``) as the
    virtual-time job of a threaded service sized to the solver.  Unpacked,
    the row budget of one device keeps every launch solo."""
    cfg = replace(cfg, virtual_time=True)
    if not packed:
        cfg = replace(cfg, coalesce_max_rows=cfg.blocks_per_gpu)
    solver = solver_cls(model, cfg, seed=seed)
    if prepare is not None:
        prepare(solver)
    if path == "served":
        with SolveService(cfg.num_gpus) as service:
            result = solver.solve(max_rounds=ROUNDS, service=service)
    else:
        result = solver.solve(max_rounds=ROUNDS)
    return solver, result


def assert_bit_exact(solo, solo_result, packed, packed_result):
    a, b = solo_result, packed_result
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.best_vector, b.best_vector)
    assert a.total_flips == b.total_flips
    assert a.launches == b.launches and a.rounds == b.rounds
    assert a.restarts == b.restarts
    assert a.greedy_truncations == b.greedy_truncations
    assert [(e.round, e.energy, e.algorithm, e.operation) for e in a.history] == [
        (e.round, e.energy, e.algorithm, e.operation) for e in b.history
    ]
    assert a.counters.algorithms == b.counters.algorithms
    assert a.counters.operations == b.counters.operations
    for pa, pb in zip(solo.pools, packed.pools):
        assert np.array_equal(pa.vectors, pb.vectors)
        assert np.array_equal(pa.energies, pb.energies)
        assert np.array_equal(pa.algorithms, pb.algorithms)
        assert np.array_equal(pa.operations, pb.operations)
    for ga, gb in zip(solo.gpus, packed.gpus):
        assert np.array_equal(ga.block_x, gb.block_x)
        assert np.array_equal(ga.rng_state, gb.rng_state)
        assert ga.total_flips == gb.total_flips
        assert ga.launch_count == gb.launch_count
        cyclic = MainAlgorithm.CYCLICMIN
        if cyclic in ga.algorithms:
            ca = ga.algorithms[cyclic]._cursor
            cb = gb.algorithms[cyclic]._cursor
            assert (ca is None) == (cb is None)
            if ca is not None:
                assert np.array_equal(ca, cb)


#: both packable backends: the dense kernel and the ELL sparse kernel
BACKENDS = ["numpy-dense", "numpy-sparse"]


class TestPackedRoundParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_algorithm_set(self, seed, backend, packs, solo_launches):
        model = random_qubo(20, seed=40 + seed)
        cfg = replace(CFG, backend=backend)
        solo = solve(model, cfg, False, seed)
        assert packs == []
        del solo_launches[:]
        packed = solve(model, cfg, True, seed)
        assert_bit_exact(*solo, *packed)
        assert {gpu.backend.name for gpu in packed[0].gpus} == {backend}
        # one super-launch of every device per round, no solo launch
        assert packs == [CFG.num_gpus] * ROUNDS
        assert solo_launches == []

    @pytest.mark.parametrize("seed", [3, 4])
    def test_single_algorithm_abs_set(self, seed, packs):
        model = random_qubo(24, seed=50 + seed)
        solo = solve(model, CFG, False, seed, solver_cls=ABSSolver)
        packed = solve(model, CFG, True, seed, solver_cls=ABSSolver)
        assert_bit_exact(*solo, *packed)
        assert packs == [CFG.num_gpus] * ROUNDS

    def test_restart_after_stall(self, packs):
        model = random_qubo(10, seed=28)
        cfg = replace(CFG, restart_after_stall=1)
        solo = solve(model, cfg, False, 0)
        packed = solve(model, cfg, True, 0)
        assert packed[1].restarts >= 1
        assert_bit_exact(*solo, *packed)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "max_rows, per_round",
        # 3 devices × 4 rows: an 8-row budget packs 2 + 1 devices; a
        # budget below one device still packs each device on its own
        [(8, [2, 1]), (1, [1, 1, 1])],
    )
    def test_row_budget_splits_the_round(self, max_rows, per_round, backend, passes):
        model = random_qubo(18, seed=61)
        cfg = replace(CFG, coalesce_max_rows=max_rows, backend=backend)
        solo = solve(model, cfg, False, 7)
        del passes[:]
        packed = solve(model, cfg, True, 7)
        assert_bit_exact(*solo, *packed)
        assert passes == per_round * ROUNDS

    def test_keyless_devices_never_pack(self, packs, solo_launches):
        model = random_qubo(16, seed=63)
        _, result = solve(model, CFG, True, 0, prepare=keyless)
        assert packs == []
        assert len(solo_launches) == CFG.num_gpus * ROUNDS
        assert model.energy(result.best_vector) == result.best_energy

    def test_one_keyless_device_keeps_the_round_solo(self, packs, passes, solo_launches):
        """A job with one keyless device spreads over lanes, so no device
        of it packs; each still launches as its own one-kernel pass."""
        model = random_qubo(16, seed=64)

        def middle_keyless(solver):
            keyless(solver, devices={1})

        solo = solve(model, CFG, False, 2, prepare=middle_keyless)
        del passes[:], solo_launches[:]
        packed = solve(model, CFG, True, 2, prepare=middle_keyless)
        assert_bit_exact(*solo, *packed)
        assert packs == []
        assert passes == [1, 1, 1] * ROUNDS
        assert sorted(solo_launches) == sorted(["vgpu0", "vgpu1", "vgpu2"] * ROUNDS)

    @pytest.mark.parametrize("path", ["direct", "served"])
    def test_devices_build_no_pack_buffers(self, path):
        """A lane owns the buffers of every launch it runs: no device of
        a direct or served solve builds its own."""
        solver, _ = solve(random_qubo(12, seed=65), CFG, True, 0, path=path)
        assert [gpu._pack_scratch for gpu in solver.gpus] == [{}] * CFG.num_gpus


@pytest.mark.parametrize("path", ["direct", "served"])
class TestPackedRoundFailures:
    def test_unknown_culprit_reruns_every_device_solo(
        self, monkeypatch, solo_launches, path
    ):
        """A pack that fails mid-batch committed nothing: the devices
        re-run as one-segment packs and the solve stays bit-exact."""
        model = random_qubo(16, seed=66)
        solo = solve(model, CFG, False, 4, path=path)
        original = SuperLaunch.run
        failures = [1]

        def flaky(self, scratch_map):
            if failures[0]:
                failures[0] -= 1
                raise RuntimeError("transient pack fault")
            return original(self, scratch_map)

        monkeypatch.setattr(SuperLaunch, "run", flaky)
        del solo_launches[:]
        packed = solve(model, CFG, True, 4, path=path)
        assert_bit_exact(*solo, *packed)
        assert solo_launches == ["vgpu0", "vgpu1", "vgpu2"]
        assert not packed[1].degraded

    def test_only_the_failing_device_degrades(self, path):
        """An injected backend fault degrades exactly the device a solo
        round degrades, with the same warning and reason."""
        model = random_qubo(24, seed=5)
        outcomes = []
        for packed in (False, True):
            chaos.reset()
            chaos.install(ChaosConfig(rates={"backend_raise": 1.0}, max_faults=1))
            with pytest.warns(BackendFallbackWarning) as caught:
                solver, result = solve(model, CFG, packed, 0, path=path)
            assert model.energy(result.best_vector) == result.best_energy
            warned = [
                w for w in caught if issubclass(w.category, BackendFallbackWarning)
            ]
            outcomes.append(
                (
                    result.degraded_reasons,
                    [gpu.backend.name for gpu in solver.gpus],
                    [gpu.backend_fallbacks for gpu in solver.gpus],
                    len(warned),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[1][2] == [1, 0, 0] and outcomes[1][3] == 1

    @pytest.mark.parametrize("packed", [False, True])
    def test_a_device_falls_back_once_per_round(self, packed, path):
        """A second fault on the replacement backend propagates, packed
        or solo: the fallback chain is one link per launch.  A direct
        solve raises the fault itself; a served job fails with one
        ``WorkerError`` caused by it.  The direct solve gets two faults,
        so a second fallback in one launch would absorb the second and
        finish.  A served job gets a fault on every backend call: with a
        fault cap, its concurrent lanes race for the second fault, and
        the device that took the first would not reliably see it."""
        model = random_qubo(24, seed=5)
        max_faults = None if path == "served" else 2
        chaos.install(ChaosConfig(rates={"backend_raise": 1.0}, max_faults=max_faults))
        expected = WorkerError if path == "served" else ChaosError
        with pytest.warns(BackendFallbackWarning):
            with pytest.raises(expected) as caught:
                solve(model, CFG, packed, 0, path=path)
        if path == "served":
            assert isinstance(caught.value.__cause__, ChaosError)
