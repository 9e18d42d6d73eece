"""Federation: process-per-island sharding with elite migration.

The two contracts under test (DESIGN.md §9):

* **single-island identity** — a 1-island federation is bit-exact with a
  direct ``SolveService`` solve of the same (model, config, seed): the
  merged result, the final pools and the per-device RNG lanes;
* **migration determinism** — with fixed seeds and ``virtual_time``, two
  identical federated runs produce identical merged pools and results,
  for the ring and all-to-all topologies.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.federation import Federation, FederationHandle, island_seed
from repro.federation.federation import PROCESS_NAME_PREFIX
from repro.service import SolveService
from repro.service.job import JobCancelledError, JobStatus
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo


def vt_config(devices=1, blocks=4):
    return DABSConfig(
        num_gpus=devices,
        blocks_per_gpu=blocks,
        pool_capacity=8,
        virtual_time=True,
    )


def leaked_islands() -> list[str]:
    return [
        p.name
        for p in mp.active_children()
        if p.name.startswith(PROCESS_NAME_PREFIX)
    ]


def pool_state(report: dict):
    return tuple(
        (
            tuple(pool["energies"].tolist()),
            pool["vectors"].tobytes(),
        )
        for pool in report["state"]["pools"]
    )


class TestSingleIslandIdentity:
    def test_bit_exact_with_direct_service_solve(self):
        """The acceptance contract: pools, energies and RNG lanes of a
        1-island federation match a direct submit_solver run exactly."""
        model = random_qubo(40, seed=3)
        cfg = vt_config(devices=2)

        with Federation(1, default_config=cfg, seed=0) as federation:
            handle = federation.submit(
                model, seed=42, max_rounds=8, collect_state=True
            )
            federated = handle.result(timeout=120)
            state = handle.island_reports()[0]["state"]

        with SolveService(devices=2, default_config=cfg) as service:
            prepared = service.cache.prepare(model, cfg.backend)
            solver = DABSSolver(model, cfg, seed=42, prepared=prepared)
            direct = service.submit_solver(solver, max_rounds=8).result(
                timeout=120
            )

        assert federated.best_energy == direct.best_energy
        assert np.array_equal(federated.best_vector, direct.best_vector)
        assert federated.launches == direct.launches
        assert federated.rounds == direct.rounds
        assert federated.total_flips == direct.total_flips
        assert [e.energy for e in federated.history] == [
            e.energy for e in direct.history
        ]
        for fed_pool, pool in zip(state["pools"], solver.pools):
            assert np.array_equal(fed_pool["vectors"], pool.vectors)
            assert np.array_equal(fed_pool["energies"], pool.energies)
            assert np.array_equal(fed_pool["algorithms"], pool.algorithms)
            assert np.array_equal(fed_pool["operations"], pool.operations)
        for fed_rng, gpu in zip(state["rng"], solver.gpus):
            assert np.array_equal(fed_rng, gpu.rng_state)
        for fed_x, gpu in zip(state["block_x"], solver.gpus):
            assert np.array_equal(fed_x, gpu.block_x)
        assert leaked_islands() == []

    def test_island_seed_derivation(self):
        assert island_seed(1234, 0) == 1234  # identity keeps island 0 exact
        derived = {island_seed(1234, i) for i in range(6)}
        assert len(derived) == 6
        assert all(0 <= s < 2**63 for s in derived)


def run_federated(topology, *, islands=3, launches=18):
    model = random_qubo(24, seed=9)
    with Federation(
        islands,
        topology=topology,
        migration_period=3,
        migration_k=3,
        default_config=vt_config(),
        seed=5,
    ) as federation:
        handle = federation.submit(
            model, seed=77, max_launches=launches, collect_state=True
        )
        result = handle.result(timeout=120)
        reports = handle.island_reports()
    fingerprint = (
        result.best_energy,
        result.launches,
        tuple(
            (r["island"], r["best_energy"], r["launches"], r["epochs"])
            for r in reports
        ),
        tuple(pool_state(r) for r in reports),
    )
    return result, reports, fingerprint


class TestMigrationDeterminism:
    @pytest.mark.parametrize("topology", ["ring", "all"])
    def test_identical_runs_produce_identical_pools(self, topology):
        """Fixed seeds + virtual_time: reruns are bit-identical, island
        by island, pool by pool."""
        _, _, first = run_federated(topology)
        _, _, second = run_federated(topology)
        assert first == second
        assert leaked_islands() == []

    def test_migration_actually_moves_elites(self):
        result, reports, _ = run_federated("ring")
        model = random_qubo(24, seed=9)
        assert model.energy(result.best_vector) == result.best_energy
        assert result.launches == 18
        assert all(r["epochs"] > 0 for r in reports)
        assert sum(r["migrants_out"] for r in reports) > 0


class TestBudgetsAndLimits:
    def test_aggregate_launch_budget_is_split(self):
        model = random_qubo(20, seed=4)
        with Federation(
            2, migration_period=4, default_config=vt_config(), seed=1
        ) as federation:
            handle = federation.submit(model, seed=8, max_launches=10)
            result = handle.result(timeout=120)
            reports = handle.island_reports()
        assert result.launches == 10
        assert sorted(r["launches"] for r in reports) == [5, 5]

    def test_budget_smaller_than_islands(self):
        """A 1-launch budget over 2 islands without migration: one island
        does the work, the other contributes an empty shard."""
        model = random_qubo(16, seed=4)
        with Federation(
            2, migration_period=None, default_config=vt_config(), seed=1
        ) as federation:
            result = federation.submit(
                model, seed=8, max_launches=1
            ).result(timeout=120)
        assert result.launches == 1
        assert model.energy(result.best_vector) == result.best_energy

    def test_target_reached_stops_early(self):
        model = random_qubo(16, seed=2)
        # establish a modest target any island reaches quickly
        target = DABSSolver(model, vt_config(), seed=0).solve(max_rounds=4).best_energy
        with Federation(
            2, migration_period=4, default_config=vt_config(), seed=3
        ) as federation:
            result = federation.submit(
                model, seed=6, target_energy=target, max_launches=4000
            ).result(timeout=120)
        assert result.reached_target
        assert result.best_energy <= target
        assert result.launches < 4000  # the halt broadcast cut the budget


class TestCancellation:
    def test_cancel_mid_migration_leaks_nothing(self):
        """Cancel while epochs are in flight: the handle terminates, the
        islands survive for the next job, close() reaps every process."""
        model = random_qubo(32, seed=6)
        federation = Federation(
            2, migration_period=1, migration_k=2,
            default_config=vt_config(), seed=2,
        )
        with federation:
            handle = federation.submit(model, seed=5, max_launches=100_000)
            next(iter(handle.incumbents()))  # at least one launch landed
            handle.cancel()
            assert handle.wait(timeout=120)
            assert handle.status is JobStatus.CANCELLED
            try:
                partial = handle.result()
            except JobCancelledError:
                partial = None  # cancelled before any launch was folded
            if partial is not None:
                assert partial.launches < 100_000
            # the federation is still serviceable after a cancel
            follow_up = federation.submit(model, seed=5, max_launches=4)
            assert follow_up.result(timeout=120).launches == 4
        assert leaked_islands() == []

    def test_close_cancel_reaps_processes(self):
        model = random_qubo(32, seed=6)
        federation = Federation(
            2, migration_period=2, default_config=vt_config(), seed=2
        )
        handle = federation.submit(model, seed=5, max_launches=100_000)
        federation.close(cancel=True)
        assert handle.done()
        assert leaked_islands() == []


class TestCallbacks:
    def test_raising_on_improvement_fails_the_job(self):
        """As in SolveService: the callback's exception fails the job, the
        islands are cancelled, and the federation stays serviceable."""
        model = random_qubo(16, seed=7)
        calls = []

        def boom(update):
            calls.append(update.energy)
            raise KeyError("callback bug")

        with Federation(2, default_config=vt_config(), seed=1) as federation:
            handle = federation.submit(
                model, seed=3, max_launches=100_000, on_improvement=boom
            )
            with pytest.raises(KeyError, match="callback bug"):
                handle.result(timeout=120)
            assert handle.status is JobStatus.FAILED
            assert len(calls) == 1  # no further callbacks once failed
            follow_up = federation.submit(model, seed=3, max_launches=4)
            assert follow_up.result(timeout=120).launches == 4
        assert leaked_islands() == []


class TestStatsAndValidation:
    def test_stats_aggregate_island_services(self):
        model = random_qubo(16, seed=1)
        with Federation(
            2, migration_period=4, default_config=vt_config(), seed=0
        ) as federation:
            federation.submit(model, seed=3, max_launches=8).result(timeout=120)
            stats = federation.stats()
        assert stats["islands"] == 2
        assert stats["topology"] == "ring"
        assert stats["healthy"] is True
        assert len(stats["island_stats"]) == 2
        for island_stat in stats["island_stats"]:
            assert island_stat["devices"] == 1
            assert "lane_launches" in island_stat
            assert "cache" in island_stat
        assert sum(stats["lane_launches"]) == 8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="islands"):
            Federation(0)
        with pytest.raises(ValueError, match="topology"):
            Federation(2, topology="torus")
        with pytest.raises(ValueError, match="migration_period"):
            Federation(2, migration_period=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("migration_k", 0),
            ("max_queue", 0),
            ("devices", 0),
            ("island_timeout", 0),
            ("migration_timeout", 0),
            ("on_island_failure", "panic"),
        ],
    )
    def test_rejects_out_of_range_parameter(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            Federation(2, **{name: value})

    def test_stats_before_spawn_report_the_controller_alone(self):
        federation = Federation(2, default_config=vt_config())
        stats = federation.stats()
        federation.close()
        assert stats == {
            "islands": 2,
            "topology": "ring",
            "migration_period": 16,
            "migration_k": 4,
            "outstanding": 0,
            "running": False,
            "healthy": True,
            "dead_islands": [],
            "island_stats": [],
            "devices": 0,
            "lane_launches": [],
        }
        assert leaked_islands() == []

    def test_rejects_lane_depth_below_one_before_forking(self, monkeypatch):
        """Each island's SolveService refuses ``lane_depth < 1``; the
        federation must refuse it at construction, not fork islands that
        die on it."""
        started = []
        process_cls = mp.get_context("fork").Process
        start = process_cls.start

        def recording_start(process):
            started.append(process.name)
            start(process)

        monkeypatch.setattr(process_cls, "start", recording_start)
        with pytest.raises(ValueError, match="lane_depth must be >= 1"):
            with Federation(
                2, lane_depth=0, default_config=vt_config(), seed=0
            ) as federation:
                federation.submit(
                    random_qubo(8, seed=0), seed=1, max_rounds=2
                ).result(timeout=60)
        assert not [n for n in started if n.startswith(PROCESS_NAME_PREFIX)]
        assert leaked_islands() == []

    def test_submit_requires_some_limit(self):
        federation = Federation(2, default_config=vt_config())
        with pytest.raises(ValueError):
            federation.submit(random_qubo(8, seed=0), seed=1)
        federation.close()
        assert leaked_islands() == []

    def test_unregistered_solver_class_rejected(self):
        federation = Federation(2, default_config=vt_config())
        with pytest.raises(ValueError, match="registry"):
            federation.submit(
                random_qubo(8, seed=0), solver_cls=object, max_rounds=2
            )
        federation.close()

    def test_handle_is_a_job_handle(self):
        model = random_qubo(12, seed=0)
        with Federation(1, default_config=vt_config(), seed=0) as federation:
            handle = federation.submit(model, seed=2, max_rounds=2)
            assert isinstance(handle, FederationHandle)
            result = handle.result(timeout=120)
        assert handle.status is JobStatus.DONE
        assert model.energy(result.best_vector) == result.best_energy
