"""Degraded-topology federation: island death redistributes the shard,
reroutes migration, and annotates — never hangs — the merged result.

The acceptance scenario of DESIGN.md §11: chaos kills 1 of 4 island
processes mid-solve and the federation still completes with a valid
merged :class:`SolveResult` flagged ``degraded``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.federation import Federation
from repro.federation.federation import (
    PROCESS_NAME_PREFIX,
    FederationError,
    FederationHandle,
    _FederatedJob,
)
from repro.resilience import ChaosConfig, RetryPolicy, chaos
from repro.solver.dabs import DABSConfig
from tests.conftest import random_qubo
from tests.resilience.conftest import CHAOS_SEED


def vt_config(devices: int = 1, blocks: int = 4) -> DABSConfig:
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


class TestIslandLoss:
    def test_island_killed_mid_solve_completes_degraded(self):
        """Kill island 2 of 4 at solve start: the survivors absorb its
        budget and the merged result is valid, done and degraded."""
        model = random_qubo(30, seed=3)
        chaos.install(
            ChaosConfig(
                rates={"island_kill": 1.0},
                seed=CHAOS_SEED,
                target=2,
                max_faults=1,
            )
        )
        with Federation(
            4, default_config=vt_config(), seed=0, migration_period=4
        ) as federation:
            handle = federation.submit(model, seed=7, max_launches=40)
            result = handle.result(timeout=120)
            reports = handle.island_reports()
        assert result.degraded
        assert any("islands [2] lost" in r for r in result.degraded_reasons)
        assert len(reports) == 3
        assert model.energy(result.best_vector) == result.best_energy
        assert result.launches > 0
        assert leaked_islands() == []

    def test_all_islands_lost_fails_the_job(self):
        model = random_qubo(20, seed=1)
        chaos.install(
            ChaosConfig(rates={"island_kill": 1.0}, seed=CHAOS_SEED)
        )
        with Federation(2, default_config=vt_config(), seed=0) as federation:
            handle = federation.submit(model, seed=3, max_launches=20)
            with pytest.raises(FederationError, match="islands lost"):
                handle.result(timeout=60)
        assert leaked_islands() == []

    def test_islands_lost_while_close_drains_fail_the_job(self):
        """close() drains outstanding jobs before it stops the islands;
        islands that die during the drain fail the job instead of
        leaving close() waiting on it forever."""
        model = random_qubo(20, seed=1)
        federation = Federation(2, default_config=vt_config(), seed=0)
        handle = federation.submit(model, seed=3, max_launches=1_000_000)
        closer = threading.Thread(target=federation.close, daemon=True)
        closer.start()
        deadline = time.monotonic() + 10.0
        while not federation._closing and time.monotonic() < deadline:
            time.sleep(0.01)
        assert federation._closing
        for process in federation._processes:
            os.kill(process.pid, signal.SIGKILL)
        closer.join(30.0)
        assert not closer.is_alive()
        with pytest.raises(FederationError, match="islands lost"):
            handle.result(timeout=0)
        assert leaked_islands() == []

    def test_fail_mode_keeps_strict_semantics(self):
        model = random_qubo(20, seed=1)
        chaos.install(
            ChaosConfig(
                rates={"island_kill": 1.0},
                seed=CHAOS_SEED,
                target=1,
                max_faults=1,
            )
        )
        with Federation(
            2, default_config=vt_config(), seed=0, on_island_failure="fail"
        ) as federation:
            handle = federation.submit(model, seed=3, max_launches=16)
            with pytest.raises(FederationError, match="exited unexpectedly"):
                handle.result(timeout=60)
        assert leaked_islands() == []


class TestBudgetAccounting:
    def test_redistribution_subtracts_spent_and_compounds_grants(self):
        """Degrade-mode hands survivors only the dead island's *unspent*
        remainder (per-epoch progress events), and a survivor's absorbed
        grant is itself redistributed if that survivor later dies too
        (white-box: no processes spawned, ``_send`` is captured)."""
        federation = Federation(4, default_config=vt_config(), seed=0)
        sent: list[tuple[int, tuple]] = []
        federation._send = lambda island, message: sent.append(
            (island, message)
        )
        handle = FederationHandle("fed-1", federation)
        job = _FederatedJob("fed-1", 30, handle)
        job.shares = [100, 100, 100, 100]
        federation._jobs["fed-1"] = job
        federation._dispatch(2, ("progress", "fed-1", 2, 40))

        federation._on_island_exit(2)
        extends = [m for _, m in sent if m[0] == "extend"]
        assert sum(m[2] for m in extends) == 60  # 100 share - 40 spent
        assert [job.shares[i] for i in (0, 1, 3)] == [120, 120, 120]

        # island 0 dies later having spent 30 of its grown 120 share:
        # the grant it absorbed is redistributed along with its own
        sent.clear()
        federation._dispatch(0, ("progress", "fed-1", 0, 30))
        federation._on_island_exit(0)
        extends = [m for _, m in sent if m[0] == "extend"]
        assert sum(m[2] for m in extends) == 90  # 120 - 30
        assert [job.shares[i] for i in (1, 3)] == [165, 165]
        assert job.lost == [2, 0]
        federation._jobs.clear()
        federation.close()


class TestWatchdog:
    def test_hung_island_is_reaped_and_job_degrades(self):
        """SIGSTOP an island: heartbeats stop, the watchdog escalates to
        SIGKILL, and the in-flight job completes from the survivor."""
        model = random_qubo(24, seed=2)
        with Federation(
            2, default_config=vt_config(), seed=0, island_timeout=0.75
        ) as federation:
            warm = federation.submit(model, seed=1, max_launches=4)
            assert warm.result(timeout=60) is not None
            os.kill(federation._processes[1].pid, signal.SIGSTOP)
            handle = federation.submit(model, seed=2, max_launches=20)
            result = handle.result(timeout=60)
            assert result.degraded
            assert federation._dead_islands == {1}
            # later submits shard over the survivors only, pre-marked lost
            again = federation.submit(model, seed=3, max_launches=10)
            result2 = again.result(timeout=60)
            assert result2.degraded and result2.launches > 0
            stats = federation.stats()
            assert stats["dead_islands"] == [1]
            assert stats["island_stats"][1] is None
        assert leaked_islands() == []


class TestLossyTransport:
    def test_dropped_migrations_never_stall_the_solve(self):
        """transport_drop at rate 1 loses every elite batch and every
        done sentinel; the migration timeout keeps the epochs moving."""
        model = random_qubo(24, seed=4)
        chaos.install(
            ChaosConfig(rates={"transport_drop": 1.0}, seed=CHAOS_SEED)
        )
        with Federation(
            2,
            default_config=vt_config(),
            seed=0,
            migration_period=4,
            migration_timeout=0.5,
        ) as federation:
            result = federation.submit(
                model, seed=5, max_launches=16
            ).result(timeout=120)
        assert model.energy(result.best_vector) == result.best_energy
        assert result.launches == 16

    def test_delayed_migrations_only_slow_the_solve(self):
        model = random_qubo(20, seed=6)
        chaos.install(
            ChaosConfig(
                rates={"transport_delay": 1.0},
                seed=CHAOS_SEED,
                delay=0.01,
            )
        )
        with Federation(
            2, default_config=vt_config(), seed=0, migration_period=4
        ) as federation:
            result = federation.submit(
                model, seed=5, max_launches=12
            ).result(timeout=120)
        assert model.energy(result.best_vector) == result.best_energy


class TestNoFaultIdentity:
    def test_resilience_knobs_do_not_perturb_virtual_time(self):
        """The no-fault path with every resilience knob armed is
        bit-exact with the plain federation — supervision must be free
        when nothing fails."""
        model = random_qubo(30, seed=3)
        plain_cfg = vt_config()
        armed_cfg = replace(
            plain_cfg,
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        )

        def run(cfg: DABSConfig, **kwargs):
            with Federation(
                2,
                default_config=cfg,
                seed=0,
                migration_period=4,
                **kwargs,
            ) as federation:
                return federation.submit(
                    model, seed=7, max_launches=24
                ).result(timeout=120)

        plain = run(plain_cfg)
        armed = run(
            armed_cfg, island_timeout=10.0, on_island_failure="degrade"
        )
        assert armed.best_energy == plain.best_energy
        assert np.array_equal(armed.best_vector, plain.best_vector)
        assert armed.launches == plain.launches
        assert armed.total_flips == plain.total_flips
        assert armed.rounds == plain.rounds
        assert armed.retries == 0
        assert not armed.degraded and armed.degraded_reasons == ()
