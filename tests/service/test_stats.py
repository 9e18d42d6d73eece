"""Typed stats snapshots: one structure behind service, federation, server."""

from __future__ import annotations

from repro.service import SolveService
from repro.service.stats import FederationStats, ServiceStats
from repro.solver.dabs import DABSConfig
from tests.conftest import random_qubo


class TestServiceStats:
    def test_snapshot_and_dict_projection_agree(self):
        with SolveService(
            devices=2, default_config=DABSConfig(num_gpus=2, blocks_per_gpu=4)
        ) as service:
            service.submit(random_qubo(10, seed=0), seed=0, max_rounds=3).result()
            snapshot = service.stats_snapshot()
            legacy = service.stats()
            # the dict is exactly the snapshot's projection, both ways
            assert snapshot.to_dict() == legacy
            assert ServiceStats.from_dict(legacy) == snapshot
            assert snapshot.devices == 2
            assert snapshot.outstanding == snapshot.pending + snapshot.active
            assert len(snapshot.lane_launches) == 2
            assert sum(snapshot.lane_launches) > 0

    def test_cache_hit_rate_derivation(self):
        with SolveService(
            devices=1, default_config=DABSConfig(num_gpus=1, blocks_per_gpu=4)
        ) as service:
            model = random_qubo(10, seed=1)
            service.submit(model, seed=0, max_rounds=2).result()
            service.submit(model, seed=1, max_rounds=2).result()
            cache = service.stats_snapshot().cache
            assert cache.hits >= 1  # second submit reuses the prepared problem
            assert 0.0 < cache.hit_rate <= 1.0


class TestFederationStats:
    def synthetic(self) -> dict:
        island = ServiceStats.from_dict(
            {
                "devices": 2,
                "pending": 1,
                "active": 2,
                "outstanding": 3,
                "lane_inflight": [1, 0],
                "lane_launches": [5, 7],
                "lane_completed": [4, 7],
                "coalesce": {
                    "packs": 2,
                    "segments": 5,
                    "launches_saved": 3,
                    "rows_mean": 8.0,
                    "rows_max": 12,
                    "pack_splits": 0,
                    "lane_packs": [1, 1],
                    "lane_segments": [2, 3],
                    "lane_rows": [10, 14],
                },
                "cache": {"entries": 1, "hits": 3, "misses": 2, "evictions": 0},
            }
        )
        return {
            "islands": 2,
            "topology": "ring",
            "migration_period": 16,
            "migration_k": 4,
            "outstanding": 6,
            "running": True,
            "healthy": True,
            "dead_islands": [],
            "island_stats": [island.to_dict(), island.to_dict()],
            # derived aggregates the legacy dict also carries top-level
            "devices": 4,
            "lane_launches": [5, 7, 5, 7],
        }

    def test_round_trip_and_derived_aggregates(self):
        stats = FederationStats.from_dict(self.synthetic())
        assert stats.to_dict() == self.synthetic()
        # the federation exposes the same surface as one service:
        # aggregates fan in across the islands
        assert stats.devices == 4
        assert stats.pending == 2
        assert stats.active == 4
        assert stats.lane_inflight == (1, 0, 1, 0)
        assert stats.lane_launches == (5, 7, 5, 7)
        assert stats.coalesce.packs == 4
        assert stats.coalesce.launches_saved == 6
        assert stats.cache.hits == 6
        assert stats.cache.hit_rate == 6 / 10

    def test_dead_island_leaves_a_none_slot(self):
        payload = self.synthetic()
        payload["island_stats"][1] = None
        payload["dead_islands"] = [1]
        payload["healthy"] = False
        payload["devices"] = 2
        payload["lane_launches"] = [5, 7]
        stats = FederationStats.from_dict(payload)
        assert stats.island_stats[1] is None
        assert stats.dead_islands == (1,)
        assert stats.devices == 2  # only live islands aggregate
        assert stats.to_dict() == payload
