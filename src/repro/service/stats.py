"""Typed introspection snapshots (DESIGN.md §13).

One structure for every stats surface: :meth:`SolveService.stats_snapshot`
returns a :class:`ServiceStats`, :meth:`Federation.stats_snapshot` a
:class:`FederationStats` whose ``island_stats`` are again
:class:`ServiceStats` — and the legacy dict layouts (the ``stats`` wire
event, federation ``island_stats`` payloads, test fixtures) are all
*projections* of these via :meth:`to_dict`, so there is exactly one
place each counter is named.

The Prometheus exporter (:mod:`repro.server.metrics`) renders the typed
form; island child processes ship the dict form over their pipes and the
controller re-hydrates it with :meth:`ServiceStats.from_dict` — both
directions round-trip bit-exactly (asserted in
``tests/service/test_stats.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CacheStatsSnapshot",
    "CoalesceStats",
    "FederationStats",
    "ServiceStats",
]


@dataclass(frozen=True)
class CacheStatsSnapshot:
    """Point-in-time view of a :class:`~repro.service.cache.ProblemCache`."""

    entries: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStatsSnapshot":
        return cls(
            entries=int(data.get("entries", 0)),
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            evictions=int(data.get("evictions", 0)),
        )


@dataclass(frozen=True)
class CoalesceStats:
    """Continuous-batching counters (DESIGN.md §12), per lane + aggregate."""

    packs: int = 0
    segments: int = 0
    launches_saved: int = 0
    rows_mean: float = 0.0
    rows_max: int = 0
    pack_splits: int = 0
    lane_packs: tuple[int, ...] = ()
    lane_segments: tuple[int, ...] = ()
    lane_rows: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "packs": self.packs,
            "segments": self.segments,
            "launches_saved": self.launches_saved,
            "rows_mean": self.rows_mean,
            "rows_max": self.rows_max,
            "pack_splits": self.pack_splits,
            "lane_packs": list(self.lane_packs),
            "lane_segments": list(self.lane_segments),
            "lane_rows": list(self.lane_rows),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoalesceStats":
        return cls(
            packs=int(data.get("packs", 0)),
            segments=int(data.get("segments", 0)),
            launches_saved=int(data.get("launches_saved", 0)),
            rows_mean=float(data.get("rows_mean", 0.0)),
            rows_max=int(data.get("rows_max", 0)),
            pack_splits=int(data.get("pack_splits", 0)),
            lane_packs=tuple(data.get("lane_packs", ())),
            lane_segments=tuple(data.get("lane_segments", ())),
            lane_rows=tuple(data.get("lane_rows", ())),
        )


@dataclass(frozen=True)
class ServiceStats:
    """One :class:`~repro.service.SolveService`'s scheduling snapshot.

    ``lane_launches`` / ``lane_completed`` are cumulative per-lane
    utilization counters; ``lane_inflight`` is the instantaneous depth.
    ``pending``/``active``/``outstanding`` are the queue depths admission
    control operates on.
    """

    devices: int = 0
    pending: int = 0
    active: int = 0
    outstanding: int = 0
    lane_inflight: tuple[int, ...] = ()
    lane_launches: tuple[int, ...] = ()
    lane_completed: tuple[int, ...] = ()
    coalesce: CoalesceStats = field(default_factory=CoalesceStats)
    cache: CacheStatsSnapshot = field(default_factory=CacheStatsSnapshot)

    def to_dict(self) -> dict:
        """The legacy ``SolveService.stats()`` dict layout, verbatim."""
        return {
            "devices": self.devices,
            "pending": self.pending,
            "active": self.active,
            "outstanding": self.outstanding,
            "lane_inflight": list(self.lane_inflight),
            "lane_launches": list(self.lane_launches),
            "lane_completed": list(self.lane_completed),
            "coalesce": self.coalesce.to_dict(),
            "cache": self.cache.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceStats":
        return cls(
            devices=int(data.get("devices", 0)),
            pending=int(data.get("pending", 0)),
            active=int(data.get("active", 0)),
            outstanding=int(data.get("outstanding", 0)),
            lane_inflight=tuple(data.get("lane_inflight", ())),
            lane_launches=tuple(data.get("lane_launches", ())),
            lane_completed=tuple(data.get("lane_completed", ())),
            coalesce=CoalesceStats.from_dict(data.get("coalesce", {})),
            cache=CacheStatsSnapshot.from_dict(data.get("cache", {})),
        )


@dataclass(frozen=True)
class FederationStats:
    """A federation controller's snapshot: controller state plus one
    :class:`ServiceStats` per island (``None`` for islands that did not
    answer within the stats timeout or are dead)."""

    islands: int = 0
    topology: str = "ring"
    migration_period: int | None = None
    migration_k: int = 0
    outstanding: int = 0
    running: bool = False
    healthy: bool = False
    dead_islands: tuple[int, ...] = ()
    island_stats: tuple[ServiceStats | None, ...] = ()

    @property
    def devices(self) -> int:
        """Total fleet lanes across answering islands."""
        return sum(s.devices for s in self.island_stats if s is not None)

    @property
    def lane_inflight(self) -> tuple[int, ...]:
        return tuple(
            lane
            for s in self.island_stats
            if s is not None
            for lane in s.lane_inflight
        )

    @property
    def lane_launches(self) -> tuple[int, ...]:
        return tuple(
            lane
            for s in self.island_stats
            if s is not None
            for lane in s.lane_launches
        )

    @property
    def lane_completed(self) -> tuple[int, ...]:
        return tuple(
            lane
            for s in self.island_stats
            if s is not None
            for lane in s.lane_completed
        )

    @property
    def pending(self) -> int:
        return sum(s.pending for s in self.island_stats if s is not None)

    @property
    def active(self) -> int:
        return sum(s.active for s in self.island_stats if s is not None)

    @property
    def coalesce(self) -> CoalesceStats:
        """Aggregated continuous-batching counters across islands."""
        parts = [s.coalesce for s in self.island_stats if s is not None]
        packs = sum(p.packs for p in parts)
        segments = sum(p.segments for p in parts)
        rows = sum(sum(p.lane_rows) for p in parts)
        return CoalesceStats(
            packs=packs,
            segments=segments,
            launches_saved=segments - packs,
            rows_mean=rows / packs if packs else 0.0,
            rows_max=max((p.rows_max for p in parts), default=0),
            pack_splits=sum(p.pack_splits for p in parts),
        )

    @property
    def cache(self) -> CacheStatsSnapshot:
        """Aggregated cache counters across islands."""
        parts = [s.cache for s in self.island_stats if s is not None]
        return CacheStatsSnapshot(
            entries=sum(p.entries for p in parts),
            hits=sum(p.hits for p in parts),
            misses=sum(p.misses for p in parts),
            evictions=sum(p.evictions for p in parts),
        )

    def to_dict(self) -> dict:
        """The ``Federation.stats()`` dict layout (the wire form)."""
        return {
            "islands": self.islands,
            "topology": self.topology,
            "migration_period": self.migration_period,
            "migration_k": self.migration_k,
            "outstanding": self.outstanding,
            "running": self.running,
            "healthy": self.healthy,
            "dead_islands": list(self.dead_islands),
            "island_stats": [
                s.to_dict() if s is not None else None
                for s in self.island_stats
            ],
            "devices": self.devices,
            "lane_launches": list(self.lane_launches),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FederationStats":
        return cls(
            islands=int(data.get("islands", 0)),
            topology=str(data.get("topology", "ring")),
            migration_period=data.get("migration_period"),
            migration_k=int(data.get("migration_k", 0)),
            outstanding=int(data.get("outstanding", 0)),
            running=bool(data.get("running", False)),
            healthy=bool(data.get("healthy", False)),
            dead_islands=tuple(data.get("dead_islands", ())),
            island_stats=tuple(
                ServiceStats.from_dict(s) if s is not None else None
                for s in data.get("island_stats", ())
            ),
        )
