"""Server observability: counters, latency percentiles, Prometheus text.

:class:`ServerMetrics` is the server-side ledger — connection and job
counters, structured error tallies, and per-tenant latency recorders for
the two stages the ROADMAP names: **admission → first incumbent** and
**admission → done**.  :func:`render_prometheus` joins that ledger with
the scheduler's typed :class:`~repro.service.stats.ServiceStats` /
:class:`~repro.service.stats.FederationStats` snapshot (queue depth,
lane utilization, cache hit rate, coalesce counters) into one
Prometheus-style text exposition, served on the ``/metrics`` endpoint
and the ``metrics`` op.

All mutation happens on the server's event loop thread, so the ledger
needs no locks; a snapshot taken for rendering is therefore internally
consistent.
"""

from __future__ import annotations

from collections import deque

__all__ = ["LatencyRecorder", "ServerMetrics", "render_prometheus"]

#: latency stages recorded per tenant
STAGE_FIRST_INCUMBENT = "first_incumbent"
STAGE_DONE = "done"

#: quantiles exported per (tenant, stage)
_QUANTILES = (0.5, 0.9, 0.99)


class LatencyRecorder:
    """Bounded-window latency sampler with exact percentiles.

    Keeps the most recent *cap* observations (a sliding window, not a
    sketch — at serving rates of thousands of jobs the window still
    spans minutes) plus lifetime ``count``/``total`` for rate math.
    """

    def __init__(self, cap: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=cap)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        self.count += 1
        self.total += float(seconds)

    def quantile(self, q: float) -> float | None:
        """The q-quantile (nearest-rank) of the window; None when empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            **{f"p{int(q * 100)}": self.quantile(q) for q in _QUANTILES},
        }


class ServerMetrics:
    """The server's counter ledger (event-loop confined)."""

    def __init__(self) -> None:
        self.connections_total = 0
        self.connections_active = 0
        self.connections_peak = 0
        self.frames_total = 0
        #: submissions accepted, per tenant
        self.submits: dict[str, int] = {}
        #: terminal jobs per (tenant, status in done/failed/cancelled)
        self.jobs: dict[tuple[str, str], int] = {}
        #: error events per structured code
        self.errors: dict[str, int] = {}
        #: latency recorders per (tenant, stage)
        self.latency: dict[tuple[str, str], LatencyRecorder] = {}

    # -- recording hooks ---------------------------------------------------
    def connection_opened(self) -> None:
        self.connections_total += 1
        self.connections_active += 1
        self.connections_peak = max(
            self.connections_peak, self.connections_active
        )

    def connection_closed(self) -> None:
        self.connections_active -= 1

    def record_frame(self) -> None:
        self.frames_total += 1

    def record_submit(self, tenant: str) -> None:
        self.submits[tenant] = self.submits.get(tenant, 0) + 1

    def record_terminal(self, tenant: str, status: str) -> None:
        key = (tenant, status)
        self.jobs[key] = self.jobs.get(key, 0) + 1

    def record_error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1

    def observe_latency(self, tenant: str, stage: str, seconds: float) -> None:
        key = (tenant, stage)
        recorder = self.latency.get(key)
        if recorder is None:
            recorder = self.latency[key] = LatencyRecorder()
        recorder.observe(seconds)

    # -- snapshots ---------------------------------------------------------
    @property
    def errors_total(self) -> int:
        return sum(self.errors.values())

    def snapshot(self) -> dict:
        """The ``stats`` op's server section (JSON-safe)."""
        return {
            "connections": self.connections_active,
            "connections_total": self.connections_total,
            "connections_peak": self.connections_peak,
            "frames": self.frames_total,
            "submits": dict(self.submits),
            "jobs": {
                f"{tenant}/{status}": count
                for (tenant, status), count in self.jobs.items()
            },
            "errors": dict(self.errors),
            "latency": {
                f"{tenant}/{stage}": recorder.summary()
                for (tenant, stage), recorder in self.latency.items()
            },
        }


def _esc(value: str) -> str:
    """Escape a Prometheus label value."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def render_prometheus(metrics: ServerMetrics, snapshot) -> str:
    """Render the full exposition: server ledger + scheduler snapshot.

    *snapshot* is a :class:`~repro.service.stats.ServiceStats` or
    :class:`~repro.service.stats.FederationStats` — both expose the same
    lane/cache/coalesce surface (DESIGN.md §13), so one renderer covers
    single-service and federated deployments.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, help_text: str, samples) -> None:
        rows = list(samples)
        if not rows:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in rows:
            if value is None:
                continue
            label_str = (
                "{"
                + ",".join(f'{k}="{_esc(v)}"' for k, v in labels.items())
                + "}"
                if labels
                else ""
            )
            lines.append(f"{name}{label_str} {value}")

    # -- server ledger ----------------------------------------------------
    emit(
        "repro_connections_active",
        "gauge",
        "Open client connections.",
        [({}, metrics.connections_active)],
    )
    emit(
        "repro_connections_total",
        "counter",
        "Client connections accepted over the server lifetime.",
        [({}, metrics.connections_total)],
    )
    emit(
        "repro_connections_peak",
        "gauge",
        "High-water mark of concurrently open connections.",
        [({}, metrics.connections_peak)],
    )
    emit(
        "repro_frames_total",
        "counter",
        "Request frames decoded.",
        [({}, metrics.frames_total)],
    )
    emit(
        "repro_submits_total",
        "counter",
        "Jobs accepted, per tenant.",
        [({"tenant": t}, c) for t, c in sorted(metrics.submits.items())],
    )
    emit(
        "repro_jobs_total",
        "counter",
        "Terminal jobs, per tenant and outcome.",
        [
            ({"tenant": t, "status": s}, c)
            for (t, s), c in sorted(metrics.jobs.items())
        ],
    )
    emit(
        "repro_errors_total",
        "counter",
        "Error events, per structured protocol code.",
        [({"code": code}, c) for code, c in sorted(metrics.errors.items())],
    )

    # -- latency percentiles ----------------------------------------------
    latency_rows = []
    count_rows = []
    sum_rows = []
    for (tenant, stage), recorder in sorted(metrics.latency.items()):
        for q in _QUANTILES:
            latency_rows.append(
                (
                    {"tenant": tenant, "stage": stage, "quantile": str(q)},
                    recorder.quantile(q),
                )
            )
        count_rows.append(({"tenant": tenant, "stage": stage}, recorder.count))
        sum_rows.append(({"tenant": tenant, "stage": stage}, recorder.total))
    emit(
        "repro_latency_seconds",
        "gauge",
        "Per-tenant job latency quantiles by stage "
        "(admission to first incumbent / admission to done).",
        latency_rows,
    )
    emit(
        "repro_latency_seconds_count",
        "counter",
        "Observations behind repro_latency_seconds.",
        count_rows,
    )
    emit(
        "repro_latency_seconds_sum",
        "counter",
        "Summed latency behind repro_latency_seconds.",
        sum_rows,
    )

    # -- scheduler snapshot -----------------------------------------------
    if snapshot is not None:
        emit(
            "repro_devices",
            "gauge",
            "Fleet lanes (virtual GPUs) behind the service.",
            [({}, snapshot.devices)],
        )
        emit(
            "repro_jobs_pending",
            "gauge",
            "Jobs queued for admission (queue depth).",
            [({}, snapshot.pending)],
        )
        emit(
            "repro_jobs_active",
            "gauge",
            "Jobs holding lane affinities.",
            [({}, snapshot.active)],
        )
        emit(
            "repro_jobs_outstanding",
            "gauge",
            "Total non-terminal jobs (pending + active).",
            [({}, snapshot.outstanding)],
        )
        emit(
            "repro_lane_inflight",
            "gauge",
            "Launches in flight, per lane.",
            [
                ({"lane": str(i)}, v)
                for i, v in enumerate(snapshot.lane_inflight)
            ],
        )
        emit(
            "repro_lane_launches_total",
            "counter",
            "Launches submitted per lane (utilization counter).",
            [
                ({"lane": str(i)}, v)
                for i, v in enumerate(snapshot.lane_launches)
            ],
        )
        emit(
            "repro_lane_completed_total",
            "counter",
            "Launches collected per lane.",
            [
                ({"lane": str(i)}, v)
                for i, v in enumerate(snapshot.lane_completed)
            ],
        )
        cache = snapshot.cache
        emit(
            "repro_cache_entries",
            "gauge",
            "Prepared-problem cache entries.",
            [({}, cache.entries)],
        )
        emit(
            "repro_cache_hits_total",
            "counter",
            "Prepared-problem cache hits.",
            [({}, cache.hits)],
        )
        emit(
            "repro_cache_misses_total",
            "counter",
            "Prepared-problem cache misses.",
            [({}, cache.misses)],
        )
        emit(
            "repro_cache_evictions_total",
            "counter",
            "Prepared-problem cache evictions.",
            [({}, cache.evictions)],
        )
        emit(
            "repro_cache_hit_rate",
            "gauge",
            "Cache hits over lookups.",
            [({}, cache.hit_rate)],
        )
        coalesce = snapshot.coalesce
        emit(
            "repro_coalesce_packs_total",
            "counter",
            "Fused super-launches issued.",
            [({}, coalesce.packs)],
        )
        emit(
            "repro_coalesce_segments_total",
            "counter",
            "Launches packed into super-launches.",
            [({}, coalesce.segments)],
        )
        emit(
            "repro_coalesce_launches_saved_total",
            "counter",
            "Launch slots saved by fusing (segments - packs).",
            [({}, coalesce.launches_saved)],
        )
        emit(
            "repro_coalesce_pack_splits_total",
            "counter",
            "Failed packs split back into solo launches.",
            [({}, coalesce.pack_splits)],
        )
        emit(
            "repro_coalesce_rows_max",
            "gauge",
            "Largest single pack (total rows).",
            [({}, coalesce.rows_max)],
        )
        islands = getattr(snapshot, "island_stats", None)
        if islands is not None:
            emit(
                "repro_islands",
                "gauge",
                "Federation islands (configured).",
                [({}, snapshot.islands)],
            )
            emit(
                "repro_islands_dead",
                "gauge",
                "Islands declared dead by the watchdog.",
                [({}, len(snapshot.dead_islands))],
            )
            emit(
                "repro_island_outstanding",
                "gauge",
                "Outstanding jobs per island.",
                [
                    ({"island": str(i)}, s.outstanding)
                    for i, s in enumerate(islands)
                    if s is not None
                ],
            )
    return "\n".join(lines) + "\n"
