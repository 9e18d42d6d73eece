"""``repro serve`` — the JSON-lines front end over :class:`SolveService`.

One server (:class:`repro.server.ServeServer`), one protocol
(:mod:`repro.server.protocol`), two transports:

* **stdin/stdout** (default) — the process's own pipes are one
  connection: one JSON request per line in, one JSON event per line
  out; the simplest transport that composes with pipes and process
  supervisors.  ``shutdown`` or EOF waits for every accepted job before
  the closing ``bye``.
* **TCP** (``--listen [HOST:]PORT``) — persistent multi-client
  connections.

Both give durable jobs with ``query``/``attach`` reattachment,
per-tenant quotas and rate limits, and an optional Prometheus
``/metrics`` endpoint (``--metrics-port``).  Requests are v1 envelopes;
a frame without ``"v": 1`` gets one structured ``error`` event::

    {"v": 1, "op": "submit", "id": "my-job", "file": "g22.txt",
     "rounds": 50, "target": -1234, "priority": 1, "share": 2.0}
    {"v": 1, "op": "submit", "id": "inline", "n": 4,
     "terms": [[0, 0, -3], [0, 1, 2], [1, 1, -3]], "launches": 40}
    {"v": 1, "op": "cancel", "id": "my-job"}
    {"v": 1, "op": "stats"}
    {"v": 1, "op": "metrics"}    # Prometheus text exposition
    {"v": 1, "op": "drain"}      # block until every accepted job is terminal
    {"v": 1, "op": "shutdown"}   # stdin: drain + exit (EOF does the same)

Events (all carry ``"event"`` and ``"v"``): ``accepted``, ``incumbent``
(streamed as the job's pools improve), ``done`` (with the final energy,
vector and summary), ``cancelled``, ``failed``, ``stats``, ``metrics``,
``error`` (with a structured ``code``).  Events of different jobs
interleave; ``id`` attributes them.

Instances arrive either as a benchmark file (``file`` + optional
``format`` — same auto-detection as the solve CLI) or inline as
``n`` + ``terms`` triples ``[i, j, w]`` (``i == j`` are linear terms).
"""

from __future__ import annotations

import argparse
import sys

from repro.backends import backend_names
from repro.server import ServeServer, TenantQuota, protocol
from repro.service.cache import ProblemCache
from repro.service.service import SolveService
from repro.solver.dabs import DABSConfig

__all__ = ["build_serve_parser", "serve_main"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a long-lived multi-tenant solve service speaking "
        "the versioned JSON-lines protocol — over stdin/stdout by default, "
        "or as an asyncio TCP server with --listen.",
    )
    parser.add_argument(
        "--gpus", type=int, default=2, help="fleet lanes (virtual GPUs)"
    )
    parser.add_argument(
        "--blocks", type=int, default=8, help="blocks per device per job"
    )
    parser.add_argument(
        "--pool", type=int, default=20, help="pool capacity per job device"
    )
    parser.add_argument(
        "--backend",
        choices=("auto",) + backend_names(),
        default=None,
        help="compute backend for all jobs (default: env var, then auto)",
    )
    parser.add_argument("--seed", type=int, default=0, help="service RNG seed")
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission control: max outstanding jobs before submit errors",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=32,
        help="prepared-problem cache entries",
    )
    parser.add_argument(
        "--islands",
        type=int,
        default=1,
        help="serve a federation of N island processes (each a full "
        "--gpus fleet) instead of one in-process service (default: 1)",
    )
    parser.add_argument(
        "--topology",
        choices=("ring", "all"),
        default="ring",
        help="island migration topology (federation mode only)",
    )
    parser.add_argument(
        "--migration-period",
        type=int,
        default=16,
        help="launches per island between elite migrations; 0 disables",
    )
    parser.add_argument(
        "--migration-k",
        type=int,
        default=4,
        help="elites each island publishes per migration",
    )
    parser.add_argument(
        "--transport",
        choices=("queue", "slab"),
        default="queue",
        help="inter-island migration transport (federation mode only)",
    )
    parser.add_argument(
        "--coalesce",
        choices=("on", "off", "auto"),
        default="auto",
        help="continuous batching: fuse pack-compatible co-tenant "
        "launches into one super-launch per lane slot (bit-exact per "
        "job; auto defers to REPRO_COALESCE, then on)",
    )
    parser.add_argument(
        "--coalesce-max-rows",
        type=int,
        default=256,
        metavar="R",
        help="row budget (total blocks) of one fused super-launch",
    )
    # -- network serving (repro.server) ------------------------------------
    parser.add_argument(
        "--listen",
        metavar="[HOST:]PORT",
        default=None,
        help="serve over TCP instead of stdin/stdout: bind HOST:PORT "
        "(default host 127.0.0.1; port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve a Prometheus /metrics HTTP endpoint on PORT "
        "(0 picks an ephemeral port, announced in the ready event)",
    )
    parser.add_argument(
        "--tenant-max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant quota: max outstanding jobs",
    )
    parser.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="R",
        help="per-tenant rate limit: sustained submissions/second",
    )
    parser.add_argument(
        "--tenant-burst",
        type=float,
        default=10.0,
        metavar="B",
        help="burst allowance of the per-tenant rate limiter",
    )
    parser.add_argument(
        "--job-ttl",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="keep finished jobs queryable/attachable this long",
    )
    return parser


def _parse_listen(spec: str) -> dict:
    """``[HOST:]PORT`` → the server's ``host``/``port`` keywords."""
    host, _, port = spec.rpartition(":")
    return {"host": host or "127.0.0.1", "port": int(port)}


def _build_service(args):
    """The service (or federation) behind either transport."""
    config = DABSConfig(
        num_gpus=args.gpus,
        blocks_per_gpu=args.blocks,
        pool_capacity=args.pool,
        backend=args.backend,
        coalesce={"on": True, "off": False, "auto": None}[args.coalesce],
        coalesce_max_rows=args.coalesce_max_rows,
    )
    if args.islands > 1:
        # federation mode: N island processes behind the same protocol —
        # Federation duck-types the submit/stats/close surface the
        # server drives, so the wire format is identical
        from repro.federation import Federation

        return Federation(
            args.islands,
            topology=args.topology,
            transport=args.transport,
            migration_period=(
                args.migration_period if args.migration_period > 0 else None
            ),
            migration_k=args.migration_k,
            default_config=config,
            max_queue=args.max_queue,
            seed=args.seed,
        )
    return SolveService(
        devices=args.gpus,
        default_config=config,
        max_queue=args.max_queue,
        cache=ProblemCache(capacity=args.cache_capacity),
        seed=args.seed,
    )


def serve_main(argv=None, stdin=None, stdout=None) -> int:
    """Run the server until shutdown (or stdin EOF); returns an exit code."""
    args = build_serve_parser().parse_args(argv)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    service = _build_service(args)
    server = ServeServer(
        service,
        **(_parse_listen(args.listen) if args.listen is not None else {}),
        metrics_port=args.metrics_port,
        quota=TenantQuota(
            max_jobs=args.tenant_max_jobs,
            rate=args.tenant_rate,
            burst=args.tenant_burst,
        ),
        job_ttl=args.job_ttl,
    )
    with service:
        if args.listen is None:
            return server.run(stdio=(stdin, stdout))

        def announce(srv) -> None:
            line = {
                "event": "listening",
                "host": srv.host,
                "port": srv.port,
            }
            if srv.metrics_port is not None:
                line["metrics_port"] = srv.metrics_port
            print(protocol.encode_event(line), file=stdout, flush=True)

        return server.run(announce)
