"""The asyncio front door of the solve service (DESIGN.md §13).

One :class:`ServeServer` multiplexes client connections over a single
shared :class:`~repro.service.SolveService` (or
:class:`~repro.federation.Federation`), speaking the versioned wire
protocol (:mod:`repro.server.protocol`).  A connection is either a TCP
socket (``repro serve --listen``, :meth:`ServeServer.run` /
:meth:`ServeServer.start`) or the process's own stdin/stdout
(``repro serve``, ``ServeServer.run(stdio=...)``) — the same code
serves both, so every op works on both.

Design points:

* **one event loop, no per-job threads** — the asyncio loop owns every
  piece of server state (job records, tenant ledgers, metrics), so none
  of it needs locks.  Each accepted job's handle gets a listener
  (:meth:`~repro.service.JobHandle.set_listener`) that posts its
  incumbents and its terminal event into the loop with
  ``call_soon_threadsafe``; the loop builds the wire payloads.  A slow
  or stalled client socket therefore never stalls scheduling — its
  events buffer in its transport, everyone else streams on.
* **durable job state** — a job belongs to a *(tenant, id)* key, not to
  a connection.  Disconnecting abandons nothing: the job keeps running,
  its incumbent stream is buffered in a bounded replay window, and a
  later connection of the same tenant can ``query`` its status or
  ``attach`` to replay what it missed and stream the rest live.
  Terminal records are purged ``job_ttl`` seconds after finishing.
* **per-tenant quotas and rate limits** (:mod:`repro.server.quota`) sit
  in front of the fair-share scheduler: ``max_jobs`` bounds a tenant's
  outstanding jobs, a token bucket bounds its submission rate, and both
  reject with structured error codes (``quota-exceeded`` /
  ``rate-limited`` with a ``retry_after`` hint).
* **observability** — a Prometheus-style text exposition
  (:mod:`repro.server.metrics`) on a dedicated HTTP port and the
  ``metrics`` op: queue depth, lane utilization, cache hit rate,
  coalesce counters, and per-tenant latency percentiles for
  admission→first-incumbent and admission→done.

The stdin connection differs from a TCP one only at its end:
``shutdown`` or EOF drains every accepted job (their terminal events
still stream out) before the ``bye``, and then stops the server.  A TCP
``shutdown`` says ``bye`` and stops the server at once.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
import traceback
from collections import deque
from dataclasses import replace

from repro.server import protocol
from repro.server.metrics import (
    STAGE_DONE,
    STAGE_FIRST_INCUMBENT,
    ServerMetrics,
    render_prometheus,
)
from repro.server.protocol import ProtocolError, Request
from repro.server.quota import TenantQuota
from repro.service.job import JobStatus
from repro.service.service import ServiceOverloadedError
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSSolver

__all__ = ["DEFAULT_TENANT", "ServeServer"]

#: tenant assumed for connections that never sent a ``hello``
DEFAULT_TENANT = "default"


class _JobRecord:
    """Server-side durable state of one submitted job (loop-confined)."""

    __slots__ = (
        "key",
        "client_id",
        "tenant",
        "handle",
        "accepted",
        "submitted_at",
        "first_incumbent_at",
        "finished_at",
        "best_energy",
        "terminal_payload",
        "incumbents",
        "dropped",
        "done",
        "subscribers",
    )

    def __init__(self, key, client_id, tenant, handle, buffer_cap: int):
        self.key = key
        self.client_id = client_id
        self.tenant = tenant
        self.handle = handle
        self.accepted: dict | None = None
        self.submitted_at = time.perf_counter()
        self.first_incumbent_at: float | None = None
        self.finished_at: float | None = None
        self.best_energy: int | None = None
        self.terminal_payload: dict | None = None
        #: bounded replay window of incumbent events (oldest dropped)
        self.incumbents: deque = deque(maxlen=buffer_cap)
        self.dropped = 0
        self.done = asyncio.Event()
        self.subscribers: set[_Connection] = set()

    @property
    def terminal(self) -> bool:
        return self.terminal_payload is not None


class _Connection:
    """One client connection (loop-confined)."""

    __slots__ = ("writer", "stdio", "tenant", "subscriptions", "open")

    def __init__(self, writer, stdio: bool = False) -> None:
        self.writer = writer
        #: the stdin/stdout connection: drains every job before its bye
        self.stdio = stdio
        self.tenant = DEFAULT_TENANT
        self.subscriptions: set[_JobRecord] = set()
        self.open = True

    def send(self, payload: dict) -> None:
        """Queue one event on the transport (never blocks the loop)."""
        if not self.open:
            return
        try:
            self.writer.write((protocol.encode_event(payload) + "\n").encode())
        except (ConnectionError, RuntimeError):
            self.open = False


class _StdoutWriter:
    """A text stream (stdout) as the writer half of a connection.

    ``write`` runs on the loop thread.  A ``BrokenPipeError`` means the
    client stopped reading: it is also raised into the connection's
    reader, so the session ends (and drains) instead of reading on.
    """

    def __init__(self, out, reader: asyncio.StreamReader) -> None:
        self._out = out
        self._reader = reader

    def write(self, data: bytes) -> None:
        try:
            self._out.write(data.decode())
            self._out.flush()
        except BrokenPipeError as exc:
            self._reader.set_exception(exc)
            raise

    def close(self) -> None:
        pass  # the process owns its stdout


def _feed_lines(stdin, reader: asyncio.StreamReader, loop) -> None:
    """Thread body: copy *stdin*'s lines into *reader*, then EOF.

    A read error ends the session as EOF does (the exception itself
    surfaces through the thread's excepthook).
    """
    try:
        for line in stdin:
            loop.call_soon_threadsafe(reader.feed_data, line.encode())
    except RuntimeError:
        return  # the loop closed: the session already ended
    finally:
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(reader.feed_eof)


class ServeServer:
    """Asyncio server over one solve service / federation.

    Serve TCP blocking (:meth:`run`, the ``--listen`` CLI path) or as a
    background thread (:meth:`start` / :meth:`stop`, also the
    context-manager form) — the thread mode is what tests and the load
    harness use — or serve one stdin/stdout connection blocking
    (``run(stdio=(stdin, stdout))``, plain ``repro serve``), which binds
    no TCP socket.  ``port=0`` and ``metrics_port=0`` bind ephemeral ports,
    exposed as :attr:`port` and :attr:`metrics_port` once started;
    ``metrics_port=None`` disables the HTTP exporter (the ``metrics`` op
    keeps working).
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = 0,
        quota: TenantQuota | None = None,
        job_ttl: float = 600.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        incumbent_buffer: int = 256,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.metrics_port = metrics_port
        self.quota = quota if quota is not None else TenantQuota()
        self.job_ttl = job_ttl
        self.max_frame_bytes = max_frame_bytes
        self.incumbent_buffer = incumbent_buffer
        self.metrics = ServerMetrics()
        self._records: dict[tuple[str, str], _JobRecord] = {}
        self._tenant_outstanding: dict[str, int] = {}
        self._buckets: dict[str, object] = {}
        self._conns: set[_Connection] = set()
        self._conn_tasks: set = set()
        self._req_counter = 0
        #: job events posted by handle listeners, delivered on the loop
        self._events: deque = deque()
        self._flush_scheduled = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    async def _amain(self, on_ready=None, stdio=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # stream budget above the frame limit: frames between the two get
        # a clean frame-too-large error, frames beyond the stream budget
        # additionally cost the connection (unrecoverable)
        limit = 2 * self.max_frame_bytes + 65536
        server = None
        if stdio is None:
            server = await asyncio.start_server(
                self._client_connected, self.host, self.port, limit=limit
            )
            self.port = server.sockets[0].getsockname()[1]
        metrics_server = None
        if self.metrics_port is not None:
            metrics_server = await asyncio.start_server(
                self._metrics_connected, self.host, self.metrics_port
            )
            self.metrics_port = metrics_server.sockets[0].getsockname()[1]
        purge = asyncio.create_task(self._purge_loop())
        try:
            if stdio is not None:
                stdin, stdout = stdio
                reader = asyncio.StreamReader(limit=limit)
                threading.Thread(
                    target=_feed_lines,
                    args=(stdin, reader, self._loop),
                    name="repro-serve-stdin",
                    daemon=True,
                ).start()
                self._conn_tasks.add(
                    asyncio.create_task(
                        self._client_connected(
                            reader, _StdoutWriter(stdout, reader), stdio=True
                        )
                    )
                )
            if on_ready is not None:
                on_ready(self)
            await self._stop.wait()
        finally:
            purge.cancel()
            if server is not None:
                server.close()
                await server.wait_closed()
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            for conn in list(self._conns):
                conn.send({"event": "bye"})
                conn.open = False
                try:
                    conn.writer.close()
                except Exception:  # pragma: no cover - already torn down
                    pass
            # closing the transports feeds EOF to the connection tasks —
            # wait for them to unwind on their own instead of letting
            # asyncio.run() cancel them mid-readline (noisy teardown)
            if self._conn_tasks:
                await asyncio.wait(set(self._conn_tasks), timeout=5.0)

    def run(self, on_ready=None, stdio=None) -> int:
        """Serve TCP until a ``shutdown`` op or Ctrl-C; returns an exit
        code.  Given ``stdio=(stdin, stdout)`` text streams, serve that
        one connection instead, binding no TCP socket, until its
        ``shutdown`` or EOF — every accepted job finishes first."""
        try:
            asyncio.run(self._amain(on_ready, stdio))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return 0

    def start(self) -> "ServeServer":
        """Start serving on a background thread; returns self once the
        ports are bound (raises the startup error otherwise)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        ready = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            try:
                asyncio.run(self._amain(lambda _self: ready.set()))
            except BaseException as exc:  # pragma: no cover - startup bugs
                failure.append(exc)
            finally:
                ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-serve-server", daemon=True
        )
        self._thread.start()
        ready.wait(30.0)
        if failure:
            self._thread.join(5.0)
            raise failure[0]
        return self

    def stop(self) -> None:
        """Stop a background-thread server (idempotent)."""
        thread, loop, stop = self._thread, self._loop, self._stop
        if thread is None or loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:  # loop already closed
            pass
        thread.join(10.0)
        self._thread = None

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client connections ------------------------------------------------
    def _ready_payload(self) -> dict:
        payload = {"event": "ready", "protocol": protocol.PROTOCOL_VERSION}
        devices = getattr(
            self.service, "num_devices", getattr(self.service, "devices", None)
        )
        if devices is not None:
            payload["devices"] = devices
        config = getattr(self.service, "default_config", None)
        if config is not None:
            payload["blocks"] = config.blocks_per_gpu
        islands = getattr(self.service, "num_islands", None)
        if islands is not None:
            payload["islands"] = islands
            payload["topology"] = self.service.topology
        max_queue = getattr(self.service, "max_queue", None)
        if max_queue is not None:
            payload["max_queue"] = max_queue
        if self.metrics_port is not None:
            payload["metrics_port"] = self.metrics_port
        return payload

    async def _client_connected(self, reader, writer, stdio=False) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn = _Connection(writer, stdio)
        self._conns.add(conn)
        self.metrics.connection_opened()
        conn.send(self._ready_payload())
        try:
            while self._stop is not None and not self._stop.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # the frame blew the stream budget: the reader cannot
                    # resync mid-line, so report and drop the connection
                    self._error(
                        conn,
                        protocol.E_FRAME_TOO_LARGE,
                        "frame exceeds the stream budget; closing connection",
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if not await self._handle_line(conn, line.strip()):
                    break
            if conn.stdio:
                # stdin's shutdown/EOF contract: every accepted job
                # finishes, streaming its terminal event, before the bye
                await self._drain()
                conn.send({"event": "bye"})
        finally:
            if conn.stdio:
                self._stop.set()
            for record in list(conn.subscriptions):
                record.subscribers.discard(conn)
            conn.subscriptions.clear()
            conn.open = False
            self._conns.discard(conn)
            self.metrics.connection_closed()
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass

    async def _handle_line(self, conn: _Connection, line: bytes) -> bool:
        """Decode and dispatch one frame; False ends the connection."""
        try:
            request = protocol.decode_request(
                line, max_bytes=self.max_frame_bytes
            )
        except ProtocolError as exc:
            self._error(conn, exc.code, str(exc))
            return True
        self.metrics.record_frame()
        try:
            return await self._dispatch(conn, request)
        except ProtocolError as exc:
            fields = {} if request.id is None else {"id": request.id}
            self._error(conn, exc.code, str(exc), **fields)
            return True
        except Exception:
            # a handler bug must never tear the connection down
            self._error(
                conn,
                protocol.E_INTERNAL,
                "internal error handling request",
                op=request.op,
                traceback=traceback.format_exc(),
            )
            return True

    def _error(
        self, conn: _Connection, code: str, message: str, **fields
    ) -> None:
        self.metrics.record_error(code)
        conn.send(protocol.error_payload(code, message, **fields))

    # -- op dispatch -------------------------------------------------------
    async def _dispatch(self, conn: _Connection, request: Request) -> bool:
        op = request.op
        if op == "hello":
            tenant = str(request.params.get("tenant") or DEFAULT_TENANT)
            conn.tenant = tenant
            reply = {
                "event": "hello",
                "tenant": tenant,
                "protocol": protocol.PROTOCOL_VERSION,
            }
            if request.id is not None:
                reply["id"] = request.id
            conn.send(reply)
        elif op == "submit":
            self._submit(conn, request)
        elif op == "cancel":
            record = self._record_for(conn, request)
            record.handle.cancel()
        elif op == "query":
            record = self._record_for(conn, request)
            conn.send(
                {
                    "event": "job",
                    "id": record.client_id,
                    "tenant": record.tenant,
                    "job": record.handle.job_id,
                    "status": record.handle.status.value,
                    "best": record.best_energy,
                    "done": record.terminal,
                    "buffered": len(record.incumbents),
                    "dropped": record.dropped,
                }
            )
        elif op == "attach":
            self._attach(conn, request)
        elif op == "stats":
            stats = await asyncio.to_thread(self.service.stats)
            payload = {
                "event": "stats",
                "errors": self.metrics.errors_total,
                "server": self.metrics.snapshot(),
                **stats,
            }
            if request.id is not None:
                payload["id"] = request.id
            conn.send(payload)
        elif op == "metrics":
            snapshot = await asyncio.to_thread(self.service.stats_snapshot)
            payload = {
                "event": "metrics",
                "text": render_prometheus(self.metrics, snapshot),
            }
            if request.id is not None:
                payload["id"] = request.id
            conn.send(payload)
        elif op == "drain":
            await self._drain(conn.tenant)
            reply = {"event": "drained"}
            if request.id is not None:
                reply["id"] = request.id
            conn.send(reply)
        elif op == "shutdown":
            if not conn.stdio:  # stdin drains first (_client_connected)
                conn.send({"event": "bye"})
                assert self._stop is not None
                self._stop.set()
            return False
        else:  # pragma: no cover - decode_request already gates ops
            raise ProtocolError(protocol.E_UNKNOWN_OP, f"unknown op {op!r}")
        return True

    async def _drain(self, tenant: str | None = None) -> None:
        """Wait until every live job (of *tenant*, if given) is terminal."""
        waits = [
            record.done.wait()
            for record in self._records.values()
            if not record.terminal and tenant in (None, record.tenant)
        ]
        if waits:
            await asyncio.gather(*waits)

    def _record_for(self, conn: _Connection, request: Request) -> _JobRecord:
        if request.id is None:
            raise ProtocolError(
                protocol.E_BAD_REQUEST, f'{request.op} needs a job "id"'
            )
        record = self._records.get((conn.tenant, request.id))
        if record is None:
            raise ProtocolError(
                protocol.E_UNKNOWN_JOB,
                f"unknown job id {request.id!r} for tenant {conn.tenant!r}",
            )
        return record

    # -- submit / attach ---------------------------------------------------
    def _submit(self, conn: _Connection, request: Request) -> None:
        tenant = conn.tenant
        params = request.params
        if request.id is not None:
            client_id = request.id
        else:
            self._req_counter += 1
            client_id = f"req-{self._req_counter}"
        key = (tenant, client_id)
        existing = self._records.get(key)
        if existing is not None and not existing.terminal:
            raise ProtocolError(
                protocol.E_DUPLICATE_ID,
                f"duplicate job id {client_id!r} (still running)",
            )
        outstanding = self._tenant_outstanding.get(tenant, 0)
        if (
            self.quota.max_jobs is not None
            and outstanding >= self.quota.max_jobs
        ):
            self._error(
                conn,
                protocol.E_QUOTA_EXCEEDED,
                f"tenant {tenant!r} already has {outstanding} outstanding "
                f"jobs (quota {self.quota.max_jobs})",
                id=client_id,
                limit=self.quota.max_jobs,
            )
            return
        if self.quota.rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = self.quota.make_bucket()
            if not bucket.try_acquire():
                self._error(
                    conn,
                    protocol.E_RATE_LIMITED,
                    f"tenant {tenant!r} exceeded {self.quota.rate}/s "
                    "submission rate",
                    id=client_id,
                    retry_after=round(bucket.retry_after(), 4),
                )
                return
        try:
            model = protocol.load_model(params)
            solver_cls = (
                ABSSolver if params.get("solver") == "abs" else DABSSolver
            )
            kwargs = protocol.submit_kwargs(params)
            kwargs.update(protocol.limit_kwargs(params))
            if params.get("virtual_time"):
                default = getattr(self.service, "default_config", None)
                if default is None:
                    raise ProtocolError(
                        protocol.E_BAD_REQUEST,
                        "virtual_time submissions need a service with a "
                        "default solver config",
                    )
                kwargs["config"] = replace(default, virtual_time=True)
            handle = self.service.submit(
                model, solver_cls=solver_cls, block=False, **kwargs
            )
        except ProtocolError:
            raise
        except ServiceOverloadedError as exc:
            self._error(conn, protocol.E_OVERLOADED, str(exc), id=client_id)
            return
        except (OSError, ValueError, KeyError) as exc:
            self._error(conn, protocol.E_BAD_REQUEST, str(exc), id=client_id)
            return
        record = _JobRecord(
            key, client_id, tenant, handle, self.incumbent_buffer
        )
        self._records[key] = record
        self._tenant_outstanding[tenant] = outstanding + 1
        self.metrics.record_submit(tenant)
        accepted = {
            "event": "accepted",
            "id": client_id,
            "tenant": tenant,
            "job": handle.job_id,
            "n": model.n,
        }
        record.accepted = accepted
        record.subscribers.add(conn)
        conn.subscriptions.add(record)
        conn.send(accepted)
        handle.set_listener(lambda update: self._post(record, update))

    def _attach(self, conn: _Connection, request: Request) -> None:
        record = self._record_for(conn, request)
        replayed = list(record.incumbents)
        terminal = record.terminal_payload
        conn.send(
            {
                "event": "attached",
                "id": record.client_id,
                "tenant": record.tenant,
                "job": record.handle.job_id,
                "status": record.handle.status.value,
                "replayed": len(replayed) + (1 if terminal else 0),
                "dropped": record.dropped,
            }
        )
        for payload in replayed:
            conn.send(payload)
        if terminal is not None:
            conn.send(terminal)
        else:
            record.subscribers.add(conn)
            conn.subscriptions.add(record)

    # -- job event plumbing (handle listeners → loop) ---------------------
    def _post(self, record: _JobRecord, update) -> None:
        """Handle listener (service thread): hand one job event — an
        incumbent update, or ``None`` once terminal — to the loop.

        Events queue up behind one pending wake-up of the loop, so a
        busy loop costs the service thread no extra ``call_soon_threadsafe``
        (a socket write that gives up the GIL mid-schedule).
        """
        self._events.append((record, update))
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        try:
            assert self._loop is not None
            self._loop.call_soon_threadsafe(self._flush_events)
        except RuntimeError:  # loop closed mid-shutdown: nobody listens
            pass

    def _flush_events(self) -> None:
        # reset before draining: an event appended from here on either
        # is drained below or schedules the next flush
        self._flush_scheduled = False
        while self._events:
            self._deliver(*self._events.popleft())

    def _terminal_payload(self, record: _JobRecord) -> dict:
        handle = record.handle
        status = handle.status
        base = {"id": record.client_id, "tenant": record.tenant}
        if status is JobStatus.DONE:
            result = handle.result()
            payload = {
                "event": "done",
                **base,
                "energy": int(result.best_energy),
                "vector": "".join(map(str, result.best_vector.tolist())),
                "launches": result.launches,
                "elapsed": round(result.elapsed, 6),
                "retries": result.retries,
                "summary": result.summary(),
            }
            if result.degraded:
                payload["degraded"] = True
                payload["degraded_reasons"] = list(result.degraded_reasons)
            return payload
        if status is JobStatus.CANCELLED:
            return {"event": "cancelled", **base}
        payload = {
            "event": "failed",
            **base,
            "code": protocol.E_JOB_FAILED,
            "retries": 0,
        }
        try:
            handle.result()
            payload["error"] = "unknown failure"  # pragma: no cover
        except Exception as exc:
            payload["error"] = str(exc)
            payload["traceback"] = traceback.format_exc()
            report = getattr(exc, "report", None)
            if report is not None:
                payload["retries"] = report.retries
                payload["report"] = report.to_dict()
        return payload

    def _deliver(self, record: _JobRecord, update) -> None:
        """Loop thread: build one job event's payload (an incumbent, or
        the terminal event once *update* is ``None``), then buffer,
        account, and fan it out."""
        now = time.perf_counter()
        if update is not None:
            payload = {
                "event": "incumbent",
                "id": record.client_id,
                "tenant": record.tenant,
                "energy": update.energy,
                "elapsed": round(update.elapsed, 6),
            }
            record.best_energy = update.energy
            if record.first_incumbent_at is None:
                record.first_incumbent_at = now
                self.metrics.observe_latency(
                    record.tenant,
                    STAGE_FIRST_INCUMBENT,
                    now - record.submitted_at,
                )
            if len(record.incumbents) == record.incumbents.maxlen:
                record.dropped += 1
            record.incumbents.append(payload)
            for conn in list(record.subscribers):
                conn.send(payload)
            return
        try:
            payload = self._terminal_payload(record)
        except Exception:
            payload = {
                "event": "failed",
                "id": record.client_id,
                "tenant": record.tenant,
                "code": protocol.E_INTERNAL,
                "error": "internal error building the terminal event",
                "traceback": traceback.format_exc(),
                "retries": 0,
            }
        event = payload["event"]
        record.terminal_payload = payload
        record.finished_at = now
        self._tenant_outstanding[record.tenant] -= 1
        self.metrics.record_terminal(record.tenant, event)
        if event == "done":
            record.best_energy = payload["energy"]
            self.metrics.observe_latency(
                record.tenant, STAGE_DONE, now - record.submitted_at
            )
        elif event == "failed":
            self.metrics.record_error(payload["code"])
        record.done.set()
        for conn in list(record.subscribers):
            conn.send(payload)
            conn.subscriptions.discard(record)
        record.subscribers.clear()

    # -- terminal-record purge ----------------------------------------------
    async def _purge_loop(self) -> None:
        period = min(max(self.job_ttl / 4.0, 0.05), 5.0)
        while True:
            await asyncio.sleep(period)
            cutoff = time.perf_counter() - self.job_ttl
            stale = [
                key
                for key, record in self._records.items()
                if record.terminal
                and record.finished_at is not None
                and record.finished_at < cutoff
            ]
            for key in stale:
                del self._records[key]

    # -- /metrics HTTP endpoint --------------------------------------------
    async def _metrics_connected(self, reader, writer) -> None:
        try:
            try:
                request_line = await asyncio.wait_for(reader.readline(), 5.0)
                while True:  # drain headers up to the blank line
                    header = await asyncio.wait_for(reader.readline(), 5.0)
                    if not header.strip():
                        break
            except (asyncio.TimeoutError, ConnectionError):
                return
            parts = request_line.split()
            path = parts[1].decode("latin-1") if len(parts) >= 2 else "/"
            if path not in ("/metrics", "/"):
                writer.write(
                    b"HTTP/1.0 404 Not Found\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
            else:
                snapshot = await asyncio.to_thread(self.service.stats_snapshot)
                body = render_prometheus(self.metrics, snapshot).encode()
                writer.write(
                    b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
            await writer.drain()
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass

