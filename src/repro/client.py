"""Python client SDK for the network serve protocol (DESIGN.md §13).

:class:`Client` speaks the v1 JSON-lines wire protocol
(:mod:`repro.server.protocol`) over one persistent TCP connection and
mirrors the in-process service surface: :meth:`Client.submit` returns a
:class:`RemoteJobHandle` with the same shape as
:class:`~repro.service.JobHandle` — ``result()``, ``cancel()``,
``wait()``, ``incumbents()``, ``status`` — so code written against the
in-proc service ports to the network with a one-line change::

    from repro.client import Client

    with Client.connect("127.0.0.1", 7777, tenant="alice") as client:
        handle = client.submit(n=4, terms=[[0, 0, -3], [0, 1, 2]],
                               rounds=20, job_id="demo")
        for update in handle.incumbents():
            print("new best", update.energy)
        result = handle.result()
        print(result.best_energy, result.best_vector)

A model is uploaded once per connection: the ``accepted`` event of an
upload echoes the model's digest
(:func:`~repro.server.protocol.model_digest`), and a later submit of
the same model sends only that digest.  Should the server no longer
hold it (its model store is an LRU), the server answers
``unknown-model`` and the client re-sends the terms under the same job
id; the caller never sees that error.

One background reader thread demultiplexes the event stream: events
carrying an ``id`` route to that job's handle (or a pending control
call), everything else is connection-level.  Jobs survive the
connection — after a disconnect, a new client of the same tenant can
:meth:`Client.attach` to the job id and replay what it missed, or
:meth:`Client.query` its status.
"""

from __future__ import annotations

import itertools
import json
import queue
import socket
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.server import protocol
from repro.service.job import JobCancelledError, JobStatus

__all__ = [
    "Client",
    "RemoteIncumbent",
    "RemoteJobError",
    "RemoteJobHandle",
    "RemoteResult",
]


class RemoteJobError(RuntimeError):
    """A job (or the request that would have started it) failed serverside.

    ``code`` is the structured protocol error code (e.g. ``job-failed``,
    ``quota-exceeded``); ``report`` carries the server's structured
    failure report when one was attached.
    """

    def __init__(self, code: str, message: str, *, report=None, retries=0):
        super().__init__(message)
        self.code = code
        self.report = report
        self.retries = retries


@dataclass(frozen=True)
class RemoteIncumbent:
    """One streamed new-best event (wire form: no vector payload)."""

    job_id: str
    energy: int
    elapsed: float


@dataclass(frozen=True)
class RemoteResult:
    """The terminal payload of a remote job, shaped like
    :class:`~repro.solver.result.SolveResult` where the wire allows."""

    best_energy: int
    best_vector: np.ndarray
    launches: int
    elapsed: float
    retries: int
    #: the server's one-line human summary (``SolveResult.summary()``)
    summary: str
    degraded: bool = False
    degraded_reasons: tuple = ()

    @classmethod
    def from_event(cls, payload: dict) -> "RemoteResult":
        vector = np.fromiter(
            (int(c) for c in payload["vector"]), dtype=np.int8
        )
        return cls(
            best_energy=int(payload["energy"]),
            best_vector=vector,
            launches=int(payload["launches"]),
            elapsed=float(payload["elapsed"]),
            retries=int(payload.get("retries", 0)),
            summary=str(payload.get("summary") or ""),
            degraded=bool(payload.get("degraded", False)),
            degraded_reasons=tuple(payload.get("degraded_reasons") or ()),
        )


#: sentinel closing a remote incumbent stream
_STREAM_END = object()

#: digests a client remembers per connection (oldest forgotten first)
_KNOWN_MODELS_CAP = 1024


class RemoteJobHandle:
    """Client-side view of one remote job (API of
    :class:`~repro.service.JobHandle`).

    Differences forced by the wire: incumbents carry no solution vector,
    and a job cancelled mid-flight raises :class:`JobCancelledError`
    instead of returning a partial result (the ``cancelled`` event has no
    payload).
    """

    def __init__(self, client: "Client", job_id: str) -> None:
        self.client = client
        self.job_id = job_id
        #: the server's accepted ack (None until acknowledged)
        self.accepted: dict | None = None
        self._status = JobStatus.QUEUED
        self._result: RemoteResult | None = None
        self._error: BaseException | None = None
        self._done = threading.Event()
        self._stream: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        #: (model, frame) of a digest submit, kept until it is accepted
        #: so an ``unknown-model`` reply can re-send the terms
        self._upload: tuple | None = None

    # -- event routing (reader thread) -------------------------------------
    def _push(self, payload: dict) -> None:
        event = payload.get("event")
        if event == "accepted":
            with self._lock:
                self.accepted = payload
                self._upload = None
                if self._status is JobStatus.QUEUED:
                    self._status = JobStatus.RUNNING
        elif event == "incumbent":
            self._stream.put(
                RemoteIncumbent(
                    job_id=self.job_id,
                    energy=int(payload["energy"]),
                    elapsed=float(payload["elapsed"]),
                )
            )
        elif event == "done":
            self._finalize(
                JobStatus.DONE, result=RemoteResult.from_event(payload)
            )
        elif event == "cancelled":
            self._finalize(JobStatus.CANCELLED)
        elif event == "failed":
            report = payload.get("report")
            self._finalize(
                JobStatus.FAILED,
                error=RemoteJobError(
                    payload.get("code", protocol.E_JOB_FAILED),
                    payload.get("error", "job failed"),
                    report=report,
                    retries=int(payload.get("retries", 0)),
                ),
            )
        elif event == "error":
            # an admission/protocol error addressed to this job id means
            # the job never started (or the op against it was rejected);
            # only terminal-ize a job that is still pending its ack
            with self._lock:
                pending = self.accepted is None and not self._done.is_set()
            if pending:
                self._finalize(
                    JobStatus.FAILED,
                    error=RemoteJobError(
                        payload.get("code", protocol.E_INTERNAL),
                        payload.get("error", "request rejected"),
                    ),
                )
        # "attached"/"job" events are consumed by their control calls

    def _finalize(self, status, result=None, error=None) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._status = status
            self._result = result
            self._error = error
            self._upload = None
        self._stream.put(_STREAM_END)
        self._done.set()

    # -- JobHandle surface --------------------------------------------------
    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def cancel(self) -> None:
        self.client._send({"op": "cancel", "id": self.job_id})

    def result(self, timeout: float | None = None) -> RemoteResult:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.status.value}"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise JobCancelledError(
                    f"job {self.job_id} was cancelled"
                )
            return self._result

    def incumbents(self, timeout: float | None = None):
        """Iterate :class:`RemoteIncumbent` events until the job ends."""
        while True:
            try:
                item = self._stream.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no incumbent update from job {self.job_id} "
                    f"within {timeout}s"
                ) from None
            if item is _STREAM_END:
                return
            yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteJobHandle {self.job_id} {self.status.value}>"


class Client:
    """One persistent connection to a ``repro serve --listen`` server."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        tenant: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self._wlock = threading.Lock()
        self._jobs: dict[str, RemoteJobHandle] = {}
        self._pending: dict[str, queue.Queue] = {}
        self._jobs_lock = threading.Lock()
        self._counter = itertools.count(1)
        #: digests the server echoed on this connection (an ordered set)
        self._known_models: dict[str, None] = {}
        self._closed = threading.Event()
        self.timeout = timeout
        self.tenant = tenant
        #: the server's ready banner (protocol version, fleet shape)
        self.server_info: dict | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()
        if not self._ready.wait(timeout):
            self.close()
            raise TimeoutError("server did not send a ready banner")
        if tenant is not None:
            self._request("hello", {"tenant": tenant}, reply="hello")

    # -- lifecycle ----------------------------------------------------------
    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7777,
        *,
        tenant: str | None = None,
        timeout: float = 60.0,
    ) -> "Client":
        """Open a connection and wait for the server's ready banner."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock, tenant=tenant, timeout=timeout)

    def close(self) -> None:
        """Close the connection; outstanding handles keep their state but
        receive no further events (reattach from a new client)."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire plumbing ------------------------------------------------------
    def _send(self, payload: dict) -> None:
        if self._closed.is_set():
            raise ConnectionError("client is closed")
        line = json.dumps(
            {"v": protocol.PROTOCOL_VERSION, **payload}
        ).encode() + b"\n"
        with self._wlock:
            self._sock.sendall(line)

    def _read_loop(self) -> None:
        try:
            for raw in self._file:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    payload = json.loads(raw)
                    self._route(payload)
                except Exception:  # pragma: no cover - a bad event must
                    continue  # never kill the demultiplexer
        except (OSError, ValueError):
            pass
        finally:
            self._closed.set()
            self._file.close()  # the reader owns the socket's read file
            # wake up anything still waiting: no more events will come
            with self._jobs_lock:
                pending = list(self._pending.values())
                jobs = list(self._jobs.values())
            for box in pending:
                box.put(ConnectionError("connection closed"))
            for handle in jobs:
                if not handle.done():
                    handle._finalize(
                        JobStatus.FAILED,
                        error=ConnectionError(
                            "connection closed before the job finished "
                            "(reattach from a new client)"
                        ),
                    )

    def _route(self, payload: dict) -> None:
        event = payload.get("event")
        if event == "ready":
            self.server_info = payload
            self._ready.set()
            return
        request_id = payload.get("id")
        if request_id is not None:
            key = str(request_id)
            with self._jobs_lock:
                box = self._pending.get(key)
                handle = self._jobs.get(key)
            if box is not None and event not in (
                "incumbent",
                "done",
                "cancelled",
                "failed",
            ):
                box.put(payload)
                return
            if handle is not None:
                if event == "accepted" and "model" in payload:
                    self._remember_model(payload["model"])
                elif (
                    event == "error"
                    and payload.get("code") == protocol.E_UNKNOWN_MODEL
                    and self._reupload(handle)
                ):
                    return
                handle._push(payload)
                return
        # replies that came back without an id (legacy-shaped servers)
        # fall through to the oldest waiting control call of that kind
        with self._jobs_lock:
            boxes = [
                box
                for cid, box in self._pending.items()
                if cid.startswith("_ctl-")
            ]
        if boxes and event in ("stats", "metrics", "drained", "hello"):
            boxes[0].put(payload)

    def _remember_model(self, digest: str) -> None:
        with self._jobs_lock:
            known = self._known_models
            known.pop(digest, None)
            known[digest] = None
            if len(known) > _KNOWN_MODELS_CAP:
                del known[next(iter(known))]

    def _reupload(self, handle: RemoteJobHandle) -> bool:
        """Reader thread: answer ``unknown-model`` for *handle*'s digest
        submit by sending its terms under the same job id.  False when
        the handle has no pending digest submit."""
        with handle._lock:
            upload, handle._upload = handle._upload, None
        if upload is None:
            return False
        model, frame = upload
        with self._jobs_lock:
            self._known_models.pop(frame["model"], None)
        resend = {"op": "submit", **protocol.encode_terms(model)}
        resend.update((k, v) for k, v in frame.items() if k != "model")
        try:
            self._send(resend)
        except OSError:
            return False  # the connection is gone: fail the handle
        return True

    def _request(
        self, op: str, params: dict | None = None, *, reply: str
    ) -> dict:
        """Send one control op and await its reply.

        Replies correlate by ``id``: ops addressing a job (``attach``,
        ``query``) reuse the job id, everything else gets a synthetic
        correlation id.
        """
        params = dict(params or {})
        cid = str(params.get("id") or f"_ctl-{next(self._counter)}")
        box: queue.Queue = queue.Queue()
        with self._jobs_lock:
            self._pending[cid] = box
        try:
            self._send({"op": op, "id": cid, **params})
            deadline = self.timeout
            while True:
                payload = box.get(timeout=deadline)
                if isinstance(payload, BaseException):
                    raise payload
                event = payload.get("event")
                if event == "error":
                    raise RemoteJobError(
                        payload.get("code", protocol.E_INTERNAL),
                        payload.get("error", f"{op} failed"),
                    )
                if event == reply:
                    return payload
        except queue.Empty:
            raise TimeoutError(f"no {reply!r} reply to {op!r}") from None
        finally:
            with self._jobs_lock:
                self._pending.pop(cid, None)

    # -- public API ---------------------------------------------------------
    def submit(
        self,
        model=None,
        *,
        job_id: str | None = None,
        file: str | None = None,
        n: int | None = None,
        terms=None,
        name: str | None = None,
        solver: str | None = None,
        seed: int | None = None,
        devices: int | None = None,
        priority: int = 0,
        share: float = 1.0,
        target: int | None = None,
        time_limit: float | None = None,
        rounds: int | None = None,
        launches: int | None = None,
        virtual_time: bool = False,
    ) -> RemoteJobHandle:
        """Submit one job; returns its :class:`RemoteJobHandle`.

        The instance arrives as a
        :class:`~repro.core.qubo.QUBOModel` or
        :class:`~repro.core.sparse.SparseQUBOModel` (*model*), a
        server-side benchmark *file* path, or inline ``n`` + ``terms``
        triples.  A *model* the server already echoed on this connection
        is sent as its digest alone (see the module docstring).
        """
        params: dict = {"op": "submit"}
        if model is not None:
            digest = protocol.model_digest(model)
            with self._jobs_lock:
                known = digest in self._known_models
            if known:
                params["model"] = digest
            else:
                params.update(protocol.encode_terms(model))
        elif file is not None:
            params["file"] = file
        elif n is not None and terms is not None:
            params["n"] = int(n)
            params["terms"] = [list(t) for t in terms]
        else:
            raise ValueError(
                'submit needs a model, a file, or inline "n" + "terms"'
            )
        if name is not None:
            params["name"] = name
        if job_id is None:
            job_id = f"job-{next(self._counter)}"
        params["id"] = job_id
        for key, value in (
            ("solver", solver),
            ("seed", seed),
            ("devices", devices),
            ("target", target),
            ("time_limit", time_limit),
            ("rounds", rounds),
            ("launches", launches),
        ):
            if value is not None:
                params[key] = value
        if priority:
            params["priority"] = priority
        if share != 1.0:
            params["share"] = share
        if virtual_time:
            params["virtual_time"] = True
        handle = RemoteJobHandle(self, job_id)
        if "model" in params:
            handle._upload = (model, params)
        with self._jobs_lock:
            existing = self._jobs.get(job_id)
            if existing is not None and not existing.done():
                raise ValueError(f"duplicate job id {job_id!r}")
            self._jobs[job_id] = handle
        self._send(params)
        return handle

    def attach(self, job_id: str) -> RemoteJobHandle:
        """Re-subscribe to a running (or recently finished) job of this
        tenant: buffered incumbents replay into the fresh handle, then
        live events stream until the job ends."""
        handle = RemoteJobHandle(self, job_id)
        with self._jobs_lock:
            self._jobs[job_id] = handle
        try:
            ack = self._request("attach", {"id": job_id}, reply="attached")
        except BaseException:
            with self._jobs_lock:
                if self._jobs.get(job_id) is handle:
                    del self._jobs[job_id]
            raise
        handle.accepted = ack
        return handle

    def query(self, job_id: str) -> dict:
        """A status snapshot of one job (no subscription)."""
        return self._request("query", {"id": job_id}, reply="job")

    def stats(self) -> dict:
        """The service's stats dict plus the ``server`` ledger section."""
        return self._request("stats", reply="stats")

    def metrics_text(self) -> str:
        """The Prometheus text exposition (same body as ``/metrics``)."""
        return self._request("metrics", reply="metrics")["text"]

    def drain(self) -> None:
        """Block until every outstanding job of this tenant is terminal."""
        self._request("drain", reply="drained")

    def shutdown(self) -> None:
        """Ask the server to stop, then close the connection."""
        try:
            self._send({"op": "shutdown"})
        except ConnectionError:
            pass
        self.close()
