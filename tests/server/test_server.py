"""The asyncio TCP server: multiplexing, durability, quotas, metrics."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.client import Client, RemoteJobError
from repro.server import ServeServer, TenantQuota
from repro.server.server import _JobRecord
from repro.service.job import IncumbentUpdate
from repro.service import SolveService
from repro.service.job import JobCancelledError
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

TERMS = [[0, 0, -3], [0, 1, 2], [1, 1, -3], [2, 2, 1], [2, 3, -4], [3, 3, 1]]


def make_service(**kwargs) -> SolveService:
    kwargs.setdefault(
        "default_config", DABSConfig(num_gpus=2, blocks_per_gpu=4)
    )
    kwargs.setdefault("devices", 2)
    return SolveService(**kwargs)


class RawClient:
    """A bare socket speaking JSON lines — for frames the SDK won't send."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.file = self.sock.makefile("rwb")

    def send_line(self, line: str) -> None:
        self.file.write(line.encode() + b"\n")
        self.file.flush()

    def send(self, payload: dict) -> None:
        self.send_line(json.dumps(payload))

    def recv(self) -> dict:
        line = self.file.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    def recv_until(self, *events: str) -> list[dict]:
        """Collect events until one of *events* arrives (inclusive)."""
        seen = []
        while True:
            payload = self.recv()
            seen.append(payload)
            if payload.get("event") in events:
                return seen

    def close(self) -> None:
        self.sock.close()


class TestWireOverTcp:
    def test_frame_without_version_is_one_error_over_tcp(self):
        """A pre-v1 frame (no "v") costs exactly one structured error
        event; the next v1 frame on the same connection is served."""
        with make_service() as service, ServeServer(
            service, metrics_port=None
        ) as server:
            raw = RawClient(server.port)
            assert raw.recv()["event"] == "ready"
            raw.send({"op": "submit", "id": "a", "n": 4, "terms": TERMS,
                      "rounds": 5, "seed": 0})
            error = raw.recv()
            assert error["event"] == "error"
            assert error["code"] == "version-mismatch"
            raw.send({"v": 1, "op": "submit", "id": "a", "n": 4,
                      "terms": TERMS, "rounds": 5, "seed": 0})
            events = raw.recv_until("done", "failed")
            kinds = [e["event"] for e in events]
            assert kinds[0] == "accepted"
            assert "incumbent" in kinds
            assert "error" not in kinds
            done = events[-1]
            assert done["event"] == "done"
            assert done["id"] == "a"
            vector = np.array([int(c) for c in done["vector"]], dtype=np.uint8)
            assert len(vector) == 4
            raw.close()

    def test_structured_errors_keep_the_connection_alive(self):
        with make_service() as service, ServeServer(
            service, metrics_port=None, max_frame_bytes=2048
        ) as server:
            raw = RawClient(server.port)
            raw.recv()  # ready
            raw.send({"v": 2, "op": "stats"})
            error = raw.recv()
            assert error["event"] == "error"
            assert error["code"] == "version-mismatch"
            raw.send_line('{"op": oops}')
            assert raw.recv()["code"] == "bad-json"
            raw.send({"v": 1, "op": "frobnicate"})
            assert raw.recv()["code"] == "unknown-op"
            # oversize (but under the stream budget): error, still usable
            raw.send({"v": 1, "op": "submit", "id": "big", "blob": "x" * 4096})
            assert raw.recv()["code"] == "frame-too-large"
            raw.send({"v": 1, "op": "cancel", "id": "nope"})
            error = raw.recv()
            assert error["code"] == "unknown-job"
            assert "unknown job id" in error["error"]
            # the connection survived all of it
            raw.send({"v": 1, "op": "stats", "id": "s1"})
            stats = raw.recv_until("stats")[-1]
            assert stats["devices"] == 2
            assert stats["server"]["connections"] == 1
            raw.close()

    def test_duplicate_id_rejected_while_running(self):
        model = random_qubo(16, seed=3)
        with make_service() as service, ServeServer(
            service, metrics_port=None
        ) as server:
            with Client.connect("127.0.0.1", server.port) as client:
                handle = client.submit(model, rounds=4000, seed=0, job_id="a")
                raw = RawClient(server.port)
                raw.recv()  # ready
                raw.send({"v": 1, "op": "submit", "id": "a", "n": 4,
                          "terms": TERMS, "rounds": 2})
                error = raw.recv()
                assert error["event"] == "error"
                assert error["code"] == "duplicate-id"
                raw.close()
                handle.cancel()
                # either a clean cancel or (tiny instance) a pre-cancel done
                try:
                    handle.result(timeout=60)
                except JobCancelledError:
                    pass


class TestDurableJobs:
    def test_disconnect_then_reattach_streams_to_completion(self):
        model = random_qubo(16, seed=5)
        with make_service() as service, ServeServer(
            service, metrics_port=None
        ) as server:
            first = Client.connect("127.0.0.1", server.port, tenant="t0")
            handle = first.submit(model, rounds=60, seed=0, job_id="durable")
            handle.wait(0.02)
            first.close()  # drop the connection mid-flight
            # the job survives its client: reattach and stream the rest
            with Client.connect(
                "127.0.0.1", server.port, tenant="t0"
            ) as second:
                attached = second.attach("durable")
                result = attached.result(timeout=120)
                # the streamed vector is the real solution of the energy
                assert model.energy(result.best_vector) == result.best_energy
                assert result.launches > 0
                query = second.query("durable")
                assert query["status"] == "done"
                assert query["done"] is True
                assert query["best"] == result.best_energy

    def test_attach_is_tenant_scoped(self):
        model = random_qubo(16, seed=5)
        with make_service() as service, ServeServer(
            service, metrics_port=None
        ) as server:
            owner = Client.connect("127.0.0.1", server.port, tenant="alice")
            handle = owner.submit(model, rounds=4000, seed=0, job_id="mine")
            with Client.connect(
                "127.0.0.1", server.port, tenant="eve"
            ) as other:
                with pytest.raises(RemoteJobError) as excinfo:
                    other.attach("mine")
                assert excinfo.value.code == "unknown-job"
                with pytest.raises(RemoteJobError):
                    other.query("mine")
            handle.cancel()
            owner.drain()
            owner.close()

    def test_virtual_time_submission_matches_direct_solve(self):
        """Acceptance: a virtual_time submit through TCP is bit-exact
        with the same solve run directly against the service."""
        model = random_qubo(24, seed=7)
        with make_service() as service, ServeServer(
            service, metrics_port=None
        ) as server:
            with Client.connect("127.0.0.1", server.port) as client:
                remote = client.submit(
                    model, rounds=6, seed=3, virtual_time=True, job_id="vt"
                ).result(timeout=120)
            direct = service.submit(
                model,
                solver_cls=DABSSolver,
                seed=3,
                max_rounds=6,
                config=DABSConfig(
                    num_gpus=2, blocks_per_gpu=4, virtual_time=True
                ),
            ).result()
            assert remote.best_energy == int(direct.best_energy)
            assert np.array_equal(remote.best_vector, direct.best_vector)
            assert remote.launches == direct.launches


class TestQuotas:
    def test_outstanding_job_quota_is_enforced_across_connections(self):
        model = random_qubo(16, seed=1)
        with make_service() as service, ServeServer(
            service, metrics_port=None, quota=TenantQuota(max_jobs=1)
        ) as server:
            c1 = Client.connect("127.0.0.1", server.port, tenant="t0")
            c2 = Client.connect("127.0.0.1", server.port, tenant="t0")
            running = c1.submit(model, rounds=4000, seed=0, job_id="one")
            deadline = time.time() + 10
            while running.accepted is None and time.time() < deadline:
                time.sleep(0.005)  # cross-connection frames have no order
            assert running.accepted is not None
            # same tenant, other connection: over quota
            blocked = c2.submit(model, rounds=5, seed=0, job_id="two")
            with pytest.raises(RemoteJobError) as excinfo:
                blocked.result(timeout=30)
            assert excinfo.value.code == "quota-exceeded"
            # a different tenant is unaffected
            with Client.connect(
                "127.0.0.1", server.port, tenant="t1"
            ) as c3:
                ok = c3.submit(n=4, terms=TERMS, rounds=3, seed=0)
                assert ok.result(timeout=60).best_energy <= 0
            running.cancel()
            c1.drain()
            # quota released after the terminal event
            retry = c2.submit(model, rounds=3, seed=0, job_id="three")
            retry.result(timeout=60)
            c1.close()
            c2.close()

    def test_rate_limit_rejects_with_retry_after(self):
        with make_service() as service, ServeServer(
            service,
            metrics_port=None,
            quota=TenantQuota(rate=0.001, burst=2.0),
        ) as server:
            with Client.connect("127.0.0.1", server.port) as client:
                first = client.submit(n=4, terms=TERMS, rounds=2, seed=0)
                second = client.submit(n=4, terms=TERMS, rounds=2, seed=1)
                third = client.submit(n=4, terms=TERMS, rounds=2, seed=2)
                with pytest.raises(RemoteJobError) as excinfo:
                    third.result(timeout=30)
                assert excinfo.value.code == "rate-limited"
                first.result(timeout=60)
                second.result(timeout=60)


class TestMetrics:
    def test_metrics_op_and_http_endpoint_agree(self):
        with make_service() as service, ServeServer(
            service, quota=TenantQuota(max_jobs=8)
        ) as server:
            with Client.connect(
                "127.0.0.1", server.port, tenant="alice"
            ) as client:
                client.submit(n=4, terms=TERMS, rounds=3, seed=0).result(
                    timeout=60
                )
                text = client.metrics_text()
                for needle in (
                    'repro_submits_total{tenant="alice"} 1',
                    'repro_jobs_total{tenant="alice",status="done"} 1',
                    'stage="first_incumbent"',
                    'stage="done"',
                    "repro_connections_active 1",
                    "repro_devices 2",
                    "repro_jobs_pending 0",
                    'repro_lane_launches_total{lane="0"}',
                    "repro_cache_hit_rate",
                    "repro_coalesce_packs_total",
                ):
                    assert needle in text, needle
                url = f"http://127.0.0.1:{server.metrics_port}/metrics"
                body = urllib.request.urlopen(url, timeout=10).read().decode()
                assert 'repro_submits_total{tenant="alice"} 1' in body
                assert "repro_latency_seconds_count" in body

    def test_stats_op_carries_service_and_server_sections(self):
        with make_service() as service, ServeServer(
            service, metrics_port=None
        ) as server:
            with Client.connect("127.0.0.1", server.port) as client:
                client.submit(n=4, terms=TERMS, rounds=3, seed=0).result(
                    timeout=60
                )
                stats = client.stats()
                assert stats["devices"] == 2
                assert stats["outstanding"] == 0
                server_section = stats["server"]
                assert server_section["submits"] == {"default": 1}
                assert server_section["jobs"] == {"default/done": 1}
                assert server_section["connections"] == 1


class TestBoundedThreads:
    def test_thread_count_does_not_grow_with_live_jobs(self):
        """Live jobs cost no threads: 40 in flight through one server run
        on exactly the threads one job does, and no per-job watcher
        thread exists."""
        model = random_qubo(16, seed=4)
        # count only this test's threads (earlier tests' daemons may be
        # winding down concurrently)
        before = {t.ident for t in threading.enumerate()}

        def new_threads() -> list[str]:
            return [t.name for t in threading.enumerate() if t.ident not in before]

        with make_service(max_queue=None) as service, ServeServer(
            service, metrics_port=None
        ) as server:
            with Client.connect("127.0.0.1", server.port) as client:
                handles = [client.submit(model, rounds=100000, seed=0, job_id="j0")]
                try:
                    # running, not just accepted: both lanes are busy
                    next(handles[0].incumbents(timeout=30))
                    time.sleep(0.1)
                    one_job = new_threads()
                    handles += [
                        client.submit(model, rounds=100000, seed=i, job_id=f"j{i}")
                        for i in range(1, 40)
                    ]
                    assert wait_accepted(handles)
                    assert all(not h.done() for h in handles)
                    forty_jobs = new_threads()
                    assert len(forty_jobs) == len(one_job), (one_job, forty_jobs)
                    assert not [n for n in forty_jobs if n.startswith("serve-watch")]
                finally:
                    for handle in handles:
                        handle.cancel()
                    client.drain()
                assert all(h.done() for h in handles)
    def test_listener_hand_off_loses_no_event_under_contention(self):
        """Many service-side threads post job events at once (more than
        there are cores, with a tiny switch interval): every event
        reaches the loop, in per-job order.  Each thread waits for its
        event before posting the next, so an event stranded behind a
        wake-up that never comes stalls its thread and fails the test."""
        threads, per_thread = 8, 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServeServer(object(), metrics_port=None) as server:
                records = [
                    _JobRecord(("t", str(i)), str(i), "t", None, per_thread)
                    for i in range(threads)
                ]

                def produce(record) -> None:
                    for energy in range(per_thread):
                        update = IncumbentUpdate("j", -energy, None, 0.0)
                        server._post(record, update)
                        deadline = time.time() + 5
                        while len(record.incumbents) <= energy:
                            if time.time() > deadline:
                                return
                            time.sleep(0)

                workers = [
                    threading.Thread(target=produce, args=(record,))
                    for record in records
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(60)
                assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(interval)
        for record in records:
            energies = [payload["energy"] for payload in record.incumbents]
            assert energies == [-e for e in range(per_thread)]


def wait_accepted(handles, timeout: float = 30.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if all(h.accepted is not None for h in handles):
            return True
        time.sleep(0.005)
    return False
