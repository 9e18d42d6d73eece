"""Upload once: digest submits, the SDK's fallback, the vectorized codec."""

from __future__ import annotations

import json
import re
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Client
from repro.core.qubo import QUBOModel
from repro.core.sparse import SparseQUBOModel
from repro.server import ServeServer, protocol
from repro.server.protocol import ProtocolError
from repro.service import SolveService
from repro.service.cache import ProblemCache
from repro.solver.dabs import DABSConfig
from tests.conftest import random_qubo
from tests.service.test_serve_cli import TERMS, events_of, run_serve


def dict_frame(model: QUBOModel, job_id: str, **fields) -> bytes:
    """A model upload as the dict encoder spelled it: ``sorted(to_dict())``
    triples of Python scalars, one matrix entry at a time."""
    upper = model.upper
    terms = [
        [i, j, upper[i, j].item()]
        for i in range(model.n)
        for j in range(i, model.n)
        if upper[i, j] != 0
    ]
    params = {"op": "submit", "n": model.n, "terms": terms}
    if model.name:
        params["name"] = model.name
    params["id"] = job_id
    params.update(fields)
    return json.dumps({"v": 1, **params}).encode() + b"\n"


def dict_load(params: dict) -> QUBOModel:
    """The per-triple dict decoder the vectorized ``load_model`` replaced."""
    n = int(params["n"])
    terms: dict = {}
    for i, j, w in params["terms"]:
        key = (int(i), int(j))
        terms[key] = terms.get(key, 0) + w
    return QUBOModel.from_dict(n, terms, name=str(params.get("name", "")))


class FrameRecorder:
    """A fake server on a socket pair: sends the ready banner, then
    records every frame a :class:`Client` writes."""

    def __init__(self) -> None:
        self.server_sock, client_sock = socket.socketpair()
        self.server_sock.sendall(b'{"v": 1, "event": "ready", "protocol": 1}\n')
        self.frames: list[bytes] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.client = Client(client_sock, timeout=10)

    def _read(self) -> None:
        with self.server_sock.makefile("rb") as lines:
            self.frames.extend(lines)

    def close(self) -> list[bytes]:
        self.client.close()
        self._reader.join(10)
        self.server_sock.close()
        return self.frames


@pytest.fixture()
def server():
    service = SolveService(
        devices=2,
        default_config=DABSConfig(num_gpus=2, blocks_per_gpu=4),
        cache=ProblemCache(capacity=2),
    )
    with service, ServeServer(service, metrics_port=None) as srv:
        yield srv


def server_stats(client: Client) -> dict:
    return client.stats()["server"]


class TestCodec:
    def test_upload_bytes_match_the_dict_encoder(self):
        dense = random_qubo(24, seed=3, density=0.4)
        named = QUBOModel(np.asarray(dense.upper), name="named")
        fractional = QUBOModel.from_dict(3, {(0, 0): -3.5, (0, 2): 2, (1, 1): 0.25})
        recorder = FrameRecorder()
        for k, model in enumerate((dense, named, fractional)):
            recorder.client.submit(model, job_id=f"j{k}", rounds=3, seed=k)
        frames = recorder.close()
        assert frames == [
            dict_frame(dense, "j0", seed=0, rounds=3),
            dict_frame(named, "j1", seed=1, rounds=3),
            dict_frame(fractional, "j2", seed=2, rounds=3),
        ]

    def test_sparse_model_and_its_dense_twin_send_one_frame(self):
        terms = {(0, 0): -3, (0, 1): 2, (1, 1): -3, (2, 2): 1, (3, 2): -4, (3, 3): 1}
        sparse = SparseQUBOModel(4, terms, name="twin")
        dense = sparse.to_dense()
        assert protocol.model_digest(sparse) == protocol.model_digest(dense)
        assert protocol.model_digest(SparseQUBOModel.from_dense(dense)) == (
            protocol.model_digest(dense)
        )
        recorder = FrameRecorder()
        recorder.client.submit(sparse, job_id="s", rounds=2)
        recorder.client.submit(dense, job_id="s2", rounds=2)
        sparse_frame, dense_frame = recorder.close()
        assert sparse_frame == dense_frame.replace(b'"s2"', b'"s"')

    def test_server_rebuild_hashes_like_the_original(self):
        for model in (
            random_qubo(17, seed=5),
            QUBOModel.from_dict(3, {(0, 0): -3.5, (2, 1): 2}),
            QUBOModel(np.zeros((2, 2), dtype=np.int64)),
        ):
            wire = json.loads(json.dumps(protocol.encode_terms(model)))
            rebuilt = protocol.load_model(wire)
            assert protocol.model_digest(rebuilt) == protocol.model_digest(model)
            assert np.array_equal(rebuilt.upper, model.upper)

    def test_vectorized_decode_matches_the_dict_path(self):
        rng = np.random.default_rng(7)
        n = 9
        # duplicates and mirrored (j, i) entries, shuffled
        triples = [
            [int(i), int(j), int(w)]
            for i, j, w in zip(
                rng.integers(n, size=80),
                rng.integers(n, size=80),
                rng.integers(-9, 10, size=80),
            )
        ]
        params = {"n": n, "terms": triples, "name": "dups"}
        new, old = protocol.load_model(params), dict_load(params)
        assert new.dtype == old.dtype == np.int64
        assert np.array_equal(new.upper, old.upper)
        assert new.name == old.name == "dups"

    @pytest.mark.parametrize(
        "n, terms",
        [
            (2, [[0, 0, "3"]]),  # string weight
            (2, [[0, 0, None]]),  # null weight
            (2, [[0, 0, [1]]]),  # nested weight
            (2, [[1.7, 0, 1]]),  # non-integral index
            (2, [[0, 2, 1]]),  # out of range
            (2, [[-1, 0, 1]]),  # negative index
            (2, [[0, 0, 1], [0, 1]]),  # ragged
            (2, [[0, 0, float("nan")]]),  # non-finite weight
            (2, [[0, 0, 2**53]]),  # beyond exact float64 sums
            (2, [[0, 0, 2**70]]),  # beyond int64
            (2, "0 0 1"),  # not a list
            (2, {"0": 1}),
            (2.5, [[0, 0, 1]]),  # non-integer n
            ("2", [[0, 0, 1]]),
            (True, [[0, 0, 1]]),
            (0, []),
            (protocol.MAX_TERMS_N + 1, []),
        ],
    )
    def test_malformed_terms_are_one_bad_request(self, n, terms):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.load_model({"n": n, "terms": terms})
        assert excinfo.value.code == protocol.E_BAD_REQUEST

    def test_malformed_terms_over_stdin_are_bad_request_not_internal(self):
        events = run_serve(
            [
                {"op": "submit", "id": "s", "n": 2, "terms": [[0, 0, "x"]]},
                {"op": "submit", "id": "z", "n": 2, "terms": [[0, 0, None]]},
                {"op": "submit", "id": "f", "n": 2, "terms": [[1.7, 0, 1]]},
                {"op": "shutdown"},
            ]
        )
        errors = events_of(events, "error")
        assert [e["id"] for e in errors] == ["s", "z", "f"]
        assert {e["code"] for e in errors} == {"bad-request"}
        assert not any("traceback" in e for e in errors)
        assert not events_of(events, "accepted")


# JSON values: small integers (so a valid n stays cheap to allocate), a
# few boundary integers, any float, strings, null, booleans, and nesting
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 12),
    st.sampled_from([2**31, -(2**31), 2**53 + 1, -(2**63), 2**64]),
    st.floats(),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
_TRIPLE = st.lists(
    st.one_of(st.integers(-1, 7), st.floats(-8, 8), _JSON_LEAVES),
    min_size=2,
    max_size=4,
)


class TestDecodeProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(-1, 8), st.floats(-2, 9), _JSON),
        terms=st.one_of(st.lists(_TRIPLE, max_size=8), _JSON),
    )
    def test_dict_path_model_or_one_bad_request(self, n, terms):
        """Any JSON ``n``/``terms``: the dict path's model, or one
        ``bad-request`` — never another exception."""
        params = {"n": n, "terms": terms}
        try:
            model = protocol.load_model(params)
        except ProtocolError as exc:
            assert exc.code == protocol.E_BAD_REQUEST
            return
        reference = dict_load(params)
        assert model.dtype == reference.dtype
        assert np.array_equal(model.upper, reference.upper)


class TestDigestSubmits:
    def test_second_submit_sends_the_digest_and_replays_bit_exact(self, server):
        model = random_qubo(14, seed=8)
        digest = protocol.model_digest(model)
        with Client.connect("127.0.0.1", server.port) as client:
            upload = client.submit(model, rounds=4, seed=3, virtual_time=True)
            first = upload.result(timeout=60)
            by_digest = client.submit(model, rounds=4, seed=3, virtual_time=True)
            second = by_digest.result(timeout=60)
            ledger = server_stats(client)
        assert upload.accepted["model"] == by_digest.accepted["model"] == digest
        assert ledger["model_refs"] == {"hit": 1, "miss": 0}
        assert second.best_energy == first.best_energy
        assert np.array_equal(second.best_vector, first.best_vector)
        assert second.launches == first.launches
        # the summaries agree on everything but wall time (flips included)
        assert re.sub(r" in \S+s ", " ", second.summary) == re.sub(
            r" in \S+s ", " ", first.summary
        )

    def test_unknown_digest_is_resent_once_under_the_same_id(self, server):
        model = random_qubo(12, seed=9)
        with Client.connect("127.0.0.1", server.port) as client:
            # the client believes the server holds a model it never saw
            client._remember_model(protocol.model_digest(model))
            handle = client.submit(model, rounds=3, seed=0, job_id="fallback")
            result = handle.result(timeout=60)
            ledger = server_stats(client)
        assert handle.job_id == "fallback"
        assert handle.accepted["id"] == "fallback"
        assert model.energy(result.best_vector) == result.best_energy
        assert ledger["model_refs"] == {"hit": 0, "miss": 1}
        assert ledger["errors"] == {"unknown-model": 1}
        assert ledger["submits"] == {"default": 1}

    def test_evicted_digest_is_resent_transparently(self, server):
        model = random_qubo(12, seed=10)
        with Client.connect("127.0.0.1", server.port) as client:
            client.submit(model, rounds=2, seed=0).result(timeout=60)
            # the store is as large as the service's cache (2 entries)
            for k in range(2):
                client.submit(random_qubo(10, seed=20 + k), rounds=1).result(timeout=60)
            again = client.submit(model, rounds=2, seed=0, job_id="again")
            again.result(timeout=60)
            # ...after which the re-sent upload is held again
            client.submit(model, rounds=2, seed=0).result(timeout=60)
            ledger = server_stats(client)
        assert again.accepted["id"] == "again"
        assert ledger["model_refs"] == {"hit": 1, "miss": 1}
        assert ledger["errors"] == {"unknown-model": 1}

    def test_sparse_model_submits_and_shares_the_dense_digest(self, server):
        dense = random_qubo(10, seed=11, density=0.3)
        sparse = SparseQUBOModel.from_dense(dense)
        with Client.connect("127.0.0.1", server.port) as client:
            result = client.submit(sparse, rounds=2, seed=0).result(timeout=60)
            twin = client.submit(dense, rounds=2, seed=0)
            twin.result(timeout=60)
            ledger = server_stats(client)
            metrics = client.metrics_text()
        assert sparse.energy(result.best_vector) == result.best_energy
        assert twin.accepted["model"] == protocol.model_digest(sparse)
        assert ledger["model_refs"] == {"hit": 1, "miss": 0}
        assert 'repro_model_refs_total{result="hit"} 1' in metrics
        assert 'repro_model_refs_total{result="miss"} 0' in metrics


class TestDigestFramesOverStdin:
    def test_digest_submit_unknown_digest_and_mixed_frame(self):
        model = QUBOModel.from_dict(4, {(i, j): w for i, j, w in TERMS})
        digest = protocol.model_digest(model)
        events = run_serve(
            [
                {"op": "submit", "id": "up", "n": 4, "terms": TERMS, "rounds": 2, "seed": 0},
                {"op": "submit", "id": "ref", "model": digest, "rounds": 2, "seed": 0},
                {"op": "submit", "id": "bad", "model": "0" * 64, "rounds": 2},
                {"op": "submit", "id": "mix", "model": digest, "n": 4, "terms": TERMS},
                {"op": "submit", "id": "both", "model": digest, "file": "x.qubo"},
                {"op": "submit", "id": "num", "model": 7},
                {"op": "drain"},
                {"op": "stats", "id": "st"},
                {"op": "shutdown"},
            ]
        )
        accepted = events_of(events, "accepted")
        assert [e["id"] for e in accepted] == ["up", "ref"]
        assert [e["model"] for e in accepted] == [digest, digest]
        done = {e["id"]: e for e in events_of(events, "done")}
        assert done["ref"]["energy"] == done["up"]["energy"]
        assert done["ref"]["vector"] == done["up"]["vector"]
        errors = {e["id"]: e["code"] for e in events_of(events, "error")}
        assert errors == {
            "bad": "unknown-model",
            "mix": "bad-request",
            "both": "bad-request",
            "num": "bad-request",
        }
        stats = events_of(events, "stats")[0]
        assert stats["server"]["model_refs"] == {"hit": 1, "miss": 1}
        assert events[-1]["event"] == "bye"

    def test_file_submits_echo_no_digest(self, tmp_path):
        from repro.io.formats import write_qubo

        path = tmp_path / "m.qubo"
        write_qubo(path, QUBOModel.from_dict(4, {(i, j): w for i, j, w in TERMS}))
        events = run_serve(
            [
                {"op": "submit", "id": "f", "file": str(path), "rounds": 2},
                {"op": "shutdown"},
            ]
        )
        (accepted,) = events_of(events, "accepted")
        assert "model" not in accepted


class TestConcurrentDigestSubmits:
    def test_threads_share_one_connection_through_evictions(self, server):
        """Submitting threads and the reader thread share the client's
        digest set and each handle's pending upload; with a 2-model store
        and 3 models in rotation, digest misses and re-sends interleave
        with fresh uploads, and every job still completes."""
        models = [random_qubo(8, seed=30 + k) for k in range(3)]
        results: dict[str, tuple] = {}
        errors: list[BaseException] = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Client.connect("127.0.0.1", server.port) as client:

                def worker(w: int) -> None:
                    try:
                        for k in range(6):
                            model = models[(w + k) % 3]
                            handle = client.submit(
                                model, rounds=1, seed=k, job_id=f"w{w}-{k}"
                            )
                            results[handle.job_id] = (model, handle.result(timeout=60))
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
                ledger = server_stats(client)
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert len(results) == 24
        for model, result in results.values():
            assert model.energy(result.best_vector) == result.best_energy
        assert ledger["submits"] == {"default": 24}
        assert set(ledger["errors"]) <= {"unknown-model"}
        assert ledger["errors"].get("unknown-model", 0) == ledger["model_refs"]["miss"]
