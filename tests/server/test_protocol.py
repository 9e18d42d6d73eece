"""The versioned wire codec: round trips, malformed frames, quotas."""

from __future__ import annotations

import io
import json

import pytest

from repro.server import protocol
from repro.server.protocol import ProtocolError, decode_request, encode_event
from repro.server.quota import TenantQuota, TokenBucket
from repro.service import serve_main
from tests.service.test_serve_cli import TERMS, events_of, run_serve


def code_of(excinfo) -> str:
    return excinfo.value.code


class TestDecodeRequest:
    def test_v1_round_trip_strips_envelope(self):
        request = decode_request(
            json.dumps(
                {"v": 1, "op": "submit", "id": "a", "n": 4, "terms": []}
            )
        )
        assert request.op == "submit"
        assert request.id == "a"
        assert request.params == {"n": 4, "terms": []}

    def test_bytes_and_str_decode_identically(self):
        line = json.dumps({"v": 1, "op": "stats"})
        assert decode_request(line) == decode_request(line.encode())

    def test_frame_without_version_is_one_error_over_stdin(self):
        """A pre-v1 frame (no "v") over stdin costs exactly one structured
        error event; the next v1 frame on the same stream is served."""
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"op": "drain"}))
        assert code_of(excinfo) == protocol.E_VERSION_MISMATCH
        out = io.StringIO()
        frames = [{"op": "stats", "id": "old"}, {"v": 1, "op": "stats", "id": "new"}]
        rc = serve_main(
            ["--gpus", "1", "--blocks", "2"],
            stdin=io.StringIO("".join(json.dumps(f) + "\n" for f in frames)),
            stdout=out,
        )
        assert rc == 0
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [e["event"] for e in events] == ["ready", "error", "stats", "bye"]
        assert events[1]["code"] == protocol.E_VERSION_MISMATCH
        assert '"v"' in events[1]["error"]
        assert events[2]["id"] == "new"
        assert events[2]["server"]["frames"] == 1

    def test_unchecked_solver_fields_are_one_bad_request_over_stdin(self):
        events = run_serve(
            [
                {"op": "submit", "id": "vt", "n": 4, "terms": TERMS,
                 "rounds": 2, "virtual_time": "false"},
                {"op": "submit", "id": "slv", "n": 4, "terms": TERMS,
                 "rounds": 2, "solver": "abss"},
                {"op": "submit", "id": "ok", "n": 4, "terms": TERMS,
                 "rounds": 2, "solver": "abs", "virtual_time": False},
                {"op": "shutdown"},
            ]
        )
        errors = events_of(events, "error")
        assert [(e["id"], e["code"]) for e in errors] == [
            ("vt", "bad-request"),
            ("slv", "bad-request"),
        ]
        assert [e["id"] for e in events_of(events, "accepted")] == ["ok"]
        assert [e["id"] for e in events_of(events, "done")] == ["ok"]

    def test_integer_id_is_coerced_to_string(self):
        assert decode_request(json.dumps({"v": 1, "op": "query", "id": 7})).id == "7"

    def test_version_mismatch_is_structured(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"v": 2, "op": "stats"}))
        assert code_of(excinfo) == protocol.E_VERSION_MISMATCH

    def test_bad_json_is_structured(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request('{"op": oops}')
        assert code_of(excinfo) == protocol.E_BAD_JSON
        assert "bad JSON" in str(excinfo.value)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request("[1, 2, 3]")
        assert code_of(excinfo) == protocol.E_BAD_REQUEST

    def test_missing_or_non_string_op_rejected(self):
        for frame in ({"v": 1}, {"v": 1, "op": 3}):
            with pytest.raises(ProtocolError) as excinfo:
                decode_request(json.dumps(frame))
            assert code_of(excinfo) == protocol.E_BAD_REQUEST

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"v": 1, "op": "frobnicate"}))
        assert code_of(excinfo) == protocol.E_UNKNOWN_OP
        assert "unknown op" in str(excinfo.value)

    def test_oversize_frame_rejected_before_parsing(self):
        frame = json.dumps({"v": 1, "op": "submit", "blob": "x" * 4096})
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(frame, max_bytes=1024)
        assert code_of(excinfo) == protocol.E_FRAME_TOO_LARGE

    def test_bad_id_type_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(json.dumps({"v": 1, "op": "query", "id": [1]}))
        assert code_of(excinfo) == protocol.E_BAD_REQUEST


class TestEncodeEvent:
    def test_events_carry_the_envelope(self):
        payload = json.loads(encode_event({"event": "done", "id": "a"}))
        assert payload == {"v": 1, "event": "done", "id": "a"}

    def test_error_payload_is_structured(self):
        payload = protocol.error_payload(
            protocol.E_RATE_LIMITED, "slow down", id="a", retry_after=0.5
        )
        assert payload["event"] == "error"
        assert payload["code"] == "rate-limited"
        assert payload["error"] == "slow down"
        assert payload["retry_after"] == 0.5


class TestSubmitHelpers:
    def test_inline_terms_accumulate_duplicates(self):
        model = protocol.load_model(
            {"n": 2, "terms": [[0, 1, 2], [0, 1, 3], [0, 0, -1]]}
        )
        assert model.n == 2
        assert model.to_dict() == {(0, 1): 5.0, (0, 0): -1.0}

    def test_malformed_terms_entry_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.load_model({"n": 2, "terms": [[0, 1]]})
        assert code_of(excinfo) == protocol.E_BAD_REQUEST

    def test_missing_instance_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.load_model({"rounds": 5})
        assert code_of(excinfo) == protocol.E_BAD_REQUEST

    def test_limit_kwargs_default_to_bounded_rounds(self):
        assert protocol.limit_kwargs({}) == {"max_rounds": 20}
        assert protocol.limit_kwargs(
            {"target": -10, "time_limit": 1.5, "rounds": 7, "launches": 3}
        ) == {
            "target_energy": -10,
            "time_limit": 1.5,
            "max_rounds": 7,
            "max_launches": 3,
        }

    def test_submit_kwargs_coerce_types(self):
        kwargs = protocol.submit_kwargs(
            {"seed": "3", "devices": "2", "priority": "1", "share": "2.5"}
        )
        assert kwargs == {"seed": 3, "devices": 2, "priority": 1, "share": 2.5}

    def test_solver_fields_default_and_accept_the_known_values(self):
        assert protocol.solver_fields({}) == ("dabs", False)
        assert protocol.solver_fields(
            {"solver": "abs", "virtual_time": True}
        ) == ("abs", True)
        assert protocol.solver_fields(
            {"solver": "dabs", "virtual_time": False}
        ) == ("dabs", False)

    @pytest.mark.parametrize(
        "params",
        [
            {"virtual_time": "false"},
            {"virtual_time": "true"},
            {"virtual_time": 1},
            {"virtual_time": 0},
            {"virtual_time": None},
            {"solver": "abss"},
            {"solver": "ABS"},
            {"solver": None},
            {"solver": ["abs"]},
            {"solver": 1},
        ],
    )
    def test_solver_fields_reject_anything_else(self, params):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.solver_fields(params)
        assert code_of(excinfo) == protocol.E_BAD_REQUEST


class TestTokenBucket:
    def test_burst_then_refill_with_injected_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)

    def test_quota_bucket_disabled_without_rate(self):
        assert TenantQuota().make_bucket() is None
        bucket = TenantQuota(rate=5.0, burst=3.0).make_bucket()
        assert bucket is not None and bucket.burst == 3.0
