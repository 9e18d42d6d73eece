"""``repro serve`` front-end: JSON-lines round trips, in process."""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.qubo import QUBOModel, brute_force
from repro.io.formats import write_qubo
from repro.server.protocol import PROTOCOL_VERSION
from repro.service import SolveService, serve_main
from repro.service.job import JobStatus
from tests.conftest import random_qubo

TERMS = [[0, 0, -3], [0, 1, 2], [1, 1, -3], [2, 2, 1], [2, 3, -4], [3, 3, 1]]


def run_serve(requests: list[dict], argv: list[str] | None = None) -> list[dict]:
    """Pipe *requests* (as v1 envelopes) through a stdin serve session."""
    lines = "\n".join(json.dumps({"v": 1, **r}) for r in requests) + "\n"
    out = io.StringIO()
    rc = serve_main(
        argv or ["--gpus", "2", "--blocks", "4"],
        stdin=io.StringIO(lines),
        stdout=out,
    )
    assert rc == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def events_of(events: list[dict], kind: str) -> list[dict]:
    return [e for e in events if e["event"] == kind]


def assert_fractional_refused_at_submit(argv: list[str]) -> None:
    events = run_serve(
        [
            {"op": "submit", "id": "f", "n": 2, "terms": [[0, 0, -3.5], [0, 1, 2]], "rounds": 2},
            {"op": "drain"},
            {"op": "shutdown"},
        ],
        argv,
    )
    kinds = [e["event"] for e in events]
    errors = events_of(events, "error")
    assert len(errors) == 1 and errors[0]["id"] == "f", kinds
    assert errors[0]["code"] == "bad-request"
    assert "integer weights" in errors[0]["error"]
    assert "traceback" not in errors[0]
    assert not {"accepted", "incumbent", "done", "failed"} & set(kinds), kinds
    assert kinds[-1] == "bye"


class TestServeRoundTrip:
    def test_inline_submit_solves_to_optimum(self):
        """Service round-trip smoke: a tiny inline QUBO is solved to its
        brute-force optimum and the streamed vector checks out."""
        model = QUBOModel.from_dict(4, {(i, j): w for i, j, w in TERMS})
        _, optimum = brute_force(model)
        events = run_serve(
            [
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 5, "seed": 0},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        assert events[0] == {
            "v": PROTOCOL_VERSION,
            "event": "ready",
            "protocol": PROTOCOL_VERSION,
            "devices": 2,
            "blocks": 4,
            "max_queue": 64,
        }
        accepted = events_of(events, "accepted")
        assert [e["id"] for e in accepted] == ["a"]
        done = events_of(events, "done")
        assert len(done) == 1
        assert done[0]["energy"] == optimum
        vector = np.array([int(c) for c in done[0]["vector"]], dtype=np.uint8)
        assert model.energy(vector) == done[0]["energy"]
        incumbents = events_of(events, "incumbent")
        assert incumbents and incumbents[-1]["energy"] == optimum
        assert events[-1]["event"] == "bye"

    def test_file_submit_and_interleaved_jobs(self, tmp_path):
        model = random_qubo(10, seed=1)
        path = tmp_path / "m.qubo"
        write_qubo(path, model)
        events = run_serve(
            [
                {"op": "submit", "id": "f", "file": str(path), "rounds": 3, "seed": 0},
                {"op": "submit", "id": "g", "n": 4, "terms": TERMS, "rounds": 3, "seed": 1},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        done = {e["id"]: e for e in events_of(events, "done")}
        assert set(done) == {"f", "g"}
        vec = np.array([int(c) for c in done["f"]["vector"]], dtype=np.uint8)
        assert model.energy(vec) == done["f"]["energy"]

    def test_stats_and_errors(self):
        events = run_serve(
            [
                {"op": "stats"},
                {"op": "frobnicate"},
                {"op": "cancel", "id": "nope"},
                {"op": "submit", "id": "bad"},  # neither file nor terms
                {"op": "shutdown"},
            ]
        )
        stats = events_of(events, "stats")
        assert stats and stats[0]["devices"] == 2
        errors = events_of(events, "error")
        assert len(errors) == 3
        assert "unknown op" in errors[0]["error"]
        assert "unknown job id" in errors[1]["error"]

    def test_duplicate_id_rejected_while_running(self):
        # a long budget keeps the first job alive across the second submit;
        # ids become reusable once a job's terminal event is out
        events = run_serve(
            [
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 2000, "seed": 0},
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 2, "seed": 0},
                {"op": "cancel", "id": "a"},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        assert len(events_of(events, "accepted")) == 1
        errors = events_of(events, "error")
        assert errors and "duplicate" in errors[0]["error"]

    def test_id_reusable_after_completion(self):
        events = run_serve(
            [
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 2, "seed": 0},
                {"op": "drain"},
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 2, "seed": 1},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        assert len(events_of(events, "accepted")) == 2
        assert len(events_of(events, "done")) == 2
        assert events_of(events, "error") == []

    def test_bad_json_reports_and_continues(self):
        out = io.StringIO()
        rc = serve_main(
            ["--gpus", "1", "--blocks", "2"],
            stdin=io.StringIO('{"op": oops}\n{"v": 1, "op": "shutdown"}\n'),
            stdout=out,
        )
        assert rc == 0
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert any(
            "bad JSON" in e.get("error", "") for e in events_of(events, "error")
        )

    def test_cancel_streams_cancelled_event(self):
        events = run_serve(
            [
                {"op": "submit", "id": "long", "n": 4, "terms": TERMS, "rounds": 4000, "seed": 0},
                {"op": "cancel", "id": "long"},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        kinds = {e["event"] for e in events}
        # the job either finished before the cancel landed (tiny model) or
        # was cancelled — both are clean terminal events, never a hang
        assert kinds & {"cancelled", "done"}

    def test_fractional_weights_fail_once(self):
        """A fractional-weight submit is one ``bad-request`` error naming
        the integer-weight requirement, refused at submit: no
        ``accepted``, no ``failed`` event, no traceback."""
        assert_fractional_refused_at_submit(["--gpus", "2", "--blocks", "4"])

    def test_cli_dispatches_serve(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"v": 1, "op": "shutdown"}\n')
        )
        rc = main(["serve", "--gpus", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["event"] == "ready"
        assert lines[-1]["event"] == "bye"

    @pytest.mark.parametrize(
        "argv", [["--coalesce", "on"], ["--coalesce-max", "4"]]
    )
    def test_no_packing_switch_and_no_flag_prefixes(self, capsys, argv):
        """Packing is always on (``--coalesce-max-rows`` caps it), and a
        flag prefix is not expanded to a longer flag."""
        with pytest.raises(SystemExit) as excinfo:
            serve_main(argv, stdin=io.StringIO(""), stdout=io.StringIO())
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeFederation:
    def test_islands_flag_serves_a_federation(self):
        """The same wire protocol over island processes: ready announces
        the topology, jobs solve end to end, stats fan in per island."""
        model = QUBOModel.from_dict(4, {(i, j): w for i, j, w in TERMS})
        _, optimum = brute_force(model)
        events = run_serve(
            [
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS,
                 "launches": 16, "seed": 0},
                {"op": "drain"},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
            argv=[
                "--gpus", "1", "--blocks", "4",
                "--islands", "2", "--migration-period", "4",
            ],
        )
        assert events[0]["event"] == "ready"
        assert events[0]["islands"] == 2
        assert events[0]["topology"] == "ring"
        done = events_of(events, "done")
        assert len(done) == 1
        assert done[0]["energy"] == optimum
        assert done[0]["launches"] == 16
        vector = np.array([int(c) for c in done[0]["vector"]], dtype=np.uint8)
        assert model.energy(vector) == done[0]["energy"]
        stats = events_of(events, "stats")
        assert stats and stats[0]["islands"] == 2
        assert len(stats[0]["island_stats"]) == 2
        assert events[-1]["event"] == "bye"


    def test_fractional_weights_fail_once_over_islands(self):
        """Federation.submit refuses fractional weights synchronously too,
        so island serve answers exactly as a single service does."""
        assert_fractional_refused_at_submit(
            ["--gpus", "1", "--blocks", "2", "--islands", "2"]
        )


class TestStdinIsAServerConnection:
    """Stdin serve is one connection of the same server as TCP: the ops
    that need durable job records and the tenant/quota flags work here
    too."""

    def test_hello_query_and_attach(self):
        events = run_serve(
            [
                {"op": "hello", "id": "h", "tenant": "alice"},
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 3, "seed": 0},
                {"op": "drain"},
                {"op": "query", "id": "a"},
                {"op": "attach", "id": "a"},
                {"op": "shutdown"},
            ]
        )
        hello = events_of(events, "hello")
        assert hello == [
            {"v": 1, "event": "hello", "id": "h", "tenant": "alice",
             "protocol": PROTOCOL_VERSION}
        ]
        assert events_of(events, "accepted")[0]["tenant"] == "alice"
        done = events_of(events, "done")
        assert len(done) == 2  # the live one, then the attach replay
        assert done[0] == done[1]
        job = events_of(events, "job")
        assert len(job) == 1
        assert job[0]["status"] == "done"
        assert job[0]["done"] is True
        assert job[0]["best"] == done[0]["energy"]
        attached = events_of(events, "attached")
        assert len(attached) == 1
        live_incumbents = len(events_of(events, "incumbent")) // 2
        assert attached[0]["replayed"] == live_incumbents + 1
        assert events_of(events, "error") == []
        assert events[-1]["event"] == "bye"

    def test_tenant_quota_applies(self):
        events = run_serve(
            [
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS, "rounds": 4000, "seed": 0},
                {"op": "submit", "id": "b", "n": 4, "terms": TERMS, "rounds": 2, "seed": 0},
                {"op": "cancel", "id": "a"},
                {"op": "shutdown"},
            ],
            argv=["--gpus", "1", "--blocks", "2", "--tenant-max-jobs", "1"],
        )
        errors = events_of(events, "error")
        assert [e["code"] for e in errors] == ["quota-exceeded"]
        assert errors[0]["id"] == "b"
        assert events[-1]["event"] == "bye"


class OpenStdin:
    """A stdin its client never closes: yields *lines*, then blocks."""

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.release = threading.Event()

    def __iter__(self):
        yield from self.lines
        self.release.wait()


class BrokenStdout(io.StringIO):
    """Takes *ok* writes, then raises like a pipe whose reader left."""

    def __init__(self, ok: int) -> None:
        super().__init__()
        self.ok = ok

    def write(self, text: str) -> int:
        if self.ok == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.ok -= 1
        return super().write(text)


class TestBrokenStdout:
    def test_broken_pipe_ends_the_session_after_draining(self, monkeypatch):
        """The client stops reading mid-job but keeps stdin open: the
        session still ends — the job runs to completion, the exit code
        is 0 and nothing hangs on the open stdin."""
        handles, at_close = [], []
        submit, close = SolveService.submit, SolveService.close

        def spy_submit(self, *args, **kwargs):
            handles.append(submit(self, *args, **kwargs))
            return handles[-1]

        def spy_close(self, *args, **kwargs):
            at_close.extend(h.status for h in handles)
            return close(self, *args, **kwargs)

        monkeypatch.setattr(SolveService, "submit", spy_submit)
        monkeypatch.setattr(SolveService, "close", spy_close)
        frame = {"v": 1, "op": "submit", "id": "a", "n": 4, "terms": TERMS,
                 "rounds": 5, "seed": 0}
        stdin = OpenStdin([json.dumps(frame) + "\n"])
        stdout = BrokenStdout(ok=2)  # ready + accepted, then the pipe breaks
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(
                serve_main(["--gpus", "1", "--blocks", "2"], stdin=stdin, stdout=stdout)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(60)
        stdin.release.set()
        assert not runner.is_alive(), "serve hung after its stdout broke"
        assert codes == [0]
        assert at_close == [JobStatus.DONE]
        kinds = [json.loads(line)["event"] for line in stdout.getvalue().splitlines()]
        assert kinds == ["ready", "accepted"]
