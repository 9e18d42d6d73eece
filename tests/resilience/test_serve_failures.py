"""``repro serve`` under faults: a worker exception becomes a structured
``failed`` event, the ``errors`` counter surfaces in ``stats``, and the
session loop itself is never torn down by a handler exception."""

from __future__ import annotations

import io
import json

from repro.resilience import ChaosConfig, chaos
from repro.service import serve_main
from repro.service.service import SolveService
from tests.resilience.conftest import CHAOS_SEED

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


class TestWorkerFaultBecomesFailedEvent:
    def test_failed_event_carries_traceback_and_retry_count(self):
        """An unsupervised service job hit by a chaos launch fault fails
        in isolation: the client gets a terminal ``failed`` event with
        the error, the traceback and the (zero) retry count — and the
        session still answers the next request and exits cleanly."""
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                max_faults=1,
            )
        )
        events = run_serve(
            [
                {"op": "submit", "id": "doomed", "n": 4, "terms": TERMS,
                 "rounds": 5, "seed": 0},
                {"op": "drain"},
                {"op": "stats"},
                {"op": "shutdown"},
            ]
        )
        failed = events_of(events, "failed")
        assert len(failed) == 1
        assert failed[0]["id"] == "doomed"
        assert failed[0]["retries"] == 0
        assert "chaos" in failed[0]["error"]
        assert "traceback" in failed[0]
        # the errors counter reflects the failed event
        stats = events_of(events, "stats")
        assert stats and stats[0]["errors"] >= 1
        assert events[-1]["event"] == "bye"

    def test_failure_is_isolated_to_the_faulted_job(self):
        """One chaos fault, two jobs: exactly one fails, the other still
        solves to a valid result over the same (recovered) session."""
        chaos.install(
            ChaosConfig(
                rates={"launch_exception": 1.0},
                seed=CHAOS_SEED,
                max_faults=1,
            )
        )
        events = run_serve(
            [
                {"op": "submit", "id": "a", "n": 4, "terms": TERMS,
                 "rounds": 5, "seed": 0},
                {"op": "drain"},
                {"op": "submit", "id": "b", "n": 4, "terms": TERMS,
                 "rounds": 5, "seed": 1},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        assert len(events_of(events, "failed")) == 1
        done = events_of(events, "done")
        assert len(done) == 1 and done[0]["id"] == "b"
        assert events[-1]["event"] == "bye"


class TestSessionLoopSurvivesHandlerBugs:
    def test_internal_error_is_reported_and_loop_continues(self, monkeypatch):
        """A service-layer exception inside a request handler becomes an
        ``error`` event with a traceback; the loop goes on to serve the
        shutdown instead of crashing the process."""
        monkeypatch.setattr(
            SolveService,
            "stats",
            lambda self: (_ for _ in ()).throw(RuntimeError("stats broke")),
        )
        events = run_serve(
            [
                {"op": "stats"},
                {"op": "submit", "id": "ok", "n": 4, "terms": TERMS,
                 "rounds": 3, "seed": 0},
                {"op": "drain"},
                {"op": "shutdown"},
            ]
        )
        errors = events_of(events, "error")
        assert errors and errors[0]["error"] == "internal error handling request"
        assert "stats broke" in errors[0]["traceback"]
        done = events_of(events, "done")
        assert len(done) == 1 and done[0]["id"] == "ok"
        assert events[-1]["event"] == "bye"
