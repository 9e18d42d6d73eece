"""``JobHandle.set_listener``: the push form of a job's event stream.

A listener gets every incumbent update in order, then ``None`` once the
job is terminal.  Whatever was queued before registration is replayed
first, so a late listener misses nothing — for ``SolveService`` handles
and for ``Federation`` handles, which inherit the mechanism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federation import Federation
from repro.service import SolveService
from repro.service.job import IncumbentUpdate, JobHandle, JobStatus
from repro.solver.dabs import DABSConfig
from tests.conftest import random_qubo


def update(energy: int) -> IncumbentUpdate:
    return IncumbentUpdate("job-x", energy, np.zeros(2, dtype=np.uint8), 0.0)


class TestHandleListener:
    def test_replays_queued_then_streams_live_then_terminal(self):
        handle = JobHandle("job-x", service=None)
        handle._push_incumbent(update(-1))
        handle._push_incumbent(update(-2))
        seen = []
        handle.set_listener(seen.append)
        assert [u.energy for u in seen] == [-1, -2]
        handle._push_incumbent(update(-3))
        handle._finalize(JobStatus.CANCELLED, None)
        assert [u.energy for u in seen[:-1]] == [-1, -2, -3]
        assert seen[-1] is None

    def test_terminal_before_registration_is_replayed(self):
        handle = JobHandle("job-x", service=None)
        handle._push_incumbent(update(-5))
        handle._finalize(JobStatus.CANCELLED, None)
        seen = []
        handle.set_listener(seen.append)
        assert [u.energy for u in seen[:-1]] == [-5]
        assert seen[-1] is None

    def test_listener_sees_a_readable_result_and_empties_the_queue(self):
        handle = JobHandle("job-x", service=None)
        statuses = []
        handle.set_listener(lambda item: statuses.append(handle.status))
        handle._finalize(JobStatus.CANCELLED, None)
        assert handle.done() and statuses == [JobStatus.CANCELLED]
        assert handle._stream.empty()

    def test_second_listener_is_refused(self):
        handle = JobHandle("job-x", service=None)
        handle.set_listener(lambda item: None)
        with pytest.raises(RuntimeError, match="already has a listener"):
            handle.set_listener(lambda item: None)


def replayed_after_finish(service, model, **kwargs):
    """Run one job to completion, then register a listener: returns the
    callback-observed energies and what the listener was replayed."""
    observed = []
    handle = service.submit(
        model, on_improvement=lambda u: observed.append(u.energy), **kwargs
    )
    handle.result(timeout=120)
    seen = []
    handle.set_listener(seen.append)
    return handle, observed, seen


class TestServiceHandles:
    def test_solve_service_handle_replays_in_order(self):
        model = random_qubo(24, seed=2)
        cfg = DABSConfig(num_gpus=2, blocks_per_gpu=4, pool_capacity=8)
        with SolveService(devices=2, default_config=cfg) as service:
            handle, observed, seen = replayed_after_finish(
                service, model, seed=1, max_rounds=6
            )
        assert observed, "the job produced no incumbent"
        assert [u.energy for u in seen[:-1]] == observed
        assert seen[-1] is None
        assert handle.status is JobStatus.DONE

    def test_federation_handle_replays_in_order(self):
        model = random_qubo(24, seed=2)
        cfg = DABSConfig(num_gpus=1, blocks_per_gpu=4, pool_capacity=8)
        with Federation(2, default_config=cfg, seed=0) as federation:
            handle, observed, seen = replayed_after_finish(
                federation, model, seed=1, max_launches=8
            )
        assert observed, "the job produced no incumbent"
        assert [u.energy for u in seen[:-1]] == observed
        assert seen[-1] is None
        assert handle.status is JobStatus.DONE
