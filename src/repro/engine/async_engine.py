"""The barrier-free scheduling contract: driver hooks and virtual time.

The paper's defining systems idea is that each GPU runs *asynchronously*:
its host thread fetches parents from the shared pool, launches a bulk
search, and folds solutions back at the device's own pace — one slow
device never stalls the fleet.  In this package that schedule is run by
the :class:`~repro.service.SolveService` scheduler over the lanes of a
:class:`~repro.engine.workers.FleetWorkerGroup`; a direct solve that
wants it runs as a one-job service (``solve(service=...)``).  No
scheduler owns solver policy; a *driver* (implemented by the solver, see
:class:`EngineDriver` for the contract) supplies batches and absorbs
completions, while the scheduler does slot accounting, submission,
completion-order merging and draining.

Two schedules:

* **free-running** (``driver.virtual_time == False``) — the throughput
  path.  Every device keeps up to two launches in flight; each
  completion is collected the moment it arrives (pool insertion
  as-of-arrival) and back-fills that device's slot with a batch
  generated from the pools *as they are now*.  No barrier exists
  anywhere; completion order (and therefore pool content) depends on
  device timing.
* **virtual time** (``driver.virtual_time == True``) — the determinism
  path, :class:`VirtualTimeReplay`.  Completions are merged in
  ``(launch_seq, device_id)`` order and the host-side schedule
  (generation draw order, pool snapshots, insertion order, restart
  points) is the double-buffered round order — round *r+1* is
  generated while round *r* flies, so generation always reads the pools
  as of round *r−1*.  A direct ``solve()`` is this replay in a one-job
  service stepped in the calling thread, whose inline lanes run each
  launch as it is submitted, while a served job's lanes run them
  concurrently — the two are bit-identical by construction.  Round
  *r+1* goes out when round *r* folds, so a device has at most one
  launch in flight.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.packet import PacketBatch
from repro.engine.workers import LaunchCompletion

__all__ = ["EngineDriver", "VirtualTimeReplay"]


class EngineDriver(Protocol):
    """What a solver must provide to be scheduled barrier-free.

    The driver owns all solver policy — generation RNG streams, pool
    insertion, best/history tracking, termination and restart decisions —
    and must be touched only from the scheduler thread (the service
    never calls it concurrently).
    """

    #: devices of the solve (one pending launch slot each in the replay)
    num_devices: int
    #: True → deterministic virtual-time replay; False → free-running
    virtual_time: bool

    # -- free-running hooks ------------------------------------------------
    def can_submit(self, device_id: int) -> bool:
        """True while *device_id* may be handed another batch (peeked
        before a lane slot is committed to this driver)."""

    def next_batch(self, device_id: int) -> PacketBatch | None:
        """A fresh batch for *device_id* (as-of-now pools), or None when
        that device's launch budget is exhausted / the run is stopping."""

    def collect(self, completion: LaunchCompletion) -> str:
        """Absorb one completion; returns "continue", "stop" or "restart"."""

    def idle(self) -> str:
        """Called while waiting on completions; "stop" ends submission."""

    def halt(self) -> None:
        """The scheduler stopped submitting; remaining completions drain."""

    # -- virtual-time hooks ------------------------------------------------
    def generate_round(self) -> list[PacketBatch]:
        """One batch per device from the shared host RNG (round order)."""

    def record_round(self, batches: list[PacketBatch]) -> None:
        """Round submitted — record strategy counters."""

    def wants_round(self, round_index: int) -> bool:
        """True while the launch budget allows *round_index*."""

    def collect_ordered(self, completion: LaunchCompletion) -> None:
        """Absorb one completion (the replay guarantees (seq, device) order)."""

    def finish_round(self, round_index: int) -> str:
        """All of round *round_index* collected; returns "continue",
        "stop" or "restart" (driver already reinitialized the pools)."""


class VirtualTimeReplay:
    """The virtual-time schedule as an event-driven state machine.

    The one implementation of the round loop: generate round *r+1*
    while *r* flies, merge completions in ``(launch_seq, device)``
    order, collect device-ordered, release round *r+1* when round *r*
    folds, and sequence §IV.B restarts before the regenerated round.
    The service (DESIGN.md §8) advances it one completion at a time
    between other tenants' work — a direct ``solve()`` too, as the only
    job of a service it steps inline — so both produce the same result.

    Protocol: the owner pops each device's ``(seq, batch)`` from
    :attr:`pending` and runs it on the device, feeds every completion to
    :meth:`on_completion`, and — *before* executing newly pending
    launches — resets the devices whenever :meth:`take_reset_request`
    reports a restart.  :attr:`stopped` means no more launches come.
    """

    def __init__(self, driver: EngineDriver) -> None:
        self.driver = driver
        self.num_devices = driver.num_devices
        self.round = 0
        self.stopped = False
        #: device → (seq, batch) ready for its lane
        self.pending: dict[int, tuple[int, PacketBatch]] = {}
        self._results: dict[int, LaunchCompletion] = {}
        self._reset_due = False
        self._next_batches = driver.generate_round()
        self._begin_round()

    def _begin_round(self) -> None:
        self.round += 1
        batches = self._next_batches
        for device_id in range(self.num_devices):
            self.pending[device_id] = (self.round, batches[device_id])
        self.driver.record_round(batches)
        # round r+1 is generated while round r is in flight — it reads the
        # pools as of round r−1 (the double-buffered round order)
        want_next = self.driver.wants_round(self.round + 1)
        self._next_batches = self.driver.generate_round() if want_next else None

    def halt(self) -> None:
        """Stop the replay (cancellation): pending launches are dropped
        and any in-flight completions will be discarded by the caller."""
        self.stopped = True
        self.pending.clear()

    def take_reset_request(self) -> bool:
        """True once per §IV.B restart; the caller must queue device
        resets on the lanes before the regenerated round goes out."""
        due = self._reset_due
        self._reset_due = False
        return due

    def on_completion(self, completion: LaunchCompletion) -> None:
        self._results[completion.device_id] = completion
        if len(self._results) < self.num_devices:
            return
        # round complete: merge in device order, which fixes pool content
        for device_id in range(self.num_devices):
            self.driver.collect_ordered(self._results[device_id])
        self._results = {}
        verdict = self.driver.finish_round(self.round)
        if verdict == "stop":
            self.halt()
            return
        if verdict == "restart":
            # nothing is in flight between rounds, so the caller's queued
            # resets land before the regenerated round
            self._reset_due = True
            self._next_batches = self.driver.generate_round()
        self._begin_round()
