"""Round scheduler: the inline executor of a direct ``solve()``.

A direct ``DABSSolver.solve()`` runs the service's
:class:`~repro.engine.async_engine.VirtualTimeReplay` — the one round
loop, which owns the double-buffered order (DESIGN.md §7) — in the
caller's thread, and this module executes its launches:
:meth:`RoundScheduler.submit` takes the replay's pending ``(seq, batch)``
per device and returns one
:class:`~repro.engine.workers.LaunchCompletion` per device, in device
order, as a service lane would deliver them.  Launches never touch the
host-side pools or the host RNG, so running them here rather than on
concurrent lanes leaves every result bit-exact.  This module has no
threads.

**Packed rounds.**  The paper's speed comes from bulk execution — every
block of a GPU in one kernel launch.  Launching each device on its own
would run every phase loop once per device, on a few rows each.  So,
when coalescing is on (``DABSConfig.coalesce``),
consecutive devices that share a pack key
(:func:`~repro.engine.coalesce.pack_key`) run as **one**
:class:`~repro.engine.coalesce.SuperLaunch` over the stacked ``(ΣB, n)``
batch: straight once over all rows, greedy once over all active rows,
each main phase once per algorithm across the devices.  A pack holds at
most ``coalesce_max_rows`` rows and at least one device.  Packing is
bit-exact per device (solutions, RNG lanes, CyclicMin cursors,
counters), so the results — returned in device order — are those of
solo launches.  A device without a pack key (JIT/CUDA, custom
algorithms, stub devices) launches solo through ``gpu.launch``, and so
does every device with coalescing off — a packable device's solo launch
is itself a one-segment super-launch.  Either way the completions come
from :func:`~repro.engine.workers.run_launch`, the helper the service's
lanes call too.

Everything that crosses this seam is columnar: a submitted round is one
:class:`~repro.core.packet.PacketBatch` buffer per GPU and a collected
round is the same buffers with the vector/energy columns overwritten by
the device — the host inserts them into the pools
column-wise without ever materializing per-packet objects (DESIGN.md §5).
"""

from __future__ import annotations

from repro.core.packet import PacketBatch
from repro.engine.coalesce import PackSegment, SuperLaunch, pack_key
from repro.engine.workers import LaunchCompletion, run_launch

__all__ = ["RoundScheduler"]


class RoundScheduler:
    """Executes one round of launches per step over a fixed GPU set.

    Parameters
    ----------
    gpus:
        The virtual GPUs, in pool order.
    pack_rows:
        Row budget of one packed launch (``coalesce_max_rows``), or
        ``None`` to launch every device solo.
    scratch:
        The merged-buffer map packed launches run on (see
        :class:`~repro.engine.coalesce.PackScratch`); owned by the caller
        so it outlives one solve.
    """

    __slots__ = ("gpus", "pack_rows", "scratch")

    def __init__(
        self,
        gpus,
        pack_rows: int | None = None,
        scratch: dict | None = None,
    ) -> None:
        self.gpus = list(gpus)
        self.pack_rows = pack_rows
        self.scratch = {} if scratch is None else scratch

    def submit(
        self, entries: list[tuple[int, PacketBatch] | None]
    ) -> list[LaunchCompletion]:
        """Run one step's launches; completions in device order.

        ``entries[i]`` is device *i*'s ``(seq, batch)`` — what
        :meth:`~repro.engine.async_engine.VirtualTimeReplay.take_pending`
        hands out — or ``None`` when the device has nothing to launch.
        """
        if len(entries) != len(self.gpus):
            raise ValueError(
                f"expected {len(self.gpus)} entries, got {len(entries)}"
            )
        segments = [
            PackSegment(i, entry[0], self.gpus[i], entry[1], None)
            for i, entry in enumerate(entries)
            if entry is not None
        ]
        done = self._run_chunks(self._chunks(segments))
        return [done[seg.device_id] for seg in segments]

    def _chunks(self, segments) -> list[tuple[list[PackSegment], bool]]:
        """Split *segments* into ``(segments, packed)`` chunks, in order.

        Consecutive devices with one pack key share a chunk while its
        rows fit ``pack_rows``; a device without a key is a solo chunk.
        """
        chunks: list[tuple[list[PackSegment], bool]] = []
        last_key = None
        rows = 0
        for seg in segments:
            gpu = seg.gpu
            key = None if self.pack_rows is None else pack_key(gpu)
            if key is None:
                chunks.append(([seg], False))
            elif key == last_key and rows + gpu.num_blocks <= self.pack_rows:
                chunks[-1][0].append(seg)
                rows += gpu.num_blocks
                continue
            else:
                chunks.append(([seg], True))
                rows = gpu.num_blocks
            last_key = key
        return chunks

    def _run_chunks(self, chunks, degraded=frozenset()) -> dict:
        """Run *chunks* one after the other; ``{device index: completion}``."""
        done = {}
        for segments, packed in chunks:
            if packed:
                done.update(self._run_pack(segments, degraded))
            else:
                (completion,) = run_launch(segments[0])
                done[completion.device_id] = completion
        return done

    def _run_pack(self, segments, degraded) -> dict:
        """One super-launch over *segments*, re-issued the way solo
        launches fail over when it raises (DESIGN.md §11).

        A failed pack has committed nothing.  When the pack knows the
        failing device, only that device degrades (as its own ``launch``
        would) and the round is re-planned — the degraded device's new
        kernel no longer matches its mates.  Like a solo launch, a device
        gets one fallback per round.  Otherwise every device re-runs
        solo and handles its own failure itself.
        """
        pack = SuperLaunch(segments)
        try:
            completions = run_launch(pack, self.scratch)
        except Exception as exc:
            culprit = pack.culprit
            if culprit is None:
                completions = [run_launch(seg)[0] for seg in segments]
            elif culprit.device_id in degraded or not culprit.gpu._degrade(exc):
                raise
            else:
                return self._run_chunks(
                    self._chunks(segments), degraded | {culprit.device_id}
                )
        return {c.device_id: c for c in completions}
