"""Round scheduler: the execution layer of a direct ``solve()``.

The paper's host drives every GPU and keeps generating work while
kernels are in flight.  A direct ``DABSSolver.solve()`` runs the same
logical schedule round by round in the caller's thread —

    submit round r  →  generate round r+1  →  collect round r  →  insert

— so packet generation always reads the pools as of round ``r−1``.
Launches never touch the host-side pools or the host RNG, and this
order fixes the RNG draw order, which is what makes every result
reproducible bit-exactly — including by the service's virtual-time
replay (DESIGN.md §7), which runs the same schedule with its launches on
concurrent lanes.  Barrier-free execution is the service's job
(``solve(service=...)``); this module has no threads.

**Packed rounds.**  The paper's speed comes from bulk execution — every
block of a GPU in one kernel launch.  Launching each device on its own
would run every phase loop once per device, on a few rows each.  So, when coalescing is on (``DABSConfig.coalesce``),
consecutive devices that share a pack key
(:func:`~repro.engine.coalesce.pack_key`) run as **one**
:class:`~repro.engine.coalesce.SuperLaunch` over the stacked ``(ΣB, n)``
batch: straight once over all rows, greedy once over all active rows,
each main phase once per algorithm across the devices.  A pack holds at
most ``coalesce_max_rows`` rows and at least one device.  Packing is
bit-exact per device (solutions, RNG lanes, CyclicMin cursors,
counters), so the results — returned in device order — are those of
solo launches.  A device without a pack key (JIT/CUDA, float models,
custom algorithms, stub devices) launches solo through ``gpu.launch``,
and so does every device with coalescing off — a packable device's solo
launch is itself a one-segment super-launch.

Everything that crosses this seam is columnar: a submitted round is a list
of :class:`~repro.core.packet.PacketBatch` buffers (one per GPU) and a
collected round is the same buffers with the vector/energy columns
overwritten by the device — the host inserts them into the pools
column-wise without ever materializing per-packet objects (DESIGN.md §5).
"""

from __future__ import annotations

from repro.core.packet import PacketBatch
from repro.engine.coalesce import PackSegment, SuperLaunch, pack_key

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

    def submit(self, batches: list[PacketBatch]) -> list[tuple[PacketBatch, object]]:
        """Run the round's launches; ``(result, flips)`` per GPU, in order."""
        if len(batches) != len(self.gpus):
            raise ValueError(
                f"expected {len(self.gpus)} batches, got {len(batches)}"
            )
        done = self._run_chunks(self._chunks(range(len(self.gpus))), batches)
        return [done[i] for i in range(len(batches))]

    def _chunks(self, indices) -> list[tuple[list[int], bool]]:
        """Split devices into ``(indices, packed)`` chunks, in order.

        Consecutive devices with one pack key share a chunk while its
        rows fit ``pack_rows``; a device without a key is a solo chunk.
        """
        chunks: list[tuple[list[int], bool]] = []
        last_key = None
        rows = 0
        for i in indices:
            gpu = self.gpus[i]
            key = None if self.pack_rows is None else pack_key(gpu)
            if key is None:
                chunks.append(([i], False))
            elif key == last_key and rows + gpu.num_blocks <= self.pack_rows:
                chunks[-1][0].append(i)
                rows += gpu.num_blocks
                continue
            else:
                chunks.append(([i], True))
                rows = gpu.num_blocks
            last_key = key
        return chunks

    def _run_chunks(self, chunks, batches, degraded=frozenset()) -> dict:
        """Run *chunks* one after the other; ``{device index: result}``."""
        done = {}
        for indices, packed in chunks:
            if packed:
                done.update(self._run_pack(indices, batches, degraded))
            else:
                i = indices[0]
                done[i] = self.gpus[i].launch(batches[i])
        return done

    def _run_pack(self, indices, batches, degraded) -> dict:
        """One super-launch over *indices*, re-issued the way solo
        launches fail over when it raises (DESIGN.md §11).

        A failed pack has committed nothing.  When the pack knows the
        failing device, only that device degrades (as its own ``launch``
        would) and the round is re-planned — the degraded device's new
        kernel no longer matches its mates.  Like a solo launch, a device
        gets one fallback per round.  Otherwise every device re-runs
        solo and handles its own failure itself.
        """
        pack = SuperLaunch(
            [PackSegment(i, 0, self.gpus[i], batches[i], None) for i in indices]
        )
        try:
            results = pack.run(self.scratch)
        except Exception as exc:
            culprit = pack.culprit
            if culprit is None:
                return {i: self.gpus[i].launch(batches[i]) for i in indices}
            if culprit.device_id in degraded or not culprit.gpu._degrade(exc):
                raise
            return self._run_chunks(
                self._chunks(indices), batches, degraded | {culprit.device_id}
            )
        return {res.segment.device_id: (res.result, res.flips) for res in results}
