"""Continuous batching benchmark: coalesced vs solo launches.

The service's launch coalescer (DESIGN.md §12) packs pack-compatible
co-tenant launches — same prepared problem, backend, phase configuration
and n — into one fused super-launch per lane slot, running the fused
phase runners once over the stacked ``(ΣB, n)`` batch instead of once per
job.  On a cache-hit sweep (many small jobs over the same Q matrix, the
bulk-search service's bread-and-butter workload) this trades ``k`` small
kernel-emulation passes for one ``k×``-wider pass, amortizing the
per-phase interpreter overhead that dominates small batches.

Packing is **bit-exact per job**, so the benchmark doubles as a parity
gate: every job runs under ``virtual_time`` determinism, and the
coalesced sweep must reproduce the uncoalesced sweep's per-job results —
best energy, best vector, launch and flip counts — exactly.  A speedup
built on changed numerics would be rejected here, not just in the test
suite.

Aggregate throughput = jobs completed / wall-clock of the whole sweep.
The smoke gate runs the two modes in nine back-to-back pairs, the mode
that runs first alternating, and gates the median of the pairs'
speedups, as one ~40 ms sweep alone is too noisy to tell packing from
a slow moment of a shared host.

A second row times the same executor on the direct round loop
(DESIGN.md §3): in-process ``DABSSolver.solve`` on a small G22-like
MaxCut instance with real kernels and no emulated latency, once with
each round's devices packed into one super-launch and once launching
every device solo — one one-segment super-launch per device.  A round
has four devices, so packing saves three of every four passes through
the pack executor.  The two
modes are asserted bit-exact (best energy and vector, flips, launches,
improvement history) before a speedup is reported.  The row times many
short solves in pairs, one solve per mode back to back with the order
alternating, and reports the median of the pairs' time ratios, so the
drift of a shared host hits both modes alike.

Run as a report generator (writes ``results/bench_coalesce.md`` and
``results/BENCH_coalesce.json``)::

    PYTHONPATH=src python benchmarks/bench_coalesce.py

or as the CI smoke gate (smaller sweeps; asserts the service sweep
coalesced ≥ 1.3× and the direct round solve packed ≥ 1.2× over solo)::

    PYTHONPATH=src python benchmarks/bench_coalesce.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO))
if not any(Path(p).name == "src" for p in sys.path):
    sys.path.insert(0, str(_REPO / "src"))  # uninstalled checkout fallback

from benchmarks._util import save_report
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.service import SolveService
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

#: committed floors: full sweep (the committed baseline) and CI smoke
FULL_MIN_SPEEDUP = 1.5
SMOKE_MIN_SPEEDUP = 1.3
#: committed floor of the direct round-solve row (packed over solo
#: one-kernel launches), full run and CI smoke
DIRECT_MIN_SPEEDUP = 1.2

#: ``pairs``: solo/coalesced sweep pairs; the gated speedup is their
#: median (one ~40 ms smoke sweep alone spreads 1.2-2.3×)
FULL = {"jobs": 32, "n": 64, "blocks": 8, "rounds": 10, "devices": 2, "pairs": 1}
SMOKE = {"jobs": 12, "n": 48, "blocks": 8, "rounds": 6, "devices": 2, "pairs": 9}

DIRECT_FULL = {"n": 256, "gpus": 4, "blocks": 8, "rounds": 2, "seeds": 6, "pairs": 24}
DIRECT_SMOKE = {"n": 128, "gpus": 4, "blocks": 8, "rounds": 2, "seeds": 3, "pairs": 24}


def solo_rows(blocks: int, coalesce: bool) -> dict:
    """Config fields of a mode: packing is always on, and a row budget of
    one device (``coalesce_max_rows=blocks``) keeps every launch solo."""
    return {} if coalesce else {"coalesce_max_rows": blocks}


def run_sweep(spec: dict, coalesce: bool) -> dict:
    """One full sweep: *jobs* submissions of the same Q, shared fleet.

    Every job solves the same instance (a cache-hit sweep: one prepared
    problem, one kernel, many tenants) with its own seed, one device and
    ``virtual_time`` replay — per-job results are scheduling-independent,
    which is what makes the cross-mode parity assertion meaningful.
    """
    model = random_qubo(spec["n"], seed=7)
    config = DABSConfig(
        num_gpus=1,
        blocks_per_gpu=spec["blocks"],
        pool_capacity=20,
        virtual_time=True,
        **solo_rows(spec["blocks"], coalesce),
    )
    with SolveService(devices=spec["devices"], default_config=config) as service:
        start = time.perf_counter()
        handles = [
            service.submit(
                model,
                config=config,
                seed=1000 + i,
                max_rounds=spec["rounds"],
            )
            for i in range(spec["jobs"])
        ]
        results = [handle.result() for handle in handles]
        elapsed = time.perf_counter() - start
        stats = service.stats()
    launches = sum(r.launches for r in results)
    return {
        "mode": "coalesced" if coalesce else "solo",
        "elapsed": elapsed,
        "jobs_per_s": spec["jobs"] / elapsed,
        "launches": launches,
        "launches_per_s": launches / elapsed,
        "results": results,
        "coalesce": stats["coalesce"],
    }


def assert_parity(solo: dict, coalesced: dict) -> None:
    """Per-job bit-exactness of the coalesced sweep against the solo one."""
    for i, (a, b) in enumerate(zip(solo["results"], coalesced["results"])):
        assert a.best_energy == b.best_energy, (
            f"job {i}: best energy diverged ({a.best_energy} vs {b.best_energy})"
        )
        assert np.array_equal(a.best_vector, b.best_vector), (
            f"job {i}: best vector diverged"
        )
        assert a.launches == b.launches, f"job {i}: launch count diverged"
        assert a.total_flips == b.total_flips, f"job {i}: flip count diverged"
        assert [e.energy for e in a.history] == [
            e.energy for e in b.history
        ], f"job {i}: improvement history diverged"


def run_direct(spec: dict) -> dict:
    """Direct round solves of one G22-like instance in two modes.

    ``segments`` launches every device solo as one kernel (a one-segment
    super-launch), ``packed`` runs each round as one super-launch.  Each
    of ``pairs`` pairs solves one seed (cycling through ``seeds``) once
    per mode, back to back, the mode that runs first alternating between
    pairs.  The speedup is the median of the pairs' solo/packed time
    ratios, which a slow phase of a shared host moves far less than a
    ratio of sums.
    """
    model = maxcut_to_qubo(g22_like(spec["n"], seed=22))
    seconds: dict[str, list[float]] = {"segments": [], "packed": []}
    for pair in range(spec["pairs"]):
        seed = pair % spec["seeds"]
        order = ("segments", "packed") if pair % 2 == 0 else ("packed", "segments")
        results = {}
        for mode in order:
            config = DABSConfig(
                num_gpus=spec["gpus"],
                blocks_per_gpu=spec["blocks"],
                **solo_rows(spec["blocks"], mode == "packed"),
            )
            solver = DABSSolver(model, config, seed=seed)
            start = time.perf_counter()
            results[mode] = solver.solve(max_rounds=spec["rounds"])
            seconds[mode].append(time.perf_counter() - start)
        assert_parity({"results": [results["segments"]]}, {"results": [results["packed"]]})
    ratios = np.divide(seconds["segments"], seconds["packed"])
    return {
        "segments_s": float(np.median(seconds["segments"])),
        "packed_s": float(np.median(seconds["packed"])),
        "segments_speedup": float(np.median(ratios)),
    }


def run_modes(spec: dict) -> tuple[dict, dict, float, list[float]]:
    """Solo and coalesced sweeps in ``spec["pairs"]`` back-to-back pairs,
    the mode that runs first alternating between pairs; each pair is
    asserted bit-exact.  Returns the median pair's two rows, its
    speedup (coalesced over solo jobs/s) and every pair's speedup, in
    run order."""
    pairs = []
    for pair in range(spec["pairs"]):
        order = (False, True) if pair % 2 == 0 else (True, False)
        rows = {coalesce: run_sweep(spec, coalesce) for coalesce in order}
        solo, coalesced = rows[False], rows[True]
        assert_parity(solo, coalesced)
        assert coalesced["coalesce"]["packs"] > 0, "coalesced sweep never packed a launch"
        pairs.append((coalesced["jobs_per_s"] / solo["jobs_per_s"], solo, coalesced))
    speedup, solo, coalesced = sorted(pairs, key=lambda p: p[0])[len(pairs) // 2]
    return solo, coalesced, speedup, [p[0] for p in pairs]


def render(
    spec: dict, solo: dict, coalesced: dict, speedup: float, direct: dict
) -> str:
    co = coalesced["coalesce"]
    lines = [
        "# Continuous batching: coalesced vs solo launches",
        "",
        "## Service: co-tenant launches",
        "",
        f"Cache-hit sweep: {spec['jobs']} jobs × same n={spec['n']} "
        f"instance, {spec['blocks']} blocks/device, "
        f"{spec['rounds']} rounds each, {spec['devices']}-lane fleet, "
        "`virtual_time` replay.  Both modes run identical solvers and "
        "seeds; per-job results are asserted bit-exact between modes "
        "(best energy/vector, launches, flips, improvement history).",
        "",
        "| mode | elapsed | jobs/s | launches/s | speedup |",
        "|---|---|---|---|---|",
    ]
    for row in (solo, coalesced):
        mark = f"**{speedup:.2f}x**" if row is coalesced else "1.00x"
        lines.append(
            f"| {row['mode']} | {row['elapsed']:.2f}s "
            f"| {row['jobs_per_s']:.1f} | {row['launches_per_s']:,.0f} "
            f"| {mark} |"
        )
    lines += [
        "",
        f"Coalescing stats: {co['packs']} super-launches fused "
        f"{co['segments']} launches ({co['launches_saved']} lane passes "
        f"saved), mean {co['rows_mean']:.1f} rows per pack "
        f"(max {co['rows_max']}).",
        "",
        "The solo sweep pays one fused-phase interpreter pass per small "
        "launch; the coalescer stacks every pack-compatible co-tenant "
        "launch on the lane into one pass over the merged batch, so the "
        "per-phase overhead is shared by all riders.  The committed "
        f"floor for this full sweep is ≥{FULL_MIN_SPEEDUP}x aggregate "
        f"jobs/s; CI smoke asserts ≥{SMOKE_MIN_SPEEDUP}x on the median of "
        f"{SMOKE['pairs']} alternating pairs of small sweeps.",
        "",
        "## Direct round solves: packed vs solo device launches",
        "",
        f"`DABSSolver.solve` on `g22_like({DIRECT_FULL['n']})` MaxCut, "
        f"{DIRECT_FULL['gpus']} GPUs × {DIRECT_FULL['blocks']} blocks, "
        f"{DIRECT_FULL['rounds']} rounds, seeds 0–{DIRECT_FULL['seeds'] - 1}, "
        "direct round loop, real kernels (no emulated latency).  "
        f"{DIRECT_FULL['pairs']} pairs of back-to-back solves, one per "
        "mode, the first mode alternating; per pair the two modes are "
        "asserted bit-exact (best energy/vector, launches, flips, "
        "improvement history), and the speedup is the median of the "
        "pairs' time ratios.",
        "",
        "| mode | median solve time | packed speedup |",
        "|---|---|---|",
        f"| solo (one one-segment super-launch per device) "
        f"| {direct['segments_s']:.3f}s | **{direct['segments_speedup']:.2f}x** |",
        f"| packed (one super-launch per round) | {direct['packed_s']:.3f}s "
        "| 1.00x |",
        "",
        "Every solo launch already runs as one kernel per device; packing "
        "runs the pack executor and its one search call once per round "
        "instead of once per device, so the per-pack overhead is paid "
        f"once for all {DIRECT_FULL['gpus']} devices.  "
        f"The committed floor is ≥{DIRECT_MIN_SPEEDUP}x here and in CI "
        f"smoke (on `g22_like({DIRECT_SMOKE['n']})`).",
    ]
    return "\n".join(lines)


def run_full() -> None:
    solo, coalesced, speedup, _ = run_modes(FULL)
    direct = run_direct(DIRECT_FULL)
    report = render(FULL, solo, coalesced, speedup, direct)
    path = save_report(
        report,
        "bench_coalesce",
        metric="jobs_per_s_speedup",
        value=speedup,
        baseline=FULL_MIN_SPEEDUP,
        metrics={
            "solo_jobs_per_s": solo["jobs_per_s"],
            "coalesced_jobs_per_s": coalesced["jobs_per_s"],
            "packs": coalesced["coalesce"]["packs"],
            "packed_segments": coalesced["coalesce"]["segments"],
            "rows_mean": coalesced["coalesce"]["rows_mean"],
            "rows_max": coalesced["coalesce"]["rows_max"],
            "direct_segments_s": direct["segments_s"],
            "direct_packed_s": direct["packed_s"],
            "direct_segments_speedup": direct["segments_speedup"],
        },
    )
    print(report)
    print(f"\nwrote {path}")
    assert speedup >= FULL_MIN_SPEEDUP, (
        f"coalescing speedup below the committed floor: "
        f"{speedup:.2f}x < {FULL_MIN_SPEEDUP}x"
    )
    assert direct["segments_speedup"] >= DIRECT_MIN_SPEEDUP, (
        f"packed round speedup below the committed floor: "
        f"{direct['segments_speedup']:.2f}x < {DIRECT_MIN_SPEEDUP}x"
    )


def run_smoke() -> None:
    """CI gate: coalescing must beat solo launches on the small sweeps
    (the service row on the median of its sweep pairs)."""
    solo, coalesced, speedup, ratios = run_modes(SMOKE)
    print(
        f"solo     : {solo['elapsed']:.2f}s ({solo['jobs_per_s']:.1f} jobs/s)"
    )
    print(
        f"coalesced: {coalesced['elapsed']:.2f}s "
        f"({coalesced['jobs_per_s']:.1f} jobs/s, {speedup:.2f}x median of "
        f"{len(ratios)} pairs, {coalesced['coalesce']['packs']} packs)"
    )
    print("pairs    : " + " ".join(f"{r:.2f}" for r in ratios))
    assert speedup >= SMOKE_MIN_SPEEDUP, (
        f"coalescing no faster than solo launches on the smoke sweep: "
        f"{speedup:.2f}x < {SMOKE_MIN_SPEEDUP}x"
    )
    direct = run_direct(DIRECT_SMOKE)
    print(
        f"direct   : solo {direct['segments_s']:.3f}s, packed "
        f"{direct['packed_s']:.3f}s per solve "
        f"({direct['segments_speedup']:.2f}x)"
    )
    assert direct["segments_speedup"] >= DIRECT_MIN_SPEEDUP, (
        f"packed round solves below the smoke floor: "
        f"{direct['segments_speedup']:.2f}x < {DIRECT_MIN_SPEEDUP}x"
    )
    print("bench smoke OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        run_full()
