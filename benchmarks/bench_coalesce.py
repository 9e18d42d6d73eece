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

A second row times the same executor on the direct round loop
(DESIGN.md §3): in-process ``DABSSolver.solve`` on a small G22-like
MaxCut instance with real kernels and no emulated latency, once with
each round's devices packed into one super-launch and once launching
every device solo through the per-algorithm group loop (one batch search
per device × algorithm group — the solo launch before a launch ran as
one kernel).  An unfloored third mode launches every device solo as it
does today: one one-segment super-launch per device.  Every mode is
asserted bit-exact with the others (best energy and vector, flips,
launches, improvement history) before a speedup is reported.

Run as a report generator (writes ``results/bench_coalesce.md`` and
``results/BENCH_coalesce.json``)::

    PYTHONPATH=src python benchmarks/bench_coalesce.py

or as the CI smoke gate (smaller sweeps; asserts the service sweep
coalesced ≥ 1.3× and the direct round solve packed ≥ 1.5×)::

    PYTHONPATH=src python benchmarks/bench_coalesce.py --smoke
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO))
if not any(Path(p).name == "src" for p in sys.path):
    sys.path.insert(0, str(_REPO / "src"))  # uninstalled checkout fallback

from benchmarks._util import save_report
from repro.gpu.virtual_gpu import VirtualGPU
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.service import SolveService
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

#: committed floors: full sweep (the committed baseline) and CI smoke
FULL_MIN_SPEEDUP = 1.5
SMOKE_MIN_SPEEDUP = 1.3
#: committed floor of the direct round-solve row, full run and CI smoke
DIRECT_MIN_SPEEDUP = 1.5

FULL = {"jobs": 32, "n": 64, "blocks": 8, "rounds": 10, "devices": 2}
SMOKE = {"jobs": 12, "n": 48, "blocks": 8, "rounds": 6, "devices": 2}

DIRECT_FULL = {"n": 384, "gpus": 2, "blocks": 16, "rounds": 2, "seeds": 6}
DIRECT_SMOKE = {"n": 256, "gpus": 2, "blocks": 16, "rounds": 2, "seeds": 3}


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


@contextmanager
def group_loop_launches():
    """Run every ``VirtualGPU.launch`` through the per-algorithm group loop.

    The direct row's floored baseline: the device's private group-loop
    path, patched in for the duration of the solo solves only.
    """
    original = VirtualGPU._launch
    VirtualGPU._launch = VirtualGPU._launch_groups
    try:
        yield
    finally:
        VirtualGPU._launch = original


def run_direct(spec: dict) -> dict:
    """Direct round solves of one G22-like instance in three modes.

    ``groups`` launches every device solo through the group loop,
    ``segments`` launches every device solo as one kernel (a one-segment
    super-launch), ``packed`` runs each round as one super-launch.  Each
    seed solves once per mode, the modes back to back, so slow phases of
    a shared host hit all of them; speedups are ratios of the summed
    solve times.
    """
    model = maxcut_to_qubo(g22_like(spec["n"], seed=22))
    modes = {"groups": False, "segments": False, "packed": True}
    seconds = dict.fromkeys(modes, 0.0)
    for seed in range(spec["seeds"]):
        results = {}
        for mode, coalesce in modes.items():
            config = DABSConfig(
                num_gpus=spec["gpus"],
                blocks_per_gpu=spec["blocks"],
                **solo_rows(spec["blocks"], coalesce),
            )
            with DABSSolver(model, config, seed=seed) as solver:
                start = time.perf_counter()
                if mode == "groups":
                    with group_loop_launches():
                        results[mode] = solver.solve(max_rounds=spec["rounds"])
                else:
                    results[mode] = solver.solve(max_rounds=spec["rounds"])
                seconds[mode] += time.perf_counter() - start
        for mode in ("segments", "packed"):
            assert_parity(
                {"results": [results["groups"]]}, {"results": [results[mode]]}
            )
    return {
        "solo_s": seconds["groups"] / spec["seeds"],
        "segments_s": seconds["segments"] / spec["seeds"],
        "packed_s": seconds["packed"] / spec["seeds"],
        "speedup": seconds["groups"] / seconds["packed"],
        "segments_speedup": seconds["segments"] / seconds["packed"],
    }


def run_modes(spec: dict) -> tuple[dict, dict, float]:
    solo = run_sweep(spec, coalesce=False)
    coalesced = run_sweep(spec, coalesce=True)
    assert_parity(solo, coalesced)
    packs = coalesced["coalesce"]["packs"]
    assert packs > 0, "coalesced sweep never packed a launch"
    return solo, coalesced, coalesced["jobs_per_s"] / solo["jobs_per_s"]


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
        f"jobs/s; CI smoke asserts ≥{SMOKE_MIN_SPEEDUP}x on the small "
        "sweep.",
        "",
        "## Direct round solves: packed vs solo device launches",
        "",
        f"`DABSSolver.solve` on `g22_like({DIRECT_FULL['n']})` MaxCut, "
        f"{DIRECT_FULL['gpus']} GPUs × {DIRECT_FULL['blocks']} blocks, "
        f"{DIRECT_FULL['rounds']} rounds, seeds 0–{DIRECT_FULL['seeds'] - 1}, "
        "direct round loop, real kernels (no emulated latency).  "
        "Per seed, both one-kernel modes are asserted bit-exact with the "
        "group loop (best energy/vector, launches, flips, improvement "
        "history).",
        "",
        "| mode | mean solve time | packed speedup |",
        "|---|---|---|",
        f"| solo, group loop (one batch search per device × algorithm "
        f"group) | {direct['solo_s']:.3f}s | **{direct['speedup']:.2f}x** |",
        f"| solo, one kernel (one one-segment super-launch per device) "
        f"| {direct['segments_s']:.3f}s | {direct['segments_speedup']:.2f}x |",
        f"| packed (one super-launch per round) | {direct['packed_s']:.3f}s "
        "| 1.00x |",
        "",
        "Packing runs every phase loop once per round instead of once "
        "per (device × algorithm group), and the main phases of all "
        "algorithms but TwoNeighbor as one lockstep loop, so the per-call "
        "NumPy overhead is paid once for all devices and algorithms.  "
        "The committed floor applies to the group-loop row: "
        f"≥{DIRECT_MIN_SPEEDUP}x here and in CI smoke (on "
        f"`g22_like({DIRECT_SMOKE['n']})`).  A solo launch now runs as "
        "one kernel per device, so the one-kernel row measures what "
        "packing the devices of a round adds on top; it has no floor.",
    ]
    return "\n".join(lines)


def run_full() -> None:
    solo, coalesced, speedup = run_modes(FULL)
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
            "direct_solo_s": direct["solo_s"],
            "direct_segments_s": direct["segments_s"],
            "direct_packed_s": direct["packed_s"],
            "direct_speedup": direct["speedup"],
            "direct_segments_speedup": direct["segments_speedup"],
        },
    )
    print(report)
    print(f"\nwrote {path}")
    assert speedup >= FULL_MIN_SPEEDUP, (
        f"coalescing speedup below the committed floor: "
        f"{speedup:.2f}x < {FULL_MIN_SPEEDUP}x"
    )
    assert direct["speedup"] >= DIRECT_MIN_SPEEDUP, (
        f"packed round speedup below the committed floor: "
        f"{direct['speedup']:.2f}x < {DIRECT_MIN_SPEEDUP}x"
    )


def run_smoke() -> None:
    """CI gate: coalescing must beat solo launches on the small sweeps."""
    solo, coalesced, speedup = run_modes(SMOKE)
    print(
        f"solo     : {solo['elapsed']:.2f}s ({solo['jobs_per_s']:.1f} jobs/s)"
    )
    print(
        f"coalesced: {coalesced['elapsed']:.2f}s "
        f"({coalesced['jobs_per_s']:.1f} jobs/s, {speedup:.2f}x, "
        f"{coalesced['coalesce']['packs']} packs)"
    )
    assert speedup >= SMOKE_MIN_SPEEDUP, (
        f"coalescing no faster than solo launches on the smoke sweep: "
        f"{speedup:.2f}x < {SMOKE_MIN_SPEEDUP}x"
    )
    direct = run_direct(DIRECT_SMOKE)
    print(
        f"direct   : group loop {direct['solo_s']:.3f}s, one kernel "
        f"{direct['segments_s']:.3f}s, packed {direct['packed_s']:.3f}s per "
        f"solve ({direct['speedup']:.2f}x over the group loop, "
        f"{direct['segments_speedup']:.2f}x over one kernel)"
    )
    assert direct["speedup"] >= DIRECT_MIN_SPEEDUP, (
        f"packed round solves below the smoke floor: "
        f"{direct['speedup']:.2f}x < {DIRECT_MIN_SPEEDUP}x"
    )
    print("bench smoke OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        run_full()
