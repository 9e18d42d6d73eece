"""Barrier-free benchmark: free-running vs round-synchronous throughput.

The paper's multi-GPU throughput argument (§III.C): with a global round
barrier, every round costs as much as the *slowest* device, so a
heterogeneous fleet wastes the fast devices' time; free-running devices
launch at their own pace and the fleet throughput becomes the *sum* of
device rates instead of ``G / max(latency)``.

Both rows run one solve as a one-job service
(``solve(service=SolveService(G))``).  The skewed fleet's sleeping
proxies are not packable (``pack_key`` is ``None`` for anything that is
not a real ``VirtualGPU``), so they keep one lane per device and their
launches overlap across lanes in both rows.  The uniform fleet's devices
are packable, so each of its rounds is one pass of one lane:

* **barrier** — ``virtual_time=True``: the round schedule replayed over
  the lanes (each round waits for its slowest device);
* **free** — ``virtual_time=False``: every device refills its lane as
  soon as its own launch completes.

Two fleet scenarios, both solving the same instance under a wall-clock
budget (throughput = collected launches per second of solve time):

* **skewed fleet** — real virtual GPUs wrapped with per-device kernel
  latency (sleeping proxies emulating a fast+slow device mix, the
  multi-tenant/unequal-GPU case the paper's asynchronous design targets).
  The sleeps release the GIL, so lanes genuinely overlap inside a round
  — the measured gap is the barrier itself, not an artifact of
  serialization.
* **uniform fleet** — unmodified virtual GPUs (pure compute).  On a
  CPU-bound box with identical devices the barrier costs little; the row
  is reported as the honesty check that free-running does not *lose*
  meaningful throughput when there is no skew to exploit.

Run as a report generator (writes ``results/bench_async_engine.md``)::

    PYTHONPATH=src python benchmarks/bench_async_engine.py

or as a CI smoke gate (short budget; asserts free-running beats the
round barrier on the skewed fleet)::

    PYTHONPATH=src python benchmarks/bench_async_engine.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO))
if not any(Path(p).name == "src" for p in sys.path):
    sys.path.insert(0, str(_REPO / "src"))  # uninstalled checkout fallback

from benchmarks._util import save_report
from repro.search.batch import BatchSearchConfig
from repro.service import SolveService
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

SEED = 0
#: committed reference ratios from the full run (see results/)
SMOKE_MIN_SPEEDUP = 1.2


class LaggyGPU:
    """Proxy device adding fixed kernel latency to every launch.

    ``time.sleep`` releases the GIL, so slow launches on different lanes
    overlap exactly like long-running kernels on a busy GPU would.
    """

    def __init__(self, gpu, delay: float) -> None:
        self._gpu = gpu
        self._delay = delay

    def launch(self, batch):
        time.sleep(self._delay)
        return self._gpu.launch(batch)

    def reset(self) -> None:
        self._gpu.reset()

    def __getattr__(self, name):
        return getattr(self._gpu, name)


#: row name -> DABSConfig.virtual_time of its one-job service
SCHEDULES = {"barrier": True, "free": False}


def run_schedule(
    model,
    schedule: str,
    time_budget: float,
    num_gpus: int,
    blocks: int,
    delays=None,
    flip_factor: float = 2.0,
) -> dict:
    """One timed one-job-service solve; returns launches/s and flips/s."""
    cfg = DABSConfig(
        num_gpus=num_gpus,
        blocks_per_gpu=blocks,
        pool_capacity=20,
        batch=BatchSearchConfig(batch_flip_factor=flip_factor),
        virtual_time=SCHEDULES[schedule],
    )
    solver = DABSSolver(model, cfg, seed=SEED)
    if delays is not None:
        solver.gpus = [
            LaggyGPU(gpu, delay) for gpu, delay in zip(solver.gpus, delays)
        ]
    with SolveService(num_gpus) as service:
        start = time.perf_counter()
        result = solver.solve(time_limit=time_budget, service=service)
        elapsed = time.perf_counter() - start
    return {
        "schedule": schedule,
        "launches": result.launches,
        "elapsed": elapsed,
        "lps": result.launches / elapsed,
        "fps": result.total_flips / elapsed,
        "best": result.best_energy,
    }


def run_scenario(
    name: str,
    n: int,
    time_budget: float,
    num_gpus: int,
    blocks: int,
    delays=None,
    flip_factor: float = 2.0,
    repeats: int = 1,
) -> dict:
    model = random_qubo(n, seed=7)
    rows = [
        max(
            (
                run_schedule(
                    model,
                    schedule,
                    time_budget,
                    num_gpus,
                    blocks,
                    delays,
                    flip_factor,
                )
                for _ in range(repeats)
            ),
            key=lambda row: row["lps"],
        )
        for schedule in SCHEDULES
    ]
    barrier_row, free_row = rows
    return {
        "name": name,
        "n": n,
        "num_gpus": num_gpus,
        "blocks": blocks,
        "delays": delays,
        "rows": rows,
        "speedup": free_row["lps"] / barrier_row["lps"],
    }


def render(scenarios: list[dict], budget: float) -> str:
    lines = [
        "# Barrier-free throughput: free-running vs round barrier",
        "",
        "Same instance, same wall-clock budget per schedule "
        f"({budget:.1f}s, best of 3 runs per row); `launches/s` counts "
        "collected device launches per second of solve time.  Both rows "
        "run the solve as a one-job service (`solve(service="
        "SolveService(G))`, depth 2; one lane per device for the skewed "
        "fleet's unpackable proxies, one packed lane pass per round for "
        "the uniform fleet): `barrier` is "
        "the virtual-time replay of the round schedule "
        "(`virtual_time=True`), `free` the free-running schedule "
        "(`virtual_time=False`).  Skewed-fleet devices carry synthetic "
        "per-device kernel latency (GIL-releasing sleeps), isolating the "
        "cost of the global round barrier.",
        "",
        "| fleet | G | per-device latency | schedule | launches | launches/s | flips/s | speedup |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for scenario in scenarios:
        delays = scenario["delays"]
        delay_text = (
            " / ".join(f"{d * 1000:.0f}ms" for d in delays)
            if delays
            else "none (pure compute)"
        )
        barrier_row, free_row = scenario["rows"]
        for row in (barrier_row, free_row):
            speedup = (
                f"**{scenario['speedup']:.2f}x**"
                if row is free_row
                else "1.00x"
            )
            lines.append(
                f"| {scenario['name']} | {scenario['num_gpus']} | {delay_text} "
                f"| {row['schedule']} | {row['launches']} | {row['lps']:,.0f} "
                f"| {row['fps']:,.0f} | {speedup} |"
            )
    lines += [
        "",
        "The skewed fleet shows the barrier cost directly: each round "
        "waits for the slowest device, so the barrier's rate is "
        "`G / max(latency)` while free-running approaches "
        "`sum(1 / latency)`.  The uniform fleet (single-box CPU-bound "
        "compute, no skew) is the no-win-available control: with no skew "
        "to exploit, free-running gains nothing.",
    ]
    return "\n".join(lines)


def run_full() -> None:
    budget = 3.0
    scenarios = [
        run_scenario(
            "skewed",
            n=32,
            time_budget=budget,
            num_gpus=3,
            blocks=2,
            delays=(0.01, 0.02, 0.05),
            flip_factor=1.0,
            repeats=3,
        ),
        run_scenario(
            "uniform",
            n=192,
            time_budget=budget,
            num_gpus=2,
            blocks=8,
            repeats=3,
        ),
    ]
    report = render(scenarios, budget)
    path = save_report(report, "bench_async_engine")
    print(report)
    print(f"\nwrote {path}")


def run_smoke() -> None:
    """CI gate: free-running must beat the round barrier on a skewed
    fleet of 2 virtual GPUs."""
    scenario = run_scenario(
        "skewed",
        n=32,
        time_budget=1.0,
        num_gpus=2,
        blocks=2,
        delays=(0.01, 0.04),
        flip_factor=1.0,
    )
    barrier_row, free_row = scenario["rows"]
    print(
        f"barrier: {barrier_row['launches']} launches, "
        f"{barrier_row['lps']:,.0f} launches/s"
    )
    print(
        f"free   : {free_row['launches']} launches, "
        f"{free_row['lps']:,.0f} launches/s "
        f"({scenario['speedup']:.2f}x)"
    )
    assert scenario["speedup"] >= SMOKE_MIN_SPEEDUP, (
        f"free-running no faster than the round barrier on a skewed fleet: "
        f"{scenario['speedup']:.2f}x < {SMOKE_MIN_SPEEDUP}x"
    )
    print("bench smoke OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        run_full()
