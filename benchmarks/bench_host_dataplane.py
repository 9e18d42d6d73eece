"""Host data-plane benchmark: columnar vs per-packet round path.

The paper keeps many GPUs saturated by continuously generating packets and
absorbing results while kernels fly (§III.C/§IV.A); once the device side is
fast, the serial per-``Packet`` host loop becomes the scaling bottleneck.
This bench isolates the host-side work of one round — adaptive strategy
selection, target-vector generation, and pool insertion of the returned
results — and measures packets/s on both paths:

* **per-packet** — the scalar reference path: one adaptive draw, one
  ``TargetGenerator.generate`` call and one ``SolutionPool.insert`` per
  packet;
* **columnar** — the vectorized path of DESIGN.md §5: one
  ``AdaptiveSelector.select_batch`` draw, one group-wise
  ``TargetGenerator.generate_batch`` pass and one
  ``SolutionPool.insert_batch`` sort-merge per launch.

No device search runs; returned energies are synthesized from a dedicated
RNG (identical streams for both paths) so insertion sees the realistic
accept-rate decay of a filling pool.

Run as a report generator (writes ``results/bench_host_dataplane.md``)::

    PYTHONPATH=src python benchmarks/bench_host_dataplane.py

or as a quick CI smoke check (small sizes, asserts the columnar path wins)::

    PYTHONPATH=src python benchmarks/bench_host_dataplane.py --smoke

Target at the default size (n=1024, B=512): **>= 3x** packets/s.

The report also times both paths at the two benchmark launch shapes
(``perfbench``'s ``g22_direct``: n=512, B=16, pool 100; ``stream_shared``:
n=96, B=8, pool 20), as µs of host work per device-round: one launch's
selection, generation and insertion.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO))
if not any(Path(p).name == "src" for p in sys.path):
    sys.path.insert(0, str(_REPO / "src"))  # uninstalled checkout fallback

from benchmarks._util import save_report
from repro.core.packet import VOID_ENERGY, GeneticOp, MainAlgorithm, Packet
from repro.core.rng import host_generator
from repro.ga.adaptive import AdaptiveSelector
from repro.ga.operations import TargetGenerator
from repro.ga.pool import SolutionPool

ENERGY_SPAN = 1_000_000
#: (workload, n, B, pool capacity) of the benchmark's launches
LAUNCH_SHAPES = (("g22_direct", 512, 16, 100), ("stream_shared", 96, 8, 20))
#: rounds per launch-shape row
LAUNCH_ROUNDS = 500


def _fixtures(n: int, capacity: int, seed: int):
    rng = host_generator(seed)
    pool = SolutionPool(capacity, n, rng)
    neighbor = SolutionPool(capacity, n, rng)
    selector = AdaptiveSelector()
    generator = TargetGenerator(n)
    return rng, pool, neighbor, selector, generator


def run_per_packet(n: int, blocks: int, rounds: int, capacity: int, seed: int):
    """The scalar reference path; returns (gen_seconds, insert_seconds)."""
    rng, pool, neighbor, selector, generator = _fixtures(n, capacity, seed)
    energy_rng = np.random.default_rng(seed + 1)
    gen_s = ins_s = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        packets = []
        for _ in range(blocks):
            alg = selector.select_algorithm(pool, rng)
            op = selector.select_operation(pool, rng)
            vector = generator.generate(op, pool, neighbor, rng)
            packets.append(Packet(vector, VOID_ENERGY, alg, op))
        gen_s += time.perf_counter() - t0
        energies = energy_rng.integers(-ENERGY_SPAN, 0, size=blocks)
        t0 = time.perf_counter()
        for packet, energy in zip(packets, energies):
            packet.energy = int(energy)
            pool.insert(packet)
        ins_s += time.perf_counter() - t0
    return gen_s, ins_s


def run_columnar(n: int, blocks: int, rounds: int, capacity: int, seed: int):
    """The columnar path; returns (gen_seconds, insert_seconds)."""
    rng, pool, neighbor, selector, generator = _fixtures(n, capacity, seed)
    energy_rng = np.random.default_rng(seed + 1)
    gen_s = ins_s = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        algorithms, operations = selector.select_batch(pool, rng, blocks)
        vectors = generator.generate_batch(operations, pool, neighbor, rng)
        gen_s += time.perf_counter() - t0
        energies = energy_rng.integers(-ENERGY_SPAN, 0, size=blocks)
        t0 = time.perf_counter()
        pool.insert_batch(vectors, energies.astype(np.int64), algorithms, operations)
        ins_s += time.perf_counter() - t0
    return gen_s, ins_s


def measure(n: int, blocks: int, rounds: int, capacity: int, seed: int) -> dict:
    scalar_gen, scalar_ins = run_per_packet(n, blocks, rounds, capacity, seed)
    col_gen, col_ins = run_columnar(n, blocks, rounds, capacity, seed)
    packets = blocks * rounds
    scalar_total = scalar_gen + scalar_ins
    col_total = col_gen + col_ins
    return {
        "n": n,
        "blocks": blocks,
        "capacity": capacity,
        "rounds": rounds,
        "packets": packets,
        "scalar_gen": scalar_gen,
        "scalar_ins": scalar_ins,
        "scalar_pps": packets / scalar_total,
        "col_gen": col_gen,
        "col_ins": col_ins,
        "col_pps": packets / col_total,
        "speedup": scalar_total / col_total,
    }


def round_us(r: dict, path: str) -> float:
    """µs of host work per device-round on *path* (``scalar`` or ``col``)."""
    return (r[f"{path}_gen"] + r[f"{path}_ins"]) / r["rounds"] * 1e6


def render_report(rows: list[dict], target: float, launches: list[tuple[str, dict]]) -> str:
    lines = [
        "# Host data-plane throughput: columnar vs per-packet",
        "",
        "Host-side round work only (adaptive selection + target generation +",
        "pool insertion of synthesized results); no device search.  Both",
        "paths process identical packet counts; `packets/s` is packets per",
        "second of combined generation+insertion wall time.",
        "",
        "| n | B | rounds | per-packet pkts/s | columnar pkts/s | speedup |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['n']} | {r['blocks']} | {r['rounds']} "
            f"| {r['scalar_pps']:,.0f} | {r['col_pps']:,.0f} "
            f"| **{r['speedup']:.1f}x** |"
        )
    main = rows[-1]
    verdict = "met" if main["speedup"] >= target else "NOT met"
    lines += [
        "",
        f"Phase split at n={main['n']}, B={main['blocks']} "
        f"(seconds over {main['rounds']} rounds): "
        f"per-packet gen {main['scalar_gen']:.3f} / insert {main['scalar_ins']:.3f}; "
        f"columnar gen {main['col_gen']:.3f} / insert {main['col_ins']:.3f}.",
        "",
        f"Target >= {target:.0f}x at n=1024, B=512: **{verdict}** "
        f"({main['speedup']:.1f}x).",
        "",
        "## At the benchmark's launch shapes",
        "",
        "µs of host work per device-round (one launch: select + generate for",
        "its B rows, then insert its B results), and the columnar split.",
        "",
        "| workload | n | B | pool | rounds | per-packet µs | columnar µs "
        "| columnar select+generate / insert µs | speedup |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name, r in launches:
        lines.append(
            f"| {name} | {r['n']} | {r['blocks']} | {r['capacity']} | {r['rounds']} "
            f"| {round_us(r, 'scalar'):.0f} | {round_us(r, 'col'):.0f} "
            f"| {r['col_gen'] / r['rounds'] * 1e6:.0f} / {r['col_ins'] / r['rounds'] * 1e6:.0f} "
            f"| **{r['speedup']:.1f}x** |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI: assert columnar beats per-packet, no report",
    )
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.smoke:
        r = measure(n=128, blocks=64, rounds=5, capacity=50, seed=args.seed)
        print(
            f"[smoke] n={r['n']} B={r['blocks']}: "
            f"per-packet {r['scalar_pps']:,.0f} pkts/s, "
            f"columnar {r['col_pps']:,.0f} pkts/s, speedup {r['speedup']:.1f}x"
        )
        if r["speedup"] <= 1.0:
            print("[smoke] FAIL: columnar path is not faster", file=sys.stderr)
            return 1
        return 0

    rows = [
        measure(n=256, blocks=128, rounds=args.rounds, capacity=100, seed=args.seed),
        measure(n=1024, blocks=2048, rounds=5, capacity=100, seed=args.seed),
        measure(n=1024, blocks=512, rounds=args.rounds, capacity=100, seed=args.seed),
    ]
    launches = [
        (name, measure(n=n, blocks=b, rounds=LAUNCH_ROUNDS, capacity=cap, seed=args.seed))
        for name, n, b, cap in LAUNCH_SHAPES
    ]
    report = render_report(rows, target=3.0, launches=launches)
    print(report)
    metrics = {}
    for name, r in launches:
        metrics[f"{name}_per_packet_us_per_round"] = round_us(r, "scalar")
        metrics[f"{name}_columnar_us_per_round"] = round_us(r, "col")
    path = save_report(
        report, "bench_host_dataplane", metric="speedup", value=rows[-1]["speedup"],
        baseline=3.0, metrics=metrics,
    )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
