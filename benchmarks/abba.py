"""ABBA comparison of two revisions on one perfbench workload.

    python3 benchmarks/abba.py PARENT CHANGE --workload W --pairs N [--seconds S]

Checks both revisions out with ``git worktree`` under a temporary
directory and runs ``python3 perfbench/run.py`` in each, in ABBA order
(pair 0 runs the parent first, pair 1 the change first, and so on; both
runs of pair *i* use seed *i* + 1).  From the last JSON line of each run
it prints, for every end-to-end metric ``BENCHMARK.json`` declares, the
two medians, the parent's quartiles, the pairs the change won, and a
verdict under the metric's bound:

* ``unresolved`` — the parent's own quartile spread exceeds the bound,
  so no difference within it can be told;
* ``worse`` — the change's median is worse by more than the bound;
* ``better`` — it won at least nine pairs in ten and its median is
  better by more than the parent's quartile spread;
* ``within bound`` — anything else.

Before the timing pairs it checks that both revisions do the same work:
for a fixed list of seeds it solves the ``g22_direct`` instance and a
``stream_shared``-shaped one (a dense n = 96 QUBO, 2 devices × 8
blocks, one round) in each tree, compares best energy, best vector and
total flips, and prints ``same work`` or the first seed that differs.
``energy_vs_target`` cannot tell this: it averages over a job mix that
shifts with speed.

The worktrees are removed and no benchmark process is left running,
also when a run fails or is interrupted.  Run it from the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: solver seeds of the same-work check
SAME_WORK_SEEDS = (1, 2, 3, 4, 5)
#: run in each tree: one JSON line (instance, seed, best energy, best
#: vector, total flips) per solve
SAME_WORK = r"""
import json, sys
import numpy as np
from repro.core.qubo import QUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.solver.dabs import DABSConfig, DABSSolver

instances = {
    "g22_direct": (
        maxcut_to_qubo(g22_like(512, seed=22)),
        DABSConfig(num_gpus=2, blocks_per_gpu=16, pool_capacity=100), 2,
    ),
    "stream_shared": (
        QUBOModel(np.random.default_rng(3).integers(-10, 11, size=(96, 96))),
        DABSConfig(num_gpus=2, blocks_per_gpu=8, pool_capacity=20), 1,
    ),
}
for name, (model, config, rounds) in instances.items():
    for seed in json.loads(sys.argv[1]):
        r = DABSSolver(model, config, seed=seed).solve(max_rounds=rounds)
        vector = np.asarray(r.best_vector, dtype=np.uint8).tolist()
        print(json.dumps([name, seed, int(r.best_energy), vector, int(r.total_flips)]))
"""


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in *tree*; its last JSON line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    # a session of its own, so a timeout or interrupt ends the run's
    # server subprocess too
    proc = subprocess.Popen(
        command, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=seconds * 10 + 300)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}): {err[-2000:]}")
    return json.loads(lines[-1])


def solves(tree: Path) -> list[list]:
    """The same-work solves of *tree*, one list per solve."""
    done = subprocess.run(
        [sys.executable, "-c", SAME_WORK, json.dumps(SAME_WORK_SEEDS)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"same-work solves failed in {tree}: {done.stderr[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def same_work(parent: Path, change: Path) -> str:
    """``same work``, or the first solve whose result differs."""
    for left, right in zip(solves(parent), solves(change)):
        for field, a, b in zip(("energy", "vector", "flips"), left[2:], right[2:]):
            if a != b:
                return f"different work: {left[0]} seed {left[1]} ({field} differs)"
    return "same work"


def verdict(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, parent quartiles, pairs won and the verdict of one metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (mp, mp, mp)
    scale = abs(mp) or 1.0
    gain = (mc - mp) / scale if higher else (mp - mc) / scale
    spread = (q3 - q1) / scale
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    if spread > bound:
        call = "unresolved"
    elif gain < -bound:
        call = "worse"
    elif gain > spread and won >= 0.9 * len(parent):
        call = "better"
    else:
        call = "within bound"
    return dict(parent=mp, q1=q1, q3=q3, change=mc, won=won, verdict=call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    revisions = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="abba-") as tmp:
        trees = {}
        try:
            for side, rev in revisions.items():
                trees[side] = Path(tmp) / side
                git("worktree", "add", "--detach", str(trees[side]), rev)
            work = same_work(trees["parent"], trees["change"])
            print(work, file=sys.stderr)
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], args.workload, i + 1, args.seconds)
                    runs[side].append(result)
                    print(
                        f"pair {i} {side}: correct {result['correct']}, "
                        f"failed {result['failed']}/{result['attempted']}",
                        file=sys.stderr,
                    )
        finally:
            for tree in trees.values():
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(tree)],
                    cwd=ROOT, capture_output=True,
                )
            git("worktree", "prune")

    print(f"workload {args.workload}: {args.pairs} ABBA pairs of {args.seconds:g} s, "
          f"parent {revisions['parent'][:10]}, change {revisions['change'][:10]}")
    print(f"{work} (seeds {', '.join(map(str, SAME_WORK_SEEDS))} of g22_direct and stream_shared)")
    for side in ("parent", "change"):
        correct = sum(r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {correct}/{len(runs[side])} runs correct, {failed}/{attempted} jobs failed")
    print("| metric | parent median | parent q1..q3 | change median | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        row = verdict(
            metric,
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
        )
        print(
            f"| {name} | {row['parent']:.4g} | {row['q1']:.4g}..{row['q3']:.4g} | "
            f"{row['change']:.4g} | {row['won']}/{args.pairs} | {row['verdict']} "
            f"(bound {metric['bound']:.0%}) |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
