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
