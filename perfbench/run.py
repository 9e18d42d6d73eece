"""Benchmark of the DABS solver stack, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout: the program under test is
imported from ``src/`` there (the served workloads start ``repro serve``
from it as a subprocess).  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` is a separate run that wraps each layer's public calls,
prints the per-layer metrics and writes Chrome trace-event JSON (open it
in Perfetto) to ``.perfbench_out/``.  Either way the report says what
was measured, with units and sample counts, and the last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("g22_direct", "g22_served", "stream_shared", "stream_unique")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {root}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    # the environment must not pick engines or backends behind our back
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    import workloads

    run = workloads.Run(args.workload)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"host: {json.dumps(workloads.host_fingerprint())}")
    if args.trace:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        metrics = workloads.traced(args.workload, args.seed, args.seconds, run, out_dir)
        units = dict(workloads.PER_LAYER)
    else:
        metrics = workloads.untraced(args.workload, args.seed, args.seconds, run)
        units = dict(workloads.END_TO_END)
    for line in run.lines:
        print(line)
    print(
        f"jobs attempted {run.attempted}, failed, refused or off target {run.failed} "
        f"(failed_ratio {run.failed / max(run.attempted, 1):.6f})"
    )
    for failure in run.failures:
        print(f"  failed: {failure}")
    for problem in run.problems:
        print(f"  INCORRECT: {problem}")
    print(f"correctness checks: {'pass' if run.correct else 'FAIL'}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
