"""The repository benchmark: one command, two workloads, checked answers.

Usage::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no wrappers installed; ``--trace 1`` runs the workload
untraced and then traced, and reports the per-layer metrics derived from
the spans (and the tracing overhead between the two).  The second to
last line of standard output is a provenance record; the last line is
the result::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``failed`` counts every wrong, error-envelope, refused or dropped answer,
and ``correct`` is true when there is none.  serve-cold's retargeting
probes (ROADMAP item 1) are counted apart, as ``known_defect`` in the
provenance record.
Without the program's sources next to the benchmark it exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-cold", "lint-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "examples").is_dir():
        print("error: run from a checkout holding src/repro and examples/",
              file=sys.stderr)
        return 2

    from perfbench import common, lint_wl, serve_wl

    # a terminated run unwinds like an interrupted one, so every server
    # and worker it started is stopped and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    runner = {
        "serve-cold": serve_wl.run_cold,
        "lint-corpus": lint_wl.run_lint,
    }[args.workload]
    traced = bool(args.trace)
    outcome = runner(args.seed, args.seconds, traced)
    tally = outcome["tally"]
    values = outcome["metrics"]
    missing = [name for name, _ in common.declared(traced)
               if name not in values and not traced]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    record = common.provenance(args.seed, args.workload, outcome["samples"])
    record["failures"] = tally.failures[:20]
    for key in ("known_defect", "routes", "passes", "unscaled", "accounting"):
        if key in outcome:
            record[key] = outcome[key]
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in common.declared(traced)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
