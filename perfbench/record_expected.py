"""Rewrite ``perfbench/expected/*.json`` from one lint-corpus pass.

Usage: ``python3 perfbench/record_expected.py [SEED]`` from the
repository root.  Only run it when the program's lint or verify-paths
answers change on purpose, and review the diff: these files are what
every later run is checked against.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench import common, gen, lint_wl

    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    _, result = lint_wl.run_pass(seed)
    examples, generated = {}, {}
    for item in result["manifests"]:
        entry = {"codes": item["codes"], "verify": item["verdicts"]}
        (examples if item["slot"] in gen.EXAMPLES else generated)[item["slot"]] = entry
    for name, doc in (("examples.json", examples), ("lint_corpus.json", generated)):
        (common.EXPECTED / name).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
