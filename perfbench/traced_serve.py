"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS.json serve [serve args]``.
The spans are written to ``SPANS.json`` after the server drains on
SIGTERM and the CLI returns.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench import layers
    from perfbench.spans import Recorder
    from repro.cli import main as repro_main

    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    layers.install(recorder)
    try:
        return repro_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
