"""One ``lint-corpus`` pass in a fresh process.

Usage: ``python perfbench/lint_worker.py SEED [SPANS.json]``.  Prints
``ready`` and its scaled CPU seconds so far once the corpus is generated, runs
the pass single-threaded through ``ControlPlane.dispatch``, and prints one
JSON document with the timings and the verdicts the parent checks.  With
a spans path the layer wrappers are installed and the spans are written
there at exit.

Requests are timed with the process's CPU clock, which leaves out the
time the host gives this virtual CPU to someone else (steal time), and
scaled by :class:`perfbench.common.Scaled`, whose reference computation
runs in this process, on this CPU, around each request.  The unscaled
CPU seconds and the wall time of the pass are reported beside them.
Lint and verify-paths run in this one thread (no safe-space enumeration
pool is asked for).
"""

import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main() -> int:
    from perfbench import common, lint_wl
    from repro.serve import (
        ControlPlane,
        ErrorEnvelope,
        LintRequest,
        RegisterSpecRequest,
        VerifyPathsRequest,
    )

    seed = int(sys.argv[1])
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    recorder = None
    if spans_path is not None:
        from perfbench import layers
        from perfbench.spans import Recorder

        recorder = Recorder()
        layers.install(recorder)
    manifests = lint_wl.corpus(seed)
    setup = time.process_time()
    print("ready", setup * common.REFERENCE_MS / common.reference_ms(time.process_time),
          flush=True)
    scaled = common.Scaled(time.process_time)

    control = ControlPlane()
    # one untimed manifest outside the corpus first, so that one-time
    # costs (lazy imports, first-use set-up) land on no timed request
    # whichever manifest the seed puts first
    _, text, verifies, _ = lint_wl.warm_up_manifest()
    registered = control.dispatch(RegisterSpecRequest(text))
    control.dispatch(LintRequest(sources=(("warm-up", text),), format="json"))
    for prop, source, target in verifies:
        control.dispatch(VerifyPathsRequest(
            source=source, target=target, property_name=prop,
            spec=getattr(registered, "digest", None),
        ))
    reads, uploads, items, answers = [], [], [], []
    eager_verifies, lazy_verifies = [], []
    wall_started = time.perf_counter()

    def timed(request, into):
        # every request starts from an empty collector, so the collections
        # it triggers do not depend on what ran before it
        gc.collect()
        response, elapsed = scaled.time(lambda: control.dispatch(request))
        into.append(elapsed)
        return response, elapsed

    # the timed loop only dispatches; answers are inspected afterwards
    for slot, text, verifies, lazy in manifests:
        registered, spent = timed(RegisterSpecRequest(text), uploads)
        report, elapsed = timed(
            LintRequest(sources=((slot, text),), format="json"), reads
        )
        spent += elapsed
        verified = []
        for prop, source, target in verifies:
            request = VerifyPathsRequest(
                source=source, target=target, property_name=prop,
                spec=getattr(registered, "digest", None),
            )
            answer, elapsed = timed(request, reads)
            (lazy_verifies if lazy else eager_verifies).append(elapsed)
            spent += elapsed
            verified.append((prop, answer))
        answers.append((slot, registered, report, verified, spent))
    wall = time.perf_counter() - wall_started
    if recorder is not None:
        recorder.dump(spans_path)

    inconclusive = verdicts = 0
    for slot, registered, report, verified, spent in answers:
        item = {"slot": slot, "register_error": None, "lint_error": None,
                "codes": None, "verdicts": {}, "seconds": spent}
        if isinstance(registered, ErrorEnvelope):
            item["register_error"] = f"{slot}: register failed: {registered.message}"
        if isinstance(report, ErrorEnvelope):
            item["lint_error"] = f"{slot}: lint failed: {report.message}"
        else:
            item["codes"] = common.lint_codes(report.report)
            bad, count = common.lint_verdicts(report.report)
            inconclusive += bad
            verdicts += count
        for prop, answer in verified:
            verdicts += 1
            if isinstance(answer, ErrorEnvelope):
                item["verdicts"][prop] = f"error: {answer.code}"
                continue
            inconclusive += not answer.complete
            item["verdicts"][prop] = {"holds": answer.holds, "complete": answer.complete}
        items.append(item)
    print(json.dumps({
        "manifests": items, "reads": reads, "uploads": uploads,
        "eager_verifies": eager_verifies, "lazy_verifies": lazy_verifies,
        "cpu": sum(item["seconds"] for item in items),
        "raw_cpu": sum(scaled.raw), "reference_ms": scaled.summary()["p50"],
        "wall": wall,
        "inconclusive": inconclusive, "verdicts": verdicts,
        "peak_rss_mb": _peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
