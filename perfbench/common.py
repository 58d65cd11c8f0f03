"""Helpers shared by the workloads: statistics, lint verdicts, provenance."""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import platform
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "expected"

#: where a traced process writes its spans (inside the checkout)
SPANS_PATH = str(ROOT / ".bench_spans.json")

#: diagnostics whose verdict is bounded by a budget or a cap, not exact
INCONCLUSIVE_CODES = frozenset({"SA307", "SA504", "SA605"})


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: items of the reference computation (2**ITEMS configurations)
REFERENCE_ITEMS = 8
#: the reference computation's time on a 2-vCPU Xeon virtual machine in
#: its fast state; scaled times read as milliseconds on that machine
REFERENCE_MS = 1.3


def _reference_work() -> int:
    """A fixed computation in the program's idiom: Dijkstra over the
    subsets of REFERENCE_ITEMS items, moving by frozenset operations."""
    best = {frozenset(): 0}
    heap = [(0, 0, frozenset())]
    pushed = 1
    while heap:
        cost, _, node = heapq.heappop(heap)
        if cost > best[node]:
            continue
        for item in range(REFERENCE_ITEMS):
            step = node - {item} if item in node else node | {item}
            total = cost + 1 + item % 3
            if total < best.get(step, total + 1):
                best[step] = total
                heapq.heappush(heap, (total, pushed, step))
                pushed += 1
    return len(best)


def reference_ms(clock=time.perf_counter) -> float:
    """The reference computation's time on *clock* now, in ms (best of two)."""
    times = []
    for _ in range(2):
        started = clock()
        _reference_work()
        times.append(clock() - started)
    return 1e3 * min(times)


class Scaled:
    """Times scaled to the reference machine's speed.

    A shared virtual machine changes speed (by up to 1.7 times for
    seconds to minutes at a time on a 2-vCPU Xeon guest, when another
    guest uses the same core), and its virtual CPUs do so separately.
    The reference computation, timed in the same process just before and
    just after a measured call, slows by the same factor, so each time is
    scaled by ``REFERENCE_MS / (mean of the two reference times)``.  The
    raw times are kept too.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.raw: List[float] = []
        self.references: List[float] = []

    def time(self, call):
        """``(result, scaled seconds)`` of ``call()``."""
        before = reference_ms(self.clock)
        started = self.clock()
        result = call()
        elapsed = self.clock() - started
        return result, self.scale(elapsed, before, reference_ms(self.clock))

    def scale(self, elapsed: float, before: float, after: float) -> float:
        self.raw.append(elapsed)
        self.references += [before, after]
        return elapsed * REFERENCE_MS * 2 / (before + after)

    def summary(self) -> Dict[str, float]:
        """Quartiles of the reference times, in ms."""
        low, middle, high = statistics.quantiles(self.references, n=4)
        return {"p25": low, "p50": middle, "p75": high}


def per_request(runs: Sequence[Sequence[float]]) -> List[float]:
    """Each request's lower-quartile time over *runs* that timed the same
    requests in the same order: scaled times err both ways when the host
    changes speed during a request, and a low quantile keeps both the
    slow errors and the few fast ones out."""
    return [percentile(times, 25) for times in zip(*runs)]


def repeat_within(seconds: float, once) -> list:
    """Call *once* until *seconds* are used, at least once; a call is
    started only when the mean call so far still fits, so a run ends
    within *seconds* (short of it by less than one call)."""
    started = time.perf_counter()
    results = []
    while not results or (
        time.perf_counter() - started
    ) * (len(results) + 1) / len(results) <= seconds:
        results.append(once())
    return results


def declared(traced: bool) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every metric a run with *traced* reports, as
    ``BENCHMARK.json`` declares them (per-layer when traced)."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = document["per_layer" if traced else "end_to_end"]
    return [(entry["name"], entry["unit"]) for entry in section]


def lint_codes(report: dict) -> Dict[str, int]:
    """Code multiset of a rendered JSON lint report."""
    return dict(sorted(Counter(d["code"] for d in report["diagnostics"]).items()))


def lint_verdicts(report: dict) -> Tuple[int, int]:
    """(inconclusive verdicts, all verdicts) in a rendered JSON lint report.

    A verdict is a diagnostic or a skipped-analysis entry; it is
    inconclusive when it is a cap or budget note, or a skipped entry
    that says its search ran out of budget.
    """
    diagnostics = report["diagnostics"]
    skipped = report.get("skipped", [])
    inconclusive = sum(d["code"] in INCONCLUSIVE_CODES for d in diagnostics)
    inconclusive += sum("inconclusive" in entry for entry in skipped)
    return inconclusive, len(diagnostics) + len(skipped)


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / name).read_text(encoding="utf-8"))


def source_digest() -> str:
    """sha256 over the program sources (the checkout has no git metadata)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """The checked-out commit when git metadata exists, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int, workload: str, samples: Dict[str, int]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "samples": samples,
    }


class Tally:
    """Requests attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(problem)
