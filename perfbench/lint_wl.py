"""The ``lint-corpus`` workload: lint and verify-paths over a manifest corpus.

The corpus is the four example manifests plus nine generated manifests
whose sizes span the eager SA3xx sweep (three fleets of 18 components,
replicated video of 14 and 21), the enumeration stress shape (12 to 16
components of xor invariants), and the lazy fallback above the
24-component cap (a 28-component replicated video and the 30-component
``fleet30`` example).  Every manifest carries ``[configurations]`` and
``[properties]`` (the examples as committed; ``racing`` and ``pipeline``
declare no properties).

The seed does not change how much work a manifest takes: lazy search
and path verification times swing several-fold with action costs and
named configurations, and a seed that moves them moves every metric
with it.  So each generated manifest is a fixed draw, and the seed
renames it without changing its structure: a fleet's services are
permuted and each service's variants relabelled, and a replicated video
system's groups are renamed.  The order a pass visits the corpus in is
fixed: shuffling it moved the worker's peak RSS by 10%.

Each pass runs in a fresh worker process (``perfbench/lint_worker.py``),
single-threaded, through :meth:`ControlPlane.dispatch` — the calls
``repro lint`` and ``repro verify-paths`` make: per manifest one
``RegisterSpecRequest``, one ``LintRequest``, then one
``VerifyPathsRequest`` per declared property between the first two named
configurations.  Passes repeat until the run's time is used.  Times are
the worker's CPU seconds (see ``lint_worker.py``).

Lint code multisets and path verdicts must equal
``perfbench/expected/examples.json`` and ``lint_corpus.json``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from typing import List, Optional, Tuple

from perfbench import common, gen
from perfbench.client import ROOT, program_env

#: (slot, manifest text, [(property, source name, target name)], lazy)
Manifest = Tuple[str, str, List[Tuple[str, str, str]], bool]


def _describe(slot: str, text: str) -> Manifest:
    """The verify-paths requests of a manifest, and whether it lies above
    the eager cap (so verify-paths searches it lazily)."""
    from repro.core.planner import LAZY_PLAN_COMPONENTS
    from repro.manifest import loads

    manifest = loads(text)
    names = list(manifest.configurations)
    verifies = [] if len(names) < 2 else [
        (prop, names[0], names[1]) for prop in manifest.properties
    ]
    return slot, text, verifies, len(manifest.universe) > LAZY_PLAN_COMPONENTS


def _fleet_slot(rng: random.Random, slot: str, services: int, width: int) -> str:
    """The fixed draw named *slot*, with services and variants renamed by *rng*."""
    draw = random.Random(slot)
    costs = [draw.randint(5, 25) for _ in range(services)]
    source = [draw.randint(1, 3) for _ in range(services)]
    target = gen.change_services(draw, source, width)
    # service s becomes service place[s]; its variant v becomes names[place[s]][v - 1]
    place = rng.sample(range(services), services)
    names = [rng.sample((1, 2, 3), 3) for _ in range(services)]
    renamed = {"costs": [0] * services, "source": [0] * services,
               "target": [0] * services}
    for s, new in enumerate(place):
        renamed["costs"][new] = costs[s]
        renamed["source"][new] = names[new][source[s] - 1]
        renamed["target"][new] = names[new][target[s] - 1]
    costs, source, target = renamed["costs"], renamed["source"], renamed["target"]
    moved = next(s for s in range(services) if source[s] != target[s])
    return gen.fleet_text(
        services, costs, {"baseline": source, "rollout": target},
        [
            ("specified", "historically({one_of(S0v1, S0v2, S0v3)})"),
            ("pinned", f"historically(!S{moved}v{target[moved]})"),
        ],
    )


def _video_slot(rng: random.Random, groups: int) -> str:
    """Replicated video whose group 0 makes a fixed one-way move, with
    fixed costs, and its groups renamed by *rng*.

    The named configurations are fixed because their choice changes the
    code multiset (SA306 one-way notes below the cap, SA6xx races from
    the named configurations above it).
    """
    source, target = gen.video_fixed_pair(groups)
    before = set(gen.video_members(source).split(","))
    after = set(gen.video_members(target).split(","))
    # a component the move adds or drops: its final state breaks "pinned"
    moved = sorted(before ^ after)[0]
    pinned = f"!{moved}" if moved in after else moved
    text = gen.video_text(
        random.Random(f"video-{7 * groups}"), groups,
        {"source": source, "target": target},
        [
            ("encoder specified", "historically({one_of(E1_g0, E2_g0)})"),
            ("pinned", f"historically({pinned})"),
        ],
    )
    return gen.rename_groups(text, rng.sample(range(groups), groups))


def corpus(seed: int) -> List[Manifest]:
    """The seeded corpus, in the order a pass visits it."""
    rng = random.Random(seed)
    texts = [(name, gen.example_text(name)) for name in gen.EXAMPLES]
    # three 18-component fleets sit at the middle of the cost range, so
    # the median manifest is one of several of the same shape
    for slot in ("fleet-18a", "fleet-18b", "fleet-18c"):
        texts.append((slot, _fleet_slot(rng, slot, 6, 2)))
    for groups in (2, 3, 4):
        texts.append((f"video-{7 * groups}", _video_slot(rng, groups)))
    for components in (12, 14, 16):
        slot = f"stress-{components}"
        texts.append((slot, gen.stress_text(random.Random(slot), components)))
    return [_describe(slot, text) for slot, text in texts]


def warm_up_manifest() -> Manifest:
    """A small fleet outside the corpus, run before a pass is timed."""
    return _describe("warm-up", _fleet_slot(random.Random(0), "warm-up", 3, 1))


def expected() -> dict:
    out = dict(common.load_expected("examples.json"))
    out.update(common.load_expected("lint_corpus.json"))
    return out


def check_pass(result: dict, want: dict) -> List[Optional[str]]:
    """One problem (or None) per request of a worker's pass."""
    problems: List[Optional[str]] = []
    for item in result["manifests"]:
        slot = item["slot"]
        problems.append(item["register_error"])
        if item["lint_error"] is not None:
            problems.append(item["lint_error"])
        elif item["codes"] != want[slot]["codes"]:
            problems.append(f"{slot}: lint codes {item['codes']} differ from expected")
        else:
            problems.append(None)
        for prop, verdict in item["verdicts"].items():
            expect = want[slot]["verify"].get(prop)
            problems.append(
                None if verdict == expect
                else f"{slot}: verify-paths {prop!r} gave {verdict}, expected {expect}"
            )
    return problems


def _worker(seed: int, spans: Optional[str]) -> subprocess.Popen:
    command = [sys.executable, str(ROOT / "perfbench" / "lint_worker.py"), str(seed)]
    if spans is not None:
        command.append(spans)
    return subprocess.Popen(
        command, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True
    )


def run_pass(seed: int, spans: Optional[str] = None) -> Tuple[float, dict]:
    """One corpus pass in a fresh process: (set-up seconds, worker result).

    Set-up is the worker's CPU time from its start to the corpus generated.
    """
    process = _worker(seed, spans)
    try:
        ready = process.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "ready":
            raise RuntimeError(f"lint worker failed to start: {ready!r}")
        setup_s = float(ready[1])
        output = process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=60)
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"lint worker exited with {process.returncode}")
    return setup_s, json.loads(output)


def run_lint(seed: int, seconds: float, traced: bool) -> dict:
    want = expected()
    tally = common.Tally()
    passes: List[Tuple[float, dict]] = common.repeat_within(
        seconds / 2 if traced else seconds, lambda: run_pass(seed)
    )
    for _, result in passes:
        for problem in check_pass(result, want):
            tally.check(problem)
    # Every pass times the same deterministic requests in the same order;
    # percentiles and totals are taken over each request's time across
    # the passes (common.per_request)
    def best(key: str) -> List[float]:
        return common.per_request([result[key] for _, result in passes])

    reads, uploads = best("reads"), best("uploads")
    verdicts = common.per_request(
        [[item["seconds"] for item in result["manifests"]] for _, result in passes]
    )
    inconclusive = sum(result["inconclusive"] for _, result in passes)
    total = sum(result["verdicts"] for _, result in passes)
    e2e = {
        "setup_s": common.median([s for s, _ in passes]),
        "req_p50_ms": 1e3 * common.percentile(reads, 50),
        "req_p99_ms": 1e3 * common.percentile(reads, 99),
        "req_per_s": len(reads) / (sum(reads) + sum(uploads)),
        "upload_p50_ms": 1e3 * common.percentile(uploads, 50),
        "eager_p50_ms": 1e3 * common.percentile(best("eager_verifies"), 50),
        "lazy_p50_ms": 1e3 * common.percentile(best("lazy_verifies"), 50),
        "verdict_p50_ms": 1e3 * common.percentile(verdicts, 50),
        "verdict_total_s": sum(verdicts),
        "conclusive_frac": 1.0 - inconclusive / total,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": common.median([result["peak_rss_mb"] for _, result in passes]),
    }
    samples = {"passes": len(passes), "reads_per_pass": len(reads),
               "manifests": len(verdicts),
               "eager_verifies": len(passes[0][1]["eager_verifies"]),
               "lazy_verifies": len(passes[0][1]["lazy_verifies"])}
    # scaled and unscaled CPU seconds of each pass, its wall seconds and
    # its median reference time (see common.Scaled)
    out = {"tally": tally, "samples": samples, "metrics": e2e,
           "passes": [{"cpu_s": round(result["cpu"], 4),
                       "unscaled_cpu_s": round(result["raw_cpu"], 4),
                       "wall_s": round(result["wall"], 4),
                       "reference_ms": round(result["reference_ms"], 4)}
                      for _, result in passes]}
    if traced:
        out["metrics"], out["accounting"] = _traced_metrics(
            seed, passes, want, tally, samples
        )
    return out


def _traced_metrics(seed, passes, want, tally, samples):
    import os

    from perfbench import layers, spans

    _, traced = run_pass(seed, common.SPANS_PATH)
    records = spans.load(common.SPANS_PATH)
    os.remove(common.SPANS_PATH)
    for problem in check_pass(traced, want):
        tally.check(problem)
    manifests = len(traced["manifests"])
    metrics = layers.layer_metrics(records, manifests, {})
    untraced = common.median([result["cpu"] for _, result in passes])
    metrics["trace.overhead_frac"] = traced["cpu"] / untraced - 1.0
    samples["traced_manifests"] = manifests
    # span times are unscaled, so the latencies they account for are too
    accounting = {
        "untraced_mean_ms": 1e3 * common.median(
            [result["raw_cpu"] for _, result in passes]) / manifests,
        "traced_mean_ms": 1e3 * traced["raw_cpu"] / manifests,
        "self_ms_per_manifest": layers.self_ms_per_unit(records, manifests),
    }
    return metrics, accounting
