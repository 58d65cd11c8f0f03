"""The HTTP workload ``serve-cold``: uploads beside never-asked plans.

``repro serve`` runs with one worker in its own process, driven from one
client process over one keep-alive connection in a closed loop (an
adaptation manager waits for its plan before acting).

The client uploads freshly generated systems (replicated video, 21
components planned eagerly and 28 planned lazily), each followed by plan
requests nobody asked before, interleaved with ``fleet30`` rollouts
changing 1-3 services.  This schedule is replayed against fresh servers
until the run's time is used; latencies are scaled by
:class:`perfbench.common.Scaled`.

After the replays a fixed number of probes re-upload a system with
a retargeted ``[configurations]`` section and plan by name.  On this
commit the server answers those from the first manifest (the digest
ignores named configurations, ROADMAP item 1); the provenance record
counts such stale answers as ``known_defect``.  The probes stay out of
the timed stream so that every timed request has one right answer.

Every answer is checked after its replay: plans are replayed and costed
by :mod:`perfbench.oracle`.  Each set-up also asks its priming
plans a second time, outside any timer, and checks that the wire-cache
answers are byte-equal to the cold ones.

The traffic mix is set by the constants below.  The repository holds no
traffic data, so only the shapes come from the workload's specification
(rollout widths 1-3, both sides of the 24-component lazy cap, a small
share of ``k > 1``); every ratio is an assumption.  The route metrics ``eager_p50_ms`` and ``lazy_p50_ms`` are
reported apart from the mixed ``req_*`` ones, so that a wrong mix cannot
hide a regression on one route.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench import common, gen
from perfbench.common import Tally
from perfbench.client import Response, Server, closed_loop, request_once
from perfbench.oracle import Spec

BASE = ("video", "pipeline", "fleet30")
BASE_UPLOADS = 5

#: the repeating episode schedule: fleet30 rollouts by width, and uploads.
#: Widths 1-3 come from the specification (width is what lazy A* cost
#: grows with, exponentially; 4 or more lets a few requests dominate a
#: run); equal shares of each width and two uploads per six rollouts are
#: assumptions.  A fixed schedule keeps the route mix the same for every
#: seed; the seed picks services, variants, groups, costs and pairs
COLD_CYCLE = (1, 2, "upload", 3, 1, 2, "upload", 3)
#: plans asked after each fresh upload (assumption)
PLANS_PER_UPLOAD = 3
#: retargeting re-uploads made after the timed phase (ROADMAP item 1)
DEFECT_PROBES = 4
#: one eager upload in K_EVERY asks k=2 for its second plan; "a small
#: share" is specified, the ratio is an assumption
K_EVERY = 3

#: episodes in one replay of the schedule (24 uploads, 144 reads; 2-3 s
#: on a 2-vCPU host).  Short replays make many: each request's best time
#: is taken over more moments of the host, which slows by a third or
#: more for seconds at a time
EPISODES = 96

#: read kinds (recorded per read) and the route metric each counts for
EAGER_ROUTE = ("eager-first",)
LAZY_ROUTE = ("rollout-1", "rollout-2", "rollout-3", "lazy")


def _bits(spec: Spec, config) -> str:
    return "".join("1" if name in config else "0" for name in spec.order)


def _fleet_config(variants) -> frozenset:
    return frozenset(f"S{s}v{v}" for s, v in enumerate(variants))


def _video_config(indices, groups_of) -> frozenset:
    members = gen.rename_groups(gen.video_members(indices), groups_of)
    return frozenset(members.split(","))


def _result(status: int, body: bytes) -> Tuple[Optional[dict], Optional[str]]:
    try:
        doc = json.loads(body)
    except ValueError:
        return None, f"status {status}: body is not JSON"
    if status != 200 or not doc.get("ok"):
        return None, f"status {status}: {doc.get('error')}"
    return doc["result"], None


def _register_base(port: int, tally: Tally) -> Dict[str, str]:
    """Upload every base spec BASE_UPLOADS times (a deploy re-registers
    its manifests; repeats after the first find the spec registered)."""
    digests = {}
    for name in BASE:
        for _ in range(BASE_UPLOADS):
            status, body = request_once(
                port, "POST", "/v1/specs", gen.body({"manifest": gen.example_text(name)})
            )
            result, problem = _result(status, body)
            tally.check(problem)
            if result is None:
                raise RuntimeError(f"cannot register {name}: {problem}")
            digests[name] = result["digest"]
    return digests


def _cold_setup(spans: Optional[str], tally: Tally, scaled: common.Scaled):
    """Start a server, register and prime the base specs; the server,
    the base digests and the scaled set-up seconds."""
    server = Server(spans)

    def start():
        server.__enter__()
        digests = _register_base(server.port, tally)
        primed = []
        for name in BASE:
            first, second = list(Spec(gen.example_text(name)).configurations)[:2]
            body = gen.body({"spec": digests[name], "source": first, "target": second})
            primed.append((name, first, second, body,
                           request_once(server.port, "POST", "/v1/plan", body)))
        return digests, primed

    try:
        (digests, primed), setup_s = scaled.time(start)
        for name, first, second, body, (status, answer) in primed:
            spec = Spec(gen.example_text(name))
            result, problem = _result(status, answer)
            if problem is None:
                problem = spec.check_plan(result, spec.configurations[first],
                                          spec.configurations[second])
            tally.check(problem)
            # the same body again is a wire-cache hit: it must repeat the
            # cold answer byte for byte
            again = request_once(server.port, "POST", "/v1/plan", body)
            tally.check(None if again == (status, answer)
                        else f"{name}: wire-cache answer differs from the cold one")
        return server, digests, setup_s
    except BaseException:
        server.__exit__(None, None, None)
        raise


class ColdRun:
    """Everything one replay of the schedule records, in request order."""

    def __init__(self) -> None:
        self.reads: List[float] = []  # scaled (common.Scaled)
        self.raw_reads: List[float] = []
        self.read_kinds: List[str] = []
        self.read_ids: Dict[int, float] = {}
        self.uploads: List[float] = []
        self.episodes: List[float] = []  # upload + its plans
        #: (status, body, spec, source, target)
        self.answers: List[tuple] = []
        self.upload_answers: List[Tuple[int, bytes]] = []

    def read(self, response: Response, kind: str, spec, src, dst) -> None:
        self.reads.append(response.scaled)
        self.raw_reads.append(response.latency)
        self.read_kinds.append(kind)
        self.read_ids[response.rid] = response.latency
        self.answers.append((response.status, response.body, spec, src, dst))


def _upload_episode(run: ColdRun, text: str, spec: Spec, plans):
    """Upload *text*, then plan each ``(kind, source, target, src, dst, k)``."""
    response: Response = yield (
        "POST", "/v1/specs", gen.body({"manifest": text})
    )
    run.uploads.append(response.scaled)
    run.upload_answers.append((response.status, response.body))
    spent = response.scaled
    result, _ = _result(response.status, response.body)
    if result is not None:
        for kind, source, target, src, dst, k in plans:
            payload = {"spec": result["digest"], "source": source, "target": target}
            if k > 1:
                payload["k"] = k
            response = yield ("POST", "/v1/plan", gen.body(payload))
            spent += response.scaled
            run.read(response, kind, spec, src, dst)
        run.episodes.append(spent)


def _rollout_episode(run: ColdRun, spec: Spec, digest: str, src, dst, width: int):
    payload = {"spec": digest, "source": gen.fleet_members(src),
               "target": gen.fleet_members(dst)}
    response: Response = yield ("POST", "/v1/plan", gen.body(payload))
    run.read(response, f"rollout-{width}", spec, _fleet_config(src), _fleet_config(dst))


def _cold_stream(seed: int, run: ColdRun, digests: Dict[str, str],
                 fleet: Spec) -> Iterator:
    """The seeded schedule's :data:`EPISODES` episodes; all content is
    drawn here, before any is sent."""
    return itertools.islice(_episodes(seed, run, digests, fleet), EPISODES)


def _episodes(seed: int, run: ColdRun, digests: Dict[str, str],
              fleet: Spec) -> Iterator:
    # The pairs and costs are one fixed draw: the few heaviest requests
    # (width-3 rollouts take 10-75 ms) set req_p99_ms, and a seed that
    # redrew them moved it twofold.  The seed renames what the draw holds
    # without changing its structure: it relabels each fleet30 service's
    # variants (fleet30's actions within a service all cost the same),
    # and renames the groups of every replicated-video system
    rng = random.Random("serve-cold")
    relabel = random.Random(seed)
    variant = [relabel.sample((1, 2, 3), 3) for _ in range(10)]
    groups_of = {groups: relabel.sample(range(groups), groups) for groups in (3, 4)}

    def rename(variants: List[int]) -> List[int]:
        return [variant[s][v - 1] for s, v in enumerate(variants)]

    asked = set()
    count = 0
    for step in itertools.cycle(COLD_CYCLE):
        if step != "upload":
            while True:
                src = [rng.randint(1, 3) for _ in range(10)]
                dst = gen.change_services(rng, src, step)
                if (tuple(src), tuple(dst)) not in asked:
                    asked.add((tuple(src), tuple(dst)))
                    break
            yield _rollout_episode(run, fleet, digests["fleet30"],
                                   rename(src), rename(dst), step)
            continue
        count += 1
        # uploads alternate 21-component (eager) and 28-component (lazy)
        # systems, both sides of the cap as specified; the equal share is
        # an assumption
        lazy = count % 2 == 0
        groups = 4 if lazy else 3
        cost_seed = f"serve-cold-{count}"
        # lazy pairs move one or two groups (A* cost grows with the width);
        # eager pairs move every group
        widths = (1, 2, 1) if lazy else (groups,) * PLANS_PER_UPLOAD
        source, target = gen.video_pair(rng, groups, widths[0])
        text = gen.rename_groups(
            gen.video_text(random.Random(cost_seed), groups,
                           {"source": source, "target": target}),
            groups_of[groups],
        )
        spec = Spec(text)
        plans = [("lazy" if lazy else "eager-first", "source", "target",
                  spec.configurations["source"], spec.configurations["target"],
                  1)]
        for index, width in enumerate(widths[1:]):
            a, b = gen.video_pair(rng, groups, width)
            src = _video_config(a, groups_of[groups])
            dst = _video_config(b, groups_of[groups])
            # one eager upload in K_EVERY asks for k-best alternates
            k = 2 if not lazy and index == 0 and count % K_EVERY == 1 else 1
            kind = "lazy" if lazy else ("eager-k2" if k > 1 else "eager")
            plans.append((kind, _bits(spec, src), _bits(spec, dst), src, dst, k))
        yield _upload_episode(run, text, spec, plans)


def _check_cold(run: ColdRun, tally: Tally) -> None:
    for status, body in run.upload_answers:
        result, problem = _result(status, body)
        if problem is None and not result.get("created"):
            problem = "a new system was not created"
        tally.check(problem)
    for status, body, spec, src, dst in run.answers:
        result, problem = _result(status, body)
        if problem is None:
            problem = spec.check_plan(result, src, dst)
        tally.check(problem)


def _plan_by_name(port: int, digest: str) -> Tuple[Optional[dict], Optional[str]]:
    body = gen.body({"spec": digest, "source": "source", "target": "target"})
    return _result(*request_once(port, "POST", "/v1/plan", body))


def _known_defect_probes(seed: int, tally: Tally) -> int:
    """Re-upload systems with a retargeted ``[configurations]`` section
    and plan by name, on a server of their own; the number of answers
    planned to the first upload's target (ROADMAP item 1).

    The first upload and its plan are checked like any request.  A
    re-upload answer that is neither right nor the stale one counts as
    failed; a stale one is only counted in the return value.
    """
    with Server() as server:
        return _probe(server.port, random.Random(seed), tally)


def _probe(port: int, rng: random.Random, tally: Tally) -> int:
    stale = 0
    for index in range(DEFECT_PROBES):
        source, target = gen.video_pair(rng, 3, 3)
        retarget = gen.video_move(rng, source, 1)
        cost_seed = f"probe-{index}"
        answers = []
        for goal in (target, retarget):
            text = gen.video_text(random.Random(cost_seed), 3,
                                  {"source": source, "target": goal})
            spec = Spec(text)
            status, body = request_once(port, "POST", "/v1/specs",
                                        gen.body({"manifest": text}))
            uploaded, problem = _result(status, body)
            tally.check(problem)
            if uploaded is None:
                return stale
            result, problem = _plan_by_name(port, uploaded["digest"])
            if problem is None:
                problem = spec.check_plan(result, spec.configurations["source"],
                                          spec.configurations["target"])
            answers.append((spec, result, problem))
        (first, _, problem), (edited, result, reproblem) = answers
        tally.check(problem)
        if reproblem is None:
            continue
        if result is not None and edited.check_plan(
            result, edited.configurations["source"], first.configurations["target"]
        ) is None:
            stale += 1
        else:
            tally.check(reproblem)
    return stale


def _replay(seed: int, spans: Optional[str], tally: Tally, fleet: Spec,
            scaled: common.Scaled) -> dict:
    """One replay of the schedule against a fresh server."""
    server, digests, setup_s = _cold_setup(spans, tally, scaled)
    try:
        run = ColdRun()
        closed_loop(server.port, _cold_stream(seed, run, digests, fleet),
                    float("inf"), scaled)
        replay = dict(run=run, setup_s=setup_s, peak_rss_mb=server.read_peak_rss(),
                      stats=_stats(server.port))
    finally:
        server.__exit__(None, None, None)
    _check_cold(run, tally)
    return replay


def _stats(port: int) -> dict:
    _, body = request_once(port, "GET", "/v1/stats")
    return json.loads(body)["result"]


def _traced(seed: int, tally: Tally, fleet: Spec, replays: List[dict],
            samples: dict, scaled: common.Scaled) -> dict:
    """Per-layer metrics from one traced replay after the untraced ones."""
    from perfbench import layers, spans

    traced = _replay(seed, common.SPANS_PATH, tally, fleet, scaled)
    records = spans.load(common.SPANS_PATH)
    os.remove(common.SPANS_PATH)
    run = traced["run"]
    metrics = layers.layer_metrics(records, len(run.reads), run.read_ids)
    service = traced["stats"]["service"]
    for counter in ("warm_hits", "cold_plans", "lazy_plans"):
        metrics[f"serve.service.{counter}"] = service[counter]
    def untraced(key: str) -> float:
        """The same requests untraced: each one's median over the replays."""
        return sum(common.median(times)
                   for times in zip(*(getattr(r["run"], key) for r in replays)))

    metrics["trace.overhead_frac"] = sum(run.reads) / untraced("reads") - 1.0
    samples["traced_reads"] = len(run.reads)
    # span times are unscaled wall times, so the latencies they account
    # for are too
    accounting = {
        "untraced_mean_ms": 1e3 * untraced("raw_reads") / len(run.reads),
        "traced_mean_ms": 1e3 * sum(run.raw_reads) / len(run.reads),
        "self_ms_per_read": layers.self_ms_per_unit(records, len(run.reads)),
    }
    return {"tally": tally, "samples": samples, "metrics": metrics,
            "accounting": accounting}


def _routes(kinds: List[str], best: List[float]) -> Dict[str, dict]:
    """Reads and p50 of the per-request times per read kind (the provenance record)."""
    by_kind: Dict[str, List[float]] = {}
    for kind, latency in zip(kinds, best):
        by_kind.setdefault(kind, []).append(latency)
    return {
        kind: {"reads": len(values),
               "p50_ms": round(1e3 * common.percentile(values, 50), 4)}
        for kind, values in sorted(by_kind.items())
    }


def _unscaled(runs: List[ColdRun], scaled: common.Scaled) -> dict:
    """Unscaled figures beside the scaled ones (the provenance record)."""
    raw = common.per_request([run.raw_reads for run in runs])
    return {"req_p50_ms": 1e3 * common.percentile(raw, 50),
            "reference_ms": scaled.summary()}


def run_cold(seed: int, seconds: float, traced: bool) -> dict:
    """Replay the seeded schedule against fresh servers until *seconds*
    (half of them in a traced run) are used, at least once.

    Every replay sends the same requests in the same order to a server
    whose caches are all cold; percentiles and totals are taken over
    each request's time across the replays (common.per_request).
    """
    # client and server share one CPU, so the reference computation the
    # client times around each request runs at the speed the server had
    # (the two virtual CPUs change speed separately); with one
    # connection in a closed loop they take turns anyway
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    fleet = Spec(gen.example_text("fleet30"))
    tally = Tally()
    scaled = common.Scaled()
    replays: List[dict] = common.repeat_within(
        seconds / 2 if traced else seconds,
        lambda: _replay(seed, None, tally, fleet, scaled),
    )
    known_defect = _known_defect_probes(seed, tally)
    runs = [replay["run"] for replay in replays]
    samples = {
        "replays": len(replays),
        "episodes_per_replay": EPISODES,
        "reads_per_replay": len(runs[0].reads),
        "uploads_per_replay": len(runs[0].uploads),
        "defect_probes": DEFECT_PROBES,
    }
    if traced:
        return dict(_traced(seed, tally, fleet, replays, samples, scaled),
                    known_defect=known_defect)

    reads = common.per_request([run.reads for run in runs])
    uploads = common.per_request([run.uploads for run in runs])
    episodes = common.per_request([run.episodes for run in runs])
    kinds = runs[0].read_kinds

    def p50(values) -> float:
        return 1e3 * common.percentile(values, 50)

    def route(route_kinds) -> float:
        return p50([t for kind, t in zip(kinds, reads) if kind in route_kinds])

    metrics = {
        "setup_s": common.median([replay["setup_s"] for replay in replays]),
        "req_p50_ms": p50(reads),
        "req_p99_ms": 1e3 * common.percentile(reads, 99),
        "req_per_s": len(reads) / (sum(reads) + sum(uploads)),
        "upload_p50_ms": p50(uploads),
        "eager_p50_ms": route(EAGER_ROUTE),
        "lazy_p50_ms": route(LAZY_ROUTE),
        "verdict_p50_ms": p50(episodes),
        "verdict_total_s": sum(episodes),
        "conclusive_frac": 1.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": common.median([replay["peak_rss_mb"] for replay in replays]),
    }
    return {"tally": tally, "samples": samples, "metrics": metrics,
            "routes": _routes(kinds, reads), "known_defect": known_defect,
            "unscaled": _unscaled(runs, scaled)}
