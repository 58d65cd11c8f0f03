"""Experiment P2 — amortized planning: PlanningService vs fresh-planner-per-request.

The ROADMAP north star is serving heavy adaptation-request traffic: many
``(source, target)`` MAP queries against one compiled ``(S, I, T, A)``
spec.  The seed regime pays for the safe space, the SAG, and a full
Dijkstra on *every* request; the :class:`repro.serve.PlanningService`
amortizes all three — one registered spec shares the space + SAG + CSR view,
and batched :meth:`~repro.core.planner.AdaptationPlanner.plan_many`
answers every request sharing a source off one shortest-path tree.

Rows recorded into ``BENCH_plan_service.json`` (plans/sec):

* ``baseline`` — a fresh ``AdaptationPlanner`` per request (the seed
  regime), timed on a sample and reported per-request;
* ``service_cold`` — registering the manifest text, then the first batch
  (pays parsing and the spec digest, the one space + SAG build, and one
  SPT per distinct source);
* ``service_warm`` — a second batch of *new* pairs over the same sources
  (SPT cache hits, paths extracted in O(path length));
* ``service_repeat`` — the first batch again (pure plan-cache hits).

Required shape: warm batched throughput ≥ 5x the fresh-planner baseline
on the groups=3 replicated video workload, with identical plans.
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks.conftest import report
from repro.bench import format_table, replicated_video_system
from repro.core.planner import AdaptationPlanner
from repro.manifest import loads
from repro.serve import PlanningService, SpecRegistry

PLAN_SERVICE_JSON = Path(__file__).with_name("BENCH_plan_service.json")

N_SOURCES = 40
TARGETS_PER_SOURCE = 8
BASELINE_SAMPLE = 5


def _request_batches(system):
    """Two deterministic request batches over the same source set.

    Batch 1 pairs each of the first ``N_SOURCES`` safe configurations
    with ``TARGETS_PER_SOURCE`` targets striding the safe set; batch 2
    keeps the sources but shifts the target stride — new pairs, warm
    sources.
    """
    space = AdaptationPlanner(
        system.universe, system.invariants, system.actions
    ).space
    configs = space.enumerate()
    sources = configs[:N_SOURCES]
    batch1, batch2 = [], []
    for i, source in enumerate(sources):
        for j in range(TARGETS_PER_SOURCE):
            batch1.append((source, configs[(i * 17 + j * 31) % len(configs)]))
            batch2.append((source, configs[(i * 13 + j * 37 + 5) % len(configs)]))
    return batch1, batch2


def _fresh_planner_plan(system, source, target):
    """The seed regime: every request builds its own planner."""
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    try:
        return planner.plan(source, target)
    except Exception:
        return None


def test_plan_service_throughput(benchmark):
    text = replicated_video_system(3).manifest_text()
    system = loads(text)
    batch1, batch2 = _request_batches(system)

    # baseline: fresh planner per request, sampled (each sample pays the
    # full space + SAG build; running all 320 would take minutes)
    t0 = time.perf_counter()
    baseline_plans = [
        _fresh_planner_plan(system, source, target)
        for source, target in batch1[:BASELINE_SAMPLE]
    ]
    baseline_s = (time.perf_counter() - t0) / BASELINE_SAMPLE
    baseline_rate = 1.0 / baseline_s

    service = PlanningService(SpecRegistry())

    t0 = time.perf_counter()
    record, _ = service.registry.register(text)
    cold_plans = service.plan_many_digest(record, batch1)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm_plans = service.plan_many_digest(record, batch2)
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    repeat_plans = service.plan_many_digest(record, batch1)
    repeat_s = time.perf_counter() - t0
    benchmark.pedantic(
        lambda: service.plan_many_digest(record, batch1),
        rounds=1, iterations=1,
    )

    # identical answers before any speed claim
    assert repeat_plans == cold_plans
    for plan, expected in zip(cold_plans, baseline_plans):
        if expected is None:
            assert plan is None
        else:
            assert plan is not None
            assert plan.action_ids == expected.action_ids
            assert plan.total_cost == expected.total_cost

    cold_rate = len(batch1) / cold_s
    warm_rate = len(batch2) / warm_s
    repeat_rate = len(batch1) / repeat_s
    speedup_cold = cold_rate / baseline_rate
    speedup_warm = warm_rate / baseline_rate
    rows = [
        ("fresh planner per request (seed)", f"{baseline_rate:,.0f}", "1.0x"),
        ("service, cold batch", f"{cold_rate:,.0f}", f"{speedup_cold:.1f}x"),
        ("service, warm batch (new pairs)", f"{warm_rate:,.0f}", f"{speedup_warm:.1f}x"),
        ("service, repeat batch (cache)", f"{repeat_rate:,.0f}",
         f"{repeat_rate / baseline_rate:.1f}x"),
    ]
    report(
        "P2 — PlanningService throughput, groups=3 (512 vertices)",
        format_table(["regime", "plans/sec", "vs baseline"], rows),
        data={
            "groups": 3,
            "requests_per_batch": len(batch1),
            "distinct_sources": N_SOURCES,
            "baseline_plans_per_sec": round(baseline_rate, 1),
            "service_cold_plans_per_sec": round(cold_rate, 1),
            "service_warm_plans_per_sec": round(warm_rate, 1),
            "service_repeat_plans_per_sec": round(repeat_rate, 1),
            "speedup_warm_vs_baseline": round(speedup_warm, 2),
        },
        json_path=PLAN_SERVICE_JSON,
        throughput=(len(batch2), warm_s),
    )
    benchmark.extra_info["speedup_warm_vs_baseline"] = speedup_warm
    assert service.stats()["specs"] == 1  # one spec served every batch
    assert warm_plans is not None
    assert speedup_warm >= 5.0, (
        f"warm batched throughput only {speedup_warm:.1f}x over baseline"
    )


def test_plan_service_shares_across_equal_specs(benchmark):
    """Two separately built (but equal) specs land on one warm record."""
    text_a = replicated_video_system(2).manifest_text()
    text_b = replicated_video_system(2).manifest_text()
    service = PlanningService(SpecRegistry())
    record_a, _ = service.registry.register(text_a)
    named = record_a.manifest.configurations
    plan_a = service.plan_digest(record_a, named["source"], named["target"])

    def register_and_plan():
        record_b, _ = service.registry.register(text_b)
        named_b = record_b.manifest.configurations
        return service.plan_digest(
            record_b, named_b["source"], named_b["target"]
        )

    timed = benchmark.pedantic(register_and_plan, rounds=1, iterations=1)
    assert timed.action_ids == plan_a.action_ids
    assert service.stats()["specs"] == 1
    assert service.stats()["warm_hits"] >= 1
