"""Experiments C3/P3 — §7 scalability: SAG explosion and its remedies.

The paper: "the computational complexity may be high when there are
numerous adaptive components ... exponential to the number of components
involved".  Remedies it proposes: collaborative-set decomposition and
heuristic partial exploration of the SAG.

Two measured axes, both persisted to ``BENCH_scalability.json``:

* **serial vs workers** — chunked work-stealing enumeration on the
  xor-stress universes (16/20 components) where per-node invariant work
  dominates and prefix partitions carry near-identical load.  The CI
  gate (``test_parallel_speedup_gate``) requires >=1.5x at workers=4 on
  the 20-component universe and is skipped below 4 cores; on smaller
  hosts the recorded ``mode``/``reason`` row shows the clamp or serial
  fallback honestly instead of a fake speedup.
* **eager vs lazy** — full eager pipeline (enumerate safe space + build
  SAG + Dijkstra) against :meth:`AdaptationPlanner.lazy_plan` frontier
  point queries at 21/28/35 components.  The CI gate
  (``test_lazy_point_query_gate``) requires the 28-component point
  query to beat eager build+plan by >=10x; the 35-component rows are
  the beyond-the-barrier acceptance check (eager enumeration of 8^5
  configurations is no longer attempted at all).
"""

import os
import time
import warnings
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.bench import format_table, replicated_video_system
from repro.bench.workloads import enumeration_stress_system
from repro.core.model import Configuration
from repro.core.planner import AdaptationPlanner
from repro.core.space import SafeConfigurationSpace

SCALABILITY_JSON = Path(__file__).with_name("BENCH_scalability.json")


def plan_monolithic(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    plan = planner.plan(system.source, system.target)
    return plan, planner.sag.node_count


def plan_lazy_astar(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return planner.lazy_plan(system.source, system.target)


def plan_collaborative(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return planner.plan_collaborative(system.source, system.target)


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_monolithic_sag(benchmark, groups):
    system = replicated_video_system(groups)
    plan, nodes = benchmark(lambda: plan_monolithic(system))
    assert nodes == 8 ** groups  # the exponential blow-up, literally
    assert plan.total_cost == 50.0 * groups
    benchmark.extra_info["sag_nodes"] = nodes


@pytest.mark.parametrize("groups", [1, 2, 3, 4, 6])
def test_collaborative_planner(benchmark, groups):
    system = replicated_video_system(groups)
    plan = benchmark(lambda: plan_collaborative(system))
    assert plan.total_cost == 50.0 * groups
    assert len(plan) == 5 * groups


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_lazy_astar_planner(benchmark, groups):
    system = replicated_video_system(groups)
    plan = benchmark(lambda: plan_lazy_astar(system))
    assert plan.total_cost == 50.0 * groups


# --- serial vs workers ------------------------------------------------------


def _enumerate_timed(system, workers):
    with warnings.catch_warnings():
        # On hosts with fewer cores than requested workers the space
        # clamps with a RuntimeWarning; the recorded stats row already
        # carries that information.
        warnings.simplefilter("ignore", RuntimeWarning)
        space = SafeConfigurationSpace(
            system.universe, system.invariants, workers=workers
        )
        t0 = time.perf_counter()
        out = space.enumerate()
        elapsed = time.perf_counter() - t0
    return out, elapsed, space


@pytest.mark.parametrize("n", [16, 20])
def test_parallel_enumeration(benchmark, n):
    """The workers axis of C3 on the xor-stress universes.

    Correctness is the hard assertion (work-stealing result identical to
    the serial enumerator, memo merged); the speedup is recorded from
    ``last_enumeration_stats`` with its mode and reason, so a host where
    the pool clamps to one core (or the space falls back to serial)
    produces an honest row instead of a fake win.  The >=1.5x speedup
    *gate* lives in :func:`test_parallel_speedup_gate`.
    """
    workers = 4
    system = enumeration_stress_system(n)
    serial, serial_s, serial_space = _enumerate_timed(system, None)
    serial_stats = serial_space.last_enumeration_stats

    parallel, parallel_s, space = benchmark.pedantic(
        lambda: _enumerate_timed(system, workers), rounds=1, iterations=1
    )
    assert parallel == serial
    assert space.safe_memo  # worker memos were merged on join
    stats = space.last_enumeration_stats
    speedup = serial_s / max(parallel_s, 1e-9)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    report(
        f"P3 parallel enumeration (n={n}, workers={workers})",
        f"{n} components, safe configs={len(serial)}: "
        f"serial {serial_s * 1e3:.1f} ms, workers={workers} "
        f"{parallel_s * 1e3:.1f} ms ({speedup:.2f}x) "
        f"[mode={stats.mode}: {stats.reason}]",
        data={
            "components": n,
            "requested_workers": workers,
            "effective_workers": stats.effective_workers,
            "mode": stats.mode,
            "reason": stats.reason,
            "chunks": stats.chunks,
            "safe_configs": len(serial),
            "serial_ms": round(serial_s * 1e3, 2),
            "parallel_ms": round(parallel_s * 1e3, 2),
            "speedup_vs_serial": round(speedup, 2),
            "host_cpus": os.cpu_count(),
            "serial_reason": serial_stats.reason,
        },
        json_path=SCALABILITY_JSON,
    )


def test_forced_pool_overhead(monkeypatch):
    """Pool machinery overhead with the clamp and auto-serial forced off.

    Forces the work-stealing pool path even on hosts with fewer than 4
    cores (where the clamp would normally fall back to serial).  On a
    1-core host the pool cannot be faster — this row bounds the *cost*
    of the machinery (payload pickling, worker warm-up, chunk merge),
    which the previous static-partition implementation paid at 4-5x and
    the work-stealing one pays at a few percent.  Interpret the speedup
    together with ``host_cpus``.
    """
    import repro.core.space as space_mod

    monkeypatch.setattr(space_mod, "_cpu_count", lambda: max(4, os.cpu_count() or 1))
    monkeypatch.setattr(space_mod, "MIN_PARALLEL_MASK_NODES", 1)
    system = enumeration_stress_system(20)
    serial, serial_s, _ = _enumerate_timed(system, None)
    parallel, parallel_s, space = _enumerate_timed(system, 4)
    assert parallel == serial
    stats = space.last_enumeration_stats
    assert stats.mode == "parallel", stats.reason
    speedup = serial_s / max(parallel_s, 1e-9)
    report(
        "P3 forced pool (n=20, workers=4, clamp disabled)",
        f"serial {serial_s * 1e3:.1f} ms, forced pool {parallel_s * 1e3:.1f} ms "
        f"({speedup:.2f}x on {os.cpu_count()} host cpu(s)) [{stats.reason}]",
        data={
            "serial_ms": round(serial_s * 1e3, 2),
            "parallel_ms": round(parallel_s * 1e3, 2),
            "speedup_vs_serial": round(speedup, 2),
            "host_cpus": os.cpu_count(),
            "chunks": stats.chunks,
            "reason": stats.reason,
        },
        json_path=SCALABILITY_JSON,
    )


@pytest.mark.parametrize("n", [16, 20])
def test_pool_reuse(monkeypatch, n):
    """Serial vs pool-cold vs pool-warm on the same spec digest.

    The first parallel enumeration of a spec pays the pool spin-up and
    the shared-memory plane round-trip; repeating it replays the merged
    result plane from the parent-side cache without touching the pool at
    all.  Three honest rows per universe (clamp and auto-serial forced
    off so the cold row exists even on small hosts); the >=5x reuse
    *gate* lives in :func:`test_pool_reuse_gate`.
    """
    import repro.core.space as space_mod
    import repro.parallel as par

    monkeypatch.setattr(space_mod, "_cpu_count", lambda: max(4, os.cpu_count() or 1))
    monkeypatch.setattr(space_mod, "MIN_PARALLEL_MASK_NODES", 1)
    system = enumeration_stress_system(n)
    serial, serial_s, _ = _enumerate_timed(system, None)

    par.clear_result_caches()
    par.shutdown_pools()
    cold, cold_s, cold_space = _enumerate_timed(system, 4)
    cold_stats = cold_space.last_enumeration_stats
    assert cold_stats.mode == "parallel", cold_stats.reason
    assert not cold_stats.pool_warm

    warm, warm_s, warm_space = _enumerate_timed(system, 4)
    warm_stats = warm_space.last_enumeration_stats
    assert warm_stats.mode == "parallel", warm_stats.reason
    assert warm_stats.pool_warm
    assert warm_stats.transport == "plane-cache"
    assert cold == serial and warm == serial
    reuse = cold_s / max(warm_s, 1e-9)
    report(
        f"P3 pool reuse (n={n}, workers=4)",
        f"serial {serial_s * 1e3:.1f} ms | pool-cold {cold_s * 1e3:.1f} ms "
        f"(spinup {cold_stats.pool_spinup_ms:.1f} ms, via "
        f"{cold_stats.transport}) | pool-warm {warm_s * 1e3:.2f} ms "
        f"(via {warm_stats.transport}, {reuse:.1f}x over cold)",
        data={
            "components": n,
            "safe_configs": len(serial),
            "serial_ms": round(serial_s * 1e3, 2),
            "pool_cold_ms": round(cold_s * 1e3, 2),
            "pool_cold_spinup_ms": round(cold_stats.pool_spinup_ms, 2),
            "pool_cold_transport": cold_stats.transport,
            "pool_warm_ms": round(warm_s * 1e3, 3),
            "pool_warm_transport": warm_stats.transport,
            "reuse_speedup": round(reuse, 1),
            "host_cpus": os.cpu_count(),
        },
        json_path=SCALABILITY_JSON,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="pool reuse gate needs >=4 physical cores",
)
@pytest.mark.parametrize("n", [16, 20])
def test_pool_reuse_gate(monkeypatch, n):
    """CI gate: re-enumerating the same spec >=5x faster than pool-cold.

    The second enumeration of a digest must come from the warm plane
    cache (no pool round-trip); measured reuse is orders of magnitude,
    5x is the regression floor.  The 16-component universe sits below
    the auto-parallel node floor, so the floor is lowered to force the
    pool path for both sizes.
    """
    import repro.core.space as space_mod
    import repro.parallel as par

    monkeypatch.setattr(space_mod, "MIN_PARALLEL_MASK_NODES", 1)
    system = enumeration_stress_system(n)
    par.clear_result_caches()
    par.shutdown_pools()
    cold, cold_s, cold_space = _enumerate_timed(system, 4)
    warm, warm_s, warm_space = _enumerate_timed(system, 4)
    assert cold_space.last_enumeration_stats.mode == "parallel"
    assert warm_space.last_enumeration_stats.transport == "plane-cache"
    assert warm == cold
    reuse = cold_s / max(warm_s, 1e-9)
    report(
        f"P3 pool reuse gate (n={n}, workers=4)",
        f"pool-cold {cold_s * 1e3:.1f} ms vs pool-warm {warm_s * 1e3:.2f} ms "
        f"({reuse:.1f}x, gate >=5x)",
        data={
            "components": n,
            "pool_cold_ms": round(cold_s * 1e3, 2),
            "pool_warm_ms": round(warm_s * 1e3, 3),
            "reuse_speedup": round(reuse, 1),
            "gate": 5.0,
        },
        json_path=SCALABILITY_JSON,
    )
    assert reuse >= 5.0, (
        f"pool reuse regressed: warm enumeration only {reuse:.1f}x faster "
        f"than cold ({warm_s * 1e3:.2f} ms vs {cold_s * 1e3:.1f} ms)"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup gate needs >=4 physical cores",
)
def test_parallel_speedup_gate(benchmark):
    """CI gate: work-stealing enumeration >=1.5x serial at workers=4.

    Runs on the 20-component xor-stress universe where serial cost is
    ~1s and partitions carry uniform work; on a 4-core host the chunked
    pool lands around 3x.  Skipped (not faked) below 4 cores.
    """
    system = enumeration_stress_system(20)
    serial, serial_s, _ = _enumerate_timed(system, None)
    parallel, parallel_s, space = benchmark.pedantic(
        lambda: _enumerate_timed(system, 4), rounds=1, iterations=1
    )
    assert parallel == serial
    stats = space.last_enumeration_stats
    assert stats.mode == "parallel", stats.reason
    speedup = serial_s / max(parallel_s, 1e-9)
    report(
        "P3 speedup gate (n=20, workers=4)",
        f"serial {serial_s * 1e3:.1f} ms, parallel {parallel_s * 1e3:.1f} ms "
        f"({speedup:.2f}x, gate >=1.5x)",
        data={
            "serial_ms": round(serial_s * 1e3, 2),
            "parallel_ms": round(parallel_s * 1e3, 2),
            "speedup_vs_serial": round(speedup, 2),
            "gate": 1.5,
        },
        json_path=SCALABILITY_JSON,
    )
    assert speedup >= 1.5, (
        f"work-stealing enumeration regressed: {speedup:.2f}x < 1.5x "
        f"(serial {serial_s * 1e3:.0f} ms vs parallel {parallel_s * 1e3:.0f} ms)"
    )


# --- eager vs lazy ----------------------------------------------------------


def _fresh_planner(system):
    return AdaptationPlanner(system.universe, system.invariants, system.actions)


def _local_target(system):
    """The paper adaptation applied to group 0 only (a *local* query)."""
    keep = [m for m in system.source.members if "@g0" not in m]
    move = [m for m in system.target.members if "@g0" in m]
    return Configuration(keep + move)


def _adjacent_target(system):
    """One cheapest safe action away from the source (a *point* query)."""
    planner = _fresh_planner(system)
    src_mask = system.universe.mask_of(system.source)
    arcs = planner.lazy_sag.successors(src_mask)
    _, _, nxt = min(arcs, key=lambda arc: (arc[1], arc[0]))
    return system.universe.from_mask(nxt)


def _best_of(fn, rounds=3):
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


@pytest.mark.parametrize("groups", [3, 4])
def test_eager_vs_lazy(benchmark, groups):
    """Eager pipeline vs lazy frontier at 21/28 components.

    Every timing is a *cold* planner (enumeration + SAG + shortest-path
    for eager; memoized frontier search for lazy), and the full-distance
    plans must be identical — same actions, same cost — because
    ``lazy_plan`` is exact, not heuristic.
    """
    system = replicated_video_system(groups)
    local = _local_target(system)
    adjacent = _adjacent_target(system)

    eager_plan, eager_s = _best_of(
        lambda: _fresh_planner(system).plan(system.source, system.target)
    )
    lazy_plan_full, lazy_full_s = benchmark.pedantic(
        lambda: _best_of(
            lambda: _fresh_planner(system).lazy_plan(system.source, system.target)
        ),
        rounds=1,
        iterations=1,
    )
    _, lazy_local_s = _best_of(
        lambda: _fresh_planner(system).lazy_plan(system.source, local)
    )
    _, lazy_adjacent_s = _best_of(
        lambda: _fresh_planner(system).lazy_plan(system.source, adjacent)
    )
    assert lazy_plan_full.action_ids == eager_plan.action_ids
    assert lazy_plan_full.total_cost == eager_plan.total_cost == 50.0 * groups
    report(
        f"P3 eager vs lazy ({7 * groups} components)",
        f"eager build+plan {eager_s * 1e3:.1f} ms | lazy full-distance "
        f"{lazy_full_s * 1e3:.1f} ms, local {lazy_local_s * 1e3:.1f} ms, "
        f"point {lazy_adjacent_s * 1e3:.2f} ms",
        data={
            "components": 7 * groups,
            "eager_build_plan_ms": round(eager_s * 1e3, 2),
            "lazy_full_distance_ms": round(lazy_full_s * 1e3, 2),
            "lazy_local_query_ms": round(lazy_local_s * 1e3, 2),
            "lazy_point_query_ms": round(lazy_adjacent_s * 1e3, 3),
            "point_query_speedup": round(eager_s / max(lazy_adjacent_s, 1e-9), 1),
        },
        json_path=SCALABILITY_JSON,
    )


def test_lazy_point_query_gate():
    """CI gate: lazy point query >=10x faster than eager build+plan at 28.

    The eager path must enumerate 8^4 = 4096 safe configurations and
    compile the full SAG before answering anything; the lazy frontier
    answers a one-action query after expanding a handful of vertices.
    The measured gap is ~100x+; 10x is the regression floor.
    """
    system = replicated_video_system(4)
    adjacent = _adjacent_target(system)
    eager_plan, eager_s = _best_of(
        lambda: _fresh_planner(system).plan(system.source, system.target)
    )
    lazy_point, lazy_s = _best_of(
        lambda: _fresh_planner(system).lazy_plan(system.source, adjacent)
    )
    assert len(lazy_point) == 1  # genuinely adjacent
    ratio = eager_s / max(lazy_s, 1e-9)
    report(
        "P3 point-query gate (28 components)",
        f"eager build+plan {eager_s * 1e3:.1f} ms vs lazy point query "
        f"{lazy_s * 1e3:.2f} ms ({ratio:.0f}x, gate >=10x)",
        data={
            "eager_build_plan_ms": round(eager_s * 1e3, 2),
            "lazy_point_query_ms": round(lazy_s * 1e3, 3),
            "speedup": round(ratio, 1),
            "gate": 10.0,
        },
        json_path=SCALABILITY_JSON,
    )
    assert ratio >= 10.0, (
        f"lazy point query regressed: only {ratio:.1f}x faster than eager "
        f"({lazy_s * 1e3:.1f} ms vs {eager_s * 1e3:.1f} ms)"
    )


def test_beyond_the_barrier():
    """Acceptance: 35 components — past the eager enumeration horizon.

    8^5 = 32768 safe configurations would have to be enumerated and
    wired into a SAG before the eager planner answers anything; the lazy
    planner answers point and local queries without ever materializing
    the space (asserted: no eager cache, no monolithic SAG exist after
    planning).
    """
    system = replicated_video_system(5)
    assert len(system.universe) == 35
    local = _local_target(system)
    adjacent = _adjacent_target(system)
    planner = _fresh_planner(system)
    t0 = time.perf_counter()
    point = planner.lazy_plan(system.source, adjacent)
    point_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    local_plan = planner.lazy_plan(system.source, local)
    local_s = time.perf_counter() - t0
    assert len(point) == 1
    assert local_plan.total_cost == 50.0
    # the whole point: nothing eager was ever built
    assert planner._sag is None
    assert planner.space._cache is None
    report(
        "P3 beyond the enumeration barrier (35 components)",
        f"lazy point query {point_s * 1e3:.2f} ms, local adaptation "
        f"{local_s * 1e3:.1f} ms; eager space (8^5 configs) never built",
        data={
            "components": 35,
            "lazy_point_query_ms": round(point_s * 1e3, 3),
            "lazy_local_query_ms": round(local_s * 1e3, 2),
            "expanded_nodes": planner.lazy_sag.expanded_nodes,
            "eager_space_materialized": False,
        },
        json_path=SCALABILITY_JSON,
    )


def test_crossover_summary(benchmark):
    """One table: where the monolithic planner falls off a cliff."""
    benchmark.pedantic(
        lambda: plan_collaborative(replicated_video_system(1)),
        rounds=1, iterations=1,
    )
    rows = []
    for groups in (1, 2, 3):
        system = replicated_video_system(groups)
        t0 = time.perf_counter()
        _, nodes = plan_monolithic(system)
        monolithic_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        plan_collaborative(system)
        collaborative_s = time.perf_counter() - t0
        rows.append(
            (
                groups,
                7 * groups,
                nodes,
                f"{monolithic_s * 1e3:.1f}",
                f"{collaborative_s * 1e3:.1f}",
                f"{monolithic_s / max(collaborative_s, 1e-9):.0f}x",
            )
        )
    report(
        "§7 scalability (measured)",
        format_table(
            [
                "groups", "components", "SAG nodes",
                "monolithic (ms)", "collaborative (ms)", "speedup",
            ],
            rows,
        ),
        data=[
            {
                "groups": r[0],
                "components": r[1],
                "sag_nodes": r[2],
                "monolithic_ms": float(r[3]),
                "collaborative_ms": float(r[4]),
            }
            for r in rows
        ],
        json_path=SCALABILITY_JSON,
    )
    # shape: the gap must widen with n
    speedups = [float(r[5][:-1]) for r in rows]
    assert speedups[-1] > speedups[0]
