"""Property-based tests: planner validity over random instances."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system
from repro.core.planner import AdaptationPlanner
from repro.errors import NoSafePathError, UnsafeConfigurationError


def try_plan(planner, source, target):
    try:
        return planner.plan(source, target)
    except (NoSafePathError, UnsafeConfigurationError):
        return None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_plans_are_valid_when_they_exist(seed):
    system = random_system(seed)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    plan = try_plan(planner, system.source, system.target)
    if plan is None:
        return
    config = system.source
    for step in plan.steps:
        assert step.action.is_applicable(config)
        config = step.action.apply(config)
        assert system.invariants.all_hold(config)
    assert config == system.target
    assert plan.total_cost == pytest.approx(
        sum(step.action.cost for step in plan.steps)
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_lazy_astar_matches_dijkstra_cost(seed):
    """Lazy A* returns the eager plan itself (cost and tie-break), and the
    collaborative decomposition reaches the same optimal cost."""
    system = random_system(seed)

    def fresh():  # one planner per method: lazy_plan reads the plan cache
        return AdaptationPlanner(system.universe, system.invariants, system.actions)

    eager = try_plan(fresh(), system.source, system.target)
    try:
        lazy = fresh().lazy_plan(system.source, system.target)
    except (NoSafePathError, UnsafeConfigurationError):
        lazy = None
    try:
        collaborative = fresh().plan_collaborative(system.source, system.target)
    except (NoSafePathError, UnsafeConfigurationError):
        collaborative = None
    if eager is None:
        assert lazy is None and collaborative is None
    else:
        assert lazy is not None and collaborative is not None
        assert lazy.total_cost == pytest.approx(eager.total_cost)
        assert lazy.action_ids == eager.action_ids
        assert collaborative.total_cost == pytest.approx(eager.total_cost)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_plan_k_sorted_and_first_is_optimal(seed, k):
    system = random_system(seed)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    best = try_plan(planner, system.source, system.target)
    if best is None:
        return
    plans = planner.plan_k(system.source, system.target, k)
    costs = [p.total_cost for p in plans]
    assert costs == sorted(costs)
    assert costs[0] == pytest.approx(best.total_cost)
    assert len({p.action_ids for p in plans}) == len(plans)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_planning_is_deterministic(seed):
    system = random_system(seed)
    p1 = AdaptationPlanner(system.universe, system.invariants, system.actions)
    p2 = AdaptationPlanner(system.universe, system.invariants, system.actions)
    a = try_plan(p1, system.source, system.target)
    b = try_plan(p2, system.source, system.target)
    if a is None:
        assert b is None
    else:
        assert b is not None and a.action_ids == b.action_ids
