"""k-best planning: the lazy frontier Yen against the CSR Yen, and their
one shared ``(source, target, k)`` cache."""

from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system
from repro.core.planner import AdaptationPlanner


def fresh(system):
    return AdaptationPlanner(system.universe, system.invariants, system.actions)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=4, max_value=8),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lazy_plan_k_equals_plan_k(seed, size, k, data):
    """Paths, costs and order match, from fresh planners and from one
    planner asked both ways round (the second answer is a cache hit)."""
    system = random_system(
        seed, n_components=size, n_invariants=2, n_actions=4 * size
    )
    safe = fresh(system).space.enumerate()
    if not safe:
        return
    source = data.draw(st.sampled_from(safe))
    target = data.draw(st.sampled_from(safe))

    eager = fresh(system).plan_k(source, target, k)
    lazy, complete = fresh(system).lazy_plan_k(source, target, k)
    assert complete
    assert lazy == eager

    eager_first = fresh(system)
    assert eager_first.plan_k(source, target, k) == eager
    assert eager_first.lazy_plan_k(source, target, k) == (eager, True)

    lazy_first = fresh(system)
    assert lazy_first.lazy_plan_k(source, target, k) == (eager, True)
    assert lazy_first.plan_k(source, target, k) == eager
    assert lazy_first._sag is None  # plan_k answered from the lazy entry


def test_exhausted_enumeration_is_not_cached(planner, source, target):
    plans, complete = planner.lazy_plan_k(source, target, 4, max_expansions=1)
    assert not complete
    assert not planner._plan_k_cache
    full, complete = planner.lazy_plan_k(source, target, 4)
    assert complete
    assert len(full) == 4 and plans == full[: len(plans)]
    eager = AdaptationPlanner(planner.universe, planner.invariants, planner.actions)
    assert full == eager.plan_k(source, target, 4)


def test_reset_caches_drops_entries_of_both_routes(planner, source, target):
    planner.lazy_plan_k(source, target, 3)
    planner.plan_k(source, target, 2)
    assert len(planner._plan_k_cache) == 2
    planner.reset_caches()
    assert not planner._plan_k_cache
    # nothing left to answer from: a one-expansion budget cannot finish
    for k in (2, 3):
        assert planner.lazy_plan_k(source, target, k, max_expansions=1)[1] is False
