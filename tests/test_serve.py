"""PlanningService: spec keying, warm sharing, thread safety, CLI batch."""

import io
import threading

import pytest

from repro.apps.video.system import (
    paper_source,
    paper_target,
    video_actions,
    video_invariants,
    video_universe,
)
from repro.cli import main
from repro.errors import NoSafePathError
from repro.manifest import video_manifest_text
from repro.serve import PlanningService, spec_digest


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def video_spec():
    return video_universe(), video_invariants(), video_actions()


class TestSpecDigest:
    def test_equal_specs_share_a_digest(self, video_spec):
        again = (video_universe(), video_invariants(), video_actions())
        assert spec_digest(*video_spec) == spec_digest(*again)

    def test_digest_is_sensitive_to_every_part(self, video_spec):
        universe, invariants, actions = video_spec
        base = spec_digest(universe, invariants, actions)
        fewer_invariants = type(invariants)(list(invariants)[:-1])
        assert spec_digest(universe, fewer_invariants, actions) != base
        fewer_actions = type(actions)(list(actions)[:-1])
        assert spec_digest(universe, invariants, fewer_actions) != base

    def test_component_order_is_semantic(self, video_spec):
        from repro.core.model import Component, ComponentUniverse

        universe, invariants, actions = video_spec
        reordered = ComponentUniverse(
            [
                Component(name, universe.component(name).process)
                for name in reversed(universe.order)
            ]
        )
        assert spec_digest(reordered, invariants, actions) != spec_digest(
            universe, invariants, actions
        )


class TestPlanningService:
    def test_equal_specs_share_one_planner(self, video_spec):
        service = PlanningService()
        first = service.planner_for(*video_spec)
        again = service.planner_for(
            video_universe(), video_invariants(), video_actions()
        )
        assert first is again
        assert service.stats().specs == 1

    def test_plan_matches_direct_planner(self, video_spec):
        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        plan = service.plan(universe, invariants, actions, source, target)
        assert plan.total_cost == 50.0
        # second call is a warm hit serving the identical object
        assert service.plan(universe, invariants, actions, source, target) is plan
        stats = service.stats()
        assert stats.warm_hits >= 1 and stats.cold_plans >= 1

    def test_unreachable_raises_warm_and_cold(self, video_spec):
        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        with pytest.raises(NoSafePathError):
            service.plan(universe, invariants, actions, target, source)
        # now cached as unreachable; the warm path must raise too
        with pytest.raises(NoSafePathError):
            service.plan(universe, invariants, actions, target, source)

    def test_plan_many_through_service(self, video_spec):
        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        plans = service.plan_many(
            universe, invariants, actions, [(source, target), (target, source)]
        )
        assert plans[0] is not None and plans[0].total_cost == 50.0
        assert plans[1] is None  # the video SAG is one-way

    def test_concurrent_callers_agree(self, video_spec):
        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        results, errors = [], []

        def hammer():
            try:
                for _ in range(20):
                    plan = service.plan(
                        universe, invariants, actions, source, target
                    )
                    results.append(plan.action_ids)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(results)) == 1  # every caller saw the same MAP
        assert service.stats().specs == 1


class TestCliBatch:
    @pytest.fixture
    def manifest_path(self, tmp_path):
        path = tmp_path / "video.manifest"
        path.write_text(video_manifest_text(), encoding="utf-8")
        return str(path)

    def test_plan_batch_file(self, manifest_path, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text(
            "# the paper's request, three spellings\n"
            "source -> target\n"
            "0100101 -> 1010010\n"
            "D1,D4,E1 1010010\n",
            encoding="utf-8",
        )
        code, output = run_cli("plan", manifest_path, "--batch", str(batch))
        assert code == 0
        assert output.count("[cost 50]") == 3
        assert "planned 3 request(s) (3 reachable)" in output
        assert "plans/sec" in output

    def test_plan_batch_reports_unreachable(self, manifest_path, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text("target -> source\n", encoding="utf-8")
        code, output = run_cli("plan", manifest_path, "--batch", str(batch))
        assert code == 1
        assert "NO SAFE PATH" in output

    def test_plan_batch_conflicts_with_endpoints(self, manifest_path, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text("source -> target\n", encoding="utf-8")
        code, _ = run_cli(
            "plan", manifest_path, "--batch", str(batch), "--from", "source"
        )
        assert code == 2

    def test_plan_still_requires_endpoints_without_batch(self, manifest_path):
        code, _ = run_cli("plan", manifest_path)
        assert code == 2

    def test_plan_batch_rejects_malformed_line(self, manifest_path, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text("source target extra\n", encoding="utf-8")
        code, _ = run_cli("plan", manifest_path, "--batch", str(batch))
        assert code == 2


class TestLazyRouting:
    """Oversized specs route to the lazy frontier planner automatically."""

    @pytest.fixture
    def big_system(self):
        from repro.bench.workloads import replicated_video_system

        return replicated_video_system(4)  # 28 components > LAZY_PLAN_COMPONENTS

    def test_oversized_spec_uses_lazy_plan(self, big_system):
        service = PlanningService()
        plan = service.plan(
            big_system.universe,
            big_system.invariants,
            big_system.actions,
            big_system.source,
            big_system.target,
        )
        assert plan.total_cost == 200.0
        stats = service.stats()
        assert stats.lazy_plans == 1
        # the eager space was never materialized for this spec
        planner = service.planner_for(
            big_system.universe, big_system.invariants, big_system.actions
        )
        assert planner._sag is None
        assert planner.space._cache is None

    def test_oversized_warm_hit_still_served_from_cache(self, big_system):
        service = PlanningService()
        args = (
            big_system.universe,
            big_system.invariants,
            big_system.actions,
            big_system.source,
            big_system.target,
        )
        first = service.plan(*args)
        assert service.plan(*args) is first
        stats = service.stats()
        assert stats.lazy_plans == 1 and stats.warm_hits == 1

    def test_oversized_plan_many_maps_unreachable_to_none(self, big_system):
        service = PlanningService()
        pairs = [
            (big_system.source, big_system.target),
            (big_system.target, big_system.source),  # one-way SAG: unreachable
        ]
        results = service.plan_many(
            big_system.universe, big_system.invariants, big_system.actions, pairs
        )
        assert results[0] is not None and results[0].total_cost == 200.0
        assert results[1] is None
        assert service.stats().lazy_plans == 2

    def test_threshold_is_configurable(self, video_spec):
        universe, invariants, actions = video_spec
        service = PlanningService()
        digest = service.register(universe, invariants, actions)
        source, target = paper_source(universe), paper_target(universe)
        plan = service.plan_digest(digest, source, target, method="lazy")
        assert plan.total_cost == 50.0
        assert service.stats().lazy_plans == 1


class TestTemporalVerification:
    """Path-quantified checks through the service's amortizing caches."""

    def test_verify_matches_direct_call(self, video_spec):
        from repro.core.planner import AdaptationPlanner
        from repro.ltl import parse_property, verify_paths

        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        phi = parse_property("historically({one_of(E1, E2)})")
        via_service = service.verify_paths(
            universe, invariants, actions, source, target, phi
        )
        direct = verify_paths(
            AdaptationPlanner(universe, invariants, actions),
            source, target, phi, lazy=False,
        )
        assert via_service.holds is direct.holds is True
        assert via_service.paths_checked == direct.paths_checked
        assert via_service.mode == "eager"

    def test_structurally_equal_formulas_share_one_compilation(self, video_spec):
        from repro.ltl import parse_property

        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        for _ in range(3):  # separately parsed objects, same structure
            service.verify_paths(
                universe, invariants, actions, source, target,
                parse_property("historically(!E2)"),
            )
        stats = service.stats()
        assert stats.verify_hits == 2  # first call compiles, the rest are warm

    def test_oversized_spec_verifies_lazily(self):
        from repro.bench.workloads import replicated_video_system
        from repro.ltl import parse_property

        big = replicated_video_system(4)
        service = PlanningService()
        verdict = service.verify_paths(
            big.universe, big.invariants, big.actions,
            big.source, big.target,
            parse_property("historically({one_of(E1@g0, E2@g0)})"),
            k=2, max_expansions=60_000,
        )
        assert verdict.holds is True
        assert verdict.mode == "lazy"
        planner = service.planner_for(big.universe, big.invariants, big.actions)
        assert planner._sag is None and planner.space._cache is None

    def test_check_plans_batch(self, video_spec):
        from repro.ltl import parse_property

        universe, invariants, actions = video_spec
        service = PlanningService()
        source, target = paper_source(universe), paper_target(universe)
        results = service.check_plans(
            universe, invariants, actions,
            [(source, target), (target, source)],
            parse_property("historically(!E2)"),
        )
        plan, violation = results[0]
        assert plan.total_cost == 50.0
        # the reported index is the first E2-bearing committed configuration
        expected = next(
            i for i, c in enumerate(plan.configurations) if "E2" in c.members
        )
        assert violation == expected
        assert results[1] is None  # unreachable pair
