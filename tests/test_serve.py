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
from repro.manifest import SystemManifest, video_manifest_text
from repro.serve import PlanningService, SpecRegistry, spec_digest


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def new_service():
    return PlanningService(SpecRegistry())


def register(service, text):
    """Register manifest *text*; returns its record."""
    record, _created = service.registry.register(text)
    return record


@pytest.fixture
def video_spec():
    return video_universe(), video_invariants(), video_actions()


@pytest.fixture
def video_text():
    return video_manifest_text()


class TestSpecDigest:
    def test_equal_specs_share_a_digest(self, video_spec):
        again = (video_universe(), video_invariants(), video_actions())
        assert spec_digest(SystemManifest(*video_spec)) == spec_digest(
            SystemManifest(*again)
        )

    def test_digest_is_sensitive_to_every_part(self, video_spec):
        universe, invariants, actions = video_spec
        base = spec_digest(SystemManifest(universe, invariants, actions))
        fewer_invariants = type(invariants)(list(invariants)[:-1])
        assert spec_digest(
            SystemManifest(universe, fewer_invariants, actions)
        ) != base
        fewer_actions = type(actions)(list(actions)[:-1])
        assert spec_digest(
            SystemManifest(universe, invariants, fewer_actions)
        ) != base
        named = SystemManifest(universe, invariants, actions)
        named.configurations["source"] = paper_source(universe)
        assert spec_digest(named) != base

    def test_component_order_is_semantic(self, video_spec):
        from repro.core.model import Component, ComponentUniverse

        universe, invariants, actions = video_spec
        reordered = ComponentUniverse(
            [
                Component(name, universe.component(name).process)
                for name in reversed(universe.order)
            ]
        )
        assert spec_digest(
            SystemManifest(reordered, invariants, actions)
        ) != spec_digest(SystemManifest(universe, invariants, actions))


class TestPlanningService:
    def test_equal_specs_share_one_planner(self, video_text):
        service = new_service()
        first, _ = service.registry.register(video_text)
        again, created = service.registry.register(video_manifest_text())
        assert created is False
        assert first.planner is again.planner
        assert service.stats()["specs"] == 1

    def test_plan_matches_direct_planner(self, video_text):
        service = new_service()
        record = register(service, video_text)
        universe = video_universe()
        source, target = paper_source(universe), paper_target(universe)
        plan = service.plan_digest(record, source, target)
        assert plan.total_cost == 50.0
        # second call is a warm hit serving the identical object
        assert service.plan_digest(record, source, target) is plan
        stats = service.stats()
        assert stats["warm_hits"] >= 1 and stats["cold_plans"] >= 1

    def test_unreachable_raises_warm_and_cold(self, video_text):
        service = new_service()
        record = register(service, video_text)
        universe = video_universe()
        source, target = paper_source(universe), paper_target(universe)
        with pytest.raises(NoSafePathError):
            service.plan_digest(record, target, source)
        # now cached as unreachable; the warm path must raise too
        with pytest.raises(NoSafePathError):
            service.plan_digest(record, target, source)

    def test_plan_many_through_service(self, video_text):
        service = new_service()
        record = register(service, video_text)
        universe = video_universe()
        source, target = paper_source(universe), paper_target(universe)
        plans = service.plan_many_digest(
            record, [(source, target), (target, source)]
        )
        assert plans[0] is not None and plans[0].total_cost == 50.0
        assert plans[1] is None  # the video SAG is one-way

    def test_concurrent_callers_agree(self, video_text):
        service = new_service()
        record = register(service, video_text)
        universe = video_universe()
        source, target = paper_source(universe), paper_target(universe)
        results, errors = [], []

        def hammer():
            try:
                for _ in range(20):
                    plan = service.plan_digest(record, source, target)
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
        assert service.stats()["specs"] == 1


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
    def big(self):
        """A served 28-component spec (> LAZY_PLAN_COMPONENTS): the
        service, the spec's record, and its source/target."""
        from repro.bench.workloads import replicated_video_system

        service = new_service()
        record, _ = service.registry.register(
            replicated_video_system(4).manifest_text()
        )
        named = record.manifest.configurations
        return service, record, named["source"], named["target"]

    def test_oversized_spec_uses_lazy_plan(self, big):
        service, record, source, target = big
        plan = service.plan_digest(record, source, target)
        assert plan.total_cost == 200.0
        stats = service.stats()
        assert stats["lazy_plans"] == 1
        # the eager space was never materialized for this spec
        assert record.planner._sag is None
        assert record.planner.space._cache is None

    def test_oversized_warm_hit_still_served_from_cache(self, big):
        service, record, source, target = big
        first = service.plan_digest(record, source, target)
        assert service.plan_digest(record, source, target) is first
        stats = service.stats()
        assert stats["lazy_plans"] == 1 and stats["warm_hits"] == 1

    def test_oversized_plan_many_maps_unreachable_to_none(self, big):
        service, record, source, target = big
        pairs = [
            (source, target),
            (target, source),  # one-way SAG: unreachable
        ]
        results = service.plan_many_digest(record, pairs)
        assert results[0] is not None and results[0].total_cost == 200.0
        assert results[1] is None
        assert service.stats()["lazy_plans"] == 2

    def test_threshold_is_configurable(self, video_text):
        service = new_service()
        record = register(service, video_text)
        universe = video_universe()
        source, target = paper_source(universe), paper_target(universe)
        plan = service.plan_digest(record, source, target, method="lazy")
        assert plan.total_cost == 50.0
        assert service.stats()["lazy_plans"] == 1


class TestTemporalVerification:
    """Path-quantified checks through the service's amortizing caches."""

    def test_verify_matches_direct_call(self, video_spec, video_text):
        from repro.core.planner import AdaptationPlanner
        from repro.ltl import parse_property, verify_paths

        universe, invariants, actions = video_spec
        service = new_service()
        record = register(service, video_text)
        source, target = paper_source(universe), paper_target(universe)
        phi = parse_property("historically({one_of(E1, E2)})")
        via_service = service.verify_paths_digest(record, source, target, phi)
        direct = verify_paths(
            AdaptationPlanner(universe, invariants, actions),
            source, target, phi, lazy=False,
        )
        assert via_service.holds is direct.holds is True
        assert via_service.paths_checked == direct.paths_checked
        assert via_service.mode == "eager"

    def test_structurally_equal_formulas_share_one_compilation(
        self, video_text
    ):
        from repro.ltl import parse_property

        service = new_service()
        record = register(service, video_text)
        universe = video_universe()
        source, target = paper_source(universe), paper_target(universe)
        for _ in range(3):  # separately parsed objects, same structure
            service.verify_paths_digest(
                record, source, target, parse_property("historically(!E2)"),
            )
        stats = service.stats()
        assert stats["verify_hits"] == 2  # first call compiles, the rest are warm

    def test_oversized_spec_verifies_lazily(self):
        from repro.bench.workloads import replicated_video_system
        from repro.ltl import parse_property

        service = new_service()
        record, _ = service.registry.register(
            replicated_video_system(4).manifest_text()
        )
        named = record.manifest.configurations
        verdict = service.verify_paths_digest(
            record, named["source"], named["target"],
            parse_property("historically({one_of(E1_g0, E2_g0)})"),
            k=2, max_expansions=60_000,
        )
        assert verdict.holds is True
        assert verdict.mode == "lazy"
        assert record.planner._sag is None
        assert record.planner.space._cache is None
