"""ControlPlane.dispatch: typed operations, envelopes, CLI parity."""

import io
import json

import pytest

from repro.cli import main
from repro.core.planner import LAZY_PLAN_COMPONENTS, PLAN_METHODS, plan_route
from repro.manifest import loads
from repro.serve import (
    ControlPlane,
    ErrorEnvelope,
    EvictSpecRequest,
    LintRequest,
    PlanBatchRequest,
    PlanRequest,
    RegisterSpecRequest,
    StatsRequest,
    TraceCheckRequest,
    VerifyPathsRequest,
    envelope,
    spec_digest,
    to_json,
    to_wire,
)
from tests.serve.conftest import STUCK_MANIFEST


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRegisterAndEvict:
    def test_register_returns_the_spec_digest(self, video_text):
        control = ControlPlane()
        result = control.dispatch(RegisterSpecRequest(manifest=video_text))
        assert result.digest == spec_digest(loads(video_text))
        assert result.components == 7
        assert result.configurations == ("source", "target")
        assert result.created is True

    def test_register_is_idempotent(self, video_text):
        control = ControlPlane()
        first = control.dispatch(RegisterSpecRequest(manifest=video_text))
        again = control.dispatch(RegisterSpecRequest(manifest=video_text))
        assert again.digest == first.digest
        assert again.created is False

    def test_retargeted_reupload_plans_to_its_own_target(self, video_text):
        control = ControlPlane()
        first = control.dispatch(RegisterSpecRequest(manifest=video_text))
        # the same system, its named target moved onto the source
        retargeted = video_text.replace("target = 1010010", "target = 0100101")
        assert retargeted != video_text
        again = control.dispatch(RegisterSpecRequest(manifest=retargeted))
        assert again.created is True and again.digest != first.digest
        plans = [
            control.dispatch(
                PlanRequest(spec=digest, source="source", target="target")
            )
            for digest in (first.digest, again.digest)
        ]
        assert plans[0].plan.cost == 50.0
        assert plans[1].plan.cost == 0.0 and plans[1].plan.steps == ()

    def test_bad_manifest_is_an_envelope_not_a_traceback(self):
        result = ControlPlane().dispatch(
            RegisterSpecRequest(manifest="[components\nbroken")
        )
        assert isinstance(result, ErrorEnvelope)
        assert result.code == "bad-manifest"
        assert "Traceback" not in result.message

    def test_evict_then_plan_is_unknown_spec(self, video_text):
        control = ControlPlane()
        digest = control.dispatch(
            RegisterSpecRequest(manifest=video_text)
        ).digest
        assert control.dispatch(EvictSpecRequest(spec=digest)).evicted is True
        assert control.dispatch(EvictSpecRequest(spec=digest)).evicted is False
        result = control.dispatch(
            PlanRequest(source="source", target="target", spec=digest)
        )
        assert isinstance(result, ErrorEnvelope)
        assert result.code == "unknown-spec"
        assert digest in result.message


class TestPlan:
    def test_plan_by_digest_equals_plan_by_manifest(self, video_text):
        control = ControlPlane()
        digest = control.dispatch(
            RegisterSpecRequest(manifest=video_text)
        ).digest
        by_digest = control.dispatch(
            PlanRequest(source="source", target="target", spec=digest)
        )
        by_manifest = control.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        assert by_digest == by_manifest
        assert by_digest.plan.cost == 50.0
        assert by_digest.method == "dijkstra"

    def test_plan_describe_matches_the_planner_rendering(self, video_text):
        control = ControlPlane()
        result = control.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        manifest = loads(video_text)
        direct = manifest.planner().plan(
            manifest.resolve_configuration("source"),
            manifest.resolve_configuration("target"),
        )
        assert result.plan.describe() == direct.describe()

    def test_unknown_configuration_envelope(self, video_text):
        result = ControlPlane().dispatch(
            PlanRequest(source="nope", target="target", manifest=video_text)
        )
        assert result.code == "unknown-configuration"

    def test_no_safe_path_envelope(self):
        result = ControlPlane().dispatch(
            PlanRequest(source="only_a", target="only_b",
                        manifest=STUCK_MANIFEST)
        )
        assert result.code == "no-safe-path"
        assert result.message == "no safe adaptation path from {A} to {B}"

    def test_unsafe_configuration_envelope(self, video_text):
        result = ControlPlane().dispatch(
            PlanRequest(source="source", target="0000000",
                        manifest=video_text)
        )
        assert result.code == "unsafe-configuration"

    def test_bad_method_and_spec_xor_manifest(self, video_text):
        control = ControlPlane()
        assert control.dispatch(
            PlanRequest(source="a", target="b", manifest=video_text,
                        method="magic")
        ).code == "bad-request"
        assert control.dispatch(
            PlanRequest(source="a", target="b")
        ).code == "bad-request"
        assert control.dispatch(
            PlanRequest(source="a", target="b", spec="x",
                        manifest=video_text)
        ).code == "bad-request"

    def test_alternates(self, video_text):
        result = ControlPlane().dispatch(
            PlanRequest(source="source", target="target",
                        manifest=video_text, k=3)
        )
        assert len(result.alternates) == 3
        assert result.alternates[0][1] == 50.0
        costs = [cost for _, cost in result.alternates]
        assert costs == sorted(costs)

    def test_internal_errors_carry_type_and_message_only(self, video_text):
        control = ControlPlane()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        control.service.plan_digest = boom
        result = control.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        assert result.code == "internal"
        assert result.message == "RuntimeError: boom"


#: two independent components whose add actions are declared racing: the
#: conflict pulls them into one collaborative set, which reorders the plan
CONFLICTED_MANIFEST = """\
[components]
A @ p
B @ q

[actions]
add_b : +B @ 1
add_a : +A @ 1

[configurations]
empty =
both = A, B
"""
CONFLICTS_SECTION = """
[conflicts]
add_a add_b
"""


class TestConflicts:
    def test_served_collaborative_plan_honors_conflicts(self):
        text = CONFLICTED_MANIFEST + CONFLICTS_SECTION
        manifest = loads(text)
        direct = manifest.planner().plan_collaborative(
            manifest.resolve_configuration("empty"),
            manifest.resolve_configuration("both"),
        )
        served = ControlPlane().dispatch(
            PlanRequest(source="empty", target="both", manifest=text,
                        method="collaborative")
        )
        assert direct.action_ids == ("add_b", "add_a")
        assert tuple(step.action for step in served.plan.steps) == (
            direct.action_ids
        )

    def test_conflicts_are_part_of_the_spec_digest(self):
        control = ControlPlane()
        plain = control.dispatch(
            RegisterSpecRequest(manifest=CONFLICTED_MANIFEST)
        ).digest
        conflicted = control.dispatch(
            RegisterSpecRequest(manifest=CONFLICTED_MANIFEST + CONFLICTS_SECTION)
        ).digest
        assert plain != conflicted
        assert plain == spec_digest(loads(CONFLICTED_MANIFEST))
        assert conflicted == spec_digest(
            loads(CONFLICTED_MANIFEST + CONFLICTS_SECTION)
        )


def _pinned_manifest(components: int) -> str:
    """C0..C{n-1}, every one but C0/C1 pinned present: a universe above
    the lazy cap whose safe space is still two configurations, so even a
    forced eager plan stays cheap."""
    pinned = [f"C{i}" for i in range(2, components)]
    return "\n".join(
        ["[components]"]
        + [f"C{i} @ p{i % 3}" for i in range(components)]
        + ["", "[invariants]", ": C0 | C1"]
        + [f": {name}" for name in pinned]
        + ["", "[actions]", "swap : C0 -> C1 @ 5", "back : C1 -> C0 @ 7"]
        + ["", "[configurations]",
           "source = " + ", ".join(["C0"] + pinned),
           "target = " + ", ".join(["C1"] + pinned)]
    ) + "\n"


class TestRouteTable:
    """Every method x {within, above the cap} x k: one routing rule."""

    ROUTES = {
        # method: (route within the cap, route above it)
        "auto": ("dijkstra", "lazy"),
        "dijkstra": ("dijkstra", "dijkstra"),
        "lazy": ("lazy", "lazy"),
        "collaborative": ("collaborative", "collaborative"),
    }

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("oversized", [False, True])
    @pytest.mark.parametrize("method", sorted(ROUTES))
    def test_route(self, tmp_path, video_text, method, oversized, k):
        text = _pinned_manifest(LAZY_PLAN_COMPONENTS + 1) if oversized else video_text
        path = tmp_path / "spec.manifest"
        path.write_text(text, encoding="utf-8")
        response = ControlPlane().dispatch(
            PlanRequest(source="source", target="target", manifest=text,
                        method=method, k=k)
        )
        if oversized and k > 1:
            assert isinstance(response, ErrorEnvelope)
            assert response.code == "bad-request"
            assert response.message == (
                "k-best alternates need the eager SAG, which is capped at "
                f"{LAZY_PLAN_COMPONENTS} components "
                f"(spec has {LAZY_PLAN_COMPONENTS + 1})"
            )
        else:
            assert response.method == self.ROUTES[method][oversized]
            assert response.method == plan_route(
                method, len(loads(text).universe), k
            )
            assert len(response.alternates) == (k if k > 1 else 0)
        code, output = run_cli(
            "plan", str(path), "--from", "source", "--to", "target",
            "--method", method, "--k", str(k), "--json",
        )
        assert code == (2 if isinstance(response, ErrorEnvelope) else 0)
        assert output == to_json(response) + "\n"

    def test_unknown_method_is_a_bad_request(self, video_text):
        assert set(self.ROUTES) == set(PLAN_METHODS)
        response = ControlPlane().dispatch(
            PlanRequest(source="source", target="target", manifest=video_text,
                        method="magic")
        )
        assert response.code == "bad-request"
        with pytest.raises(ValueError, match="method must be one of"):
            plan_route("magic", 7)


class TestPlanBatch:
    def test_batch_preserves_order_and_counts(self, video_text):
        result = ControlPlane().dispatch(
            PlanBatchRequest(
                pairs=(("source", "target"), ("target", "target")),
                manifest=video_text,
            )
        )
        assert [item.reachable for item in result.results] == [True, True]
        assert result.results[0].cost == 50.0
        assert result.results[1].actions == ()
        assert result.reachable == 2

    def test_batch_stream_matches_batch_dispatch(self, video_text):
        control = ControlPlane()
        request = PlanBatchRequest(
            pairs=(("source", "target"), ("target", "source")),
            manifest=video_text,
        )
        batch = control.dispatch(request)
        lines = list(control.plan_batch_stream(request))
        assert lines[:-1] == [item.payload() for item in batch.results]
        assert lines[-1]["summary"]["reachable"] == batch.reachable

    def test_batch_stream_reports_fatal_errors(self):
        control = ControlPlane()
        lines = list(
            control.plan_batch_stream(
                PlanBatchRequest(pairs=(("a", "b"),), spec="nope")
            )
        )
        assert lines == [
            {"error": {"code": "unknown-spec",
                       "message": "unknown spec digest 'nope'"}}
        ]


class TestVerifyPaths:
    def test_named_property_holds(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target",
                property_name="encoder specified", manifest=property_text,
            )
        )
        assert result.holds is True
        assert result.mode == "eager"

    def test_inline_formula(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target",
                formula="historically({one_of(E1, E2)})",
                manifest=property_text,
            )
        )
        assert result.holds is True
        assert result.property_name is None

    def test_violated_property_carries_a_counterexample(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target", property_name="no_e2",
                manifest=property_text,
            )
        )
        assert result.holds is False
        assert result.counterexample is not None
        assert result.violation_index is not None

    def test_unknown_property_envelope(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target", property_name="nope",
                manifest=property_text,
            )
        )
        assert result.code == "unknown-property"
        assert "known:" in result.message

    def test_bad_formula_envelope(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target", formula="historically(",
                manifest=property_text,
            )
        )
        assert result.code == "bad-property"


class TestLint:
    def test_lint_rendering_matches_direct_render(self, video_text):
        from repro.lint import lint_text, render_json

        result = ControlPlane().dispatch(
            LintRequest(sources=((None, video_text),), format="json")
        )
        report = lint_text(video_text)
        report.sort()
        assert result.rendered == render_json(report)
        assert result.failed is False

    def test_lint_failure_gate(self):
        result = ControlPlane().dispatch(
            LintRequest(sources=((None, "[components]\n"),))
        )
        assert result.failed is True
        assert result.summary["errors"] >= 1


class TestTraceCheck:
    def _trace_text(self, video_path, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "simulate", video_path, "--from", "source", "--to", "target",
            "--save-trace", str(trace),
        )
        assert code == 0
        return trace.read_text(encoding="utf-8")

    def test_inline_trace_check(self, video_path, property_text, tmp_path):
        text = self._trace_text(video_path, tmp_path)
        result = ControlPlane().dispatch(
            TraceCheckRequest(trace=text, ltl="encoder specified",
                              manifest=property_text)
        )
        assert result.ok is True
        assert result.safety_ok is True
        assert result.commits == 6
        assert result.property_check.holds is True

    def test_malformed_trace_envelope(self, property_text):
        result = ControlPlane().dispatch(
            TraceCheckRequest(trace="not json\n", manifest=property_text)
        )
        assert result.code == "bad-trace"
        assert result.message.startswith("malformed trace")


class TestStats:
    def test_stats_reflect_traffic(self, video_text):
        control = ControlPlane()
        request = PlanRequest(source="source", target="target",
                              manifest=video_text)
        control.dispatch(request)
        control.dispatch(request)
        stats = control.dispatch(StatsRequest())
        assert stats.service["specs"] == 1
        assert stats.service["cold_plans"] == 1
        assert stats.service["warm_hits"] == 1
        (spec,) = stats.specs
        assert spec["configurations"] == ["source", "target"]
        assert spec["owned"] is True


class TestCLIDispatchParity:
    """Acceptance pin: CLI JSON output is a dispatch call, byte for byte."""

    def test_plan_json_equals_direct_dispatch(self, video_path, video_text):
        code, output = run_cli(
            "plan", video_path, "--from", "source", "--to", "target", "--json"
        )
        assert code == 0
        direct = ControlPlane().dispatch(
            PlanRequest(source="source", target="target",
                        manifest=video_text, method="auto", k=1)
        )
        assert output == to_json(direct) + "\n"

    def test_plan_json_error_parity(self, video_path, video_text):
        code, output = run_cli(
            "plan", video_path, "--from", "source", "--to", "nope", "--json"
        )
        assert code == 2
        direct = ControlPlane().dispatch(
            PlanRequest(source="source", target="nope", manifest=video_text)
        )
        assert isinstance(direct, ErrorEnvelope)
        assert output == to_json(direct) + "\n"

    def test_verify_paths_json_equals_direct_dispatch(
        self, property_path, property_text
    ):
        code, output = run_cli(
            "verify-paths", property_path, "--from", "source", "--to",
            "target", "--property", "encoder specified", "--json",
        )
        assert code == 0
        direct = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target",
                property_name="encoder specified", manifest=property_text,
            )
        )
        assert output == to_json(direct) + "\n"

    def test_trace_check_json_equals_direct_dispatch(
        self, video_path, property_path, property_text, tmp_path
    ):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "simulate", video_path, "--from", "source", "--to", "target",
            "--save-trace", str(trace),
        )
        assert code == 0
        code, output = run_cli(
            "trace", "check", str(trace), "--manifest", property_path,
            "--ltl", "encoder specified", "--json",
        )
        assert code == 0
        direct = ControlPlane().dispatch(
            TraceCheckRequest(trace_path=str(trace), ltl="encoder specified",
                              manifest=property_text)
        )
        assert output == to_json(direct) + "\n"

    def test_wire_bytes_are_the_compact_envelope(self, video_text):
        response = ControlPlane().dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        assert json.loads(to_wire(response)) == envelope(response)
        assert json.loads(to_json(response)) == envelope(response)
