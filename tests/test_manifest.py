"""Tests for the declarative manifest format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.errors import ParseError
from repro.manifest import dumps, loads, video_manifest_text

MINIMAL = """
[components]
A @ p1 : the app
B1 @ p2
B2 @ p2

[invariants]
presence : A
: A -> B1 | B2
exclusivity : one_of(B1, B2)

[actions]
swap  : B1 -> B2 @ 5 ; switch backends
unswap: B2 -> B1 @ 5
drop  : -B2 @ 1
add   : +B2 @ 1

[configurations]
start = A, B1
goal = 101
"""


class TestLoads:
    def test_components(self):
        manifest = loads(MINIMAL)
        assert manifest.universe.order == ("A", "B1", "B2")
        assert manifest.universe.process_of("A") == "p1"
        assert manifest.universe.component("A").description == "the app"

    def test_default_process(self):
        manifest = loads("[components]\nX\n")
        assert manifest.universe.process_of("X") == "local"

    def test_invariants(self):
        manifest = loads(MINIMAL)
        assert len(manifest.invariants) == 3
        assert manifest.invariants[0].name == "presence"
        assert manifest.invariants.all_hold({"A", "B1"})
        assert not manifest.invariants.all_hold({"A"})

    def test_actions(self):
        manifest = loads(MINIMAL)
        swap = manifest.actions.get("swap")
        assert swap.removes == frozenset({"B1"})
        assert swap.adds == frozenset({"B2"})
        assert swap.cost == 5
        assert swap.description == "switch backends"
        assert manifest.actions.get("drop").removes == frozenset({"B2"})
        assert manifest.actions.get("add").adds == frozenset({"B2"})

    def test_composite_operation(self):
        text = MINIMAL + "\n[actions]\n"  # appending a section continues it
        manifest = loads(
            MINIMAL.replace(
                "add   : +B2 @ 1", "add   : +B2 @ 1\nbig : (A, B1) -> (B2) @ 9"
            )
        )
        big = manifest.actions.get("big")
        assert big.removes == frozenset({"A", "B1"})
        assert big.adds == frozenset({"B2"})

    def test_configurations_by_members_and_bits(self):
        manifest = loads(MINIMAL)
        assert manifest.configurations["start"] == frozenset({"A", "B1"})
        assert manifest.configurations["goal"] == frozenset({"A", "B2"})

    def test_resolve_configuration_forms(self):
        manifest = loads(MINIMAL)
        assert manifest.resolve_configuration("start") == frozenset({"A", "B1"})
        assert manifest.resolve_configuration("110") == frozenset({"A", "B1"})
        assert manifest.resolve_configuration("A, B2") == frozenset({"A", "B2"})

    def test_comments_and_blank_lines_ignored(self):
        manifest = loads("# header\n[components]\n\nX # trailing\n")
        assert "X" in manifest.universe

    def test_planner_integration(self):
        manifest = loads(MINIMAL)
        planner = manifest.planner()
        plan = planner.plan(
            manifest.configurations["start"], manifest.configurations["goal"]
        )
        assert plan.action_ids == ("swap",)


class TestErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("X\n", "before any"),
            ("[weird]\n", "unknown section"),
            ("[components]\n", "no [components]"),
            ("[components]\nA\n[invariants]\nA -> Z\n", "unknown components"),
            ("[components]\nA\n[actions]\nbad line\n", "bad action"),
            ("[components]\nA\n[actions]\nx : ?? @ 1\n", "cannot parse"),
            ("[components]\nA\n[actions]\nx : +Z @ 1\n", "unknown components"),
            ("[components]\nA\n[configurations]\njust-a-name\n", "name = value"),
        ],
    )
    def test_bad_manifests(self, text, fragment):
        with pytest.raises(ParseError) as excinfo:
            loads(text)
        assert fragment in str(excinfo.value)


class TestSpans:
    """Parsed entities carry file positions; parse errors point at them."""

    def test_component_spans(self):
        manifest = loads(MINIMAL)
        spans = manifest.spans
        assert spans.components["A"].line == 3  # MINIMAL opens with a newline
        assert spans.components["B2"].line == 5

    def test_invariant_and_action_spans(self):
        manifest = loads(MINIMAL)
        spans = manifest.spans
        assert [s.line for s in spans.invariants] == [8, 9, 10]
        assert spans.actions["swap"].line == 13
        assert spans.configurations["goal"].line == 20

    def test_section_spans(self):
        manifest = loads(MINIMAL)
        assert manifest.spans.sections["components"].line == 2
        assert manifest.spans.sections["configurations"].line == 18

    @pytest.mark.parametrize(
        "text,line",
        [
            # bad invariant expression: previously reported with no location
            ("[components]\nA\n[invariants]\nbad : A &\n", 4),
            # bad configuration value: ditto
            ("[components]\nA\n[configurations]\nc = A, NOPE\n", 4),
            ("[components]\nA\n[configurations]\nc = 0101\n", 4),
            # action errors already carried a line; they keep it
            ("[components]\nA\n[actions]\nx : ?? @ 1\n", 4),
        ],
    )
    def test_parse_errors_carry_line_and_span(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            loads(text)
        assert f"line {line}" in str(excinfo.value)
        assert excinfo.value.span is not None
        assert excinfo.value.span.line == line

    def test_duplicate_component_cites_first_declaration(self):
        with pytest.raises(ParseError) as excinfo:
            loads("[components]\nA\nA\n")
        assert "line 3" in str(excinfo.value)
        assert "line 2" in str(excinfo.value)


class TestCCSSection:
    WITH_CCS = MINIMAL + "\n[ccs]\nseg0 : swap unswap\nseg1 : unswap\n"

    def test_ccs_parsed(self):
        manifest = loads(self.WITH_CCS)
        assert manifest.ccs is not None
        assert manifest.ccs.allowed == (("swap", "unswap"), ("unswap",))

    def test_ccs_round_trips(self):
        manifest = loads(self.WITH_CCS)
        again = loads(dumps(manifest))
        assert again.ccs is not None
        assert again.ccs.allowed == manifest.ccs.allowed

    def test_no_ccs_section_means_none(self):
        assert loads(MINIMAL).ccs is None


class TestRoundTrip:
    def test_minimal_round_trips(self):
        manifest = loads(MINIMAL)
        again = loads(dumps(manifest))
        assert again.universe.order == manifest.universe.order
        assert [i.expr for i in again.invariants] == [
            i.expr for i in manifest.invariants
        ]
        assert [
            (a.action_id, a.removes, a.adds, a.cost) for a in again.actions
        ] == [(a.action_id, a.removes, a.adds, a.cost) for a in manifest.actions]
        assert again.configurations == manifest.configurations

    def test_video_manifest_reproduces_the_paper(self, table1_bits):
        manifest = loads(video_manifest_text())
        planner = manifest.planner()
        got = {planner.universe.to_bits(c) for c in planner.space.enumerate()}
        assert got == set(table1_bits)
        plan = planner.plan(
            manifest.configurations["source"], manifest.configurations["target"]
        )
        assert plan.total_cost == 50.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(
            min_value=0, max_value=1e30, allow_nan=False, allow_infinity=False
        )
        | st.integers(min_value=0, max_value=10**15).map(float)
    )
    def test_action_costs_round_trip_exactly(self, cost):
        manifest = loads(MINIMAL)
        action = next(iter(manifest.actions))
        manifest.actions = ActionLibrary(
            [AdaptiveAction(action.action_id, action.removes, action.adds, cost)]
        )
        text = dumps(manifest)
        again = loads(text)
        assert next(iter(again.actions)).cost == cost
        assert dumps(again) == text

    @pytest.mark.parametrize(
        "cost, text",
        [(10.0, "10"), (0.5, "0.5"), (1.0000001, "1.0000001"),
         (1e-05, "0.00001"), (12345678.0, "12345678")],
    )
    def test_cost_text_is_short_where_exact_else_plain(self, cost, text):
        from repro.manifest import _cost_text

        assert _cost_text(cost) == text

    def test_load_path(self, tmp_path):
        from repro.manifest import load_path

        target = tmp_path / "sys.manifest"
        target.write_text(MINIMAL, encoding="utf-8")
        assert "A" in load_path(target).universe


class TestPropertiesSection:
    WITH_PROPERTIES = MINIMAL + """
[properties]
no_b2 : historically(!B2)
liveness : {one_of(B1, B2)} -> once(A)
"""

    def test_properties_parse_into_formulas(self):
        from repro.ltl import Historically, PImplies

        manifest = loads(self.WITH_PROPERTIES)
        assert set(manifest.properties) == {"no_b2", "liveness"}
        assert isinstance(manifest.properties["no_b2"], Historically)
        assert isinstance(manifest.properties["liveness"], PImplies)

    def test_property_named_lookup(self):
        from repro.errors import ConfigurationError

        manifest = loads(self.WITH_PROPERTIES)
        assert manifest.property_named("no_b2") is manifest.properties["no_b2"]
        with pytest.raises(ConfigurationError) as excinfo:
            manifest.property_named("nope")
        assert "liveness" in str(excinfo.value)  # known names are listed

    def test_properties_round_trip(self):
        from repro.ltl import property_to_text

        manifest = loads(self.WITH_PROPERTIES)
        again = loads(dumps(manifest))
        assert {
            name: property_to_text(phi) for name, phi in again.properties.items()
        } == {
            name: property_to_text(phi)
            for name, phi in manifest.properties.items()
        }

    def test_properties_spans_recorded(self):
        manifest = loads(self.WITH_PROPERTIES)
        lines = self.WITH_PROPERTIES.splitlines()
        for name, span in manifest.spans.properties.items():
            assert lines[span.line - 1].startswith(name)

    def test_duplicate_property_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            loads(MINIMAL + "\n[properties]\np : A\np : !A\n")

    def test_bad_formula_rejected_with_line(self):
        with pytest.raises(ParseError):
            loads(MINIMAL + "\n[properties]\nbroken : A & (\n")

    def test_unknown_atom_rejected(self):
        with pytest.raises(ParseError, match="GHOST"):
            loads(MINIMAL + "\n[properties]\nghostly : once(GHOST)\n")

    def test_entry_requires_name_and_formula(self):
        with pytest.raises(ParseError):
            loads(MINIMAL + "\n[properties]\njust a formula\n")

    def test_empty_section_is_fine(self):
        manifest = loads(MINIMAL + "\n[properties]\n")
        assert manifest.properties == {}
