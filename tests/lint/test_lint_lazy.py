"""Lazy analysis above the enumeration cap (SA307 + lazy SA205/SA306).

Before this suite's subject existed, every named-configuration check was
silently dropped above ``MAX_ENUM_COMPONENTS``.  Now SA303/SA304 (which
never needed the safe space) always run, and SA205/SA306 fall back to
point queries and budget-bounded frontier search with tri-state verdicts
— an inconclusive search is recorded in ``report.skipped``, never
misreported as a diagnostic.
"""

import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro.lint.checks as checks_mod
from repro.lint import lint_text


def fleet_manifest(
    n_groups: int = 9,
    rollbacks: bool = True,
    extra_configs: str = "",
    extra_actions: str = "",
) -> str:
    """``3 * n_groups`` components, one ``one_of`` invariant per group."""
    lines = ["[components]"]
    for g in range(n_groups):
        for v in (1, 2, 3):
            lines.append(f"S{g}v{v} @ node{g}")
    lines += ["", "[invariants]"]
    for g in range(n_groups):
        lines.append(f"group{g} : one_of(S{g}v1, S{g}v2, S{g}v3)")
    lines += ["", "[actions]"]
    for g in range(n_groups):
        lines.append(f"U{g}a : S{g}v1 -> S{g}v2 @ 10 ; upgrade")
        lines.append(f"U{g}b : S{g}v2 -> S{g}v3 @ 10 ; upgrade")
        if rollbacks:
            lines.append(f"R{g}a : S{g}v2 -> S{g}v1 @ 10 ; roll back")
            lines.append(f"R{g}b : S{g}v3 -> S{g}v2 @ 10 ; roll back")
    if extra_actions:
        lines.append(extra_actions)
    lines += ["", "[configurations]"]
    lines.append("baseline = " + ",".join(f"S{g}v1" for g in range(n_groups)))
    lines.append(
        "canary = "
        + ",".join(f"S{g}v2" if g == 0 else f"S{g}v1" for g in range(n_groups))
    )
    if extra_configs:
        lines.append(extra_configs)
    lines.append("")
    return "\n".join(lines)


def test_above_cap_emits_single_sa307_note():
    report = lint_text(fleet_manifest())
    # The SA3xx space checks collapse to the single SA307 note.  The
    # cap-proof interference checks still run: each group's chained
    # upgrades U*a/U*b (and rollbacks R*a/R*b) race on the shared middle
    # version (SA604), and the stateful SA601/SA603 sweep notes its
    # fallback to named-configuration sources (SA605).
    assert report.codes() == ("SA307", "SA604", "SA605")
    [note] = [d for d in report if d.code == "SA307"]
    assert "27 components" in note.message
    assert "lazy frontier search" in note.message
    assert any("SA3xx skipped" in line for line in report.skipped)
    [fallback] = [d for d in report if d.code == "SA605"]
    assert "named safe configuration" in fallback.message
    races = [d for d in report if d.code == "SA604"]
    assert len(races) == 18  # (U*a, U*b) and (R*a, R*b) per group


def test_library_checks_still_run_above_cap():
    # a zero-cost action (SA303) and a replace with no inverse (SA304)
    report = lint_text(
        fleet_manifest(
            rollbacks=False,
            extra_actions="Z0 : S0v1 -> S0v3 @ 0 ; free jump",
        )
    )
    assert "SA303" in report.codes()
    assert "SA304" in report.codes()


def test_unsafe_named_configuration_caught_lazily():
    # two variants of service 0 at once violates one_of
    bad = "broken = " + ",".join(
        ["S0v1", "S0v2"] + [f"S{g}v1" for g in range(1, 9)]
    )
    report = lint_text(fleet_manifest(extra_configs=bad))
    [diag] = [d for d in report if d.code == "SA205"]
    assert "'broken'" in diag.message


def test_one_way_reachability_caught_lazily():
    # without rollbacks the upgrade lattice is one-way: canary can never
    # return to baseline
    report = lint_text(fleet_manifest(rollbacks=False))
    one_way = [d for d in report if d.code == "SA306"]
    assert len(one_way) == 1
    assert "one-way" in one_way[0].message
    assert "'baseline'" in one_way[0].message


def test_two_way_unreachability_caught_lazily():
    # without rollbacks, upgrades form a partial order: two configurations
    # that each upgraded a *different* service are incomparable — neither
    # can reach the other
    sibling = "sibling = " + ",".join(
        "S1v2" if g == 1 else f"S{g}v1" for g in range(9)
    )
    report = lint_text(fleet_manifest(rollbacks=False, extra_configs=sibling))
    messages = [d.message for d in report if d.code == "SA306"]
    assert any(
        "in either direction" in m and "'canary'" in m and "'sibling'" in m
        for m in messages
    )


def test_budget_exhaustion_is_inconclusive_not_wrong(monkeypatch):
    monkeypatch.setattr(checks_mod, "LAZY_REACH_EXPANSIONS", 1)
    # a goal 18 upgrade steps away — far beyond a 1-node search budget
    far = "allv3 = " + ",".join(f"S{g}v3" for g in range(9))
    report = lint_text(fleet_manifest(extra_configs=far))
    assert "SA306" not in report.codes()  # no false unreachability claim
    assert any("SA306 inconclusive" in line for line in report.skipped)


def test_raising_the_cap_restores_full_analysis():
    report = lint_text(fleet_manifest(n_groups=4), max_enum_components=12)
    assert "SA307" not in report.codes()


def test_lazy_verdicts_match_eager_below_the_cap():
    """Same manifest, both pipelines: identical SA205/SA306 verdicts."""
    text = fleet_manifest(n_groups=4, rollbacks=False)  # 12 components
    eager = lint_text(text, max_enum_components=12)
    lazy = lint_text(text, max_enum_components=3)  # force the lazy path
    def named_pair_codes(report):
        return sorted(
            (d.code, d.message)
            for d in report
            if d.code in ("SA205", "SA306")
        )
    assert named_pair_codes(eager) == named_pair_codes(lazy)


# -- goal-directed reachability -------------------------------------------------

FLEET30 = Path(__file__).parents[2] / "examples" / "fleet30.manifest"


def test_fleet30_far_named_configuration_is_conclusive():
    # baseline -> all-v3 is ten steps through a 3^10 safe space; the
    # best-first search heads for the goal instead of wandering the space
    all_v3 = "allv3 = " + ",".join(f"S{g}v3" for g in range(10))
    text = FLEET30.read_text(encoding="utf-8").replace(
        "\n[properties]", f"{all_v3}\n\n[properties]", 1
    )
    report = lint_text(text)
    assert not [line for line in report.skipped if "SA306" in line]
    assert "SA306" not in report.codes()  # rollbacks: every pair both ways


@st.composite
def fleets(draw):
    """A random fleet of at most 12 components (``one_of`` per service)
    with random upgrades, optional rollbacks and named configurations
    that may break the invariants."""
    widths = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    lines = ["[components]"]
    for g, width in enumerate(widths):
        lines += [f"S{g}v{v} @ node{g}" for v in range(width)]
    lines += ["", "[invariants]"]
    for g, width in enumerate(widths):
        variants = ", ".join(f"S{g}v{v}" for v in range(width))
        lines.append(f"group{g} : one_of({variants})")
    lines += ["", "[actions]"]
    rollbacks = draw(st.booleans())
    for g, width in enumerate(widths):
        for v in range(width - 1):
            if draw(st.booleans()):
                lines.append(f"U{g}{v} : S{g}v{v} -> S{g}v{v + 1} @ 10")
            if rollbacks:
                lines.append(f"R{g}{v} : S{g}v{v + 1} -> S{g}v{v} @ 10")
    lines += ["", "[configurations]"]
    count = draw(st.integers(2, 4))
    for index in range(count):
        members = []
        for g, width in enumerate(widths):
            chosen = draw(
                st.one_of(
                    st.integers(0, width - 1).map(lambda v: {v}),
                    st.sets(st.integers(0, width - 1)),
                )
            )
            members += [f"S{g}v{v}" for v in sorted(chosen)]
        if not members:
            members = ["S0v0"]
        lines.append(f"c{index} = " + ",".join(members))
    return "\n".join(lines) + "\n"


@given(text=fleets())
@settings(max_examples=60, deadline=None)
def test_lazy_named_pair_verdicts_match_eager(text):
    """SA205/SA306 by lazy point queries and goal-directed search equal
    the verdicts over the enumerated SAG wherever the lazy search is
    conclusive."""
    eager = lint_text(text, max_enum_components=12)
    lazy = lint_text(text, max_enum_components=3)  # force the lazy path
    assert "SA307" in lazy.codes()
    inconclusive = [
        re.findall(r"'([^']*)'", line)[:2]
        for line in lazy.skipped
        if line.startswith("SA306 inconclusive")
    ]

    def verdicts(report):
        return sorted(
            (d.code, str(d.severity), d.message)
            for d in report
            if d.code in ("SA205", "SA306")
            and not any(
                f"'{a}'" in d.message and f"'{b}'" in d.message
                for a, b in inconclusive
            )
        )

    assert verdicts(eager) == verdicts(lazy)
