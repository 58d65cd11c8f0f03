"""Path-quantified temporal verification over the Safe Adaptation Graph.

Hufflen's reconfiguration-path checking (arXiv:1703.07036) asks whether a
property holds along *sets* of reconfiguration paths, not just the one
path a live trace happens to take.  :func:`verify_paths` decides exactly
that over our SAG: "along **every** (or **some**) k-best safe adaptation
path from S to T, φ holds at each committed configuration".

The quantification domain is the k minimum-cost loopless paths (Yen),
k defaulting to :data:`DEFAULT_K` — the same alternates the §4.4 failure
cascade would re-route through, so a property verified here is verified
for every path the manager may actually commit.

Two execution modes, one verdict semantics:

* **eager** (≤ :data:`~repro.core.planner.LAZY_PLAN_COMPONENTS`
  components): walk :meth:`AdaptationPlanner.plan_k`'s CSR Yen paths;
* **lazy** (above the cap): :meth:`AdaptationPlanner.lazy_plan_k` runs
  the same Yen candidate loop over the :class:`~repro.core.sag.LazySAG`
  frontier with an expansion budget — verdicts are tri-state
  (``holds=None`` when the budget ran out before a decision), and
  early exits still decide exactly: one violating path refutes ∀, one
  satisfying path proves ∃, budget or not.

On failure the counterexample is **minimized to the first violating
prefix**: the returned plan stops at the first committed configuration
where φ is false — the shortest replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.planner import (
    AdaptationPlan,
    AdaptationPlanner,
    plan_route,
)
from repro.ltl.ast import PFormula
from repro.ltl.compile import CompiledProperty

#: default quantification width: "every k-best path" with this k
DEFAULT_K = 8
#: default node budget for one lazy path-set enumeration; exhausting it
#: yields an inconclusive (``holds=None``) verdict, never a wrong one
LAZY_VERIFY_EXPANSIONS = 20_000

_QUANTIFIERS = ("all", "exists")


@dataclass(frozen=True)
class PathVerdict:
    """Outcome of one path-quantified check.

    ``holds`` is tri-state: ``True``/``False`` are proven; ``None``
    means the lazy expansion budget ran out before the path set could be
    enumerated far enough to decide (never emitted by the eager mode).
    """

    holds: Optional[bool]
    quantifier: str
    k: int
    #: paths actually evaluated (≤ k: fewer exist, or early exit decided)
    paths_checked: int
    #: the enumerated path set covered all k-best paths that exist
    complete: bool
    #: "eager" (CSR Yen) or "lazy" (budget-bounded frontier Yen)
    mode: str
    #: ∀-refutation, minimized to the first violating prefix
    counterexample: Optional[AdaptationPlan] = None
    #: index into the counterexample's configurations where φ first fails
    violation_index: Optional[int] = None
    #: ∃-witness: a full path along which φ held at every configuration
    witness: Optional[AdaptationPlan] = None
    reason: str = ""


def check_plan(
    compiled: CompiledProperty,
    planner: AdaptationPlanner,
    plan: AdaptationPlan,
) -> Optional[int]:
    """First index in ``plan.configurations`` violating φ, else ``None``."""
    mask_of = planner.universe.mask_of
    return compiled.first_violation(
        [mask_of(config) for config in plan.configurations]
    )


def _minimized(plan: AdaptationPlan, violation_index: int) -> AdaptationPlan:
    """Truncate a violating plan to its first violating prefix."""
    if violation_index >= len(plan.steps):
        return plan  # the violation is at the final configuration
    steps = plan.steps[:violation_index]
    target = plan.source if not steps else steps[-1].target
    return AdaptationPlan(
        source=plan.source,
        target=target,
        steps=steps,
        total_cost=sum(step.action.cost for step in steps),
    )


def verify_paths(
    planner: AdaptationPlanner,
    source,
    target,
    phi: PFormula,
    quantifier: str = "all",
    k: Optional[int] = None,
    *,
    lazy: Optional[bool] = None,
    max_expansions: Optional[int] = None,
    compiled: Optional[CompiledProperty] = None,
) -> PathVerdict:
    """Decide φ along every/some k-best safe path from *source* to *target*.

    Args:
        planner: the spec's planner (its caches are shared and reused).
        source, target: safe endpoint configurations (unsafe ones raise
            :class:`~repro.errors.UnsafeConfigurationError`).
        phi: the ptLTL property, evaluated at each committed
            configuration along each path (source first).
        quantifier: ``"all"`` (∀ paths) or ``"exists"`` (∃ path).
        k: path-set width; ``None`` means :data:`DEFAULT_K`.
        lazy: force the frontier mode (or eager with ``False``);
            ``None`` routes by universe size exactly as planning does.
        max_expansions: lazy-mode node budget
            (default :data:`LAZY_VERIFY_EXPANSIONS`).
        compiled: a pre-compiled property for this planner's universe
            (the planning service's per-digest cache passes one); must
            have been compiled against ``planner.universe.atom_bits``.

    Returns:
        A :class:`PathVerdict`.  With zero safe paths between the
        endpoints, ∀ holds vacuously and ∃ is false — both stated in
        ``reason``.
    """
    if quantifier not in _QUANTIFIERS:
        raise ValueError(
            f"quantifier must be one of {_QUANTIFIERS}, got {quantifier!r}"
        )
    width = DEFAULT_K if k is None else k
    if width <= 0:
        raise ValueError(f"k must be positive, got {width}")
    if compiled is None:
        compiled = CompiledProperty(phi, planner.universe.atom_bits)
    use_lazy = (
        plan_route("auto", len(planner.universe)) == "lazy"
        if lazy is None
        else lazy
    )
    mode = "lazy" if use_lazy else "eager"
    if use_lazy:
        budget = (
            LAZY_VERIFY_EXPANSIONS if max_expansions is None else max_expansions
        )
        plans, complete = planner.lazy_plan_k(
            source, target, width, max_expansions=budget
        )
    else:
        plans = planner.plan_k(source, target, width)
        complete = True
    return _decide(
        compiled, planner, plans, complete, quantifier, width, mode
    )


def _decide(
    compiled: CompiledProperty,
    planner: AdaptationPlanner,
    plans: Sequence[AdaptationPlan],
    complete: bool,
    quantifier: str,
    width: int,
    mode: str,
) -> PathVerdict:
    checked = 0
    for plan in plans:
        violation = check_plan(compiled, planner, plan)
        checked += 1
        if quantifier == "all" and violation is not None:
            return PathVerdict(
                holds=False,
                quantifier=quantifier,
                k=width,
                paths_checked=checked,
                complete=complete,
                mode=mode,
                counterexample=_minimized(plan, violation),
                violation_index=violation,
                reason=(
                    f"violated on path {checked} "
                    f"(cost {plan.total_cost:g}) at configuration "
                    f"{violation + 1} of {len(plan.configurations)}"
                ),
            )
        if quantifier == "exists" and violation is None:
            return PathVerdict(
                holds=True,
                quantifier=quantifier,
                k=width,
                paths_checked=checked,
                complete=complete,
                mode=mode,
                witness=plan,
                reason=f"path {checked} (cost {plan.total_cost:g}) satisfies φ",
            )
    # no early exit: the verdict rests on having seen the whole path set
    if not complete:
        return PathVerdict(
            holds=None,
            quantifier=quantifier,
            k=width,
            paths_checked=checked,
            complete=False,
            mode=mode,
            reason=(
                f"inconclusive: expansion budget exhausted after "
                f"{checked} path(s)"
            ),
        )
    if not plans:
        reason = "no safe path between the endpoints"
        if quantifier == "all":
            reason += " (holds vacuously)"
        return PathVerdict(
            holds=(quantifier == "all"),
            quantifier=quantifier,
            k=width,
            paths_checked=0,
            complete=True,
            mode=mode,
            reason=reason,
        )
    if quantifier == "all":
        return PathVerdict(
            holds=True,
            quantifier=quantifier,
            k=width,
            paths_checked=checked,
            complete=True,
            mode=mode,
            reason=f"holds along every one of the {checked} best path(s)",
        )
    return PathVerdict(
        holds=False,
        quantifier=quantifier,
        k=width,
        paths_checked=checked,
        complete=True,
        mode=mode,
        reason=f"violated on every one of the {checked} best path(s)",
    )
