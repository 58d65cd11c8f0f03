"""SA6xx: interference between concurrent adaptive actions.

The paper's management protocol serializes adaptive actions under one
manager, but a distributed deployment runs one manager per collaborative
set — two actions whose sets are disjoint *may* commit concurrently.
This stage asks, per unordered action pair, whether that concurrency is
observable:

* **SA601 (non-commutative pair)** — a safe configuration exists where
  both actions are applicable but the two firing orders are not
  interchangeable: one order commits safely while the other exits the
  safe space or blocks, or both complete but end in different
  configurations.  The witness is minimized (fewest components, then
  lowest mask) so the message shows the smallest racing scenario.
* **SA602 (blocking-window overlap)** — the pair's participant sets
  intersect and jointly cover every process: if their §6 blocking
  windows overlap, no process anywhere stays available.  Purely a
  library/process check, so it survives the enumeration cap.
* **SA603 (lost-inverse race)** — in the order that commits safely, the
  first action's declared inverse restores safety right after it
  commits, but stops being viable once the concurrent partner also
  commits: §4.4 rollback would strand the system.  Reported instead of
  SA601 for the pair (it is the sharper diagnosis).
* **SA604 (conflicting-touch race)** — one action switches on a
  component the other switches off, so the two composed transformers
  differ *algebraically*: commit order changes the outcome from every
  configuration.  Such pairs can never share a safe source (the shared
  component would need to be present and absent at once), which is
  exactly why the check needs no state enumeration.
* **SA605 (note)** — above the enumeration cap (or past the pair-source
  budget) the stateful checks fall back to the manifest's named safe
  configurations via lazy point queries; pairs with no named witness
  are inconclusive, and the restriction is recorded once.

Pairs declared in the manifest's ``[conflicts]`` section are skipped by
every check: declaring the pair serializes it (the planner unions both
touched sets into one collaborative set), which is also the machine
fix attached to each SA601/SA602/SA603/SA604 finding.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.actions import MaskedAction
from repro.lint.diagnostics import LintReport, Related
from repro.lint.fixes import Fix, append_fix

#: bound on (action pairs) x (candidate sources) combinations explored by
#: the stateful checks; past it the stage degrades to named-configuration
#: sources and notes the restriction via SA605
MAX_PAIR_SOURCES = 2_000_000


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class _Witness:
    """Best (most specific, then smallest) finding for one pair."""

    #: kind priority: the sharper diagnosis wins the pair
    PRIORITY = {"lost-inverse": 3, "divergent": 2, "order": 1}

    def __init__(self) -> None:
        self.kind: Optional[str] = None
        self.source = 0
        self.payload: Tuple = ()

    def offer(self, kind: str, source: int, payload: Tuple) -> None:
        if self.kind is not None:
            mine, theirs = self.PRIORITY[self.kind], self.PRIORITY[kind]
            if theirs < mine:
                return
            if theirs == mine and (
                (_popcount(source), source)
                >= (_popcount(self.source), self.source)
            ):
                return
        self.kind = kind
        self.source = source
        self.payload = payload


def _run_order(
    first: MaskedAction,
    second: MaskedAction,
    mask: int,
    is_safe: Callable[[int], bool],
) -> Tuple[bool, int, str]:
    """Fire *first* then *second* from *mask* (both applicable at *mask*).

    Returns ``(completed, last_mask, failure)`` where *failure* names the
    step that exited the safe space or blocked.
    """
    mid = first.apply_mask(mask)
    first_id = first.action.action_id
    second_id = second.action.action_id
    if not is_safe(mid):
        return False, mid, f"exits the safe space once {first_id!r} commits"
    if not second.is_applicable_mask(mid):
        return (
            False,
            mid,
            f"blocks: {second_id!r} is no longer applicable after "
            f"{first_id!r}",
        )
    final = second.apply_mask(mid)
    if not is_safe(final):
        return (
            False,
            final,
            f"exits the safe space once {second_id!r} also commits",
        )
    return True, final, ""


def _inverse_lost(
    inverse: Optional[MaskedAction],
    after_first: int,
    after_both: int,
    is_safe: Callable[[int], bool],
) -> bool:
    """True iff the declared inverse is viable at *after_first* but not
    once the concurrent partner commits (*after_both*)."""
    if inverse is None:
        return False

    def viable(mask: int) -> bool:
        return inverse.is_applicable_mask(mask) and is_safe(
            inverse.apply_mask(mask)
        )

    return viable(after_first) and not viable(after_both)


def check_interference(
    model,
    report: LintReport,
    path: Optional[str],
    action_info: Optional[Tuple[Sequence[int], FrozenSet[int]]],
    space,
    *,
    cap_exceeded: bool = False,
    line_count: int = 0,
    fixes_enabled: bool = False,
) -> None:
    """Run the SA6xx pair checks over the surviving model.

    *action_info* is ``(safe_masks, safe_set)`` from the eager SA3xx
    enumeration, or ``None`` when that stage did not enumerate (empty
    safe space, or *cap_exceeded* above the component cap).  *space* is
    the lint planner's safe space; the restricted fallback asks it the
    safety of named configurations and of the masks the races reach.
    """
    items = model.actions
    if len(items) < 2:
        return
    universe = model.universe
    bits = universe.atom_bits
    declared: Set[FrozenSet[str]] = {
        frozenset(pair) for pair in getattr(model, "conflicts", ())
    }

    masked = {
        item.action.action_id: MaskedAction(item.action, bits)
        for item in items
    }
    # Declared-inverse lookup for SA603 (same key as the SA304 check).
    by_delta = {
        (item.action.removes, item.action.adds): item for item in items
    }

    _check_blocking_overlap(model, report, path, declared, line_count, fixes_enabled)
    _check_conflicting_touch(
        model, report, path, masked, declared, line_count, fixes_enabled
    )

    pairs = len(items) * (len(items) - 1) // 2
    sources: Sequence[int] = ()
    is_safe: Optional[Callable[[int], bool]] = None
    restricted_reason = ""
    if action_info is not None:
        safe_masks, safe_set = action_info
        if pairs * len(safe_masks) <= MAX_PAIR_SOURCES:
            sources = safe_masks
            is_safe = safe_set.__contains__
        else:
            restricted_reason = (
                f"{pairs} pair(s) x {len(safe_masks)} safe configuration(s) "
                f"exceed the {MAX_PAIR_SOURCES} pair-source budget"
            )
    elif cap_exceeded:
        restricted_reason = (
            f"{len(universe)} components exceed the enumeration cap"
        )
    else:
        # Empty safe space: SA203 already reported; nothing to race over.
        return

    if restricted_reason:
        is_safe = space.is_safe_mask
        candidates: List[int] = []
        for cfg_item in model.configurations:
            try:
                mask = universe.mask_of(cfg_item.configuration)
            except Exception:
                continue
            if mask not in candidates:
                candidates.append(mask)
        # one batched safety screen over the named configurations
        named: List[int] = [
            mask
            for mask, safe in zip(candidates, space.are_safe_masks(candidates))
            if safe
        ]
        sources = named
        report.add(
            "SA605",
            f"SA601/SA603 interference analysis restricted to the "
            f"{len(named)} named safe configuration(s): "
            f"{restricted_reason} — pairs with no named witness are "
            "inconclusive, not clean",
            model.section_span("actions"),
            path,
        )
        report.skipped.append(
            f"SA601/SA603 restricted to named configurations: "
            f"{restricted_reason}"
        )

    if not sources or is_safe is None:
        return

    # Per action, the sources it is applicable from (in *sources*
    # order): a pair can only race from a source in both lists.
    applicable_from: Dict[str, Tuple[List[int], Set[int]]] = {}
    for aid, action in masked.items():
        applicable = [mask for mask in sources if action.is_applicable_mask(mask)]
        applicable_from[aid] = (applicable, set(applicable))

    for index, x_item in enumerate(items):
        mx = masked[x_item.action.action_id]
        inv_x = by_delta.get((x_item.action.adds, x_item.action.removes))
        x_list, x_set = applicable_from[x_item.action.action_id]
        for y_item in items[index + 1 :]:
            xid = x_item.action.action_id
            yid = y_item.action.action_id
            if frozenset((xid, yid)) in declared:
                continue
            my = masked[yid]
            inv_y = by_delta.get((y_item.action.adds, y_item.action.removes))
            y_list, y_set = applicable_from[yid]
            if len(x_list) <= len(y_list):
                shared = [mask for mask in x_list if mask in y_set]
            else:
                shared = [mask for mask in y_list if mask in x_set]
            witness = _Witness()
            for mask in shared:
                ok_xy, final_xy, fail_xy = _run_order(mx, my, mask, is_safe)
                ok_yx, final_yx, fail_yx = _run_order(my, mx, mask, is_safe)
                if ok_xy and ok_yx:
                    if final_xy != final_yx:
                        witness.offer(
                            "divergent", mask, (final_xy, final_yx)
                        )
                    continue
                if not ok_xy and not ok_yx:
                    continue  # the race cannot start from here
                # Exactly one order completes: (p, q) is the safe order.
                if ok_xy:
                    p_item, q_item, final, fail = x_item, y_item, final_xy, fail_yx
                    inv_p, mp, mq = inv_x, mx, my
                else:
                    p_item, q_item, final, fail = y_item, x_item, final_yx, fail_xy
                    inv_p, mp, mq = inv_y, my, mx
                inverse = None if inv_p is None else masked[inv_p.action.action_id]
                if inverse is not None and inverse is not mq:
                    after_p = mp.apply_mask(mask)
                    if _inverse_lost(inverse, after_p, final, is_safe):
                        witness.offer(
                            "lost-inverse",
                            mask,
                            (p_item, q_item, inv_p, final),
                        )
                        continue
                witness.offer("order", mask, (p_item, q_item, final, fail))
            if witness.kind is None:
                continue
            _report_pair_witness(
                model,
                report,
                path,
                x_item,
                y_item,
                witness,
                line_count,
                fixes_enabled,
            )


def _describe(universe, mask: int) -> str:
    config = universe.from_mask(mask)
    return f"{universe.to_bits(config)} {config.label()}"


def _serialize_fixes(
    first_id: str,
    second_id: str,
    line_count: int,
    fixes_enabled: bool,
) -> Tuple[Fix, ...]:
    """The machine fix: append a ``[conflicts]`` entry for the pair."""
    if not fixes_enabled or line_count <= 0:
        return ()
    low, high = sorted((first_id, second_id))
    block = f"\n[conflicts]\n{low}_{high} : {low} {high}\n"
    return (
        append_fix(
            f"serialize {low!r} and {high!r} via a [conflicts] entry",
            line_count,
            block,
        ),
    )


def _report_pair_witness(
    model,
    report: LintReport,
    path: Optional[str],
    x_item,
    y_item,
    witness: _Witness,
    line_count: int,
    fixes_enabled: bool,
) -> None:
    universe = model.universe
    xid = x_item.action.action_id
    yid = y_item.action.action_id
    source = _describe(universe, witness.source)
    fixes = _serialize_fixes(xid, yid, line_count, fixes_enabled)
    if witness.kind == "divergent":
        final_xy, final_yx = witness.payload
        report.add(
            "SA601",
            f"actions {xid!r} and {yid!r} do not commute: from safe "
            f"configuration {source} the order {xid!r}, {yid!r} ends at "
            f"{_describe(universe, final_xy)} but {yid!r}, {xid!r} ends "
            f"at {_describe(universe, final_yx)} — concurrent managers "
            "must serialize the pair",
            x_item.span,
            path,
            related=[Related("races with this action", y_item.span)],
            fixes=fixes,
        )
    elif witness.kind == "order":
        p_item, q_item, final, fail = witness.payload
        pid = p_item.action.action_id
        qid = q_item.action.action_id
        report.add(
            "SA601",
            f"actions {xid!r} and {yid!r} race: from safe configuration "
            f"{source} the order {pid!r}, {qid!r} commits safely to "
            f"{_describe(universe, final)}, but the order {qid!r}, "
            f"{pid!r} {fail} — concurrent managers must serialize the "
            "pair",
            x_item.span,
            path,
            related=[Related("races with this action", y_item.span)],
            fixes=fixes,
        )
    else:  # lost-inverse
        p_item, q_item, inv_item, final = witness.payload
        pid = p_item.action.action_id
        qid = q_item.action.action_id
        inv_id = inv_item.action.action_id
        report.add(
            "SA603",
            f"lost-inverse race between {xid!r} and {yid!r}: from safe "
            f"configuration {source}, right after {pid!r} commits its "
            f"declared inverse {inv_id!r} still restores safety, but "
            f"once concurrent {qid!r} also commits "
            f"({_describe(universe, final)}) the inverse is no longer "
            "viable — planned rollback would strand the system",
            x_item.span,
            path,
            related=[
                Related("races with this action", q_item.span),
                Related("the stranded inverse", inv_item.span),
            ],
            fixes=fixes,
        )


def _check_blocking_overlap(
    model,
    report: LintReport,
    path: Optional[str],
    declared: Set[FrozenSet[str]],
    line_count: int,
    fixes_enabled: bool,
) -> None:
    """SA602: pairs whose blocking windows jointly freeze every process.

    Actions that alone block every process are SA402's finding; here the
    hazard needs *both* windows open at once, so single-handed blockers
    are excluded.  Library/process-only: survives the enumeration cap.
    """
    universe = model.universe
    all_processes = frozenset(universe.processes())
    if len(all_processes) < 2:
        return
    participants = [
        (item, item.action.participants(universe)) for item in model.actions
    ]
    for index, (x_item, px) in enumerate(participants):
        if px == all_processes:
            continue
        for y_item, py in participants[index + 1 :]:
            if py == all_processes:
                continue
            xid = x_item.action.action_id
            yid = y_item.action.action_id
            if frozenset((xid, yid)) in declared:
                continue
            if not (px & py) or (px | py) != all_processes:
                continue
            shared = ", ".join(sorted(px & py))
            report.add(
                "SA602",
                f"blocking-window overlap between {xid!r} and {yid!r}: "
                f"their participant sets intersect (shared: {shared}) and "
                f"together cover every process "
                f"({', '.join(sorted(all_processes))}) — if their blocking "
                "windows overlap, no process anywhere stays available",
                x_item.span,
                path,
                related=[Related("overlapping blocker", y_item.span)],
                fixes=_serialize_fixes(xid, yid, line_count, fixes_enabled),
            )


def _check_conflicting_touch(
    model,
    report: LintReport,
    path: Optional[str],
    masked: Dict[str, MaskedAction],
    declared: Set[FrozenSet[str]],
    line_count: int,
    fixes_enabled: bool,
) -> None:
    """SA604: algebraically non-commuting pairs (set/clear collision).

    Firing x then y composes to ``clear (cx|cy), set (sx&~cy)|sy``; the
    reverse order sets ``(sy&~cx)|sx``.  When one action switches on a
    bit the other switches off, those differ for *every* start mask —
    no enumeration needed, so the check is cap-proof.  Mutual inverses
    are excluded: their conflict is definitional, and the pair already
    has SA304/rollback semantics.
    """
    universe = model.universe
    items = model.actions
    for index, x_item in enumerate(items):
        x = x_item.action
        mx = masked[x.action_id]
        for y_item in items[index + 1 :]:
            y = y_item.action
            if x.removes == y.adds and x.adds == y.removes:
                continue
            if frozenset((x.action_id, y.action_id)) in declared:
                continue
            my = masked[y.action_id]
            collide = (mx.set_bits & my.clear) | (my.set_bits & mx.clear)
            if not collide:
                continue
            set_xy = (mx.set_bits & ~my.clear) | my.set_bits
            set_yx = (my.set_bits & ~mx.clear) | mx.set_bits
            if set_xy == set_yx:
                continue
            disputed = sorted(
                name
                for name in universe.order
                if universe.bit_of(name) & collide
            )
            report.add(
                "SA604",
                f"conflicting-touch race between {x.action_id!r} and "
                f"{y.action_id!r}: commit order decides whether "
                f"{', '.join(disputed)} end(s) up present — the composed "
                "outcomes differ from every configuration, independent "
                "of state",
                x_item.span,
                path,
                related=[Related("conflicting action", y_item.span)],
                fixes=_serialize_fixes(
                    x.action_id, y.action_id, line_count, fixes_enabled
                ),
            )
