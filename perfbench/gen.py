"""Seeded inputs for every workload.

Everything here is a pure function of ``random.Random(seed)``: the same
seed gives byte-identical manifests and request streams.  The program
under test only ever receives the generated texts and request bodies.

Generated systems come in three shapes:

* **replicated video** — ``n`` copies of the paper's video system, built
  by :func:`repro.bench.workloads.replicated_video_system` (3 groups =
  21 components, planned eagerly; 4 groups = 28 components, above the
  24-component cap, planned lazily);
* **fleet** — ``n`` services with three interchangeable variants each
  and a direct replace action between every pair of variants, the shape
  of ``examples/fleet30.manifest``;
* **stress** — :func:`repro.bench.workloads.enumeration_stress_system`,
  the xor shape that defeats three-valued pruning in the enumerator.

Seeds vary costs, which variants or groups change, and the named
configurations; they never vary a manifest's shape, so the lint codes and
path verdicts of each corpus slot are the same for every seed (the
committed expected files in ``perfbench/expected`` rely on that).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ("video", "pipeline", "racing", "fleet30")


def example_text(name: str) -> str:
    return (ROOT / "examples" / f"{name}.manifest").read_text(encoding="utf-8")


# -- fleets ---------------------------------------------------------------------


def fleet_text(
    services: int,
    costs: Sequence[int],
    configurations: Dict[str, Sequence[int]],
    properties: Sequence[Tuple[str, str]] = (),
) -> str:
    """A fleet manifest; *configurations* map a name to one variant per service."""
    lines = [f"# {services}-service fleet, three variants per service", "",
             "[components]"]
    for s in range(services):
        for v in (1, 2, 3):
            lines.append(f"S{s}v{v} @ node{s}")
    lines += ["", "[invariants]"]
    for s in range(services):
        lines.append(
            f"service {s} has exactly one variant : one_of(S{s}v1, S{s}v2, S{s}v3)"
        )
    lines += ["", "[actions]"]
    for s in range(services):
        for a, b in itertools.permutations((1, 2, 3), 2):
            lines.append(f"M{s}{a}{b} : S{s}v{a} -> S{s}v{b} @ {costs[s]}")
    lines += ["", "[configurations]"]
    for name, variants in configurations.items():
        members = ",".join(f"S{s}v{v}" for s, v in enumerate(variants))
        lines.append(f"{name} = {members}")
    if properties:
        lines += ["", "[properties]"]
        lines += [f"{name} : {formula}" for name, formula in properties]
    return "\n".join(lines) + "\n"


def fleet_members(variants: Sequence[int]) -> str:
    return ",".join(f"S{s}v{v}" for s, v in enumerate(variants))


def change_services(
    rng: random.Random, variants: Sequence[int], width: int
) -> List[int]:
    """A copy of *variants* with exactly *width* services moved."""
    out = list(variants)
    for s in rng.sample(range(len(out)), width):
        out[s] = rng.choice([v for v in (1, 2, 3) if v != out[s]])
    return out


# -- replicated video -----------------------------------------------------------

#: per-group safe configurations of the video system and which ordered
#: pairs of them are connected in its SAG (computed once by the oracle)
_VIDEO_GROUP: Optional[Tuple[List[frozenset], Dict[int, List[int]]]] = None


def _video_group():
    global _VIDEO_GROUP
    if _VIDEO_GROUP is None:
        from perfbench.oracle import Spec

        spec = Spec(example_text("video"))
        safe = spec.safe_configurations()
        reach = {
            i: [j for j, b in enumerate(safe)
                if j != i and spec.optimal_cost(a, b) is not None]
            for i, a in enumerate(safe)
        }
        _VIDEO_GROUP = (safe, reach)
    return _VIDEO_GROUP


def video_pair(
    rng: random.Random, groups: int, width: int
) -> Tuple[List[int], List[int]]:
    """Per-group safe-configuration indices for a connected pair.

    *width* groups change (each to a configuration reachable from its
    source); the rest stay put.
    """
    safe, reach = _video_group()
    source = [rng.randrange(len(safe)) for _ in range(groups)]
    while any(not reach[i] for i in source):
        source = [rng.randrange(len(safe)) for _ in range(groups)]
    return source, video_move(rng, source, width)


def video_move(rng: random.Random, source: Sequence[int], width: int) -> List[int]:
    """A target reachable from *source* that differs in *width* groups."""
    _, reach = _video_group()
    target = list(source)
    for g in rng.sample(range(len(source)), width):
        target[g] = rng.choice(reach[source[g]])
    return target


def video_fixed_pair(groups: int) -> Tuple[List[int], List[int]]:
    """A fixed pair: group 0 makes its last possible move, into the
    configuration with no way out, where every other group already is."""
    _, reach = _video_group()
    sink = next(i for i in sorted(reach) if not reach[i])
    source = next(i for i in sorted(reach) if reach[i] == [sink])
    return [source] + [sink] * (groups - 1), [sink] * groups


def video_members(indices: Sequence[int]) -> str:
    safe, _ = _video_group()
    return ",".join(
        f"{name}_g{g}" for g, i in enumerate(indices) for name in sorted(safe[i])
    )


def rename_groups(text: str, groups_of: Sequence[int]) -> str:
    """*text* with every name of group ``g`` renamed to group ``groups_of[g]``."""
    return re.sub(r"_g(\d+)\b", lambda m: f"_g{groups_of[int(m.group(1))]}", text)


def video_text(
    rng: random.Random,
    groups: int,
    configurations: Dict[str, Sequence[int]],
    properties: Sequence[Tuple[str, str]] = (),
) -> str:
    """Replicated video manifest with seeded action costs."""
    from repro.bench.workloads import replicated_video_system
    from repro.core.actions import ActionLibrary, AdaptiveAction
    from repro.manifest import SystemManifest, dumps

    system = replicated_video_system(groups)
    actions = ActionLibrary(
        AdaptiveAction(
            action.action_id, action.removes, action.adds,
            action.cost + rng.randrange(0, 4), action.description,
        )
        for action in system.actions
    )
    manifest = SystemManifest(system.universe, system.invariants, actions)
    text = dumps(manifest).replace("@g", "_g")
    lines = [text.rstrip("\n"), "", "[configurations]"]
    for name, indices in configurations.items():
        lines.append(f"{name} = {video_members(indices)}")
    if properties:
        lines += ["", "[properties]"]
        lines += [f"{name} : {formula}" for name, formula in properties]
    return "\n".join(lines) + "\n"


# -- stress ---------------------------------------------------------------------


def stress_text(rng: random.Random, components: int) -> str:
    """The xor stress system with two seeded safe named configurations.

    Single-component moves stay safe only on components no invariant
    mentions, so ``other`` is ``source`` with those components toggled.
    """
    from repro.bench.workloads import enumeration_stress_system
    from repro.manifest import SystemManifest, dumps

    system = enumeration_stress_system(components)
    names = list(system.universe.order)
    constrained = system.invariants.atoms()
    while True:
        members = frozenset(n for n in names if rng.random() < 0.5)
        if system.invariants.all_hold(members):
            break
    free = [n for n in names if n not in constrained]
    other = members.symmetric_difference(free)
    manifest = SystemManifest(system.universe, system.invariants, system.actions)
    text = dumps(manifest).rstrip("\n")
    # only unconstrained components ever flip, so the anchor keeps its value
    anchor = next(n for n in names if n in constrained)
    kept = anchor if anchor in members else f"!{anchor}"
    return text + "\n\n" + "\n".join([
        "[configurations]",
        f"source = {','.join(sorted(members))}",
        f"other = {','.join(sorted(other))}",
        "",
        "[properties]",
        f"anchored : historically({kept})",
    ]) + "\n"


# -- request bodies -------------------------------------------------------------


def body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()
