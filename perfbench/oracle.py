"""Answer checking that does not use the program's compiled-mask planner.

:class:`Spec` reads a manifest with the program's parser (parsing is not
what is being checked) and then works on plain frozensets:

* safety is the AST evaluator, ``Invariant.holds``;
* optimal plan cost is a brute-force Dijkstra over configurations,
  applying actions as set operations.  The spec is first split into
  independent groups (components linked by a shared invariant or
  action), each group is searched on its own, and the costs add up,
  because an action never touches two groups and safety is the
  conjunction of per-group invariants;
* fleet-shaped specs (one ``one_of`` invariant per service and a direct
  replace action between every pair of variants) use the closed form:
  the cost is the sum, over services that change, of the direct action
  between the two variants.

:meth:`Spec.check_plan` replays a wire plan step by step and returns a
description of the first thing wrong with it, or ``None``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Config = FrozenSet[str]


def parse_label(label: str) -> Config:
    """``"{A,B}"`` → ``frozenset({"A", "B"})`` (the wire configuration form)."""
    inner = label.strip()[1:-1]
    return frozenset(part for part in inner.split(",") if part)


def label(config: Config) -> str:
    return "{" + ",".join(sorted(config)) + "}"


class Spec:
    """Set-based model of one manifest, for checking answers."""

    def __init__(self, text: str):
        from repro.manifest import loads

        manifest = loads(text)
        self.order: Tuple[str, ...] = tuple(manifest.universe.order)
        self.invariants = list(manifest.invariants)
        self.actions: Dict[str, Tuple[Config, Config, float]] = {
            action.action_id: (
                frozenset(action.removes), frozenset(action.adds), action.cost
            )
            for action in manifest.actions
        }
        self.configurations: Dict[str, Config] = {
            name: frozenset(config.members)
            for name, config in manifest.configurations.items()
        }
        self._groups = self._split()
        self._dist: Dict[Tuple[int, Config], Dict[Config, float]] = {}
        self.fleet = self._fleet_costs()

    # -- structure -----------------------------------------------------------
    def _split(self) -> List[Tuple[Config, list, list]]:
        parent = {name: name for name in self.order}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(names) -> None:
            names = [n for n in names if n in parent]
            for other in names[1:]:
                parent[find(other)] = find(names[0])

        for invariant in self.invariants:
            union(sorted(invariant.atoms()))
        for removes, adds, _ in self.actions.values():
            union(sorted(removes | adds))
        members: Dict[str, set] = {}
        for name in self.order:
            members.setdefault(find(name), set()).add(name)
        groups = []
        for names in members.values():
            group = frozenset(names)
            invariants = [i for i in self.invariants if i.atoms() <= group]
            actions = [
                (aid, removes, adds, cost)
                for aid, (removes, adds, cost) in self.actions.items()
                if (removes | adds) <= group
            ]
            groups.append((group, invariants, actions))
        return groups

    def _fleet_costs(self) -> Optional[Dict[Tuple[str, str], float]]:
        """Direct replace costs when the spec is fleet-shaped, else None."""
        direct: Dict[Tuple[str, str], float] = {}
        for group, invariants, actions in self._groups:
            if len(group) != 3 or len(invariants) != 1:
                return None
            if len(actions) != 6 or any(
                len(removes) != 1 or len(adds) != 1
                for _, removes, adds, _ in actions
            ):
                return None
            for _, removes, adds, cost in actions:
                (old,), (new,) = tuple(removes), tuple(adds)
                direct[(old, new)] = cost
        return direct

    # -- semantics -----------------------------------------------------------
    def safe(self, config: Config) -> bool:
        return all(invariant.holds(config) for invariant in self.invariants)

    @staticmethod
    def _apply(config: Config, removes: Config, adds: Config) -> Optional[Config]:
        if not removes <= config or (adds - removes) & config:
            return None
        return (config - removes) | adds

    def safe_configurations(self) -> List[Config]:
        """Every safe configuration, by brute force (small specs only)."""
        out = []
        for bits in itertools.product((False, True), repeat=len(self.order)):
            config = frozenset(n for n, b in zip(self.order, bits) if b)
            if self.safe(config):
                out.append(config)
        return out

    def _distances(self, index: int, source: Config) -> Dict[Config, float]:
        key = (index, source)
        dist = self._dist.get(key)
        if dist is not None:
            return dist
        _, invariants, actions = self._groups[index]
        dist = {source: 0.0}
        counter = itertools.count()
        heap = [(0.0, next(counter), source)]
        while heap:
            d, _, config = heapq.heappop(heap)
            if d > dist[config]:
                continue
            for _, removes, adds, cost in actions:
                nxt = self._apply(config, removes, adds)
                if nxt is None or not all(i.holds(nxt) for i in invariants):
                    continue
                nd = d + cost
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, next(counter), nxt))
        self._dist[key] = dist
        return dist

    def optimal_cost(self, source: Config, target: Config) -> Optional[float]:
        """Minimum adaptation cost, or None when *target* is unreachable."""
        if self.fleet is not None:
            return sum(
                self.fleet[(old, new)]
                for old, new in self._fleet_moves(source, target)
            )
        total = 0.0
        for index, (group, _, _) in enumerate(self._groups):
            dist = self._distances(index, source & group)
            cost = dist.get(target & group)
            if cost is None:
                return None
            total += cost
        return total

    def _fleet_moves(self, source: Config, target: Config):
        for group, _, _ in self._groups:
            (old,) = tuple(source & group)
            (new,) = tuple(target & group)
            if old != new:
                yield old, new

    # -- answer checks ---------------------------------------------------------
    def replay(
        self, source: Config, target: Config, action_ids: Sequence[str],
        steps: Optional[Sequence[dict]] = None,
    ) -> Tuple[Optional[str], float]:
        """Apply *action_ids* from *source*; (problem or None, total cost)."""
        config = source
        if not self.safe(config):
            return "source configuration is unsafe", 0.0
        total = 0.0
        for index, action_id in enumerate(action_ids):
            if action_id not in self.actions:
                return f"step {index}: unknown action {action_id}", total
            removes, adds, cost = self.actions[action_id]
            nxt = self._apply(config, removes, adds)
            if nxt is None:
                return f"step {index}: {action_id} does not apply", total
            if not self.safe(nxt):
                return f"step {index}: {action_id} commits an unsafe configuration", total
            if steps is not None:
                step = steps[index]
                if parse_label(step["source"]) != config or parse_label(
                    step["target"]
                ) != nxt:
                    return f"step {index}: reported configurations differ", total
            config = nxt
            total += cost
        if config != target:
            return f"plan ends at {label(config)}, not at {label(target)}", total
        return None, total

    def check_plan(
        self, result: dict, source: Config, target: Config
    ) -> Optional[str]:
        """Check one ``/v1/plan`` result payload against the oracle."""
        plan = result["plan"]
        if parse_label(plan["source"]) != source:
            return "plan starts at the wrong configuration"
        steps = plan["steps"]
        problem, total = self.replay(
            source, target, [step["action"] for step in steps], steps
        )
        if problem is not None:
            return problem
        optimum = self.optimal_cost(source, target)
        if optimum is None:
            return "oracle finds no safe path"
        if abs(total - plan["cost"]) > 1e-9 or abs(total - optimum) > 1e-9:
            return f"cost {plan['cost']} is not the optimum {optimum}"
        alternates = result.get("alternates") or []
        previous = None
        for alternate in alternates:
            actions, cost = alternate["actions"], alternate["cost"]
            problem, alt_total = self.replay(source, target, actions)
            if problem is not None:
                return f"alternate {actions}: {problem}"
            if abs(alt_total - cost) > 1e-9:
                return f"alternate {actions} reports cost {cost}, replays {alt_total}"
            if previous is not None and cost < previous - 1e-9:
                return "alternates are not in cost order"
            previous = cost
        if alternates and abs(alternates[0]["cost"] - optimum) > 1e-9:
            return "first alternate is not optimal"
        return None
