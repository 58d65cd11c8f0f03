"""The Safe Adaptation Graph (paper §3.1, §4.2 step 2).

"We can construct a safe adaptation graph (SAG), where vertices are all
safe configurations and arcs are all possible adaptation steps connecting
safe configurations."  An arc (config1, config2) exists iff both endpoints
are safe and some adaptive action maps config1 to config2; the arc weight
is that action's cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.model import Configuration
from repro.core.space import SafeConfigurationSpace
from repro.graphs import CSRGraph, Digraph


class LazySAG:
    """Frontier successor generator over the *implicit* SAG (§7).

    Expands ``(config, action)`` neighbors incrementally: for a safe
    mask, :meth:`successors` yields the ``(action_id, cost, next_mask)``
    arcs that :meth:`SafeAdaptationGraph.build` would insert for that
    vertex — same arcs, same action-library order — without ever
    enumerating the safe space or materializing the graph.  A search
    driven by this generator therefore relaxes edges in exactly the
    sequence the eager CSR solver does, which is what makes
    :meth:`AdaptationPlanner.lazy_plan
    <repro.core.planner.AdaptationPlanner.lazy_plan>`'s tie-breaking
    provably identical to the eager path.

    Actions touching components outside the universe are skipped up
    front, exactly as the eager build skips them (their result always
    leaves the universe, so they can never connect two vertices).

    Per-mask adjacency is cached: the A* probe and the exact replay in
    ``lazy_plan`` pay the applicability/safety checks once per frontier
    node, and repeated point queries against the same spec stay warm.
    *space* may be an eager :class:`SafeConfigurationSpace` or a
    :class:`~repro.core.space.LazySafeSpace` — anything with a
    ``universe`` and the memoized ``is_safe_mask`` /
    ``are_safe_masks`` query pair.
    """

    def __init__(self, space, actions: ActionLibrary):
        self._space = space
        self._actions = actions
        self.universe = space.universe
        self._arc_specs = tuple(
            (action.action_id, action.cost, masked)
            for masked, action in zip(actions.compiled_for(self.universe), actions)
            if masked is not None
        )
        self._adjacency: Dict[int, Tuple[Tuple[str, float, int], ...]] = {}

    @property
    def expanded_nodes(self) -> int:
        """Distinct masks whose adjacency has been generated so far."""
        return len(self._adjacency)

    def successors(self, mask: int) -> Tuple[Tuple[str, float, int], ...]:
        """Outgoing arcs of *mask*, in SAG edge-insertion order (cached).

        Applicability is resolved per action, then the surviving result
        masks are safety-checked in **one batched**
        :meth:`~repro.core.space.SafeConfigurationSpace.are_safe_masks`
        call — same verdicts, same arc order, one memo/closure dispatch
        per expansion instead of one per candidate arc.
        """
        cached = self._adjacency.get(mask)
        if cached is None:
            candidates = []
            for action_id, cost, masked in self._arc_specs:
                required = masked.required
                if (mask & required) == required and not (mask & masked.forbidden):
                    result = (mask & ~masked.clear) | masked.set_bits
                    candidates.append((action_id, cost, result))
            verdicts = self._space.are_safe_masks(
                [candidate[2] for candidate in candidates]
            )
            cached = tuple(
                candidate
                for candidate, safe in zip(candidates, verdicts)
                if safe
            )
            self._adjacency[mask] = cached
        return cached

    def banned_view(self, banned_nodes, banned_arcs):
        """A successor function skipping banned masks and banned arcs.

        *banned_nodes* is a set of masks, *banned_arcs* a set of
        ``(source_mask, action_id)`` pairs — exactly the sets the shared
        Yen loop :func:`repro.graphs.csr.yen` hands each spur query.  An
        action id identifies at most one arc out of a given mask, so the
        pair bans what the CSR spur bans by converting it to the edge ids
        with that label.  Filtering preserves the underlying arc order,
        so a search driven by the view relaxes the surviving edges in the
        same sequence the eager banned-set Dijkstra does; the per-mask
        adjacency cache is shared with unfiltered traversals.
        """
        if not banned_nodes and not banned_arcs:
            return self.successors
        successors = self.successors

        def view(mask: int):
            for action_id, cost, result in successors(mask):
                if result in banned_nodes or (mask, action_id) in banned_arcs:
                    continue
                yield action_id, cost, result

        return view


class SafeAdaptationGraph:
    """SAG over safe configurations with adaptive-action labelled arcs."""

    def __init__(self, graph: Digraph, actions: ActionLibrary):
        self._graph = graph
        self._actions = actions
        self._csr: Optional[CSRGraph] = None

    @classmethod
    def build(
        cls,
        space: SafeConfigurationSpace,
        actions: ActionLibrary,
    ) -> "SafeAdaptationGraph":
        """Materialize the SAG over the full safe set ``space.enumerate()``.

        Args:
            space: the safe-configuration space (provides vertices and the
                safety test for action results).
            actions: the available adaptive actions (provide the arcs).
        """
        vertices = space.enumerate()
        graph: Digraph = Digraph()
        for config in vertices:
            graph.add_node(config)
        universe = space.universe
        vertex_masks = [universe.mask_of(config) for config in vertices]
        # The O(|V|·|A|) loop runs on precompiled integer masks —
        # applicability, application, and the target lookup are each a
        # couple of int ops.  Actions touching components outside the
        # universe can never connect two vertices (their result always
        # leaves the universe), so they are skipped.
        config_by_mask = dict(zip(vertex_masks, vertices))
        masked_actions = [
            (masked, action)
            for masked, action in zip(actions.compiled_for(universe), actions)
            if masked is not None
        ]
        add_edge = graph.add_edge
        get_target = config_by_mask.get
        for config, mask in zip(vertices, vertex_masks):
            for masked, action in masked_actions:
                required = masked.required
                if (mask & required) == required and not (mask & masked.forbidden):
                    target = get_target((mask & ~masked.clear) | masked.set_bits)
                    if target is not None:
                        add_edge(config, target, action.action_id, action.cost)
        return cls(graph, actions)

    # -- structure -------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        return self._graph

    @property
    def csr(self) -> CSRGraph:
        """The graph compiled to CSR arrays (built once, then cached).

        The SAG is frozen after :meth:`build`, so the compiled view never
        goes stale; planners drop the whole SAG (and this view with it)
        when the spec changes.
        """
        if self._csr is None:
            self._csr = CSRGraph.from_digraph(self._graph)
        return self._csr

    @property
    def actions(self) -> ActionLibrary:
        return self._actions

    @property
    def node_count(self) -> int:
        return self._graph.node_count

    @property
    def edge_count(self) -> int:
        return self._graph.edge_count

    def __contains__(self, config: Configuration) -> bool:
        return config in self._graph

    def steps_from(self, config: Configuration) -> Tuple[Tuple[AdaptiveAction, Configuration], ...]:
        """Outgoing adaptation steps: (action, resulting configuration)."""
        return tuple(
            (self._actions.get(edge.label), edge.target)
            for edge in self._graph.out_edges(config)
        )

    def has_step(self, source: Configuration, target: Configuration) -> bool:
        return self._graph.has_edge(source, target)

    def step_actions(self, source: Configuration, target: Configuration) -> Tuple[str, ...]:
        """Ids of every action realizing the arc source→target (parallel arcs)."""
        return self._graph.edge_labels(source, target)

    def edge_list(self) -> List[Tuple[Configuration, str, Configuration]]:
        """All arcs as (source, action id, target), deterministic order."""
        return [
            (edge.source, edge.label, edge.target) for edge in self._graph.edges()
        ]

    def to_dot(
        self,
        universe=None,
        highlight_path: Optional[Iterable[Tuple[Configuration, str, Configuration]]] = None,
        title: str = "Safe Adaptation Graph",
    ) -> str:
        """Render the SAG in Graphviz DOT — a regeneration of Figure 4.

        Args:
            universe: optional :class:`ComponentUniverse` for bit-vector
                node labels (member-list labels otherwise).
            highlight_path: arcs to emphasize (e.g. the MAP's
                ``(source, action id, target)`` triples).
            title: graph label.
        """
        def node_label(config: Configuration) -> str:
            if universe is not None:
                return f"{universe.to_bits(config)}\\n{config.label()}"
            return config.label()

        def node_id(config: Configuration) -> str:
            if universe is not None:
                return f"n{universe.to_bits(config)}"
            return "n" + "_".join(sorted(config.members))

        highlighted = set()
        for src, action_id, dst in highlight_path or ():
            highlighted.add((src, action_id, dst))
        lines = [
            "digraph SAG {",
            f'  label="{title}";',
            "  rankdir=LR;",
            '  node [shape=box, style=rounded, fontname="Helvetica"];',
        ]
        for config in sorted(self._graph.nodes(), key=lambda c: sorted(c.members)):
            lines.append(f'  {node_id(config)} [label="{node_label(config)}"];')
        for edge in self._graph.edges():
            action = self._actions.get(edge.label)
            style = ""
            if (edge.source, edge.label, edge.target) in highlighted:
                style = ", color=red, penwidth=2.5, fontcolor=red"
            lines.append(
                f"  {node_id(edge.source)} -> {node_id(edge.target)} "
                f'[label="{edge.label} ({action.cost:g})"{style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SafeAdaptationGraph(nodes={self.node_count}, edges={self.edge_count})"
