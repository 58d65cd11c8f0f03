"""CSR-compiled graph kernel: the amortized query engine over a frozen graph.

A :class:`Digraph` answers one shortest-path query fine, but serving many
``(source, target)`` requests against one Safe Adaptation Graph pays dict
hashing and node interning on every call.  :class:`CSRGraph` compiles a
*frozen* digraph once into int-indexed compressed-sparse-row arrays —
``offsets``/``targets``/``weights`` over the outbound edges — so every
search runs on machine scalars and array indexing.

Kernels provided:

* :func:`csr_dijkstra` — scalar-heap Dijkstra over node indices, with the
  **same deterministic tie-break** as :func:`repro.graphs.dijkstra.dijkstra`
  (cost, then hop count, then relaxation order): the property suite pins
  distances *and* predecessor paths to the dict-graph reference.
* :meth:`CSRGraph.shortest_path_tree` — a single-source shortest-path
  *tree* (:class:`ShortestPathTree`); each subsequent ``path_to(target)``
  is O(path length).  This is what makes batched multi-source MAP solving
  amortized: one tree serves every request that shares its source.
* :func:`yen` — Yen's k shortest loopless paths over a caller-supplied
  spur query; the one candidate loop shared by the CSR and the lazy
  k-best planners.
* :func:`k_shortest_paths_csr` — :func:`yen` with banned-set Dijkstra
  spur queries instead of pruned graph copies; output is identical to
  :func:`repro.graphs.yen.k_shortest_paths`.

Optional ``banned_nodes``/``banned_edges`` sets on the Dijkstra kernel
subtract vertices and ``(source, label)`` arcs without copying the graph —
the CSR replacement for :meth:`Digraph.subgraph_without`.
"""

from __future__ import annotations

import heapq
from array import array
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.graphs.digraph import Digraph, Edge
from repro.graphs.dijkstra import Path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)

_INF = float("inf")


class CSRGraph(Generic[N, L]):
    """A frozen digraph compiled to compressed-sparse-row arrays.

    Node objects are interned once at compile time; all kernels run over
    dense int indices.  Per-source edge order preserves the digraph's
    insertion order, which is what keeps every tie-break bit-identical to
    the dict-graph algorithms.
    """

    __slots__ = (
        "nodes",
        "index_of",
        "offsets",
        "targets",
        "weights",
        "edge_objects",
        "_label_cache",
    )

    def __init__(
        self,
        nodes: Tuple[N, ...],
        index_of: Dict[N, int],
        offsets: array,
        targets: array,
        weights: array,
        edge_objects: Tuple[Edge[N, L], ...],
    ):
        self.nodes = nodes
        self.index_of = index_of
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.edge_objects = edge_objects
        self._label_cache: Dict[Tuple[int, L], Tuple[int, ...]] = {}

    @classmethod
    def from_digraph(cls, graph: Digraph[N, L]) -> "CSRGraph[N, L]":
        """Compile *graph*; node indices follow its insertion order."""
        nodes = tuple(graph.nodes())
        index_of = {node: i for i, node in enumerate(nodes)}
        offsets = array("q", [0])
        targets = array("q")
        weights = array("d")
        edge_objects: List[Edge[N, L]] = []
        for node in nodes:
            for edge in graph.adjacency(node):
                targets.append(index_of[edge.target])
                weights.append(edge.weight)
                edge_objects.append(edge)
            offsets.append(len(edge_objects))
        return cls(nodes, index_of, offsets, targets, weights, tuple(edge_objects))

    # -- structure -------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edge_objects)

    def __contains__(self, node: N) -> bool:
        return node in self.index_of

    def edge_source_index(self, edge_id: int) -> int:
        return self.index_of[self.edge_objects[edge_id].source]

    def edges_labelled(self, source_index: int, label: L) -> Tuple[int, ...]:
        """Ids of the parallel arcs from *source_index* carrying *label*.

        Cached: Yen bans the same ``(source, label)`` pairs across many
        spur queries.
        """
        key = (source_index, label)
        cached = self._label_cache.get(key)
        if cached is None:
            cached = tuple(
                edge_id
                for edge_id in range(
                    self.offsets[source_index], self.offsets[source_index + 1]
                )
                if self.edge_objects[edge_id].label == label
            )
            self._label_cache[key] = cached
        return cached

    # -- query front ends --------------------------------------------------------
    def shortest_path_tree(self, source: N) -> "ShortestPathTree[N, L]":
        """Single-source shortest-path tree rooted at *source*."""
        source_index = self.index_of[source]
        dist, hops, pred = csr_dijkstra(self, source_index)
        return ShortestPathTree(self, source_index, dist, hops, pred)

    def shortest_path(self, source: N, target: N) -> Optional[Path[N, L]]:
        """Point-to-point query with early termination at *target*.

        Identical output to :func:`repro.graphs.dijkstra.shortest_path`
        on the uncompiled graph.
        """
        source_index = self.index_of[source]
        target_index = self.index_of[target]
        if source_index == target_index:
            return Path(nodes=(source,), edges=(), cost=0.0)
        dist, _, pred = csr_dijkstra(self, source_index, target=target_index)
        return reconstruct_path(self, source_index, target_index, dist, pred)


def csr_dijkstra(
    csr: CSRGraph[N, L],
    source_index: int,
    target: Optional[int] = None,
    banned_nodes: Optional[AbstractSet[int]] = None,
    banned_edges: Optional[AbstractSet[int]] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """Scalar-heap Dijkstra over node indices.

    Returns ``(dist, hops, pred)`` arrays indexed by node: minimal cost
    (``inf`` if unreached), hop count of the chosen minimal path, and the
    edge id of its final edge (-1 at the source and unreached nodes).

    The relaxation rule replicates :func:`repro.graphs.dijkstra.dijkstra`
    exactly — prefer lower cost, then fewer hops, then earlier relaxation
    order — so predecessor trees match the dict-graph reference node for
    node.  *banned_nodes*/*banned_edges* subtract vertices and edge ids
    without touching the arrays (Yen's spur queries).
    """
    n = csr.node_count
    dist = [_INF] * n
    hops = [0] * n
    pred = [-1] * n
    settled = bytearray(n)
    offsets = csr.offsets
    targets = csr.targets
    weights = csr.weights
    dist[source_index] = 0.0
    counter = 0
    heap: list = [(0.0, 0, counter, source_index)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        cost, nhops, _, index = pop(heap)
        if settled[index]:
            continue
        settled[index] = 1
        if target is not None and index == target:
            break
        for edge_id in range(offsets[index], offsets[index + 1]):
            if banned_edges is not None and edge_id in banned_edges:
                continue
            neighbour = targets[edge_id]
            if settled[neighbour]:
                continue
            if banned_nodes is not None and neighbour in banned_nodes:
                continue
            candidate = cost + weights[edge_id]
            candidate_hops = nhops + 1
            best = dist[neighbour]
            if candidate < best or (
                candidate == best and candidate_hops < hops[neighbour]
            ):
                dist[neighbour] = candidate
                hops[neighbour] = candidate_hops
                pred[neighbour] = edge_id
                counter += 1
                push(heap, (candidate, candidate_hops, counter, neighbour))
    return dist, hops, pred


def reconstruct_path(
    csr: CSRGraph[N, L],
    source_index: int,
    target_index: int,
    dist: Sequence[float],
    pred: Sequence[int],
) -> Optional[Path[N, L]]:
    """Walk the predecessor array back from *target_index* (or ``None``)."""
    if dist[target_index] == _INF:
        return None
    if source_index == target_index:
        return Path(nodes=(csr.nodes[source_index],), edges=(), cost=0.0)
    edges: List[Edge[N, L]] = []
    index = target_index
    while index != source_index:
        edge_id = pred[index]
        edge = csr.edge_objects[edge_id]
        edges.append(edge)
        index = csr.edge_source_index(edge_id)
    edges.reverse()
    nodes = (csr.nodes[source_index],) + tuple(edge.target for edge in edges)
    return Path(nodes=nodes, edges=tuple(edges), cost=dist[target_index])


class ShortestPathTree(Generic[N, L]):
    """A frozen single-source Dijkstra result; path extraction is O(|path|).

    One tree answers every ``(source, *)`` request — the unit of
    amortization behind :meth:`AdaptationPlanner.plan_many
    <repro.core.planner.AdaptationPlanner.plan_many>` and the §4.4 replan
    cascade.
    """

    __slots__ = ("csr", "source_index", "dist", "hops", "pred")

    def __init__(
        self,
        csr: CSRGraph[N, L],
        source_index: int,
        dist: List[float],
        hops: List[int],
        pred: List[int],
    ):
        self.csr = csr
        self.source_index = source_index
        self.dist = dist
        self.hops = hops
        self.pred = pred

    @property
    def source(self) -> N:
        return self.csr.nodes[self.source_index]

    def distance_to(self, node: N) -> Optional[float]:
        """Minimal cost to *node*, or ``None`` if unreachable."""
        value = self.dist[self.csr.index_of[node]]
        return None if value == _INF else value

    def path_to(self, node: N) -> Optional[Path[N, L]]:
        """The minimum-cost path to *node* (``None`` if unreachable).

        Matches :func:`repro.graphs.dijkstra.shortest_path` from the
        tree's source — same cost, same nodes, same edge tie-breaks.
        """
        return reconstruct_path(
            self.csr, self.source_index, self.csr.index_of[node], self.dist, self.pred
        )

    def reachable(self) -> Dict[N, float]:
        """All reachable nodes with their minimal costs."""
        return {
            node: value
            for node, value in zip(self.csr.nodes, self.dist)
            if value != _INF
        }


def _banned_shortest_path(
    csr: CSRGraph[N, L],
    source_index: int,
    target_index: int,
    banned_nodes: AbstractSet[int],
    banned_edges: AbstractSet[int],
) -> Optional[Path[N, L]]:
    if source_index == target_index:
        return Path(nodes=(csr.nodes[source_index],), edges=(), cost=0.0)
    dist, _, pred = csr_dijkstra(
        csr,
        source_index,
        target=target_index,
        banned_nodes=banned_nodes,
        banned_edges=banned_edges,
    )
    return reconstruct_path(csr, source_index, target_index, dist, pred)


#: a Yen spur query: ``spur(node, banned_nodes, banned_arcs)`` returns
#: ``(path, exhausted)`` — the shortest path from *node* to the target
#: avoiding the banned nodes and the banned ``(node, label)`` arcs (``None``
#: if there is none), and whether a search budget ran out before it could
#: tell
SpurQuery = Callable[
    [N, AbstractSet[N], AbstractSet[Tuple[N, L]]],
    Tuple[Optional[Path[N, L]], bool],
]


def yen(
    source: N, target: N, k: int, spur: SpurQuery
) -> Tuple[List[Path[N, L]], bool]:
    """Yen's k shortest loopless paths over any spur-query kernel.

    The one candidate loop behind :func:`k_shortest_paths_csr` and
    :meth:`AdaptationPlanner.lazy_plan_k
    <repro.core.planner.AdaptationPlanner.lazy_plan_k>`.  It mirrors
    :func:`repro.graphs.yen.k_shortest_paths` candidate for candidate:
    the same banned sets, the same ``(nodes, labels)`` dedup key and the
    same ``(cost, insertion order)`` candidate order, so any *spur*
    kernel that returns the reference's shortest path yields the
    reference's paths, costs and order.  The first path is
    ``spur(source, ∅, ∅)``.

    Returns ``(paths, complete)``; *complete* is ``False`` when a spur
    query reported exhaustion.  The paths found by then are still the
    true best ones, there may just be more.
    """
    if k <= 0:
        return [], True
    first, exhausted = spur(source, frozenset(), frozenset())
    if first is None:
        return [], not exhausted
    found: List[Path[N, L]] = [first]
    seen: Set[Tuple] = {(first.nodes, first.labels)}
    candidates: List[Tuple[float, int, Path[N, L]]] = []
    order = 0
    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev.edges)):
            banned_nodes = set(prev.nodes[:i])  # forbid loops through the root
            if prev.nodes[i] in banned_nodes or target in banned_nodes:
                continue
            banned_arcs = {
                (path.nodes[i], path.edges[i].label)
                for path in found
                if path.nodes[: i + 1] == prev.nodes[: i + 1] and len(path.edges) > i
            }
            tail, exhausted = spur(prev.nodes[i], banned_nodes, banned_arcs)
            if exhausted:
                return found, False
            if tail is None:
                continue
            root_edges = prev.edges[:i]
            total = Path(
                nodes=prev.nodes[:i] + tail.nodes,
                edges=root_edges + tail.edges,
                cost=sum(edge.weight for edge in root_edges) + tail.cost,
            )
            key = (total.nodes, total.labels)
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (total.cost, order, total))
                order += 1
        if not candidates:
            break
        found.append(heapq.heappop(candidates)[2])
    return found, True


def k_shortest_paths_csr(
    csr: CSRGraph[N, L], source: N, target: N, k: int
) -> List[Path[N, L]]:
    """Yen's k shortest loopless paths over the compiled graph.

    :func:`yen` with banned-set Dijkstra spur queries on the shared CSR
    arrays instead of pruned :class:`Digraph` copies: the output (paths,
    costs, order) is identical to :func:`repro.graphs.yen.k_shortest_paths`
    while each spur query skips the full graph copy.
    """
    index_of = csr.index_of

    def spur(node, banned_nodes, banned_arcs):
        banned_edges: Set[int] = set()
        for arc_source, label in banned_arcs:
            banned_edges.update(csr.edges_labelled(index_of[arc_source], label))
        path = _banned_shortest_path(
            csr,
            index_of[node],
            index_of[target],
            {index_of[banned] for banned in banned_nodes},
            banned_edges,
        )
        return path, False

    return yen(source, target, k, spur)[0]
