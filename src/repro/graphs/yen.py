"""Yen's algorithm for k shortest loopless paths.

The paper's failure-handling cascade (§4.4) needs "the second minimum
adaptation path from the current configuration to the target
configuration", and in general the next-best alternative each time a step
fails.  Yen's algorithm enumerates loopless paths in non-decreasing cost
order on top of the Dijkstra routine.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Tuple, TypeVar

from repro.graphs.digraph import Digraph
from repro.graphs.dijkstra import Path, shortest_path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)


def _path_key(path: Path) -> Tuple:
    """Identity of a path for deduplication: the node/label sequence."""
    return (path.nodes, path.labels)


def k_shortest_paths(
    graph: Digraph[N, L],
    source: N,
    target: N,
    k: int,
) -> List[Path[N, L]]:
    """Up to *k* loopless minimum-cost paths, in non-decreasing cost order.

    Deterministic for a fixed graph construction order.  Returns fewer than
    *k* paths when the graph does not contain that many distinct loopless
    paths.
    """
    if k <= 0:
        return []
    first = shortest_path(graph, source, target)
    if first is None:
        return []
    found: List[Path[N, L]] = [first]
    seen: Set[Tuple] = {_path_key(first)}
    # candidate pool: (cost, order, path); order keeps heap behavior stable
    candidates: List[Tuple[float, int, Path[N, L]]] = []
    order = 0

    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev.edges)):
            spur_node = prev.nodes[i]
            root_edges = prev.edges[:i]
            root_cost = sum(edge.weight for edge in root_edges)
            removed_edges = set()
            for path in found:
                if path.nodes[: i + 1] == prev.nodes[: i + 1] and len(path.edges) > i:
                    removed_edges.add((path.edges[i].source, path.edges[i].label))
            removed_nodes = set(prev.nodes[:i])  # forbid loops through the root
            pruned = graph.subgraph_without(removed_edges, removed_nodes)
            if spur_node not in pruned or target not in pruned:
                continue
            spur = shortest_path(pruned, spur_node, target)
            if spur is None:
                continue
            total_nodes = prev.nodes[:i] + spur.nodes
            total_edges = root_edges + spur.edges
            total = Path(
                nodes=total_nodes,
                edges=total_edges,
                cost=root_cost + spur.cost,
            )
            key = _path_key(total)
            if key not in seen:
                seen.add(key)
                candidates.append((total.cost, order, total))
                order += 1
        if not candidates:
            break
        candidates.sort(key=lambda item: (item[0], item[1]))
        _, _, best = candidates.pop(0)
        found.append(best)
    return found

