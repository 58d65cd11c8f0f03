"""Unit tests for Yen's k-shortest loopless paths."""

import pytest

from repro.graphs import Digraph, k_shortest_paths


@pytest.fixture
def grid():
    # Classic Yen example-ish graph with multiple distinct a→f routes.
    g = Digraph()
    edges = [
        ("a", "b", 3), ("a", "c", 2),
        ("b", "d", 4), ("c", "d", 1), ("c", "e", 2),
        ("d", "f", 2), ("e", "d", 1), ("e", "f", 5),
    ]
    for src, dst, w in edges:
        g.add_edge(src, dst, f"{src}{dst}", float(w))
    return g


class TestKShortest:
    def test_first_path_is_shortest(self, grid):
        paths = k_shortest_paths(grid, "a", "f", 1)
        assert len(paths) == 1
        assert paths[0].cost == 5.0  # a-c-d-f
        assert paths[0].nodes == ("a", "c", "d", "f")

    def test_costs_non_decreasing(self, grid):
        paths = k_shortest_paths(grid, "a", "f", 6)
        costs = [p.cost for p in paths]
        assert costs == sorted(costs)

    def test_paths_distinct(self, grid):
        paths = k_shortest_paths(grid, "a", "f", 6)
        keys = {(p.nodes, p.labels) for p in paths}
        assert len(keys) == len(paths)

    def test_paths_loopless(self, grid):
        for path in k_shortest_paths(grid, "a", "f", 6):
            assert len(set(path.nodes)) == len(path.nodes)

    def test_expected_second_and_third(self, grid):
        paths = k_shortest_paths(grid, "a", "f", 3)
        assert paths[1].cost == 7.0  # a-c-e-d-f
        assert paths[2].cost == 9.0  # a-b-d-f or a-c-e-f

    def test_fewer_paths_than_k(self, grid):
        # There are finitely many loopless a→f paths.
        paths = k_shortest_paths(grid, "a", "f", 50)
        assert 3 <= len(paths) < 50

    def test_k_zero_and_unreachable(self, grid):
        assert k_shortest_paths(grid, "a", "f", 0) == []
        g = Digraph()
        g.add_node("x")
        g.add_node("y")
        assert k_shortest_paths(g, "x", "y", 3) == []

    def test_paths_are_valid_edge_chains(self, grid):
        for path in k_shortest_paths(grid, "a", "f", 6):
            assert path.nodes[0] == "a" and path.nodes[-1] == "f"
            for edge, (u, v) in zip(path.edges, zip(path.nodes, path.nodes[1:])):
                assert (edge.source, edge.target) == (u, v)
            assert path.cost == pytest.approx(sum(e.weight for e in path.edges))

    def test_parallel_edges_counted_separately(self):
        g = Digraph()
        g.add_edge("a", "b", "cheap", 1.0)
        g.add_edge("a", "b", "dear", 2.0)
        paths = k_shortest_paths(g, "a", "b", 5)
        assert [p.labels for p in paths] == [("cheap",), ("dear",)]
