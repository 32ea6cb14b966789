import random

import pytest

from rumorsource.errors import CapacityError, NoPathError, ParseError, ValidationError
from rumorsource.spread import SpreadConfig, simulate_si
from rumorsource.topology import (ExplicitGraph, LazyRegularTree, ball_size,
                                  bfs_tree, load_edge_list, regular_tree,
                                  shortest_path)


def test_ball_size_formula():
    assert ball_size(3, 0) == 1
    assert ball_size(3, 1) == 4
    assert ball_size(3, 2) == 10
    assert ball_size(2, 3) == 7
    assert ball_size(4, 2) == 17


def test_regular_tree_materializes_ball():
    g = regular_tree(3, 2)
    assert g.num_nodes == 10
    # interior nodes have full degree without triggering growth
    for u in range(4):
        assert len(g.known_neighbors(u)) == 3
    # shell nodes exist but only know their parent
    shell = [u for u in range(10) if g.depth(u) == 2]
    assert len(shell) == 6
    for u in shell:
        assert g.known_neighbors(u) == [g.parent(u)]


def test_regular_tree_degree_two_is_a_line():
    g = regular_tree(2, 3)
    assert g.num_nodes == 7
    degs = sorted(len(g.known_neighbors(u)) for u in range(7))
    assert degs == [1, 1, 2, 2, 2, 2, 2]


def test_regular_tree_capacity_error():
    with pytest.raises(CapacityError):
        regular_tree(3, 40)


def test_regular_tree_validation():
    with pytest.raises(ValidationError):
        regular_tree(1, 2)
    with pytest.raises(ValidationError):
        regular_tree(3, -1)


@pytest.mark.parametrize("call", [
    lambda g: g.parent(-1), lambda g: g.parent(99), lambda g: g.depth(-2),
    lambda g: g.depth(99), lambda g: g.known_neighbors(-1),
    lambda g: g.known_neighbors(99), lambda g: g.neighbors(-1),
    lambda g: ball_size(3, -1)],
    ids=["parent-neg", "parent-high", "depth-neg", "depth-high", "known-neg",
         "known-high", "neighbors-neg", "ball-neg-radius"])
def test_lazy_tree_rejects_ids_it_does_not_hold(call):
    g = regular_tree(3, 1)  # nodes 0..3
    with pytest.raises(ValidationError):
        call(g)
    assert g.num_nodes == 4


def test_lazy_expansion_is_deterministic():
    a = LazyRegularTree(3)
    b = LazyRegularTree(3)
    for g in (a, b):
        g.neighbors(0)
        g.neighbors(2)
    assert a.num_nodes == b.num_nodes == 6
    assert [a.known_neighbors(u) for u in range(6)] == \
           [b.known_neighbors(u) for u in range(6)]
    assert a.parent(4) == 2 and a.depth(4) == 2


def test_path_from_origin():
    g = LazyRegularTree(3)
    p = g.path_from_origin(4)
    assert len(p) == 5 and p[0] == 0
    for parent, child in zip(p, p[1:]):
        assert g.parent(child) == parent
    assert g.depth(p[-1]) == 4


def test_load_edge_list(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# a comment\n0 1\n1 2   # trailing\n\n2 0\n0 1\n")
    g = load_edge_list(f)
    assert g.num_nodes == 3
    # the duplicate 0-1 edge collapsed
    assert [g.neighbors(u) for u in range(3)] == [[1, 2], [0, 2], [0, 1]]


@pytest.mark.parametrize("body,lineno", [
    ("0 1\n1 2 3\n", 2),
    ("0 x\n", 1),
    ("0 1\n\n4 4\n", 3),
    ("0 1\n-1 2\n", 2),
])
def test_load_edge_list_reports_line(tmp_path, body, lineno):
    f = tmp_path / "bad.txt"
    f.write_text(body)
    with pytest.raises(ParseError) as ei:
        load_edge_list(f)
    assert f"line {lineno}" in str(ei.value)


def test_load_edge_list_empty(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        load_edge_list(f)


def test_explicit_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        ExplicitGraph.from_edges([(0, 0)])


def test_shortest_path_on_explicit_graph():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    assert shortest_path(g, 0, 4) == [0, 3, 4]
    assert shortest_path(g, 2, 2) == [2]
    p = shortest_path(g, 0, 2)
    assert len(p) == 3 and p[0] == 0 and p[-1] == 2


def test_shortest_path_no_path():
    g = ExplicitGraph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        shortest_path(g, 0, 3)
    with pytest.raises(ValidationError):
        shortest_path(g, 0, 99)


def test_shortest_path_on_lazy_tree():
    g = LazyRegularTree(3)
    p = g.path_from_origin(3)
    sp = shortest_path(g, p[-1], 0)
    assert sp == p[::-1]
    # two leaves across the origin
    g2 = regular_tree(3, 2)
    leaves = [u for u in range(10) if g2.depth(u) == 2]
    a, b = leaves[0], leaves[-1]
    sp2 = shortest_path(g2, a, b)
    assert sp2[0] == a and sp2[-1] == b
    if g2.parent(a) != g2.parent(b):
        assert 0 in sp2 or g2.depth(sp2[len(sp2) // 2]) < 2


def test_shortest_path_lengths_match_bfs_depths():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 30)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        extra = rng.randrange(0, 4)
        for _ in range(extra):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        g = ExplicitGraph.from_edges(edges)
        snap = bfs_tree(g, 0)
        depth = {0: 0}
        for u in snap.order[1:]:
            depth[u] = depth[snap.parent_of[u]] + 1
        for v in snap.order:
            assert len(shortest_path(g, 0, v)) == depth[v] + 1


def test_bfs_tree_four_cycle_parents():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    snap = bfs_tree(g, 0)
    assert snap.parent_of == {0: None, 1: 0, 3: 0, 2: 1}
    assert snap.order == [0, 1, 3, 2]
    assert not snap.is_host_tree()


def test_bfs_tree_restrict_and_errors():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    snap = bfs_tree(g, 1, restrict={0, 1, 2})
    assert snap.nodes == {0, 1, 2}
    assert snap.parent_of[0] == 1 and snap.parent_of[2] == 1
    with pytest.raises(ValidationError):
        bfs_tree(g, 3, restrict={0, 1})
    g2 = ExplicitGraph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        bfs_tree(g2, 0, restrict={0, 1, 2})


def test_bfs_tree_lowest_id_parent_rule():
    # node 4 reachable from both 1 and 2 at depth 1; 1 must win
    g = ExplicitGraph.from_edges([(0, 1), (0, 2), (1, 4), (2, 4)])
    snap = bfs_tree(g, 0)
    assert snap.parent_of[4] == 1


def test_bfs_tree_single_node():
    g = ExplicitGraph.from_edges([(0, 1)])
    snap = bfs_tree(g, 0, restrict={0})
    assert snap.order == [0] and snap.n == 1


@pytest.mark.parametrize("delta", [2, 3, 4, 12])
def test_tree_path_matches_bfs_over_parent_edges(delta):
    g = LazyRegularTree(delta)
    snap = simulate_si(g, SpreadConfig(source=0, n=60, seed=delta))
    flat = ExplicitGraph.from_edges((v, g.parent(v)) for v in range(1, g.num_nodes))
    rng = random.Random(delta)
    for _ in range(50):
        a, b = rng.choice(snap.order), rng.choice(snap.order)
        assert shortest_path(g, a, b) == shortest_path(flat, a, b)


@pytest.mark.parametrize("delta", [2, 3, 4, 12])
def test_neighbors_hands_out_a_copy(delta):
    g = LazyRegularTree(delta)
    snap = simulate_si(g, SpreadConfig(source=0, n=60, seed=delta))
    for u in snap.order:
        before = list(g.neighbors(u))
        g.neighbors(u).append(-1)
        assert g.neighbors(u) == before


@pytest.mark.parametrize("delta", [2, 3, 12])
def test_neighbors_are_ascending(delta):
    # the one BFS rule relies on it and sorts nothing itself
    g = LazyRegularTree(delta)
    snap = simulate_si(g, SpreadConfig(source=0, n=80, seed=delta))
    for u in snap.order:
        assert g.neighbors(u) == sorted(g.neighbors(u)), u
    h = ExplicitGraph({5: [3, 9, 1], 3: [5], 9: [5], 1: [5]})
    assert [h.neighbors(u) for u in (5, 3)] == [[1, 3, 9], [5]]
