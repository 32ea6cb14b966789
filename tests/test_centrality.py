"""Checks the spanning-order count against direct enumeration.

The oracle literally enumerates every infection order of a small tree
(each step picks any uninfected node adjacent to the infected set), so
the factorial/subtree formula is tested against something that knows
nothing about subtree sizes.
"""

import math
import random

import pytest

from oracles import (bfs_tree_count, count_orderings, cyclic_node_sets,
                     descendant_counts, random_tree_adj, snap_from_adj)
from rumorsource.centrality import (_ancestors, _bfs_size_products, _path_ratio,
                                    _subtree_sizes, bfs_heuristic_centrality,
                                    centrality_all, local_rumor_center,
                                    rumor_centrality)
from rumorsource.errors import NoPathError, ValidationError
from rumorsource.estimator import make_suspects_connected
from rumorsource.spread import (BACKENDS, SpreadConfig, simulate_si,
                                snapshot_from_dict, snapshot_to_dict)
from rumorsource.topology import (ExplicitGraph, LazyRegularTree, bfs_tree,
                                  induced_adjacency)


def test_matches_enumeration_on_random_trees():
    rng = random.Random(42)
    trees = 0
    while trees < 60:
        n = rng.randrange(1, 9)
        adj = random_tree_adj(n, rng)
        for root in range(n):
            snap = snap_from_adj(adj, root)
            assert rumor_centrality(snap, root) == count_orderings(adj, root)
        trees += 1


def _snapshots_of_every_constructor():
    """Snapshots from each route that builds a parent column."""
    rng = random.Random(8)
    for delta in (2, 3, 4, 12):
        for n in (1, 2, 57, 400):
            g = LazyRegularTree(delta)
            yield simulate_si(g, SpreadConfig(source=0, n=n, seed=n + delta))
            g = LazyRegularTree(delta)
            far = g.path_from_origin(3)[-1]
            yield simulate_si(g, SpreadConfig(source=far, n=n, seed=n))
            g = LazyRegularTree(delta)
            patch = sorted(make_suspects_connected(g, 0, 6).members)
            yield simulate_si(g, SpreadConfig(source=patch[-1], n=n, seed=delta))
    for size in (2, 9, 80, 300):
        adj = random_tree_adj(size, rng)
        g = ExplicitGraph.from_edges((u, v) for u in adj for v in adj[u] if u < v)
        for backend in BACKENDS:
            n = rng.randrange(1, size + 1)
            snap = simulate_si(g, SpreadConfig(source=rng.randrange(size), n=n,
                                               seed=size, backend=backend))
            yield snap
            yield snapshot_from_dict(snapshot_to_dict(snap))
            yield snapshot_from_dict(snapshot_to_dict(snap), host=g)
        yield bfs_tree(g, rng.randrange(size))
        yield bfs_tree(g, snap.order[-1], restrict=snap.nodes)
    for g, nodes in cyclic_node_sets(random.Random(3)):
        yield bfs_tree(g, max(nodes), restrict=nodes)


def test_subtree_sizes_match_descendant_counts():
    kinds = 0
    for snap in _snapshots_of_every_constructor():
        parent = snap.parent
        assert len(parent) == snap.n and parent[0] == -1
        assert all(0 <= p < i for i, p in enumerate(parent) if i)
        count = descendant_counts(snap)
        assert _subtree_sizes(snap) == [count[u] for u in snap.order]
        kinds += 1
    assert kinds > 200


def test_path_of_four():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    vals = [rumor_centrality(bfs_tree(g, r), r) for r in range(4)]
    assert vals == [1, 3, 3, 1]


def test_star():
    g = ExplicitGraph.from_edges([(0, 1), (0, 2), (0, 3)])
    assert rumor_centrality(bfs_tree(g, 0), 0) == 6
    assert rumor_centrality(bfs_tree(g, 1), 1) == 2


def test_single_and_pair():
    g = ExplicitGraph.from_edges([(0, 1)])
    snap = bfs_tree(g, 0)
    assert rumor_centrality(snap, 0) == 1
    assert rumor_centrality(snap, 1) == 1
    lone = bfs_tree(g, 0, restrict={0})
    assert rumor_centrality(lone, 0) == 1


def test_all_matches_per_root():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(2, 40)
        adj = random_tree_adj(n, rng)
        snap = snap_from_adj(adj, rng.randrange(n))
        rep = centrality_all(snap)
        for u in snap.order:
            direct = rumor_centrality(snap, u)
            assert rep.exact[u] == direct
        assert rep.n == n
        # argmax set really is the max
        best = max(rep.exact.values())
        assert rep.argmax_set() == sorted(u for u in snap.order
                                          if rep.exact[u] == best)


def test_neighbor_ratio_identity():
    # moving the root across an edge rescales by size/(n - size)
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randrange(2, 25)
        adj = random_tree_adj(n, rng)
        snap = snap_from_adj(adj, 0)
        rep = centrality_all(snap)
        for child, parent in snap.parent_of.items():
            if parent is None:
                continue
            sz = rep.subtree_size[child]
            assert rep.exact[child] * (n - sz) == rep.exact[parent] * sz


def _ratio_sign(snap, u, v):
    """Sign of R(u) - R(v) from the path ratio R(v)/R(u) the estimator uses,
    whose helpers take positions in the infection order."""
    a, b = snap.order.index(u), snap.order.index(v)
    num, den = _path_ratio(snap, _subtree_sizes(snap), _ancestors(snap, a), b)
    return (den > num) - (den < num)


def test_path_ratio_sign():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(2, 13)
        adj = random_tree_adj(n, rng)
        snap = snap_from_adj(adj, 0)
        rep = centrality_all(snap)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                want = (rep.exact[u] > rep.exact[v]) - (rep.exact[u] < rep.exact[v])
                assert _ratio_sign(snap, u, v) == want


def test_path_ratio_tie_on_path():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    snap = bfs_tree(g, 0)
    assert _ratio_sign(snap, 1, 2) == 0
    assert _ratio_sign(snap, 1, 0) == 1
    assert _ratio_sign(snap, 0, 2) == -1


def test_local_center_path_of_four():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    snap = bfs_tree(g, 0)
    v = local_rumor_center(snap, 1)
    assert v.is_center and v.tied_neighbor == 2
    v2 = local_rumor_center(snap, 0)
    assert not v2.is_center


def test_local_center_two_nodes_tie():
    g = ExplicitGraph.from_edges([(0, 1)])
    snap = bfs_tree(g, 0)
    v = local_rumor_center(snap, 0)
    assert v.is_center and v.tied_neighbor == 1


def test_local_center_star():
    g = ExplicitGraph.from_edges([(0, 1), (0, 2), (0, 3)])
    snap = bfs_tree(g, 0)
    assert local_rumor_center(snap, 0).is_center
    assert local_rumor_center(snap, 0).tied_neighbor is None
    assert not local_rumor_center(snap, 1).is_center


def test_local_center_sub_neighborhood():
    # restricting attention to one branch can flip the verdict
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    snap = bfs_tree(g, 0)
    assert not local_rumor_center(snap, 1).is_center
    assert local_rumor_center(snap, 1, sub_neighborhood=[0]).is_center
    with pytest.raises(ValidationError):
        local_rumor_center(snap, 1, sub_neighborhood=[4])


def test_local_center_agrees_with_global_scores():
    # center verdict must match score comparisons along each branch
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 50)
        adj = random_tree_adj(n, rng)
        snap = snap_from_adj(adj, 0)
        rep = centrality_all(snap)
        omega = rng.randrange(n)
        v = local_rumor_center(snap, omega)
        ties = [u for u, s in v.subtree_sizes.items() if 2 * s == n]
        assert len(ties) <= 1
        if v.is_center:
            for u in adj[omega]:
                if u == v.tied_neighbor:
                    assert rep.exact[u] == rep.exact[omega]
                else:
                    assert rep.exact[u] < rep.exact[omega]
        else:
            heavy = [u for u, s in v.subtree_sizes.items() if 2 * s > n]
            assert len(heavy) == 1
            assert rep.exact[heavy[0]] > rep.exact[omega]


def test_global_max_is_local_center():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randrange(2, 64)
        adj = random_tree_adj(n, rng)
        snap = snap_from_adj(adj, 0)
        rep = centrality_all(snap)
        am = rep.argmax_set()
        assert 1 <= len(am) <= 2
        for s in am:
            assert local_rumor_center(snap, s).is_center
        if len(am) == 2:
            a, b = am
            assert local_rumor_center(snap, a).tied_neighbor == b


def test_rejects_non_tree_snapshot():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    snap = bfs_tree(g, 0)
    with pytest.raises(ValidationError):
        rumor_centrality(snap, 0)
    with pytest.raises(ValidationError):
        centrality_all(snap)


def test_bfs_heuristic_on_cycle():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    infected = {0, 1, 2, 3}
    for v in range(4):
        # the BFS tree from each corner of a 4-cycle is a path-pair, 3 orders
        assert bfs_heuristic_centrality(g, infected, v) == 3


def test_bfs_heuristic_equals_exact_on_trees():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(2, 20)
        adj = random_tree_adj(n, rng)
        edges = [(u, v) for u in adj for v in adj[u] if u < v]
        g = ExplicitGraph.from_edges(edges)
        infected = set(range(n))
        for v in range(n):
            snap = bfs_tree(g, v)
            assert bfs_heuristic_centrality(g, infected, v) == \
                rumor_centrality(snap, v)


def test_size_products_match_per_root_bfs_trees():
    # one induced adjacency scores every root as its own BFS tree would
    cases = ties = 0
    for g, nodes in cyclic_node_sets(random.Random(21)):
        roots = sorted(nodes)
        counts = [bfs_tree_count(g, nodes, s) for s in roots]
        products = _bfs_size_products(g, induced_adjacency(g, nodes), roots)
        fact = math.factorial(len(nodes))
        assert [c * p for c, p in zip(counts, products)] == [fact] * len(roots)
        assert [bfs_heuristic_centrality(g, list(nodes), s) for s in roots] == counts
        cases += 1
        ties += len(roots) > 1 and len(set(products)) == 1
    assert cases >= 180 and ties >= 16


@pytest.mark.parametrize("nodes,root,error", [
    ({0, 1, 5}, 0, NoPathError),  # two components
    ({0, 1, 9}, 0, NoPathError),  # 9 is not in the graph
    ({0, 1, 2}, 5, ValidationError),  # root outside the set
    ({9}, 9, ValidationError),  # root outside the graph
])
def test_size_products_raise_like_bfs_tree(nodes, root, error):
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 0), (5, 6)])
    with pytest.raises(error):
        bfs_tree(g, root, restrict=nodes)
    with pytest.raises(error):
        _bfs_size_products(g, induced_adjacency(g, nodes), [root])
    with pytest.raises(error):
        bfs_heuristic_centrality(g, nodes, root)
