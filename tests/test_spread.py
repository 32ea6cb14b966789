import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import ReferenceTree, reference_spread
from rumorsource import topology
from rumorsource.centrality import subtree_counts
from rumorsource.errors import BackendError, CapacityError, ValidationError
from rumorsource.estimator import make_suspects_connected
from rumorsource.spread import (BACKENDS, SpreadConfig, simulate_si,
                                snapshot_from_dict, snapshot_from_json,
                                snapshot_to_dict, snapshot_to_json)
from rumorsource.topology import ExplicitGraph, LazyRegularTree, regular_tree
from rumorsource.urn import tree_split_joint


def test_backend_names():
    assert BACKENDS == ("uniform-boundary", "exponential-clocks")
    with pytest.raises(ValidationError):
        SpreadConfig(source=0, n=5, seed=1, backend="gillespie")


def test_config_validation():
    with pytest.raises(ValidationError):
        SpreadConfig(source=0, n=0, seed=1)
    with pytest.raises(ValidationError):
        SpreadConfig(source=-1, n=3, seed=1)


def test_single_node():
    g = LazyRegularTree(3)
    snap = simulate_si(g, SpreadConfig(source=0, n=1, seed=0))
    assert snap.order == [0]
    assert snap.parent_of == {0: None}
    assert snap.host is g


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_seed_same_snapshot(backend):
    ref = None
    for _ in range(3):
        g = LazyRegularTree(3)
        cfg = SpreadConfig(source=0, n=25, seed=123, backend=backend)
        snap = simulate_si(g, cfg)
        if ref is None:
            ref = (snap.order, snap.parent_of)
        else:
            assert (snap.order, snap.parent_of) == ref
    # and the host can be reused without disturbing determinism
    g = LazyRegularTree(3)
    a = simulate_si(g, SpreadConfig(source=0, n=25, seed=123, backend=backend))
    b = simulate_si(g, SpreadConfig(source=0, n=25, seed=123, backend=backend))
    assert a.order == b.order and a.parent_of == b.parent_of


def test_different_seeds_differ():
    g = LazyRegularTree(3)
    a = simulate_si(g, SpreadConfig(source=0, n=30, seed=1))
    b = simulate_si(g, SpreadConfig(source=0, n=30, seed=2))
    assert a.order != b.order


@pytest.mark.parametrize("backend", BACKENDS)
def test_infection_order_is_connected(backend):
    g = LazyRegularTree(4)
    snap = simulate_si(g, SpreadConfig(source=0, n=60, seed=9, backend=backend))
    assert snap.order[0] == 0 and snap.n == 60
    seen = set()
    for v in snap.order:
        p = snap.parent_of[v]
        if p is None:
            assert v == 0
        else:
            assert p in seen
            assert p in g.known_neighbors(v) or v in g.known_neighbors(p)
        seen.add(v)
    assert snap.is_host_tree()


def test_explicit_tree_host():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (1, 3), (3, 4)])
    snap = simulate_si(g, SpreadConfig(source=1, n=4, seed=5))
    assert snap.root == 1 and snap.n == 4
    assert set(snap.order) <= {0, 1, 2, 3, 4}


def test_uniform_boundary_rejects_cycles():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(BackendError):
        simulate_si(g, SpreadConfig(source=0, n=3, seed=1,
                                    backend="uniform-boundary"))


def test_tree_check_runs_once_per_component(monkeypatch):
    calls = []
    check = topology.Snapshot.is_host_tree
    monkeypatch.setattr(topology.Snapshot, "is_host_tree",
                        lambda snap: calls.append(snap.root) or check(snap))
    # a path 0-1-2-3 and a triangle 10-11-12 with a tail 12-13
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (10, 11), (11, 12),
                                  (12, 10), (12, 13)])

    def spread(source):
        return simulate_si(g, SpreadConfig(source=source, n=3, seed=1,
                                           backend="uniform-boundary"))

    assert spread(0).n == 3
    assert spread(2).n == 3  # same component: the verdict is reused
    assert calls == [0]
    for source in (13, 10, 13):  # the cyclic component raises every time
        with pytest.raises(BackendError):
            spread(source)
    assert calls == [0, 13]  # its own verdict, found once


def test_clocks_backend_handles_cycles():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    snap = simulate_si(g, SpreadConfig(source=0, n=4, seed=3,
                                       backend="exponential-clocks"))
    assert snap.n == 4
    assert not snap.is_host_tree()
    # the parent relation itself is still a tree rooted at the source
    assert sum(1 for p in snap.parent_of.values() if p is None) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_capacity_error_when_component_too_small(backend):
    g = ExplicitGraph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(CapacityError):
        simulate_si(g, SpreadConfig(source=0, n=5, seed=1, backend=backend))


def test_subtree_counts_examples():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    from rumorsource.topology import bfs_tree
    snap = bfs_tree(g, 1)
    assert subtree_counts(snap, 1) == [1, 2]
    assert subtree_counts(snap, 0) == [3]
    star = ExplicitGraph.from_edges([(0, 1), (0, 2), (0, 3)])
    ssnap = bfs_tree(star, 0)
    assert subtree_counts(ssnap, 0) == [1, 1, 1]


def test_line_split_is_binomial():
    # on a two-regular tree the two directions race i.i.d., so the count on
    # one side of the source is Binomial(n-1, 1/2)
    n, trials = 9, 20000
    counts = [0] * n
    for t in range(trials):
        g = LazyRegularTree(2)
        snap = simulate_si(g, SpreadConfig(source=0, n=n, seed=5000 + t))
        right = subtree_counts(snap, 0)
        counts[right[0]] += 1
    expected = [trials * math.comb(n - 1, x) / 2 ** (n - 1) for x in range(n)]
    res = stats.chisquare(counts, expected)
    assert res.pvalue > 0.01, (counts, res.pvalue)


@pytest.mark.parametrize("backend", BACKENDS)
def test_split_law_matches_urn(backend):
    # the three-branch split of n=5 nodes has an exact urn law; both
    # backends must produce it
    n, trials = 5, 40000
    comps = [c for c in itertools.product(range(n), repeat=3)
             if sum(c) == n - 1]
    expected = {c: float(tree_split_joint(3, c, n)) * trials
                for c in comps}
    observed = {c: 0 for c in comps}
    for t in range(trials):
        g = LazyRegularTree(3)
        snap = simulate_si(g, SpreadConfig(source=0, n=n, seed=77000 + t,
                                           backend=backend))
        observed[tuple(subtree_counts(snap, 0))] += 1
    res = stats.chisquare([observed[c] for c in comps],
                          [expected[c] for c in comps])
    assert res.pvalue > 0.01, (backend, res.pvalue)


def test_serialization_roundtrip():
    g = regular_tree(3, 6)
    snap = simulate_si(g, SpreadConfig(source=0, n=40, seed=8))
    d = snapshot_to_dict(snap)
    back = snapshot_from_dict(d)
    assert back.order == snap.order
    assert back.parent_of == snap.parent_of
    assert back.root == snap.root and back.n == snap.n
    s = snapshot_to_json(snap)
    back2 = snapshot_from_json(s)
    assert back2.order == snap.order and back2.parent_of == snap.parent_of
    # the JSON is plain data
    doc = json.loads(s)
    assert doc["n"] == 40 and doc["source"] == 0


def test_serialization_rejects_garbage():
    with pytest.raises(ValidationError):
        snapshot_from_dict({"n": 2, "source": 0, "nodes": [0, 1]})
    with pytest.raises(ValidationError):
        snapshot_from_dict({"n": 3, "source": 0, "nodes": [0, 1],
                            "parents": [[1, 0]]})
    with pytest.raises(ValidationError):
        snapshot_from_json("{]")


@pytest.mark.parametrize("doc", [
    {"nodes": [0, 1.9, 2.2], "parents": [[1.9, 0], [2.2, 1.7]]},  # floats
    {"nodes": [0, 1, 2], "parents": [[1, 0], [2, 1.0]]},  # a whole float
    {"nodes": [True, 2], "parents": [[2, True]]},  # bool
    {"nodes": [0, 1], "parents": [[1, False]]},
    {"nodes": ["0", "1"], "parents": [["1", "0"]]},  # strings
    {"nodes": [0, 1], "parents": [["1", 0]]},
    {"nodes": [0, -1], "parents": [[-1, 0]]},  # negative
    {"nodes": [0, 1], "parents": [[1, 0]], "source": 0.0},
    {"nodes": [0, 1], "parents": [[1, 0]], "n": 2.0},
    {"nodes": [0, 1], "parents": [[1, 0]], "n": True},
], ids=["floats", "whole-float", "bool-node", "bool-parent", "strings",
        "string-child", "negative", "float-source", "float-n", "bool-n"])
def test_loading_rejects_ids_that_are_not_ints(doc):
    with pytest.raises(ValidationError, match="non-negative integers"):
        snapshot_from_dict(doc)


def test_loading_checks_nodes_and_parents_against_the_host():
    path = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    star = {"n": 5, "source": 0, "nodes": [0, 1, 2, 3, 4],
            "parents": [[1, 0], [2, 0], [3, 0], [4, 0]]}
    assert snapshot_from_dict(star).parent_of[4] == 0  # no host: trusted
    with pytest.raises(ValidationError, match="not a host neighbor"):
        snapshot_from_dict(star, host=path)
    stray = {"n": 2, "source": 0, "nodes": [0, 7], "parents": [[7, 0]]}
    with pytest.raises(ValidationError, match="7 not in graph"):
        snapshot_from_dict(stray, host=path)
    with pytest.raises(ValidationError, match="source 9 not in the host"):
        snapshot_from_dict({"n": 1, "source": 9, "nodes": [9], "parents": []},
                           host=path)
    snap = simulate_si(path, SpreadConfig(source=2, n=4, seed=3,
                                          backend="exponential-clocks"))
    back = snapshot_from_dict(snapshot_to_dict(snap), host=path)
    assert back.parent_of == snap.parent_of


def test_loading_on_a_lazy_host_grows_nothing():
    g = LazyRegularTree(3)
    snap = simulate_si(g, SpreadConfig(source=0, n=30, seed=4))
    doc = snapshot_to_dict(snap)
    held = g.num_nodes
    assert snapshot_from_dict(doc, host=g).parent_of == snap.parent_of
    *earlier, u = doc["nodes"]  # the last pair is u's; give u a non-neighbor
    doc["parents"][-1] = [u, next(v for v in earlier if v not in g.known_neighbors(u))]
    with pytest.raises(ValidationError, match="not a host neighbor"):
        snapshot_from_dict(doc, host=g)
    assert g.num_nodes == held


def test_deserialized_snapshot_feeds_centrality():
    from rumorsource.centrality import centrality_all
    g = LazyRegularTree(3)
    snap = simulate_si(g, SpreadConfig(source=0, n=15, seed=21))
    back = snapshot_from_json(snapshot_to_json(snap))
    a = centrality_all(snap)
    b = centrality_all(back)
    assert a.exact == b.exact


def test_every_composition_reachable():
    # sanity: with enough trials every split of 4 into 3 parts shows up
    seen = set()
    for t in range(400):
        g = LazyRegularTree(3)
        snap = simulate_si(g, SpreadConfig(source=0, n=5, seed=t))
        seen.add(tuple(subtree_counts(snap, 0)))
    assert len(seen) == 15


def _grown_tree(delta, kind):
    """A lazy tree with some nodes already materialized, and a source on
    them: the origin, a path node, a connected-patch member or a ball node."""
    if kind == "ball":
        g = regular_tree(delta, 2)
        return g, g.num_nodes - 1
    g = LazyRegularTree(delta)
    if kind == "path":
        return g, g.path_from_origin(3)[2]
    if kind == "patch":
        return g, max(make_suspects_connected(g, 0, 5).members)
    return g, 0


def _columns(g):
    return list(g._parent), list(g._first)


@pytest.mark.parametrize("kind", ["origin", "path", "patch", "ball"])
@pytest.mark.parametrize("delta", [2, 3, 4, 12])
def test_tree_loop_matches_reference_loop(delta, kind):
    for n in (1, 2, 5, 300, 2000):
        g, source = _grown_tree(delta, kind)
        ref = ReferenceTree(delta, *_columns(g), topology.MAX_NODES)
        order, parent = reference_spread(ref, source, n, seed=n + delta)
        snap = simulate_si(g, SpreadConfig(source=source, n=n, seed=n + delta))
        assert snap.order == order and snap.parent_of == parent
        assert _columns(g) == (ref.parent, ref.first)
        replay, _ = _grown_tree(delta, kind)
        for u in snap.order:
            replay.neighbors(u)
        assert _columns(replay) == _columns(g)


@pytest.mark.parametrize("delta,kind", [(2, "origin"), (3, "path"),
                                        (4, "patch"), (12, "ball")])
def test_capacity_error_mid_spread_leaves_reference_tree(monkeypatch, delta, kind):
    g, source = _grown_tree(delta, kind)
    cap = g.num_nodes + 500
    monkeypatch.setattr(topology, "MAX_NODES", cap)
    ref = ReferenceTree(delta, *_columns(g), cap)
    with pytest.raises(CapacityError):
        reference_spread(ref, source, 5000, seed=delta)
    with pytest.raises(CapacityError):
        simulate_si(g, SpreadConfig(source=source, n=5000, seed=delta))
    assert _columns(g) == (ref.parent, ref.first)
    assert g.num_nodes <= cap
    assert all(first + delta - (u > 0) <= g.num_nodes
               for u, first in enumerate(g._first))


def test_capacity_error_draws_bounded_memory(monkeypatch):
    monkeypatch.setattr(topology, "MAX_NODES", 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            simulate_si(LazyRegularTree(3), SpreadConfig(source=0, n=2 * 10**7, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _both_spreads(delta, kind, n, seed, extra=None):
    """The reference loop and `simulate_si` on equal copies of one grown
    tree, with room for `extra` more nodes (None: the package's cap).
    Returns the two outcomes, (order, parent) or CapacityError, and the two
    trees' columns."""
    g, source = _grown_tree(delta, kind)
    with pytest.MonkeyPatch.context() as mp:
        if extra is not None:
            mp.setattr(topology, "MAX_NODES", g.num_nodes + extra)
        ref = ReferenceTree(delta, *_columns(g), topology.MAX_NODES)
        try:
            want = reference_spread(ref, source, n, seed)
        except CapacityError:
            want = CapacityError
        try:
            snap = simulate_si(g, SpreadConfig(source=source, n=n, seed=seed))
            got = snap.order, snap.parent_of
        except CapacityError:
            got = CapacityError
    return want, got, (ref.parent, ref.first), _columns(g)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(delta=st.sampled_from(range(2, 13)), kind=st.sampled_from(["origin", "path", "patch", "ball"]),
       n=st.integers(1, 3000), seed=st.integers(0, 2**63),
       extra=st.one_of(st.none(), st.integers(0, 3000)))
def test_lazy_tree_route_matches_reference_spread(delta, kind, n, seed, extra):
    want, got, ref_columns, columns = _both_spreads(delta, kind, n, seed, extra)
    assert got == want
    assert columns == ref_columns


def _slots(seed, delta, n):
    """Each draw's slot, as the reference loop computes it."""
    draws = np.random.default_rng(seed).random(n - 1)
    return [int(r * (delta + i * (delta - 2))) for i, r in enumerate(draws)]


@pytest.mark.parametrize("delta", [3, 4])
def test_lazy_tree_route_draw_on_the_last_slot(delta):
    # draw i takes the last slot, so nothing moves, and draw i+1 takes the
    # same slot, which block i has written since
    n = 12

    def hits(seed):
        j = _slots(seed, delta, n)
        return any(j[i] == j[i + 1] == delta + i * (delta - 2) - 1
                   for i in range(1, n - 2))

    seed = next(s for s in itertools.count() if hits(s))
    for kind in ("origin", "path", "ball"):
        want, got, ref_columns, columns = _both_spreads(delta, kind, n, seed)
        assert got == want and columns == ref_columns


@pytest.mark.parametrize("kind", ["origin", "path", "patch", "ball"])
def test_lazy_tree_route_on_the_line(kind):
    # at degree two the boundary is two slots and every block is slot 1
    for n in range(1, 40):
        for seed in range(5):
            want, got, ref_columns, columns = _both_spreads(2, kind, n, seed)
            assert got == want and columns == ref_columns


@pytest.mark.parametrize("delta", [2, 3, 12])
def test_capacity_error_at_the_last_draw(delta):
    # from the bare origin every draw grows a block; room for five blocks
    # makes the sixth, n = 7's last draw, the first that does not fit
    k = delta - 1
    room = delta + 5 * k + k - 1  # past the bare origin: its delta children, 5 blocks
    want, got, ref_columns, columns = _both_spreads(delta, "origin", 7, 1, room)
    assert got is want is CapacityError and columns == ref_columns
    assert len(columns[0]) == 1 + delta + 5 * k
    want, got, ref_columns, columns = _both_spreads(delta, "origin", 6, 1, room)
    assert got == want and columns == ref_columns
