import random

import pytest

from oracles import bfs_tree_count, cyclic_node_sets, torus_graph
from rumorsource import centrality, estimator
from rumorsource.centrality import centrality_all, local_rumor_center
from rumorsource.errors import CapacityError, NoPathError, ValidationError
from rumorsource.estimator import (SuspectSet, make_suspects_all,
                                   make_suspects_connected, make_suspects_two,
                                   map_estimate)
from rumorsource.harness import ExperimentConfig, run_trial
from rumorsource.spread import (SpreadConfig, simulate_si, snapshot_from_json,
                                snapshot_to_json)
from rumorsource.topology import (ExplicitGraph, LazyRegularTree, Snapshot,
                                  bfs_tree, regular_tree)


def path_snapshot(n, root=0):
    g = ExplicitGraph.from_edges([(i, i + 1) for i in range(n - 1)])
    return bfs_tree(g, root)


def test_suspect_set_validation():
    SuspectSet(members=(1, 2, 3))
    with pytest.raises(ValidationError):
        SuspectSet(members=())


def test_map_on_path_center_wins():
    snap = path_snapshot(3)
    est = map_estimate(snap, SuspectSet(members=(0, 1, 2)))
    assert est.chosen == 1
    assert est.argmax_set == (1,)
    assert not est.tie_broken
    assert est.method == "tree-exact"


def test_map_two_sided_tie_on_path():
    snap = path_snapshot(4)
    s = SuspectSet(members=(1, 2))
    est = map_estimate(snap, s, tie_seed=0)
    assert set(est.argmax_set) == {1, 2}
    assert est.tie_broken
    assert est.chosen in (1, 2)
    # deterministic per tie seed, and both outcomes occur over seeds
    seen = set()
    for ts in range(50):
        e1 = map_estimate(snap, s, tie_seed=ts)
        e2 = map_estimate(snap, s, tie_seed=ts)
        assert e1.chosen == e2.chosen
        seen.add(e1.chosen)
    assert seen == {1, 2}


def test_map_endpoints_only():
    # leaves tie on a 4-path too (both score 1)
    snap = path_snapshot(4)
    est = map_estimate(snap, SuspectSet(members=(0, 3)), tie_seed=1)
    assert set(est.argmax_set) == {0, 3}


def test_map_singleton_short_circuit():
    snap = path_snapshot(5)
    est = map_estimate(snap, SuspectSet(members=(4,)))
    assert est.chosen == 4 and est.argmax_set == (4,) and not est.tie_broken


def test_map_ignores_uninfected_suspects():
    snap = path_snapshot(3)  # infected 0,1,2
    est = map_estimate(snap, SuspectSet(members=(1, 99)))
    assert est.chosen == 1
    with pytest.raises(ValidationError):
        map_estimate(snap, SuspectSet(members=(98, 99)))


def test_tie_coin_is_roughly_fair():
    snap = path_snapshot(2)
    s = SuspectSet(members=(0, 1))
    picks = sum(map_estimate(snap, s, tie_seed=ts).chosen == 0
                for ts in range(1000))
    assert 420 <= picks <= 580


def test_make_suspects_all():
    g = LazyRegularTree(3)
    snap = simulate_si(g, SpreadConfig(source=0, n=12, seed=4))
    s = make_suspects_all(snap)
    assert set(s.members) == set(snap.order)


def test_make_suspects_connected():
    g = regular_tree(3, 3)
    s = make_suspects_connected(g, 0, 4)
    assert set(s.members) == {0, 1, 2, 3}
    s1 = make_suspects_connected(g, 5, 1)
    assert set(s1.members) == {5}
    with pytest.raises(CapacityError):
        make_suspects_connected(ExplicitGraph.from_edges([(0, 1)]), 0, 5)
    with pytest.raises(ValidationError):
        make_suspects_connected(g, 0, 0)


def test_make_suspects_connected_takes_nearest():
    # breadth-first from the anchor, lowest id first within a depth layer
    g = ExplicitGraph.from_edges([(0, 1), (0, 4), (1, 2), (4, 5), (2, 3)])
    s = make_suspects_connected(g, 0, 4)
    assert set(s.members) == {0, 1, 4, 2}


def test_make_suspects_two():
    g = LazyRegularTree(3)
    p = g.path_from_origin(3)
    s = make_suspects_two(g, p[0], p[-1])
    assert set(s.members) == {p[0], p[-1]}
    with pytest.raises(ValidationError):
        make_suspects_two(g, 0, 0)
    # the pair must be two known nodes joined by a path
    split = ExplicitGraph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        make_suspects_two(split, 0, 3)
    with pytest.raises(ValidationError):
        make_suspects_two(split, 0, 99)


def test_map_on_non_tree_uses_bfs_scores():
    g = ExplicitGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    snap = simulate_si(g, SpreadConfig(source=0, n=4, seed=3,
                                       backend="exponential-clocks"))
    est = map_estimate(snap, SuspectSet(members=(0, 1, 2, 3)), tie_seed=2)
    assert est.method == "bfs-heuristic"
    # a fully infected 4-cycle is symmetric, every node scores 3
    assert set(est.argmax_set) == {0, 1, 2, 3}
    assert est.tie_broken


def test_estimate_serializes():
    snap = path_snapshot(3)
    d = map_estimate(snap, SuspectSet(members=(0, 1, 2))).to_dict()
    assert d["chosen"] == 1 and d["argmax_set"] == [1]
    assert d["method"] == "tree-exact" and d["tie_broken"] is False


def test_detection_structure_matches_center_verdict():
    # when everyone is suspect, the estimator finds the true source exactly
    # when the source is a (possibly tied) local center of the snapshot
    rng = random.Random(314)
    hits_structural = 0
    for t in range(120):
        n = rng.randrange(2, 25)
        g = LazyRegularTree(3)
        snap = simulate_si(g, SpreadConfig(source=0, n=n, seed=10_000 + t))
        rep = centrality_all(snap)
        am = rep.argmax_set()
        verdict = local_rumor_center(snap, 0)
        if not verdict.is_center:
            assert 0 not in am
        elif verdict.tied_neighbor is None:
            assert am == [0]
            hits_structural += 1
        else:
            assert set(am) == {0, verdict.tied_neighbor}
        est = map_estimate(snap, make_suspects_all(snap), tie_seed=t)
        assert list(est.argmax_set) == am
        assert est.chosen in am
    assert hits_structural > 0


def _bigint_argmax(snap, members):
    exact = centrality_all(snap).exact
    cands = sorted(set(members) & snap.nodes)
    best = max(exact[c] for c in cands)
    return tuple(c for c in cands if exact[c] == best)


def _suspect_sets(g, snap, rng, kmax=8):
    nodes = sorted(snap.nodes)
    yield make_suspects_all(snap)
    anchor = rng.choice(nodes)
    yield make_suspects_connected(g, anchor, rng.randrange(2, kmax + 1))
    a, b = rng.sample(nodes, 2)
    yield make_suspects_two(g, a, b)
    picks = rng.sample(nodes, rng.randrange(1, len(nodes) + 1))
    # an uninfected id must be ignored, not scored
    yield SuspectSet(picks + [max(nodes) + 1])


@pytest.mark.parametrize("delta", [2, 3, 4, 12])
def test_tree_map_matches_bigint_argmax(delta):
    rng = random.Random(delta)
    ties = 0
    for n in range(2, 42):
        g = LazyRegularTree(delta)
        snap = simulate_si(g, SpreadConfig(source=0, n=n, seed=1000 * delta + n))
        detached = snapshot_from_json(snapshot_to_json(snap))
        assert detached.host is None
        for sus in _suspect_sets(g, snap, rng):
            want = _bigint_argmax(snap, sus.members)
            for view in (snap, detached):
                est = map_estimate(view, sus, tie_seed=n)
                assert est.argmax_set == want, (n, sorted(sus.members))
                assert est.method == "tree-exact"
                assert est.tie_broken == (len(want) > 1)
                assert est.chosen in want
            ties += len(want) > 1
    assert ties > 0


def test_tree_map_on_explicit_tree_host():
    rng = random.Random(5)
    for t in range(60):
        size = rng.randrange(3, 60)
        labels = rng.sample(range(3 * size), size)
        g = ExplicitGraph.from_edges(
            [(labels[i], labels[rng.randrange(i)]) for i in range(1, size)])
        snap = simulate_si(g, SpreadConfig(
            source=rng.choice(labels), n=rng.randrange(2, size + 1), seed=t,
            backend="exponential-clocks"))
        for sus in _suspect_sets(g, snap, rng, kmax=min(8, size)):
            est = map_estimate(snap, sus, tie_seed=t)
            assert est.method == "tree-exact"
            assert est.argmax_set == _bigint_argmax(snap, sus.members)


def test_tree_map_forms_no_big_counts(monkeypatch):
    def boom(*args):
        raise AssertionError("tree MAP must not form full centrality counts")

    monkeypatch.setattr(estimator, "centrality_all", boom, raising=False)
    monkeypatch.setattr(centrality, "centrality_all", boom)
    monkeypatch.setattr(centrality, "_root_count", boom)
    g = LazyRegularTree(3)
    snap = simulate_si(g, SpreadConfig(source=0, n=400, seed=9))
    assert map_estimate(snap, make_suspects_all(snap)).method == "tree-exact"
    sus = make_suspects_connected(g, 0, 20)
    assert map_estimate(snap, sus).method == "tree-exact"


def test_tree_map_builds_no_parent_map(monkeypatch):
    def boom(self):
        raise AssertionError("tree MAP must not build the id-keyed parent map")

    monkeypatch.setattr(Snapshot, "parent_of", property(boom))
    for scenario, extra in (("all-suspects", {}), ("connected-k", {"k": 5}),
                            ("two-at-d", {"d": 2})):
        for delta in (3, 4):
            cfg = ExperimentConfig(scenario, delta, 300, 10, 1, **extra)
            assert sum(run_trial(cfg, t) for t in range(10)) > 0
    rng = random.Random(6)
    g = ExplicitGraph.from_edges((i, rng.randrange(i)) for i in range(1, 200))
    for backend in ("uniform-boundary", "exponential-clocks"):
        snap = simulate_si(g, SpreadConfig(source=5, n=120, seed=2,
                                           backend=backend))
        for sus in (make_suspects_all(snap), SuspectSet(snap.order[::7])):
            assert map_estimate(snap, sus).method == "tree-exact"


def _per_root_argmax(g, nodes, members):
    counts = {s: bfs_tree_count(g, nodes, s) for s in sorted(set(members) & nodes)}
    best = max(counts.values())
    return tuple(s for s, c in counts.items() if c == best)


def test_cyclic_map_matches_per_root_argmax():
    rng = random.Random(34)
    cyclic = ties = 0
    for g, nodes in cyclic_node_sets(random.Random(55)):
        snap = bfs_tree(g, min(nodes), restrict=nodes)
        if snap.is_host_tree():
            continue
        cyclic += 1
        picks = rng.sample(sorted(nodes), rng.randrange(1, len(nodes) + 1))
        for sus in (make_suspects_all(snap), SuspectSet(picks)):
            want = _per_root_argmax(g, nodes, sus.members)
            est = map_estimate(snap, sus, tie_seed=cyclic)
            assert est.method == "bfs-heuristic"
            assert est.argmax_set == want, (sorted(nodes), sorted(sus.members))
            assert est.tie_broken == (len(want) > 1) and est.chosen in want
            ties += len(want) > 1
    assert cyclic >= 100 and ties > 0


def test_cyclic_map_forms_no_factorial(monkeypatch):
    g = torus_graph(12)
    snap = simulate_si(g, SpreadConfig(source=0, n=120, seed=4,
                                       backend="exponential-clocks"))
    sus = make_suspects_connected(g, 0, 20)
    want = _per_root_argmax(g, snap.nodes, sus.members)

    def boom(*args):
        raise AssertionError("cyclic MAP must not form n!")

    monkeypatch.setattr(centrality.math, "factorial", boom)
    monkeypatch.setattr(centrality, "_root_count", boom)
    monkeypatch.setattr(centrality, "bfs_heuristic_centrality", boom)
    est = map_estimate(snap, sus)
    assert est.method == "bfs-heuristic" and est.argmax_set == want


def test_cyclic_map_scans_each_infected_node_once(monkeypatch):
    # the tree check and the BFS heuristic share one induced adjacency
    g = torus_graph(20)
    snap = simulate_si(g, SpreadConfig(source=0, n=200, seed=1,
                                       backend="exponential-clocks"))
    scanned = []
    neighbors = g.neighbors
    monkeypatch.setattr(g, "neighbors", lambda u: scanned.append(u) or neighbors(u))
    est = map_estimate(snap, make_suspects_all(snap))
    assert est.method == "bfs-heuristic"
    assert sorted(scanned) == sorted(snap.order)


def test_map_with_no_suspect_set_means_every_infected_node():
    # None and make_suspects_all give equal estimates on every host kind,
    # at odd and even n (even n can tie) and at n = 1 and 2
    rng = random.Random(3)
    tree = ExplicitGraph.from_edges((i, rng.randrange(i)) for i in range(1, 300))
    torus = torus_graph(12)
    hosts = ((lambda: LazyRegularTree(3), "uniform-boundary"),
             (lambda: tree, "uniform-boundary"),
             (lambda: torus, "exponential-clocks"))
    ties = 0
    for make_host, backend in hosts:
        for n in (1, 2, 3, 8, 9, 40, 41):
            for seed in range(12):
                cfg = SpreadConfig(source=0, n=n, seed=seed, backend=backend)
                snap = simulate_si(make_host(), cfg)
                for tie_seed in (0, 5):
                    est = map_estimate(snap, None, tie_seed=tie_seed)
                    assert est == map_estimate(snap, make_suspects_all(snap),
                                               tie_seed=tie_seed)
                    ties += est.tie_broken
    assert ties > 0
