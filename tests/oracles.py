"""Brute-force reference implementations shared across test modules.

Everything here trades efficiency for obviousness: plain enumeration
with exact rationals, no shared code with the library paths under test.
"""

import math
from fractions import Fraction

import numpy as np

from rumorsource.centrality import centrality_all
from rumorsource.errors import CapacityError
from rumorsource.spread import SpreadConfig, simulate_si
from rumorsource.topology import ExplicitGraph, bfs_tree, regular_tree


def count_orderings(adj, root):
    """Number of ways to infect the whole tree starting at root, one node
    per step, each new node adjacent to an already infected one."""
    n = len(adj)

    def rec(infected, frontier):
        if not frontier:
            return 1
        total = 0
        for i, v in enumerate(frontier):
            nxt = infected | {v}
            nf = frontier[:i] + frontier[i + 1:] + \
                [w for w in adj[v] if w not in nxt]
            total += rec(nxt, nf)
        return total

    if n == 1:
        return 1
    return rec({root}, list(adj[root]))


def random_tree_adj(n, rng):
    """Random recursive tree on ids 0..n-1 as an adjacency dict."""
    adj = {0: []}
    for i in range(1, n):
        j = rng.randrange(i)
        adj[i] = [j]
        adj[j].append(i)
    return adj


def snap_from_adj(adj, root):
    """Snapshot covering the whole adjacency dict, rooted as asked."""
    edges = [(u, v) for u in adj for v in adj[u] if u < v]
    if not edges:
        g = ExplicitGraph.from_edges([(0, 1)])
        return bfs_tree(g, 0, restrict={0})
    g = ExplicitGraph.from_edges(edges)
    return bfs_tree(g, root)


def descendant_counts(snap):
    """Node -> size of its subtree in the snapshot's tree, counted by
    walking every node's `parent_of` chain up to the root."""
    count = dict.fromkeys(snap.order, 0)
    for u in snap.order:
        while u is not None:
            count[u] += 1
            u = snap.parent_of[u]
    return count


def bfs_tree_count(g, nodes, s):
    """The BFS heuristic one root at a time: s's own BFS spanning tree over
    `nodes`, then n! over its subtree-size product.  It shares the one BFS
    rule with the library, which both must follow; what it checks is the
    library's scoring of many roots on one induced adjacency."""
    snap = bfs_tree(g, s, restrict=nodes)
    return math.factorial(snap.n) // math.prod(descendant_counts(snap).values())


def torus_graph(side):
    """side x side torus, node r * side + c."""
    return ExplicitGraph.from_edges(
        (r * side + c, v) for r in range(side) for c in range(side)
        for v in (r * side + (c + 1) % side, ((r + 1) % side) * side + c))


def cyclic_node_sets(rng):
    """About 200 (graph, connected node set) cases on hosts with cycles:
    exponential-clocks snapshots of tori, random connected subsets of random
    graphs with scattered ids, cycles and complete graphs (every node ties
    once all are in) and single nodes."""
    for t in range(60):
        side = rng.randrange(4, 11)
        g = torus_graph(side)
        n = rng.randrange(1, min(60, side * side) + 1)
        snap = simulate_si(g, SpreadConfig(source=rng.randrange(side * side), n=n,
                                           seed=t, backend="exponential-clocks"))
        yield g, snap.nodes
    for _ in range(110):
        size = rng.randrange(3, 40)
        ids = rng.sample(range(5 * size), size)
        edges = {(ids[i], ids[rng.randrange(i)]) for i in range(1, size)}
        edges |= {tuple(rng.sample(ids, 2)) for _ in range(rng.randrange(1, size))}
        g = ExplicitGraph.from_edges(edges)
        nodes, frontier = set(), {rng.choice(ids)}
        for _ in range(rng.randrange(1, size + 1)):
            u = rng.choice(sorted(frontier))
            nodes.add(u)
            frontier = (frontier | set(g.neighbors(u))) - nodes
        yield g, frozenset(nodes)
    for m in range(3, 13):
        g = ExplicitGraph.from_edges((i, (i + 1) % m) for i in range(m))
        yield g, frozenset(range(m))
    for m in range(3, 9):
        g = ExplicitGraph.from_edges((i, j) for i in range(m) for j in range(i))
        yield g, frozenset(range(m))
    for u in (0, 7, 15):
        yield torus_graph(4), frozenset([u])


def enumerate_draws(initial, eps, draws):
    """Map from count-vector to exact probability, walking every possible
    draw sequence of a reinforcement urn."""
    out = {}

    def rec(balls, counts, prob, left):
        if left == 0:
            key = tuple(counts)
            out[key] = out.get(key, Fraction(0)) + prob
            return
        total = sum(balls)
        for j, b in enumerate(balls):
            if b == 0:
                continue
            nb = list(balls)
            nb[j] += eps
            nc = list(counts)
            nc[j] += 1
            rec(nb, nc, prob * Fraction(b, total), left - 1)

    rec(list(initial), [0] * len(initial), Fraction(1), draws)
    return out


def detection_prob_by_enumeration(delta, n):
    """Exact P[estimator finds the source] on a delta-regular tree, all
    nodes suspect, ties worth 1/|argmax|.  Unrolls every infection order
    with its 1/|boundary| step weights."""
    if n == 1:
        return Fraction(1)
    host = regular_tree(delta, n)  # radius n is always deep enough

    def neighbors(u):
        return host.known_neighbors(u)

    def rec(order, parent, boundary, prob):
        if len(order) == n:
            g = ExplicitGraph.from_edges(
                [(u, parent[u]) for u in order if parent[u] is not None])
            snap = bfs_tree(g, 0)
            am = centrality_all(snap).argmax_set()
            if 0 in am:
                rec.hit += prob * Fraction(1, len(am))
            return
        share = Fraction(1, len(boundary))
        for i, (v, pv) in enumerate(boundary):
            nb = boundary[:i] + boundary[i + 1:] + \
                [(w, v) for w in neighbors(v) if w != pv and w not in parent]
            parent2 = dict(parent)
            parent2[v] = pv
            rec(order + [v], parent2, nb, prob * share)

    rec.hit = Fraction(0)
    rec([0], {0: None}, [(w, 0) for w in neighbors(0)], Fraction(1))
    return rec.hit


class ReferenceTree:
    """The lazy regular tree grown one node at a time: a parent column and
    a first-child column as plain lists, started from copies of another
    tree's columns.  Expanding u appends its child block at the end."""

    def __init__(self, delta, parent_col, first_col, cap):
        self.delta, self.cap = delta, cap
        self.parent, self.first = list(parent_col), list(first_col)

    def neighbors(self, u):
        first = self.first[u] or self._expand(u)
        if u == 0:
            return list(range(first, first + self.delta))
        return [self.parent[u], *range(first, first + self.delta - 1)]

    def _expand(self, u):
        first = len(self.parent)
        count = self.delta - 1 if u else self.delta
        if first + count > self.cap:
            raise CapacityError(f"materialized node limit {self.cap} exceeded")
        self.parent.extend([u] * count)
        self.first.extend([0] * count)
        self.first[u] = first
        return first


def reference_spread(tree, source, n, seed):
    """The generic uniform-boundary SI loop with one up-front block of
    draws: the next infection is uniform over the (node, infector)
    boundary, swap-removed, and every uninfected neighbour joins it.
    Returns (order, parent)."""
    rng = np.random.default_rng(seed)
    parent = {source: None}
    order = [source]
    boundary = [(v, source) for v in tree.neighbors(source)]
    if n > 1:
        picks = rng.random(n - 1)
        for i in range(n - 1):
            j = int(picks[i] * len(boundary))
            u, infector = boundary[j]
            boundary[j] = boundary[-1]
            boundary.pop()
            parent[u] = infector
            order.append(u)
            for w in tree.neighbors(u):
                if w not in parent:
                    boundary.append((w, u))
    return order, parent
