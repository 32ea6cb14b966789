"""Rumor centrality: how many infection orderings start at a given node.

For a tree snapshot with n nodes, the count for root s is
n! / prod_u (size of the subtree at u when rooted at s), taken over all n
nodes.  Counts are exact big integers; moving the root across an edge (u, v)
rescales by size_v / (n - size_v), which gives every node's count in two
passes.  Everything here starts from one reverse pass over the snapshot's
parent column, which sizes the subtrees at its own root.  The helpers work
on positions in the infection order; node ids enter and leave only at the
public functions and candidate lists.

Comparing two nodes needs no big counts: R(b)/R(a) is the product of those
per-edge factors along the a-b path, a ratio of small-integer products
(`_path_ratio`).  `_tree_argmax`, the MAP estimator's tree route, ranks
suspects this way, and when every infected node is a suspect it takes the
tree centroid, which is exactly the argmax set.  On non-tree hosts the exact
count is undefined; the BFS heuristic scores each root on its own BFS tree
over the infected set, and ranks roots by subtree-size product alone
(`_bfs_size_products`), with no n!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoPathError, ValidationError
from .topology import Graph, Snapshot, _bfs_layers, induced_adjacency


def _require_tree(snap: Snapshot, *nodes: int) -> None:
    if not snap.is_host_tree():
        raise ValidationError(
            "snapshot is not a tree in its host graph; build a BFS tree first"
        )
    for u in nodes:
        if u not in snap:
            raise ValidationError(f"node {u} not in snapshot")


def _subtree_sizes(snap: Snapshot) -> list[int]:
    """Subtree sizes of the snapshot's own parent tree at its root, by
    position: one reverse pass over the parent column, as every parent sits
    before its children.
    """
    parent = snap.parent
    size = [1] * len(parent)
    for i in range(len(parent) - 1, 0, -1):
        size[parent[i]] += size[i]
    return size


def _ancestors(snap: Snapshot, a: int) -> dict[int, None]:
    """Positions a, its parent's, ..., the root's, in that (insertion) order."""
    parent = snap.parent
    chain = {}
    while a >= 0:
        chain[a] = None
        a = parent[a]
    return chain


def _path_ratio(snap: Snapshot, size: list[int], chain: dict,
                b: int) -> tuple[int, int]:
    """R(b)/R(a) as (num, den) for positions a and b, where
    chain = _ancestors(snap, a).

    Stepping down into child w multiplies by size_w / (n - size_w) and
    stepping up out of w by the inverse, so only path sizes enter and the
    products stay O(path length * log n) bits.
    """
    n, parent = snap.n, snap.parent
    num = den = 1
    while b not in chain:
        num *= size[b]
        den *= n - size[b]
        b = parent[b]
    for w in chain:
        if w == b:
            break
        num *= n - size[w]
        den *= size[w]
    return num, den


def _branch_sizes(snap: Snapshot, w: int) -> dict[int, int]:
    """Neighbor id -> node count of its branch when the snapshot is rooted
    at node w."""
    order, parent, n = snap.order, snap.parent, snap.n
    size = _subtree_sizes(snap)
    i = order.index(w)
    out = {order[c]: size[c] for c in range(i + 1, n) if parent[c] == i}
    if i:
        out[order[parent[i]]] = n - size[i]
    return out


def _root_count(n: int, size: list[int]) -> int:
    return math.factorial(n) // math.prod(size)


def rumor_centrality(snap: Snapshot, root: int) -> int:
    """Exact number of spreading orders of the snapshot that start at root."""
    _require_tree(snap, root)
    size = _subtree_sizes(snap)
    num, den = _path_ratio(snap, size, {0: None}, snap.order.index(root))
    return _root_count(snap.n, size) * num // den


@dataclass
class CentralityReport:
    """Per-node exact counts and subtree sizes w.r.t. `root`."""

    root: int
    n: int
    exact: dict[int, int]
    subtree_size: dict[int, int]

    def argmax_set(self) -> list[int]:
        best = max(self.exact.values())
        return sorted(u for u, r in self.exact.items() if r == best)


def centrality_all(snap: Snapshot) -> CentralityReport:
    """Exact centrality for every node in O(n) big-int steps.

    Root value comes from the size product; each child's value follows from
    its parent across the shared edge.  The integer division is exact.
    """
    _require_tree(snap)
    n, order, parent = snap.n, snap.order, snap.parent
    size = _subtree_sizes(snap)
    exact = [_root_count(n, size)]
    for i in range(1, n):
        exact.append(exact[parent[i]] * size[i] // (n - size[i]))
    return CentralityReport(root=snap.root, n=n, exact=dict(zip(order, exact)),
                            subtree_size=dict(zip(order, size)))


def _tree_argmax(snap: Snapshot, candidates: list[int] | None = None) -> tuple:
    """Ascending candidate ids of largest rumor centrality, exactly; None
    stands for every node.

    Nodes holding more than half of all nodes in their subtree form a path
    down from the root; its lowest node is a centroid, and a child holding
    exactly half ties with it.  With every node a candidate these are the
    argmax set.  Otherwise, as R strictly grows along any path toward the
    centroid, a candidate with another one strictly between it and the
    centroid loses; the rest play an ascending-id tournament by exact path
    ratio against the current best.  All of it runs on positions.
    """
    n, order, parent = snap.n, snap.order, snap.parent
    size = _subtree_sizes(snap)
    # ascending positions holding at least half of all nodes; the subtree at
    # position i holds only later positions, so i <= n - half
    half = (n + 1) // 2
    heavy = [i for i, s in enumerate(size[:n - half + 1]) if s >= half]
    center = heavy[-1] if 2 * size[heavy[-1]] > n else heavy[-2]
    if candidates is None:  # center, and a child holding half after it
        return tuple(sorted(order[v] for v in heavy if v >= center))
    pos = dict(zip(order, range(n)))
    cand = [pos[c] for c in candidates]
    chosen = set(cand)
    chain = list(_ancestors(snap, center))
    toward = dict(zip(chain[1:], chain))  # root-side nodes, turned to center
    blocked = {center: False}  # a candidate at x or beyond, short of center

    def is_blocked(x):
        path = []
        while x not in blocked:
            path.append(x)
            x = toward.get(x, parent[x])
        hit = blocked[x]
        for y in reversed(path):
            hit = blocked[y] = hit or y in chosen
        return hit

    best, best_chain = None, None  # the first contender beats the empty field
    for c in cand:
        if c != center and is_blocked(toward.get(c, parent[c])):
            continue
        num, den = _path_ratio(snap, size, best_chain, c) if best else (1, 0)
        if num > den:
            best, best_chain = [c], _ancestors(snap, c)
        elif num == den:
            best.append(c)
    return tuple(order[c] for c in best)


@dataclass
class LocalCenterVerdict:
    """Outcome of the local-center test at a node."""

    is_center: bool
    tied_neighbor: int | None
    subtree_sizes: dict[int, int]


def local_rumor_center(snap: Snapshot, omega: int,
                       sub_neighborhood=None) -> LocalCenterVerdict:
    """Test whether omega beats (or ties) everything reachable through the
    given neighbors (all of omega's neighbors when not restricted).

    omega wins through neighbor u iff u's subtree holds at most half of all
    nodes; an exact half is a tie, and at most one neighbor can tie.
    """
    _require_tree(snap, omega)
    branch = _branch_sizes(snap, omega)
    hood = sorted(branch if sub_neighborhood is None else set(sub_neighborhood))
    sizes = {}
    tied = None
    ok = True
    for u in hood:
        if u not in branch:
            raise ValidationError(f"{u} is not a snapshot neighbor of {omega}")
        sizes[u] = branch[u]
        if 2 * sizes[u] > snap.n:
            ok = False
        elif 2 * sizes[u] == snap.n:
            tied = u
    return LocalCenterVerdict(is_center=ok, tied_neighbor=tied if ok else None,
                              subtree_sizes=sizes)


def subtree_counts(snap: Snapshot, root: int) -> list[int]:
    """Infection counts in each subtree hanging off `root`, neighbor-id order.

    Sums to snap.n - 1.  The snapshot must be a tree in its host.  When the
    host graph is known, uninfected branches show up as zeros; a detached
    snapshot (host None) can only report the branches it actually contains.
    """
    _require_tree(snap, root)
    branch = _branch_sizes(snap, root)
    neigh = set(branch)
    if snap.host is not None:
        neigh.update(snap.host.known_neighbors(root))
    return [branch.get(v, 0) for v in sorted(neigh)]


def _bfs_size_products(g: Graph, induced, roots) -> list[int]:
    """Per root, the product P of subtree sizes of its BFS tree over a node
    set, given by the set's `induced_adjacency` in g.

    The heuristic count n!/P falls strictly as P grows, so the least product
    marks the largest count.  The local indices follow ascending id order,
    so `_bfs_layers` keeps its lowest-id parent rule on them; one reverse
    pass over each visit order sizes subtrees.
    """
    local, adj = induced
    products = []
    for root in roots:
        if root not in local:
            raise ValidationError(f"root {root} not in restriction set")
        if root not in g:
            raise ValidationError(f"root {root} not in graph")
        order = []
        for layer, parent in _bfs_layers(adj.__getitem__, local[root]):
            order.extend(layer)
        if len(order) != len(adj):
            missing = [v for v, i in local.items() if i not in parent][:5]
            raise NoPathError(f"restriction set not connected from {root}: "
                              f"missing {missing}")
        size = [1] * len(adj)
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        products.append(math.prod(size))
    return products


def bfs_heuristic_centrality(g: Graph, nodes, s: int) -> int:
    """General-graph proxy: rumor centrality of s on its BFS tree over `nodes`."""
    induced = induced_adjacency(g, nodes)
    return math.factorial(len(induced[1])) // _bfs_size_products(g, induced, [s])[0]
