"""Graphs the rumor spreads on: explicit edge-list graphs and lazily grown
regular trees, plus BFS utilities and the Snapshot record produced by a
simulation run.

Node ids are non-negative ints.  Regular trees are grown on demand so an
"infinite" tree costs only what a simulation actually touches; node 0 is
always the origin.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, NoPathError, ParseError, ValidationError

# Hard cap on materialized nodes for any single graph.
MAX_NODES = 4_000_000


class Graph:
    """Common interface: membership and neighbor lists."""

    def __contains__(self, u: int) -> bool:
        raise NotImplementedError

    def neighbors(self, u: int) -> list[int]:
        """The neighbors of u, in ascending id order."""
        raise NotImplementedError

    def known_neighbors(self, u: int) -> list[int]:
        """The neighbors of u held so far; never grows the graph."""
        return self.neighbors(u)


class ExplicitGraph(Graph):
    """Finite undirected graph held as an adjacency map.

    The graph has no mutators, so `component_is_tree` caches its verdict for
    every node of a component it has checked; the cache cannot go stale.
    """

    def __init__(self, adjacency: dict[int, list[int] | set[int]]):
        self._adj = {u: sorted(vs) for u, vs in adjacency.items()}
        self._tree_verdict: dict[int, bool] = {}

    @classmethod
    def from_edges(cls, edges) -> "ExplicitGraph":
        adj: dict[int, set[int]] = {}
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            if u < 0 or v < 0:
                raise ValidationError(f"negative node id in edge ({u}, {v})")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return cls(adj)

    def __contains__(self, u: int) -> bool:
        return u in self._adj

    def neighbors(self, u: int) -> list[int]:
        try:
            return self._adj[u]
        except KeyError:
            raise ValidationError(f"node {u} not in graph") from None

    def component_is_tree(self, u: int) -> bool:
        """Whether u's connected component is a tree: one BFS and one
        `Snapshot.is_host_tree` per component, then a cached lookup."""
        if u not in self._tree_verdict:
            snap = bfs_tree(self, u)
            self._tree_verdict.update(dict.fromkeys(snap.order, snap.is_host_tree()))
        return self._tree_verdict[u]

    @property
    def num_nodes(self) -> int:
        return len(self._adj)


class LazyRegularTree(Graph):
    """Infinite degree-regular tree, materialized on first neighbor access.

    Every node has degree `delta` once expanded.  Per-node state is two flat
    integer columns: `_parent[u]` (-1 at the origin) and `_first[u]`, the
    first id of u's child block, or 0 while u is unexpanded (0 is never a
    child).  Expanding u appends its children as one block of fresh ids, so
    a parent's id is below its children's and a fresh tree walked the same
    way yields the same ids.  Growth is unsynchronized: `neighbors` may
    append, so share a tree between threads only once it is fully grown.
    """

    def __init__(self, delta: int):
        if delta < 2:
            raise ValidationError(f"degree must be >= 2, got {delta}")
        self.delta = delta
        self._parent = array("q", [-1])
        self._first = array("q", [0])

    def __contains__(self, u: int) -> bool:
        return 0 <= u < len(self._parent)

    @property
    def num_nodes(self) -> int:
        """Nodes materialized so far (the tree itself is unbounded)."""
        return len(self._parent)

    def _check(self, u: int) -> None:
        if not 0 <= u < len(self._parent):
            raise ValidationError(f"node {u} not materialized")

    def parent(self, u: int) -> int | None:
        self._check(u)
        return self._parent[u] if u else None

    def depth(self, u: int) -> int:
        self._check(u)
        d = 0
        while u:
            u = self._parent[u]
            d += 1
        return d

    def neighbors(self, u: int) -> list[int]:
        """A fresh list: the parent (none at the origin), then the children,
        which is ascending: a parent's id is below its child block's."""
        if not 0 <= u < len(self._parent):
            raise ValidationError(f"node {u} not materialized")
        first = self._first[u] or self._expand(u)
        if u == 0:
            return list(range(first, first + self.delta))
        return [self._parent[u], *range(first, first + self.delta - 1)]

    def known_neighbors(self, u: int) -> list[int]:
        """Neighbors materialized so far, without triggering expansion."""
        self._check(u)
        if self._first[u]:
            return self.neighbors(u)
        return [self._parent[u]] if u else []

    def _expand(self, u: int) -> int:
        self._grow((u,))
        return self._first[u]

    def _grow(self, nodes) -> None:
        """Append a child block per node, in order: delta children at the
        origin (which grows alone), delta-1 elsewhere.  The only writer of the
        columns; past MAX_NODES it writes the blocks that fit, then raises.
        An int64 array of nodes is written with numpy; any other sequence,
        such as one expansion's single node, with list operations."""
        bulk, start = isinstance(nodes, np.ndarray), len(self._parent)
        nodes = nodes if bulk else list(nodes)
        k = self.delta if len(nodes) and nodes[0] == 0 else self.delta - 1
        fit = nodes[:(MAX_NODES - start) // k]
        if bulk:
            self._parent.frombytes(np.repeat(fit, k).view(np.uint8))
            self._first.frombytes(bytes(8 * k * len(fit)))
            np.frombuffer(self._first, np.int64)[fit] = np.arange(
                start, start + k * len(fit), k)  # no view outlives this line
        else:
            col = [0] * (k * len(fit))
            for i in range(k):
                col[i::k] = fit
            self._parent.fromlist(col)
            self._first.frombytes(bytes(8 * len(col)))
            for u in fit:
                self._first[u] = start
                start += k
        if len(fit) < len(nodes):
            raise CapacityError(f"materialized node limit {MAX_NODES} exceeded")

    def path_from_origin(self, length: int) -> list[int]:
        """Materialize one descending path; returns length+1 node ids."""
        if length < 0:
            raise ValidationError("path length must be >= 0")
        path = [0]
        for _ in range(length):
            u = path[-1]
            path.append(self._first[u] or self._expand(u))
        return path


def regular_tree(delta: int, radius: int) -> LazyRegularTree:
    """Degree-`delta` tree with the ball of `radius` around node 0 materialized.

    Interior nodes (depth < radius) have all delta neighbors present; the
    depth-`radius` shell exists but is unexpanded.  radius=0 gives a bare
    origin that grows on demand.
    """
    g = LazyRegularTree(delta)  # validates delta
    count = ball_size(delta, radius)  # validates radius
    if count > MAX_NODES:
        raise CapacityError(
            f"ball of radius {radius} at degree {delta} has {count} nodes, "
            f"limit {MAX_NODES}"
        )
    if radius:  # ids grow outward: the interior is the ids below the shell's
        g._grow([0])
    if radius > 1:
        g._grow(np.arange(1, ball_size(delta, radius - 1), dtype=np.int64))
    return g


def ball_size(delta: int, radius: int) -> int:
    """Node count of the radius-r ball in the degree-delta tree."""
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return 1
    if delta == 2:
        return 2 * radius + 1
    return 1 + delta * ((delta - 1) ** radius - 1) // (delta - 2)


def load_edge_list(path) -> ExplicitGraph:
    """Read whitespace-separated "u v" pairs; '#' starts a comment.

    Duplicate edges collapse; self-loops and malformed lines raise with the
    line number.
    """
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected two node ids, got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer node id in {raw!r}"
                ) from None
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at node {u}")
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative node id in {raw!r}")
            edges.append((u, v))
    if not edges:
        raise ParseError("no edges found")
    return ExplicitGraph.from_edges(edges)


@dataclass
class Snapshot:
    """Set of infected (or BFS-visited) nodes with a rooted spanning tree.

    `order` lists nodes root-first in infection/visit order.  The tree is
    one column of positions in `order`: `parent[i]` is the position of node
    order[i]'s tree parent, -1 at the root, so every parent sits before its
    children.  `host` keeps the graph the snapshot was cut from, when
    available.
    """

    root: int
    order: list[int]
    parent: list[int]
    host: Graph | None = None

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def parent_of(self) -> Mapping[int, int | None]:
        """Read-only node -> tree parent id (the root's is None), derived
        from `parent`; the package's own tree routes never build it."""
        order = self.order
        parents = [None, *map(order.__getitem__, self.parent[1:])]
        return MappingProxyType(dict(zip(order, parents)))

    @cached_property
    def nodes(self) -> frozenset:
        return frozenset(self.order)

    def __contains__(self, u: int) -> bool:
        return u in self.nodes

    @cached_property
    def induced(self) -> tuple[dict[int, int], list[list[int]]]:
        """`induced_adjacency` of the host on these nodes, built once."""
        return induced_adjacency(self.host, self.order)

    def is_host_tree(self) -> bool:
        """True when the host-induced subgraph on these nodes is a tree:
        its edges, counted on `induced`, number n - 1.

        Without a host the snapshot's own parent tree is all there is, so
        the answer is True; so it is on the lazy tree, which has no cycles.
        """
        if self.host is None or isinstance(self.host, LazyRegularTree):
            return True
        return sum(map(len, self.induced[1])) == 2 * (self.n - 1)


def induced_adjacency(g: Graph, nodes) -> tuple[dict[int, int], list[list[int]]]:
    """The subgraph of g induced on `nodes`, on local indices: `local` maps
    each node to its rank in ascending id order, and adj[i] lists, ascending,
    the local indices of the i-th node's neighbours in the set.  A node that
    g lacks has none."""
    local = {v: i for i, v in enumerate(sorted(set(nodes)))}
    adj = [[local[w] for w in g.neighbors(v) if w in local] if v in g else []
           for v in local]
    return local, adj


def _bfs_layers(neighbors, root: int):
    """Breadth-first layers from root, each in ascending id order.

    The package's one BFS rule: a layer's nodes, and each node's neighbors,
    are scanned in ascending id order, so a node reachable from several
    nodes of the previous layer gets the lowest-id parent.  `neighbors(u)`
    gives u's neighbors in ascending order (`Graph.neighbors`, or a lookup
    into an adjacency list).  Yields (layer, parent) where `parent` maps
    every node reached so far to its BFS parent (root to None).  A layer is
    expanded only when the next one is asked for.
    """
    parent: dict[int, int | None] = {root: None}
    layer = [root]
    while layer:
        yield layer, parent
        nxt = []
        for u in layer:
            for v in neighbors(u):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        layer = sorted(nxt)


def bfs_tree(g: Graph, root: int, restrict=None) -> Snapshot:
    """Breadth-first spanning tree of `restrict` (or all of g) from root,
    ordered and parented by `_bfs_layers`, whose parent map turns into
    positions once; nodes outside `restrict` are never entered.
    """
    neighbors = g.neighbors
    if restrict is not None:
        restrict = frozenset(restrict)
        if root not in restrict:
            raise ValidationError(f"root {root} not in restriction set")

        def neighbors(u):
            return filter(restrict.__contains__, g.neighbors(u))
    if root not in g:
        raise ValidationError(f"root {root} not in graph")
    order = []
    for layer, parent in _bfs_layers(neighbors, root):
        order.extend(layer)
    if restrict is not None and len(parent) != len(restrict):
        missing = sorted(set(restrict) - set(parent))[:5]
        raise NoPathError(f"restriction set not connected from {root}: missing {missing}")
    pos = dict(zip(order, range(len(order))))
    return Snapshot(root=root, order=order,
                    parent=[-1, *(pos[parent[v]] for v in order[1:])], host=g)


def shortest_path(g: Graph, u: int, v: int) -> list[int]:
    """Node sequence of one shortest u-v path (deterministic tie-breaks)."""
    if u not in g:
        raise ValidationError(f"node {u} not in graph")
    if v not in g:
        raise ValidationError(f"node {v} not in graph")
    if u == v:
        return [u]
    if isinstance(g, LazyRegularTree):
        return _tree_path(g, u, v)
    for _, prev in _bfs_layers(g.neighbors, u):
        if v in prev:
            break
    else:
        raise NoPathError(f"no path between {u} and {v}")
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path[::-1]


def _tree_path(g: LazyRegularTree, u: int, v: int) -> list[int]:
    # Ancestors have smaller ids, so the larger end is never the common
    # ancestor: climb from it until the walks meet.  Touches no new nodes.
    up, vp = [u], [v]
    while up[-1] != vp[-1]:
        if up[-1] > vp[-1]:
            up.append(g.parent(up[-1]))
        else:
            vp.append(g.parent(vp[-1]))
    return up + vp[-2::-1]
