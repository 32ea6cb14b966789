"""Susceptible-infected spreading with unit-rate exponential edge delays.

Two backends produce the same law on trees:

* exponential-clocks: every infected-susceptible edge carries an Exp(1)
  timer; the earliest timer fires next.  Works on any graph.
* uniform-boundary: by memorylessness, on a tree the next infected node is
  uniform over the susceptible boundary, so no clocks are needed.  Faster,
  trees only.

The uniform-boundary law is defined by one loop over a swap-removed list of
(node, infector) entries, `_run_uniform_boundary`, which serves explicit
trees.  On the lazy regular tree the same draws give the same run with no
Python step per infection (`_run_lazy_tree`): the boundary grows by delta-2
entries per infection in every run, so each draw's slot is known up front,
and a slot rule names the entry held there.  A run yields a Snapshot whose
parent column records who infected whom, as each infector's position in
the infection order.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import topology
from .errors import BackendError, CapacityError, ValidationError
from .topology import Graph, LazyRegularTree, Snapshot

BACKENDS = ("uniform-boundary", "exponential-clocks")


@dataclass(frozen=True)
class SpreadConfig:
    source: int
    n: int
    seed: int
    backend: str = "uniform-boundary"

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"need n >= 1 infections, got {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.source < 0:
            raise ValidationError(f"source must be a node id, got {self.source}")
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )


def simulate_si(g: Graph, cfg: SpreadConfig) -> Snapshot:
    """Spread from cfg.source until cfg.n nodes are infected."""
    if cfg.source not in g:
        raise ValidationError(f"source {cfg.source} not in graph")
    rng = np.random.default_rng(cfg.seed)
    if cfg.backend == "exponential-clocks":
        return _run_exponential_clocks(g, cfg, rng)
    if isinstance(g, LazyRegularTree):
        return _run_lazy_tree(g, cfg, rng)
    if not g.component_is_tree(cfg.source):
        raise BackendError(
            "uniform-boundary backend needs a tree; use exponential-clocks"
        )
    return _run_uniform_boundary(g, cfg, rng)


def _run_uniform_boundary(g: Graph, cfg: SpreadConfig, rng) -> Snapshot:
    """The uniform-boundary law on any tree: draw i picks slot
    j = int(r_i * len(boundary)) of the (node, infector) boundary, moves the
    last entry into slot j, and appends the infected node's neighbours but
    its infector (on a tree all of them are still susceptible), in
    ascending id order.  An entry's infector is held as its position in the
    infection order.  `simulate_si` runs it on explicit trees; on the lazy
    tree `_run_lazy_tree` gives the same run with no Python step per
    infection.
    """
    source, n = cfg.source, cfg.n
    order, parent = [source], [-1]
    bnode = list(g.neighbors(source))
    binf = [0] * len(bnode)
    for r in _draws(rng.random, n - 1):
        if not bnode:
            raise CapacityError(f"component exhausted after {len(order)} of {n} "
                                "infections")
        j = int(r * len(bnode))
        u, p = bnode[j], binf[j]
        bnode[j], binf[j] = bnode[-1], binf[-1]
        bnode.pop()
        binf.pop()
        i, infector = len(order), order[p]
        parent.append(p)
        order.append(u)
        for w in g.neighbors(u):
            if w != infector:
                bnode.append(w)
                binf.append(i)
    return Snapshot(root=source, order=order, parent=parent, host=g)


def _run_lazy_tree(g: LazyRegularTree, cfg: SpreadConfig, rng) -> Snapshot:
    """`_run_uniform_boundary` on the lazy tree, from the draw indices alone:
    the same draws, ids, order, parents and tree columns.

    Number the draws d = 1..n-1 and call the source draw 0.  Block 0 is the
    source's delta neighbours, in slots 0..delta-1, and block d is the
    delta-1 entries that draw d's node adds.  Before draw d the boundary holds
    L_d = delta + (d-1)(delta-2) entries in every run, so one product gives
    every slot j_d = int(r_d * L_d).  Draw d moves the last entry, the last
    of block d-1 (source neighbour delta-1 at d = 1), into slot j_d, and
    block d then fills slots L_d-1 .. L_d+delta-3.  So slot p at draw d holds
    the later of two writes: the latest block before d that covers p (block
    0 below slot delta-1), or the move made by the latest earlier draw on p.
    That names the block b_d and the offset o_d in it of each draw's entry.

    The entries of a node expanded before the run come from `neighbors`,
    found in a few rounds outward from the source.  Every other infected
    node grows a fresh block, so offset o of draw b's block has id
    n0 + (delta-1) * rank(b) + o, where rank(b) counts the draws before b
    that grew a block.  Only the draws of expanded nodes grow none, so once
    fit + e draws are made, where fit blocks fit under MAX_NODES and e nodes
    were expanded, the run must outgrow MAX_NODES; no more are made, and the
    sort keys j * m + i stay below 2**63.  Then `_grow` gets the grown nodes
    up to the first block that does not fit, writes the blocks that fit and
    raises, which leaves the columns the loop leaves.  Draw d's node sits at
    position d of the order, so the blocks b_d are the parent column.
    """
    source, n, delta = cfg.source, cfg.n, g.delta
    k = delta - 1
    blocks = {0: g.neighbors(source)}  # draw -> its block, where expanded before the run
    n0 = g.num_nodes  # 2 + k * (nodes expanded), as the origin is one of them
    fit = (topology.MAX_NODES - n0) // k
    m = min(n - 1, fit + (n0 - 2) // k)
    i = np.arange(m)  # draw i + 1
    j = (rng.random(m) * (i * (delta - 2) + delta)).astype(np.int64)
    # block b >= 1 starts at slot 1 + b(delta-2); draw i + 1 sees blocks up to i
    b = i * j if delta == 2 else np.minimum(np.maximum(j - 1, 0) // (delta - 2), i)
    o = j - b * (delta - 2) - (b > 0)
    slot, by_slot = np.divmod(np.sort(j * m + i), m)  # by slot, then by draw
    same = (slot[1:] == slot[:-1]).nonzero()[0]
    # draw prev + 1, the latest earlier one on the slot, moved in block prev's end
    prev = np.full(m, -1)
    prev[by_slot[same + 1]] = by_slot[same]
    moved = prev >= b
    b = np.maximum(b, prev)
    o[moved] = k - 1 + (prev[moved] == 0)

    at = {0: source}  # draw -> node, for the entries of blocks in `blocks`
    grown = np.ones(m + 1, bool)
    grown[0] = False
    frontier = [0]  # draws whose node the last round found expanded
    while frontier:
        found = np.zeros(m + 1, bool)
        found[frontier] = True
        hits = found[b].nonzero()[0].tolist()
        frontier = []
        for h, bh, oh in zip(hits, b[hits].tolist(), o[hits].tolist()):
            u = at[h + 1] = blocks[bh][oh]
            if g._first[u]:
                grown[h + 1] = False
                frontier.append(h + 1)
                blocks[h + 1] = [w for w in g.neighbors(u) if w != at[bh]]
    rank = grown.cumsum() - grown
    node = np.empty(m + 1, np.int64)  # draw -> infected node
    node[1:] = k * rank[b] + o + n0
    node[list(at)] = list(at.values())
    grown_nodes = node[grown]
    if grown_nodes.size > fit:
        g._grow(grown_nodes[:fit + 1])  # raises CapacityError
    g._grow(grown_nodes)
    return Snapshot(root=source, order=node.tolist(), parent=[-1, *b.tolist()],
                    host=g)


def _draws(draw, total=None, chunk=2048):
    """Python floats from `draw(size=...)` calls of at most `chunk`, endless
    when `total` is None: the same stream as one large call, in bounded memory."""
    sizes = repeat(chunk) if total is None else [chunk] * (total // chunk) + [total % chunk]
    return chain.from_iterable(draw(size=s).tolist() for s in sizes)


def _run_exponential_clocks(g: Graph, cfg: SpreadConfig, rng) -> Snapshot:
    """Heap entries are (time, node, infector id), so ties pop in id order;
    `pos` holds each infected node's position in the order."""
    source, n = cfg.source, cfg.n
    draws = _draws(rng.exponential)
    pos = {source: 0}
    order, parent = [source], [-1]
    heap: list[tuple[float, int, int]] = []
    for v in g.neighbors(source):
        heapq.heappush(heap, (next(draws), v, source))
    while len(order) < n:
        while heap and heap[0][1] in pos:
            heapq.heappop(heap)
        if not heap:
            raise CapacityError(
                f"component exhausted after {len(order)} of {n} infections"
            )
        t, u, infector = heapq.heappop(heap)
        pos[u] = len(order)
        parent.append(pos[infector])
        order.append(u)
        for w in g.neighbors(u):
            if w not in pos:
                heapq.heappush(heap, (t + next(draws), w, u))
    return Snapshot(root=source, order=order, parent=parent, host=g)


def snapshot_to_dict(snap: Snapshot) -> dict:
    """Plain-data form: infection-ordered node list plus child->parent pairs."""
    order = snap.order
    return {
        "n": snap.n,
        "source": snap.root,
        "nodes": list(order),
        "parents": [[order[i], order[p]] for i, p in enumerate(snap.parent) if p >= 0],
    }


def _whole(v) -> int:
    """v itself when it is a non-negative int; a float, bool or string is
    rejected, never truncated."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValidationError(f"snapshot ids and counts must be non-negative "
                              f"integers, got {v!r}")
    return v


def snapshot_from_dict(doc: dict, host: Graph | None = None) -> Snapshot:
    """Checked inverse of snapshot_to_dict: ids are non-negative ints and
    unique, the source comes first, and every other node has one parent,
    listed before it (the position column relies on it).  Given a host,
    every node must be in it and every (node, parent) pair one of its edges;
    checking grows no lazy host.
    """
    try:
        nodes = [_whole(v) for v in doc["nodes"]]
        pairs = [(_whole(u), _whole(p)) for u, p in doc["parents"]]
        root = _whole(doc.get("source", nodes[0] if nodes else 0))
        n = _whole(doc.get("n", len(nodes)))
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed snapshot document: {e}") from None
    pos = dict(zip(nodes, range(len(nodes))))
    if len(pos) != len(nodes):
        raise ValidationError("snapshot node list repeats an id")
    if not nodes or nodes[0] != root or n != len(nodes):
        raise ValidationError("snapshot node list must start with its source "
                              "and hold n nodes")
    children = {u for u, _ in pairs}
    if root in children or len(children) != len(pairs) or len(pairs) != n - 1:
        raise ValidationError("snapshot needs one parent for each non-source node")
    parent = [-1] * n
    for u, p in pairs:
        i = pos.get(u, -1)
        if pos.get(p, n) >= i:
            raise ValidationError(f"parent {p} of node {u} must be listed before it")
        parent[i] = pos[p]
    if host is not None:
        if root not in host:
            raise ValidationError(f"source {root} not in the host graph")
        for u, p in pairs:  # known_neighbors rejects a node the host lacks
            if p not in host.known_neighbors(u):
                raise ValidationError(f"parent {p} of node {u} is not a host neighbor")
    return Snapshot(root=root, order=nodes, parent=parent, host=host)


def snapshot_to_json(snap: Snapshot) -> str:
    return json.dumps(snapshot_to_dict(snap), indent=2)


def snapshot_from_json(text: str, host: Graph | None = None) -> Snapshot:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad snapshot JSON: {e}") from None
    return snapshot_from_dict(doc, host=host)
