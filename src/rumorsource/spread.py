"""Susceptible-infected spreading with unit-rate exponential edge delays.

Two backends produce the same law on trees:

* exponential-clocks: every infected-susceptible edge carries an Exp(1)
  timer; the earliest timer fires next.  Works on any graph.
* uniform-boundary: by memorylessness, on a tree the next infected node is
  uniform over the susceptible boundary, so no clocks are needed.  Faster,
  trees only.

A run yields a Snapshot whose parent map records who infected whom.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import topology
from .errors import BackendError, CapacityError, ValidationError
from .topology import ExplicitGraph, Graph, LazyRegularTree, Snapshot

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
    if cfg.backend == "uniform-boundary":
        if isinstance(g, ExplicitGraph) and not g.component_is_tree(cfg.source):
            raise BackendError(
                "uniform-boundary backend needs a tree; use exponential-clocks"
            )
        return _run_uniform_boundary(g, cfg, rng)
    return _run_exponential_clocks(g, cfg, rng)


def _run_uniform_boundary(g: Graph, cfg: SpreadConfig, rng) -> Snapshot:
    """On a tree every neighbour of a newly infected node but its infector
    is still susceptible; the boundary is two flat lists, node and infector.
    On the lazy tree an unexpanded node (any from id n0 on) other than the
    source was infected by its parent, so its child block joins the boundary
    without `neighbors`.  Blocks are numbered as `_expand` would and written
    by one `_grow` at the end; the run stops before one would pass MAX_NODES.
    """
    source, n = cfg.source, cfg.n
    parent: dict[int, int | None] = {source: None}
    order = [source]
    bnode = list(g.neighbors(source))
    binf = [source] * len(bnode)
    lazy = isinstance(g, LazyRegularTree)
    n0 = nxt = g.num_nodes if lazy else float("inf")
    first, k, cap = (g._first, g.delta - 1, topology.MAX_NODES) if lazy else (None, 0, 0)
    grown: list[int] = []  # nodes given a child block by this run, in block order
    for r in _draws(rng.random, n - 1):
        if not bnode:
            raise CapacityError(f"component exhausted after {len(order)} of {n} "
                                "infections")
        j = int(r * len(bnode))
        u, p = bnode[j], binf[j]
        bnode[j], binf[j] = bnode[-1], binf[-1]
        bnode.pop()
        binf.pop()
        parent[u] = p
        order.append(u)
        if u >= n0 or (lazy and not first[u]):
            grown.append(u)
            if nxt + k > cap:
                g._grow(grown)
            bnode.extend(range(nxt, nxt + k))
            binf.extend([u] * k)
            nxt += k
            continue
        for w in g.neighbors(u):
            if w != p:
                bnode.append(w)
                binf.append(u)
    if grown:
        g._grow(grown)
    return Snapshot(root=source, order=order, parent_of=parent, host=g)


def _draws(draw, total=None, chunk=2048):
    """Python floats from `draw(size=...)` calls of at most `chunk`, endless
    when `total` is None: the same stream as one large call, in bounded memory."""
    sizes = repeat(chunk) if total is None else [chunk] * (total // chunk) + [total % chunk]
    return chain.from_iterable(draw(size=s).tolist() for s in sizes)


def _run_exponential_clocks(g: Graph, cfg: SpreadConfig, rng) -> Snapshot:
    source, n = cfg.source, cfg.n
    draws = _draws(rng.exponential)
    parent: dict[int, int | None] = {source: None}
    order = [source]
    heap: list[tuple[float, int, int]] = []
    for v in g.neighbors(source):
        heapq.heappush(heap, (next(draws), v, source))
    while len(order) < n:
        while heap and heap[0][1] in parent:
            heapq.heappop(heap)
        if not heap:
            raise CapacityError(
                f"component exhausted after {len(order)} of {n} infections"
            )
        t, u, infector = heapq.heappop(heap)
        parent[u] = infector
        order.append(u)
        for w in g.neighbors(u):
            if w not in parent:
                heapq.heappush(heap, (t + next(draws), w, u))
    return Snapshot(root=source, order=order, parent_of=parent, host=g)


def snapshot_to_dict(snap: Snapshot) -> dict:
    """Plain-data form: infection-ordered node list plus child->parent pairs."""
    return {
        "n": snap.n,
        "source": snap.root,
        "nodes": list(snap.order),
        "parents": [
            [u, snap.parent_of[u]] for u in snap.order if snap.parent_of[u] is not None
        ],
    }


def snapshot_from_dict(doc: dict, host: Graph | None = None) -> Snapshot:
    """Checked inverse of snapshot_to_dict: ids unique, the source first, and
    one parent per other node, listed before it (subtree sizing relies on it).
    Given a host, every node must be in it and every (node, parent) pair one
    of its edges; checking grows no lazy host.
    """
    try:
        nodes = [int(v) for v in doc["nodes"]]
        pairs = [(int(u), int(p)) for u, p in doc["parents"]]
        root = int(doc.get("source", nodes[0] if nodes else -1))
        n = int(doc.get("n", len(nodes)))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"malformed snapshot document: {e}") from None
    pos = {v: i for i, v in enumerate(nodes)}
    if len(pos) != len(nodes):
        raise ValidationError("snapshot node list repeats an id")
    if not nodes or nodes[0] != root or n != len(nodes):
        raise ValidationError("snapshot node list must start with its source "
                              "and hold n nodes")
    parent: dict[int, int | None] = dict(pairs)
    if root in parent or len(parent) != len(pairs) or len(pairs) != n - 1:
        raise ValidationError("snapshot needs one parent for each non-source node")
    for u, p in pairs:
        if pos.get(p, n) >= pos.get(u, -1):
            raise ValidationError(f"parent {p} of node {u} must be listed before it")
    if host is not None:
        if root not in host:
            raise ValidationError(f"source {root} not in the host graph")
        for u, p in pairs:  # known_neighbors rejects a node the host lacks
            if p not in host.known_neighbors(u):
                raise ValidationError(f"parent {p} of node {u} is not a host neighbor")
    parent[root] = None
    return Snapshot(root=root, order=nodes, parent_of=parent, host=host)


def snapshot_to_json(snap: Snapshot) -> str:
    return json.dumps(snapshot_to_dict(snap), indent=2)


def snapshot_from_json(text: str, host: Graph | None = None) -> Snapshot:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"bad snapshot JSON: {e}") from None
    return snapshot_from_dict(doc, host=host)
