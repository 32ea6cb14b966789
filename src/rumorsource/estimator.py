"""Maximum-a-posteriori source location under a uniform suspect prior.

With equal prior weight on every suspect, the MAP source is the suspect
whose rumor centrality over the infected set is largest.  On tree hosts the
argmax is found exactly from subtree sizes, with no big counts: when every
infected node is a suspect it is the tree centroid, and otherwise an exact
pairwise tournament compares suspects by the small-integer path ratio
R(c)/R(b).  On cyclic hosts each candidate is scored on its own BFS
spanning tree of the infected set: n! over its subtree-size product, so the
least product wins and no n! is formed.  Centrality ties are split by a
fair coin driven by an explicit tie seed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .errors import CapacityError, ValidationError
from .topology import Graph, Snapshot, _bfs_layers, shortest_path
from .centrality import _bfs_size_products, _tree_argmax


@dataclass(frozen=True)
class SuspectSet:
    """Candidate sources with an implied uniform prior."""

    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValidationError("suspect set cannot be empty")


def make_suspects_all(snap: Snapshot) -> SuspectSet:
    """Everyone infected is suspect (the no-prior-information case)."""
    return SuspectSet(snap.nodes)


def make_suspects_connected(g: Graph, anchor: int, k: int) -> SuspectSet:
    """First k nodes in `_bfs_layers` order from anchor."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if anchor not in g:
        raise ValidationError(f"anchor {anchor} not in graph")
    chosen = []
    for layer, _ in _bfs_layers(g.neighbors, anchor):
        chosen.extend(layer[:k - len(chosen)])
        if len(chosen) == k:
            return SuspectSet(chosen)
    raise CapacityError(
        f"component of {anchor} has only {len(chosen)} nodes, need {k}"
    )


def make_suspects_two(g: Graph, a: int, b: int) -> SuspectSet:
    """Two distinct suspects joined by a path in g."""
    if a == b:
        raise ValidationError("the two suspects must be distinct nodes")
    shortest_path(g, a, b)  # rejects unknown nodes and disconnected pairs
    return SuspectSet([a, b])


@dataclass(frozen=True)
class Estimate:
    chosen: int
    argmax_set: tuple
    method: str
    tie_broken: bool

    def to_dict(self) -> dict:
        return asdict(self) | {"argmax_set": list(self.argmax_set)}


def map_estimate(snap: Snapshot, suspects: SuspectSet | None,
                 tie_seed: int = 0) -> Estimate:
    """Most likely source among the suspects that are actually infected;
    suspects=None makes every infected node a suspect, with no node set built.

    Tree hosts get the exact argmax from subtree sizes; otherwise each
    candidate is scored on its BFS tree over the infected set, by the
    product of its subtree sizes (least wins).  A tie is resolved uniformly
    at random from the tied set using tie_seed.
    """
    tree = snap.is_host_tree()
    # make_suspects_all holds snap.nodes itself, so identity skips the subset test
    if tree and (suspects is None or suspects.members is snap.nodes
                 or snap.nodes <= suspects.members):
        argmax = _tree_argmax(snap)  # every node a candidate: no sort
    else:
        candidates = sorted(snap.order if suspects is None
                            else suspects.members & snap.nodes)
        if not candidates:
            raise ValidationError("no suspect is infected; nothing to estimate")
        if len(candidates) == 1:
            argmax = tuple(candidates)
        elif tree:
            argmax = _tree_argmax(snap, candidates)
        else:
            products = _bfs_size_products(snap.host, snap.induced, candidates)
            least = min(products)
            argmax = tuple(s for s, p in zip(candidates, products) if p == least)
    tie = len(argmax) > 1
    pick = random.Random(tie_seed).randrange(len(argmax)) if tie else 0
    return Estimate(chosen=argmax[pick], argmax_set=argmax, tie_broken=tie,
                    method="tree-exact" if tree else "bfs-heuristic")
