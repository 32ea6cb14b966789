"""
Simulate a rumor and locate its source
======================================

Spread a rumor over a regular tree with the susceptible-infected model,
then try to find where it started.  Rumor centrality counts the spreading
orders consistent with each candidate; the estimator picks the maximizer
inside a suspect set.
"""

import math

import rumorsource as rs

# Everyone has delta = 3 neighbors; the host expands lazily so we only
# pay for nodes the rumor actually reaches.
g = rs.regular_tree(3, 10)
cfg = rs.SpreadConfig(source=0, n=40, seed=20260825)
snap = rs.simulate_si(g, cfg)

print(f"infected {len(snap.order)} nodes, first ten in order: {snap.order[:10]}")

# Score every infected node at once.  exact[] holds the integer counts;
# math.log takes their logs for a shorter column.
rep = rs.centrality_all(snap)
ranked = sorted(rep.exact, key=lambda v: (-rep.exact[v], v))
print("\ntop five by rumor centrality:")
print(f"{'node':>6} {'R(v)':>24} {'log R':>10}")
for v in ranked[:5]:
    print(f"{v:>6} {rep.exact[v]:>24} {math.log(rep.exact[v]):>10.3f}")

# If everyone infected is a suspect we just report the centrality winner.
est_all = rs.map_estimate(snap, rs.make_suspects_all(snap))
print(f"\nall infected suspect: chose {est_all.chosen} "
      f"(method {est_all.method}, true source 0)")
pc = rs.pc_all_suspects(3, 40)
print(f"  misses are the norm here: exact hit rate at this size is "
      f"{float(pc.value):.3f}")

# A connected suspect patch around some anchor.
sus_k = rs.make_suspects_connected(g, 0, 5)
est_k = rs.map_estimate(snap, sus_k)
print(f"five connected suspects {sorted(sus_k.members)}: chose {est_k.chosen}")

# Two suspects a fixed distance apart.  Uninfected suspects are ruled out
# before scoring, which is why distant pairs are easy.
sus2 = rs.make_suspects_two(g, 0, 2)
est2 = rs.map_estimate(snap, sus2)
print(f"two suspects {sorted(sus2.members)}: chose {est2.chosen}, "
      f"tie_broken={est2.tie_broken}")

# The local check: the source maximizes centrality iff none of its
# subtrees holds more than half the infection.
verdict = rs.local_rumor_center(snap, est_all.chosen)
print(f"\nlocal check at {est_all.chosen}: is_center={verdict.is_center}, "
      f"subtree sizes {verdict.subtree_sizes}")

# On graphs with cycles the exact count is not defined, so the estimator
# falls back to a breadth-first heuristic and says so in the method field.
gc = rs.ExplicitGraph({0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [0, 2]})
snapc = rs.simulate_si(gc, rs.SpreadConfig(source=0, n=4, seed=3,
                                           backend="exponential-clocks"))
estc = rs.map_estimate(snapc, rs.make_suspects_all(snapc))
print(f"\nsquare graph: chose {estc.chosen} via {estc.method}, "
      f"ties among {sorted(estc.argmax_set)}")
