"""
The spread is a Polya urn in disguise
=====================================

On a regular tree the subtree sizes around the source evolve exactly like
a Polya urn: one ball per source-adjacent subtree, and every infection
adds delta - 2 balls of the drawn color.  This demo tallies simulated
spreads against the closed-form urn law, then shows the large-n limit of
the normalized split.
"""

from collections import Counter

import rumorsource as rs
from rumorsource.urn import tree_split_marginal_pmf

DELTA = 3
N = 6
TRIALS = 20000

g = rs.regular_tree(DELTA, N)
tally = Counter()
for t in range(TRIALS):
    snap = rs.simulate_si(g, rs.SpreadConfig(source=0, n=N, seed=1000 + t))
    tally[tuple(rs.subtree_counts(snap, 0))] += 1

print(f"subtree splits around the source, delta={DELTA}, n={N}, "
      f"{TRIALS} runs:")
print(f"{'split':>12} {'exact':>10} {'observed':>10}")
for counts in sorted(tally):
    exact = rs.tree_split_joint(DELTA, counts, N)
    print(f"{str(counts):>12} {float(exact):>10.5f} "
          f"{tally[counts] / TRIALS:>10.5f}")

# The same law straight from the urn type, no trees involved.
spec = rs.PolyaSpec(initial=(1,) * DELTA, increment=DELTA - 2, draws=N - 1)
print(f"\npolya_joint agrees: {rs.polya_joint(spec, (3, 1, 1))} "
      f"== {rs.tree_split_joint(DELTA, (3, 1, 1), N)}")

# One subtree's share of the infection converges to Beta(a, 1+a) with
# a = 1/(delta-2).  Its F(1/2), the chance the subtree stays in the
# minority, has a closed form in the gamma function.
print("\nconvergence of P[first subtree <= n/2] to the limit CDF:")
print(f"{'delta':>6} {'n=10':>8} {'n=100':>8} {'n=1000':>8} {'limit':>8}")
# tree_split_marginal_pmf is the same law as tree_split_marginal at every
# count, in floats; summing exact rationals at n = 1000 would take seconds.
for delta in (3, 4, 6):
    row = [float(tree_split_marginal_pmf(delta, n)[:n // 2 + 1].sum())
           for n in (10, 100, 1000)]
    lim = rs.limit_split_half(delta)
    print(f"{delta:>6} {row[0]:>8.4f} {row[1]:>8.4f} {row[2]:>8.4f} "
          f"{lim:>8.4f}")

# Along a path away from the source the level counts form a Markov chain:
# a root law for the first level, then one conditional step per level.
print("\nlevel-count chain at delta=3, n=8:")
z1 = 4
print(f"  P[first level = {z1}] = {rs.tree_split_marginal(3, z1, 8)}")
print(f"  P[next level = 2 | {z1}] = {rs.chain_step_pmf(3, z1, 2)}")
print(f"  joint P[levels = (4, 2, 1)] = {rs.path_chain_joint(3, 8, (4, 2, 1))}")

# Each step is a normalized conditional pmf over strictly smaller counts.
total = sum(rs.chain_step_pmf(3, z1, c) for c in range(0, z1))
print(f"  step pmf sums to {total}")
