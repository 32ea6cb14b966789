"""Urn pmf checks against a brute-force draw-sequence enumeration.

The oracle walks every possible draw sequence, multiplying the
ball-fraction at each step with exact rationals, so it shares no code
with the product formula under test.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import enumerate_draws
from rumorsource.errors import ValidationError
from rumorsource.exactprob import EXACT_DEFAULT_LIMIT, pc_all_suspects
from rumorsource.urn import (PolyaSpec, chain_step_pmf, limit_split_half,
                             path_chain_joint, polya_joint, rising_product,
                             split_step, tree_split_joint, tree_split_marginal,
                             tree_split_marginal_pmf, tree_split_spec)


ORACLE_SPECS = [
    PolyaSpec(initial=(1, 1), increment=1, draws=4),
    PolyaSpec(initial=(1, 1), increment=2, draws=5),
    PolyaSpec(initial=(1, 1, 1), increment=1, draws=5),
    PolyaSpec(initial=(2, 1), increment=3, draws=6),
    PolyaSpec(initial=(1, 2, 3), increment=2, draws=4),
    PolyaSpec(initial=(1, 1), increment=0, draws=6),
    PolyaSpec(initial=(1, 0), increment=1, draws=4),
    PolyaSpec(initial=(3, 1, 1), increment=1, draws=6),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_joint_matches_draw_enumeration(spec):
    oracle = enumerate_draws(spec.initial, spec.increment, spec.draws)
    total = Fraction(0)
    for counts in itertools.product(range(spec.draws + 1),
                                    repeat=len(spec.initial)):
        if sum(counts) != spec.draws:
            continue
        want = oracle.get(counts, Fraction(0))
        got = polya_joint(spec, counts)
        assert got == want, (spec, counts)
        total += got
    assert total == 1


def test_joint_classic_uniform():
    # two colors, one ball each, unit increment: totals are uniform
    for n in range(1, 8):
        spec = PolyaSpec(initial=(1, 1), increment=1, draws=n)
        for x in range(n + 1):
            assert polya_joint(spec, (x, n - x)) == Fraction(1, n + 1)


def test_joint_zero_ball_color_never_drawn():
    spec = PolyaSpec(initial=(1, 0), increment=1, draws=3)
    assert polya_joint(spec, (3, 0)) == 1
    assert polya_joint(spec, (2, 1)) == 0


def test_joint_exchangeable_in_equal_colors():
    spec = PolyaSpec(initial=(1, 1, 1), increment=2, draws=5)
    for counts in itertools.product(range(6), repeat=3):
        if sum(counts) != 5:
            continue
        base = polya_joint(spec, counts)
        for perm in itertools.permutations(counts):
            assert polya_joint(spec, perm) == base


def test_joint_validation():
    spec = PolyaSpec(initial=(1, 1), increment=1, draws=3)
    with pytest.raises(ValidationError):
        polya_joint(spec, (1, 1))  # wrong total
    with pytest.raises(ValidationError):
        polya_joint(spec, (1, 1, 1))  # wrong arity
    with pytest.raises(ValidationError):
        polya_joint(spec, (4, -1))
    with pytest.raises(ValidationError):
        PolyaSpec(initial=(0, 0), increment=1, draws=2)
    with pytest.raises(ValidationError):
        PolyaSpec(initial=(1, -1), increment=1, draws=2)
    with pytest.raises(ValidationError):
        PolyaSpec(initial=(1, 1), increment=-1, draws=2)


def test_rising_product_and_log():
    assert rising_product(Fraction(1), 1, 4) == 1 * 2 * 3 * 4
    assert rising_product(Fraction(2), 3, 3) == 2 * 5 * 8
    assert rising_product(Fraction(5), 2, 0) == 1


def test_tree_split_spec_shape():
    spec = tree_split_spec(4, 6)
    assert spec.initial == (1, 1, 1, 1)
    assert spec.increment == 2
    assert spec.draws == 5


def test_tree_split_joint_small_cases():
    # three equal subtrees splitting n-1 nodes uniformly over compositions
    n = 4
    comps = [c for c in itertools.product(range(4), repeat=3) if sum(c) == 3]
    assert len(comps) == 10
    for c in comps:
        assert tree_split_joint(3, c, n) == Fraction(2, n * (n + 1))
    # degree four, three nodes: first branch gets both remaining nodes
    assert tree_split_marginal(4, 2, 3) == Fraction(1, 8)


def test_tree_split_joint_uniform_identity_degree_three():
    # every composition equally likely when increment is one
    rng = random.Random(3)
    for n in [2, 3, 5, 8, 12]:
        seen = set()
        for _ in range(30):
            cuts = sorted(rng.randrange(n) for _ in range(2))
            c = (cuts[0], cuts[1] - cuts[0], n - 1 - cuts[1])
            if c in seen:
                continue
            seen.add(c)
            assert tree_split_joint(3, c, n) == Fraction(2, n * (n + 1))


def test_tree_split_marginal_is_joint_sum():
    for delta in (3, 4):
        for n in (2, 4, 7):
            for x1 in range(n):
                s = Fraction(0)
                for rest in itertools.product(range(n), repeat=delta - 1):
                    if sum(rest) == n - 1 - x1:
                        s += tree_split_joint(delta, (x1,) + rest, n)
                assert tree_split_marginal(delta, x1, n) == s


def test_tree_split_marginal_degree_three_closed_form():
    for n in range(2, 30):
        for x in range(n):
            got = tree_split_marginal(3, x, n)
            assert got == Fraction(2 * (n - x), n * (n + 1))


def test_tree_split_marginal_normalizes():
    for delta in (2, 3, 5):
        for n in (1, 2, 6, 11):
            assert sum(tree_split_marginal(delta, x, n)
                       for x in range(n)) == 1


@pytest.mark.parametrize("delta", [2, 3, 4, 12])
def test_split_step_is_marginal_ratio(delta):
    for n in range(2, 31):
        N = n - 1
        for c in range(1, n):
            want = (tree_split_marginal(delta, c, n)
                    / tree_split_marginal(delta, c - 1, n))
            assert Fraction(*split_step(delta, N, c)) == want, (delta, n, c)
        # an array of counts gives the same pairs, element by element
        num, den = split_step(delta, N, np.arange(1, n))
        assert list(zip(num.tolist(), den.tolist())) == \
            [split_step(delta, N, c) for c in range(1, n)]


def test_tree_split_marginal_pmf_tracks_exact():
    for delta in (2, 3, 4, 12):
        for n in (1, 2, 3, 10, 41):
            got = tree_split_marginal_pmf(delta, n)
            assert len(got) == n
            for x in range(n):
                want = float(tree_split_marginal(delta, x, n))
                assert math.isclose(got[x], want, rel_tol=1e-13), (delta, n, x)
    # at delta = 2 the extreme counts (2^-(n-1)) underflow; the law does not
    p = tree_split_marginal_pmf(2, 3001)
    assert p[0] == 0.0 and math.isclose(p.sum(), 1.0, rel_tol=1e-15)
    want = float(tree_split_marginal(2, 1500, 3001))
    assert math.isclose(p[1500], want, rel_tol=1e-13)
    with pytest.raises(ValidationError):
        tree_split_marginal_pmf(1, 5)


def test_chain_root_pmf():
    # the chain's root law is the one-subtree marginal
    n = 9
    assert sum(tree_split_marginal(3, z, n) for z in range(n)) == 1
    for z in range(n):
        assert tree_split_marginal(3, z, n) == Fraction(2 * (n - z), n * (n + 1))
    # degree two: the first subtree size is binomial-with-uniform urn, one ball
    # plus zero-increment companion; root pmf must still normalize
    assert sum(tree_split_marginal(2, z, n) for z in range(n)) == 1


def test_chain_step_pmf_degree_three_uniform():
    for prev in (1, 2, 5):
        for c in range(prev):
            assert chain_step_pmf(3, prev, c) == Fraction(1, prev)
        assert sum(chain_step_pmf(3, prev, c) for c in range(prev)) == 1


def test_chain_step_pmf_degree_two_deterministic():
    for prev in (1, 3, 6):
        for c in range(prev):
            want = Fraction(1) if c == prev - 1 else Fraction(0)
            assert chain_step_pmf(2, prev, c) == want


def test_chain_step_pmf_normalizes_high_degree():
    for delta in (4, 5, 7):
        for prev in (1, 2, 4, 9):
            assert sum(chain_step_pmf(delta, prev, c) for c in range(prev)) == 1


def test_path_chain_joint():
    n = 8
    # one-level chain is just the root pmf (empty chains and zero tails are
    # separate events and get rejected)
    for z1 in range(1, n):
        assert path_chain_joint(3, n, (z1,)) == tree_split_marginal(3, z1, n)
    # two levels, degree three: root pmf times uniform step
    assert path_chain_joint(3, n, (5, 2)) == \
        tree_split_marginal(3, 5, n) * Fraction(1, 5)
    # degree two chains force a strict countdown
    assert path_chain_joint(2, n, (4, 3, 2)) == tree_split_marginal(2, 4, n)
    assert path_chain_joint(2, n, (4, 2)) == 0
    with pytest.raises(ValidationError):
        path_chain_joint(3, n, (3, 3))
    with pytest.raises(ValidationError):
        path_chain_joint(3, n, (2, 5))
    with pytest.raises(ValidationError):
        path_chain_joint(3, n, ())
    with pytest.raises(ValidationError):
        path_chain_joint(3, n, (2, 0))


def test_limit_split_half_values():
    # delta = 4: the arcsine-law value I_{1/2}(1/2, 3/2) = 1/2 + 1/pi
    want = 0.5 + 1.0 / math.pi
    assert abs(limit_split_half(4) - want) <= 2 * math.ulp(want)
    # I_{1/2}(a, 1+a), a = 1/(delta-2), from mpmath at 40 digits
    for delta, want in ((6, 0.88137988175090659), (12, 0.94157569494468432),
                        (50, 0.98610267373204517)):
        assert limit_split_half(delta) == pytest.approx(want, rel=1e-15, abs=0)
    values = [limit_split_half(delta) for delta in range(3, 201)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert limit_split_half(10 ** 6) < 1.0


def test_limit_split_cdf_degree_three():
    # limiting first-branch fraction is Beta(1, 2): F(1/2) = 3/4 exactly
    assert limit_split_half(3) == 0.75
    with pytest.raises(ValidationError):
        limit_split_half(2)


def test_finite_split_converges_to_beta_limit():
    # distribution of the first-branch share at n = 10**4 should sit within
    # a percent of the limit law at the half-way point
    n = 10 ** 4
    for delta in (3, 4, 6):
        f_n = float(tree_split_marginal_pmf(delta, n)[:n // 2 + 1].sum())
        lim = limit_split_half(delta)
        assert abs(f_n - lim) < 0.01, (delta, f_n, lim)


def test_exact_default_limit_is_sane():
    assert EXACT_DEFAULT_LIMIT == 500
    # auto mode picks rationals below the cutoff and floats above
    assert isinstance(pc_all_suspects(4, 100).value, Fraction)
    assert isinstance(pc_all_suspects(4, 600).value, float)
    # the urn oracles are exact at every size
    assert isinstance(tree_split_marginal(3, 4, 601), Fraction)
