"""End-to-end acceptance checks, one test per contract criterion.

Run with -s to watch the verdict lines; each criterion prints exactly
one PASS or FAIL line.  These are deliberately heavier than the unit
tests (full parameter sweeps, desk-scale Monte Carlo) and together take
a few minutes.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import (count_orderings, detection_prob_by_enumeration,
                     enumerate_draws, random_tree_adj, snap_from_adj)
from rumorsource.centrality import rumor_centrality
from rumorsource.exactprob import (audit_two_suspect_closed_form,
                                   pc_all_suspects, pc_connected,
                                   pc_two_suspects, phi1, phi2, phi3,
                                   single_subtree_tail,
                                   two_suspect_chain_audit,
                                   two_suspect_survival_mass)
from rumorsource.harness import ExperimentConfig, run_experiment
from rumorsource.urn import PolyaSpec, polya_joint

MC_SEED = 20260825


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {label}: FAIL", flush=True)
        raise
    print(f"[criterion {num}] {label}: PASS", flush=True)


def test_criterion_1_closed_form_exactness():
    with criterion(1, "closed forms match the tail route as exact rationals"):
        for delta in (2, 3):
            for n in range(1, 301):
                a = pc_all_suspects(delta, n, exact=True)
                b = 1 - delta * single_subtree_tail(delta, n, exact=True)
                assert a.method == "closed-form" and a.value == b, (delta, n)
        for delta in (2, 3):
            for k in range(1, 21):
                mu = Fraction(2 * (k - 1), k)
                for n in range(2, 301):
                    a = pc_connected(delta, k, n, exact=True)
                    b = 1 - mu * single_subtree_tail(delta, n, exact=True)
                    assert a.method == "closed-form" and a.value == b, (delta, k, n)


def test_criterion_2_asymptotic_constants():
    with criterion(2, "asymptotic constants"):
        assert phi1(3) == 0.25
        assert abs(phi1(10 ** 4) - (1 - math.log(2))) < 1e-3
        assert abs(phi3(3) - 0.75) < 1e-12
        assert abs(phi2(3, 10 ** 6) - 0.5) < 1e-6


def test_criterion_3_brute_force_oracles():
    with criterion(3, "brute-force oracles agree exactly"):
        # (a) ordering counts on random trees, every root
        rng = random.Random(1234)
        for _ in range(50):
            n = rng.randrange(1, 9)
            adj = random_tree_adj(n, rng)
            for root in range(n):
                snap = snap_from_adj(adj, root)
                assert rumor_centrality(snap, root) == \
                    count_orderings(adj, root), (adj, root)

        # (b) urn joints against full draw-sequence enumeration
        specs = [
            PolyaSpec(initial=(1, 1), increment=1, draws=6),
            PolyaSpec(initial=(1, 1), increment=2, draws=6),
            PolyaSpec(initial=(1, 1, 1), increment=1, draws=6),
            PolyaSpec(initial=(1, 1, 1), increment=2, draws=5),
            PolyaSpec(initial=(2, 1), increment=3, draws=6),
            PolyaSpec(initial=(1, 2, 3), increment=2, draws=4),
            PolyaSpec(initial=(1, 0), increment=1, draws=5),
            PolyaSpec(initial=(1, 1), increment=0, draws=6),
        ]
        for spec in specs:
            oracle = enumerate_draws(spec.initial, spec.increment, spec.draws)
            assert sum(oracle.values()) == 1
            for counts, want in oracle.items():
                assert polya_joint(spec, counts) == want, \
                    (spec, counts)

        # (c) all-suspects detection probability from raw shape enumeration
        for n in range(1, 8):
            want = detection_prob_by_enumeration(3, n)
            got = pc_all_suspects(3, n, exact=True).value
            assert got == want, (n, got, want)


def test_criterion_4_monte_carlo_matches_exact():
    with criterion(4, "Monte Carlo at n=500 matches exact theory"):
        for delta in (3, 4, 6, 12):
            rep = run_experiment(ExperimentConfig(
                scenario="all-suspects", delta=delta, n=500, trials=2000,
                seed=MC_SEED))
            assert rep.ci_low <= rep.exact_pc <= rep.ci_high, (delta, rep)
            assert abs(rep.empirical_pc - rep.exact_pc) <= 0.03, (delta, rep)
        for k in (2, 5, 10):
            rep = run_experiment(ExperimentConfig(
                scenario="connected-k", delta=4, n=500, trials=2000,
                seed=MC_SEED, k=k))
            assert abs(rep.empirical_pc - rep.exact_pc) <= 0.03, (k, rep)
            assert rep.exact_pc >= 0.5 and rep.empirical_pc >= 0.5, (k, rep)
        for d, ref in ((1, 0.75), (2, 0.886)):
            rep = run_experiment(ExperimentConfig(
                scenario="two-at-d", delta=3, n=500, trials=2000,
                seed=MC_SEED, d=d))
            assert abs(rep.empirical_pc - rep.exact_pc) <= 0.03, (d, rep)
            assert abs(rep.exact_pc - ref) < 0.005, (d, rep)


def test_criterion_5_monotonicity_suites():
    with criterion(5, "exact monotonicity and even/odd plateaus"):
        NMAX = 100
        for delta in (2, 3, 4):
            av = [pc_all_suspects(delta, n, exact=True).value
                  for n in range(1, NMAX + 1)]
            for a, b in zip(av, av[1:]):
                assert a >= b, delta
            for i in range(1, NMAX // 2):
                assert av[2 * i - 1] == av[2 * i], (delta, 2 * i)
            for k in (2, 5):
                kv = [pc_connected(delta, k, n, exact=True).value
                      for n in range(2, NMAX + 1)]
                for a, b in zip(kv, kv[1:]):
                    assert a >= b, (delta, k)
                for i in range(1, NMAX // 2):
                    assert kv[2 * i - 2] == kv[2 * i - 1], (delta, k, 2 * i)
        for n in range(1, NMAX + 1):
            assert pc_all_suspects(2, n, exact=True).value <= \
                pc_all_suspects(3, n, exact=True).value <= \
                pc_all_suspects(4, n, exact=True).value, n
        for n in range(2, NMAX + 1):
            for k in (2, 5):
                assert pc_connected(2, k, n, exact=True).value <= \
                    pc_connected(3, k, n, exact=True).value <= \
                    pc_connected(4, k, n, exact=True).value, (n, k)
        for delta in (2, 3, 4):
            for n in range(1, NMAX + 1):
                prev = None
                for d in range(1, 5):
                    v = pc_two_suspects(delta, d, n, exact=True).value
                    if prev is not None:
                        assert v >= prev, (delta, n, d)
                    prev = v


def test_criterion_6_distant_suspects_dominate():
    with criterion(6, "two suspects at any distance beat adjacent ones"):
        for n in range(2, 61):
            base = pc_connected(3, 2, n, exact=True).value
            assert base < 1
            # adjacent suspects are exactly the connected pair
            assert pc_two_suspects(3, 1, n, exact=True).value == base
            # strictly better at the first few separations, checked head-on
            for d in range(2, min(5, n)):
                assert pc_two_suspects(3, d, n, exact=True).value > base, (n, d)
            # one shallow prefix certificate covers every deeper distance:
            # a miss at distance d >= 3 forces the first two prefix products
            # above 1, and that event alone carries less mass than the
            # adjacent-case miss
            if n > 3:
                surv = two_suspect_survival_mass(3, 2, n)
                assert isinstance(surv, Fraction)
                assert surv < 1 - base, n
            # distances at or past n leave the far suspect uninfected
            assert pc_two_suspects(3, n, n, exact=True).value == 1
            assert pc_two_suspects(3, n + 7, n, exact=True).value == 1
        # single infected node: every scenario detects it, trivial equality
        assert pc_connected(3, 2, 1, exact=True).value == 1
        assert pc_two_suspects(3, 4, 1, exact=True).value == 1


def test_criterion_7_line_closed_form_audit():
    with criterion(7, "degree-2 chain enumeration internally consistent"):
        even_hits = odd_shifts = 0
        for n in range(3, 101):
            for d in range(1, 5):
                audit = two_suspect_chain_audit(2, d, n)
                assert audit.total == 1, (n, d)
                rep = audit_two_suspect_closed_form(n, d)
                assert rep["pc_enumeration"] == \
                    pc_two_suspects(2, d, n, exact=True).value
                if d >= n:
                    # saturated window: zero expression, sure detection
                    assert rep["expression"] == 0
                    assert rep["matches_as_pe"], (n, d)
                elif (n - d) % 2 == 0:
                    assert rep["matches_as_pe"], (n, d)
                    even_hits += 1
                else:
                    assert not rep["matches_as_pe"], (n, d)
                    assert rep["corrected_matches_as_pe"], (n, d)
                    odd_shifts += 1
        # both parities genuinely exercised
        assert even_hits > 100 and odd_shifts > 100
