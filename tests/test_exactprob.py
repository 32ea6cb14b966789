"""Exact detection probabilities versus brute-force process enumeration.

The heavyweight oracle here unrolls the entire infection process on a
small regular tree: every order in which n nodes can get infected, each
weighted by the product of 1/|boundary| at the moment of each pick.
Feeding every final snapshot through the estimator (counting ties at
half credit) gives the detection probability with zero shared code.
"""

import gc
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import rumorsource
from oracles import detection_prob_by_enumeration
from rumorsource import exactprob
from rumorsource.errors import BudgetError, ValidationError
from rumorsource.exactprob import (DEFAULT_STATE_BUDGET, ChainMasses,
                                   DetectionResult, _chain_masses, _inv_table,
                                   audit_two_suspect_closed_form,
                                   line_two_suspect_expression,
                                   pc_all_suspects, pc_conditional,
                                   pc_connected, pc_general_lower_bound,
                                   pc_two_suspects, phi1, phi2, phi3,
                                   single_subtree_tail,
                                   two_suspect_chain_audit,
                                   two_suspect_survival_mass)
from rumorsource.urn import (chain_step_pmf, path_chain_joint,
                             tree_split_marginal)


@pytest.mark.parametrize("delta,nmax", [(2, 8), (3, 7), (4, 5)])
def test_all_suspects_matches_process_enumeration(delta, nmax):
    for n in range(1, nmax + 1):
        want = detection_prob_by_enumeration(delta, n)
        got = pc_all_suspects(delta, n, exact=True)
        assert isinstance(got, DetectionResult)
        assert got.value == want, (delta, n, got.value, want)


def test_all_suspects_small_table():
    cases = {
        (2, 1): Fraction(1),
        (2, 2): Fraction(1, 2),
        (2, 4): Fraction(3, 8),
        (3, 2): Fraction(1, 2),
        (3, 4): Fraction(2, 5),
    }
    for (delta, n), want in cases.items():
        assert pc_all_suspects(delta, n, exact=True).value == want


def test_connected_small_table():
    assert pc_connected(3, 2, 4, exact=True).value == Fraction(4, 5)
    assert pc_connected(2, 3, 3, exact=True).value == Fraction(2, 3)
    # a single suspect cannot miss
    assert pc_connected(5, 1, 40, exact=True).value == 1


def test_connected_equals_all_when_k_covers_degree():
    # with k = delta + 1 the suspect ball is the source plus every branch
    # start, matching the all-suspects law only at delta = k - 1... instead
    # check the documented identity: all-suspects equals the conditional
    # with m = delta, as whole results in both arithmetics
    for delta in (2, 3, 4, 12):
        for n in (1, 2, 5, 9, 16, 501, 2000, 20001):
            assert pc_conditional(delta, delta, n) == pc_all_suspects(delta, n), \
                (delta, n)


def test_conditional_formulas_degree_three():
    # one and two infected branches around the source on a 3-regular tree
    for n in range(1, 60):
        half = 2 * (n // 2) + 1
        want1 = Fraction(3, 4) + Fraction(1, 4) / half
        want2 = Fraction(1, 2) + Fraction(1, 2) / half
        assert pc_conditional(3, 1, n).value == want1
        assert pc_conditional(3, 2, n).value == want2
    with pytest.raises(ValidationError):
        pc_conditional(3, 4, 10)
    assert pc_conditional(3, 0, 10).value == 1


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("delta,n", [(2, 40), (3, 40), (2, 10**5), (3, 10**5)])
def test_conditional_takes_the_closed_forms(monkeypatch, delta, n, exact):
    # degrees 2 and 3 answer from the closed forms, walking no chain and
    # building no float pmf
    monkeypatch.setattr(exactprob, "_chain_masses", _refuse)
    monkeypatch.setattr(exactprob, "tree_split_marginal_pmf", _refuse)
    for m in range(delta + 1):
        r = pc_conditional(delta, m, n, exact=exact)
        assert r.method == "closed-form"
        assert type(r.value) is (Fraction if exact else float)
        assert 0 < r.value <= 1


@pytest.mark.parametrize("exact", [True, False])
def test_pruned_walk_past_n_builds_no_table(monkeypatch, exact):
    # a distance of at least n cannot be reached, so the answer needs no table
    monkeypatch.setattr(exactprob, "_inv_table", _refuse)
    assert pc_two_suspects(3, 600, 500, exact=exact).value == 1
    assert two_suspect_survival_mass(3, 600, 500, exact=exact) == 0


@pytest.mark.parametrize("entry", [pc_two_suspects, two_suspect_chain_audit,
                                   two_suspect_survival_mass])
@pytest.mark.parametrize("delta,d,n", [(1, 2, 10), (3, 2, 0), (3, 0, 10),
                                       (3, -1, 10)])
def test_two_suspect_entries_check_their_arguments(entry, delta, d, n):
    with pytest.raises(ValidationError):
        entry(delta, d, n)


def test_closed_forms_match_tail_route_small():
    for delta in (2, 3):
        for n in range(1, 40):
            a = pc_all_suspects(delta, n, exact=True).value
            b = 1 - delta * single_subtree_tail(delta, n, exact=True)
            assert a == b
    for k in (2, 3, 7):
        for n in range(2, 40):
            a = pc_connected(3, k, n, exact=True).value
            b = 1 - Fraction(2 * (k - 1), k) * single_subtree_tail(3, n, exact=True)
            assert a == b


def test_closed_form_refuses_high_degree():
    # above degree 3 the tail is walked
    r = pc_all_suspects(4, 10, exact=True)
    assert r.method == "tail-sum" and 0 < r.value < 1


def test_tail_identity_degree_two():
    # the one-sided overshoot mass on a line has a binomial closed form
    for n in range(1, 60):
        mid = math.comb(n - 1, (n - 1) // 2)
        want = (1 - Fraction(mid, 2 ** (n - 1))) / 2
        assert single_subtree_tail(2, n, exact=True) == want


@pytest.mark.parametrize("delta", [2, 3])
def test_tail_closed_forms_match_the_walk(delta):
    for n in range(1, 61):
        m = _chain_masses(delta, n, 1, True, math.inf, prune=True)
        assert single_subtree_tail(delta, n, exact=True) == m.error + m.tie / 2


def test_tail_degree_three_takes_no_walk():
    # the d = 1 chain walk took about a minute at this size, in big integers
    t0 = time.perf_counter()
    tail = single_subtree_tail(3, 10**5, exact=True)
    assert time.perf_counter() - t0 < 0.01
    assert tail == Fraction(50000, 4 * 50000 + 2)


@pytest.mark.parametrize("delta,n", [(2, 501), (2, 2000), (2, 20001), (3, 501),
                                     (3, 2000), (3, 20001), (3, 10**6)])
def test_float_tail_closed_forms_track_the_rational(delta, n):
    ex = single_subtree_tail(delta, n, exact=True)
    fl = single_subtree_tail(delta, n, exact=False)
    assert type(fl) is float
    assert abs(Fraction(fl) - ex) <= 1e-15 * ex, (delta, n, fl)


@pytest.mark.parametrize("delta", [3, 4, 12])
def test_tail_matches_marginal_sum(delta):
    # the tail summed straight from the urn marginal of one subtree
    for n in range(1, 41):
        want = sum(tree_split_marginal(delta, x, n)
                   for x in range(n) if 2 * x > n)
        if n % 2 == 0:
            want += tree_split_marginal(delta, n // 2, n) / 2
        assert single_subtree_tail(delta, n, exact=True) == want, (delta, n)


def test_float_mode_tracks_exact():
    for delta, n in [(3, 50), (4, 80), (6, 120)]:
        ex = float(pc_all_suspects(delta, n, exact=True).value)
        fl = pc_all_suspects(delta, n, exact=False).value
        assert math.isclose(ex, fl, rel_tol=1e-10)
    ex = float(pc_connected(4, 5, 90, exact=True).value)
    fl = pc_connected(4, 5, 90, exact=False).value
    assert math.isclose(ex, fl, rel_tol=1e-10)
    ex = float(pc_two_suspects(3, 2, 60, exact=True).value)
    fl = pc_two_suspects(3, 2, 60, exact=False).value
    assert math.isclose(ex, fl, rel_tol=1e-9)


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("n", [501, 777, 2000])
def test_float_closed_forms_are_rounded_rationals(delta, n):
    # a float closed form is the exact rational, rounded once
    pairs = [(pc_all_suspects(delta, n, exact=False),
              pc_all_suspects(delta, n, exact=True))]
    pairs += [(pc_connected(delta, k, n, exact=False),
               pc_connected(delta, k, n, exact=True)) for k in (2, 5)]
    pairs += [(pc_conditional(delta, m, n, exact=False),
               pc_conditional(delta, m, n, exact=True)) for m in (1, delta)]
    for fl, ex in pairs:
        assert fl.method == ex.method == "closed-form"
        assert type(fl.value) is float and fl.value == float(ex.value)
    one = pc_connected(12, 1, 2000)
    assert one.method == "closed-form" and one.value == 1.0


@pytest.mark.parametrize("n", [20001, 20002, 50001])
def test_degree_two_float_closed_form_above_cutoff(n):
    # above the cutoff the float central binomial term comes from the
    # series of C(2m, m)/4^m; the form (1 - mu/2) + mu c/2 keeps it near
    # rounding level
    pairs = [(pc_all_suspects(2, n, exact=False), pc_all_suspects(2, n, exact=True))]
    pairs += [(pc_connected(2, k, n, exact=False),
               pc_connected(2, k, n, exact=True)) for k in (2, 5)]
    for fl, ex in pairs:
        assert fl.method == ex.method == "closed-form"
        assert type(fl.value) is float
        assert abs(Fraction(fl.value) - ex.value) <= 1e-14 * ex.value


def test_package_imports_no_scipy():
    # the limits are closed forms in math.gamma and the delta = 2 float term a
    # stdlib series; scipy.special alone took most of the package import
    pkg_root = str(Path(rumorsource.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, sys\n"
            "import rumorsource as rs\n"
            "from rumorsource import cli\n"
            "rs.phi1(4), rs.phi2(4, 5), rs.phi3(12)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['asymptotic', 'phi1', '--delta', '4']) == 0\n"
            "rs.pc_all_suspects(2, 10**7, exact=False)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [1000, 1100, 2000])
def test_float_chain_walk_degree_two_large_n(n):
    # P(Z1 = n-1) = 2^-(n-1) underflows a float from n = 1100 on; the walk
    # must not read that as sure detection
    for d in (1, 2):
        ex = float(pc_two_suspects(2, d, n, exact=True).value)
        fl = pc_two_suspects(2, d, n, exact=False).value
        assert math.isclose(ex, fl, rel_tol=1e-9), (n, d, ex, fl)


@pytest.mark.parametrize("delta,n", [(3, 1200), (4, 2000), (50, 2000)])
def test_float_tail_tracks_exact_large_n(delta, n):
    # the self-normalized root law keeps float tails near rounding level
    ex = float(single_subtree_tail(delta, n, exact=True))
    fl = single_subtree_tail(delta, n, exact=False)
    assert math.isclose(ex, fl, rel_tol=1e-13), (delta, n, ex, fl)


@pytest.mark.parametrize("delta", [3, 12])
def test_float_chain_walk_tracks_exact_large_n(delta):
    ex = float(pc_two_suspects(delta, 2, 1200, exact=True).value)
    fl = pc_two_suspects(delta, 2, 1200, exact=False).value
    assert math.isclose(ex, fl, rel_tol=1e-12), (delta, ex, fl)


def test_float_chain_walk_memory_is_linear():
    # one prefix table serves the last level of every branch, so memory
    # stays O(n); a table per branch would take about 430 MB at this n
    tracemalloc.start()
    try:
        pc_two_suspects(3, 2, 4000, exact=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_lower_bound_wraps_connected():
    r = pc_general_lower_bound(4, 3, 25)
    assert r.method == "lower-bound"
    assert r.value == pc_connected(4, 3, 25, exact=True).value


def test_two_suspects_tiny_cases():
    # two adjacent suspects, two infected nodes: the second infection hits
    # the other suspect with probability 1/delta, and then the coin decides
    assert pc_two_suspects(2, 1, 2, exact=True).value == Fraction(3, 4)
    assert pc_two_suspects(3, 1, 2, exact=True).value == Fraction(5, 6)
    # distance beyond the infection count: the far suspect stays clean
    for delta in (2, 3, 5):
        assert pc_two_suspects(delta, 9, 9, exact=True).value == 1
        assert pc_two_suspects(delta, 30, 9, exact=True).value == 1


def test_two_adjacent_equals_connected_pair():
    for n in range(1, 50):
        a = pc_two_suspects(3, 1, n, exact=True).value
        b = pc_connected(3, 2, n, exact=True).value
        assert a == b


@pytest.mark.parametrize("delta", [2, 3, 4, 12])
def test_two_suspects_matches_chain_sum(delta):
    # brute force over every strictly decreasing chain z_1 > ... > z_d >= 1:
    # it errs when prod z_h > prod (n - z_h) and ties at equality
    for n in range(1, 31):
        for d in (2, 3):
            err = tie = Fraction(0)
            for z in itertools.combinations(range(n - 1, 0, -1), d):
                num = math.prod(z)
                den = math.prod(n - c for c in z)
                if num > den:
                    err += path_chain_joint(delta, n, z)
                elif num == den:
                    tie += path_chain_joint(delta, n, z)
            got = pc_two_suspects(delta, d, n, exact=True).value
            assert got == 1 - err - tie / 2, (delta, n, d)


@pytest.mark.parametrize("delta", [3, 4, 5, 12])
def test_inv_table_states_the_step_law(delta):
    # below the root, P(z_h = c | z_{h-1} = p) = I[c] / (I[p-1] (1 + c eps)),
    # with every exact entry an integer
    eps = delta - 2
    inv = _inv_table(eps, 23, True)
    assert all(type(v) is int for v in inv)
    assert inv[0] == eps ** 23 * math.factorial(23)
    for p in range(1, 25):
        for c in range(p):
            want = chain_step_pmf(delta, p, c)
            got = Fraction(inv[c], inv[p - 1] * (1 + c * eps))
            assert got == want, (delta, p, c)
    floats = _inv_table(eps, 23, False)
    assert floats[0] == 1.0
    for a, b in zip(inv, floats):
        assert math.isclose(a / inv[0], b, rel_tol=1e-14)


def test_chain_walk_pins_states_and_rationals():
    audit = two_suspect_chain_audit(3, 3, 100)
    assert audit.states == 161_799
    assert audit.total == 1
    assert 1 - audit.error - audit.tie / 2 == Fraction(
        282194509639564011231976240709477446568720219031212618410398793,
        294901636684466573321324285507665507957192639525872301860480000)
    walk = _chain_masses(12, 500, 3, True, DEFAULT_STATE_BUDGET, prune=True)
    assert walk.states == 124_500
    assert two_suspect_chain_audit(12, 3, 60).total == 1


@pytest.mark.parametrize("delta", [3, 4, 5, 12])
def test_closed_last_levels_match_the_audit(delta):
    # the pruned walk closes levels d-1 and d a run of thresholds at a time;
    # the audit classifies every last count on its own
    cases = [(d, n) for d in (3, 4, 5) for n in range(1, 41)]
    ties = [(3, 45), (3, 64), (3, 100), (4, 41), (4, 47)]
    for d, n in cases + ties:
        audit = two_suspect_chain_audit(delta, d, n)
        got = pc_two_suspects(delta, d, n, exact=True).value
        assert got == 1 - audit.error - audit.tie / 2, (delta, d, n)
    for d, n in ties:
        assert _chain_masses(delta, n, d, True, math.inf, prune=True).tie > 0


@pytest.mark.parametrize("delta,d,n,states", [(3, 4, 100, 161_161),
                                              (3, 3, 500, 124_500)])
def test_closed_last_levels_keep_the_state_count(delta, d, n, states):
    # the closed levels add up the states the per-count walk would visit,
    # so a budget of exactly that many passes and one less does not
    assert _chain_masses(delta, n, d, True, math.inf, prune=True).states == states
    want = pc_two_suspects(delta, d, n, exact=True).value
    assert pc_two_suspects(delta, d, n, exact=True, max_states=states).value == want
    with pytest.raises(BudgetError):
        pc_two_suspects(delta, d, n, exact=True, max_states=states - 1)


@pytest.mark.parametrize("delta,d,n", [(3, 3, 12), (4, 4, 30), (12, 5, 25),
                                       (3, 2, 40), (4, 1, 40)])
def test_budget_boundary_for_every_walk(delta, d, n):
    for prune in (True, False):
        states = _chain_masses(delta, n, d, True, math.inf, prune).states
        _chain_masses(delta, n, d, True, states, prune)
        with pytest.raises(BudgetError):
            _chain_masses(delta, n, d, True, states - 1, prune)


@pytest.mark.parametrize("entry", [pc_two_suspects, two_suspect_chain_audit,
                                   two_suspect_survival_mass])
def test_state_budget_below_one_is_rejected(entry):
    # checked before the shortcut for a distance of at least n
    for delta, d, n in ((3, 2, 10), (3, 9, 9)):
        for budget in (0, -1, 0.5):
            with pytest.raises(ValidationError):
                entry(delta, d, n, max_states=budget)
    entry(3, 2, 10, max_states=math.inf)
    entry(3, 2, 10, max_states=1_000)


@pytest.mark.parametrize("delta", [3, 4, 12])
def test_float_closed_levels_track_the_rationals(delta):
    cases = [(3, n) for n in (4, 17, 64, 101, 250, 499, 500)]
    cases += [(4, n) for n in (5, 33, 100, 160)]
    for d, n in cases:
        ex = pc_two_suspects(delta, d, n, exact=True).value
        fl = pc_two_suspects(delta, d, n, exact=False).value
        assert type(fl) is float
        assert abs(Fraction(fl) - ex) <= 1e-14 * ex, (delta, d, n)


def test_chain_walk_leaves_no_cyclic_garbage():
    # a walk's tables are big integers, which do not advance the collector's
    # counters, so a cycle through them would hold memory until a full pass
    gc.collect()
    gc.disable()
    try:
        pc_two_suspects(3, 3, 50, exact=True)
        two_suspect_chain_audit(4, 3, 30)
        try:
            pc_two_suspects(3, 4, 200, exact=True, max_states=50)
        except BudgetError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_two_suspects_methods():
    r = pc_two_suspects(3, 2, 10, exact=True)
    assert r.method == "chain-enumeration"
    assert isinstance(r.value, Fraction)


def test_chain_audit_sums_to_one():
    for delta in (2, 3, 4):
        for n in (2, 5, 9, 14):
            for d in (1, 2, 3):
                audit = two_suspect_chain_audit(delta, d, n)
                assert isinstance(audit, ChainMasses)
                assert audit.total == 1, (delta, n, d)
                pc = pc_two_suspects(delta, d, n, exact=True).value
                assert pc == 1 - audit.error - Fraction(audit.tie, 2)


def test_audit_and_survival_resolve_exact_like_pc():
    # exact=None follows the pc_* rule: Fractions up to n = 500, floats above
    audit = two_suspect_chain_audit(3, 2, 40, exact=None)
    assert isinstance(audit.error, Fraction) and audit.total == 1
    assert isinstance(two_suspect_survival_mass(3, 2, 40, exact=None), Fraction)
    assert isinstance(two_suspect_chain_audit(3, 1, 600, exact=None).error, float)
    assert isinstance(two_suspect_survival_mass(3, 1, 600, exact=None), float)
    # the default stays exact at any n
    assert isinstance(two_suspect_survival_mass(3, 1, 600), Fraction)


def test_two_suspect_budget():
    with pytest.raises(BudgetError):
        pc_two_suspects(3, 4, 200, exact=True, max_states=50)
    with pytest.raises(BudgetError):
        two_suspect_survival_mass(3, 3, 200, max_states=50)


def test_survival_mass_bounds_deep_misses():
    # the shallow-prefix mass must dominate error + tie at any deeper
    # distance, and shrink as the prefix gets longer
    for delta in (2, 3, 4):
        for n in (5, 9, 13):
            for depth in (1, 2, 3):
                s = two_suspect_survival_mass(delta, depth, n)
                assert isinstance(s, Fraction)
                for d in range(depth + 1, min(n, depth + 4)):
                    a = two_suspect_chain_audit(delta, d, n)
                    assert s >= a.error + a.tie, (delta, n, depth, d)
    vals = [two_suspect_survival_mass(3, depth, 16) for depth in range(1, 6)]
    for a, b in zip(vals, vals[1:]):
        assert a >= b


def test_survival_mass_matches_chain_sum():
    # brute force over every strictly decreasing chain z_1 > ... > z_depth
    # >= 1 whose prefix products z_h / (n - z_h) all exceed 1
    for delta in (2, 3, 4):
        for n in range(1, 15):
            for depth in (1, 2, 3):
                want = Fraction(0)
                for z in itertools.combinations(range(n - 1, 0, -1), depth):
                    num = den = 1
                    for c in z:
                        num, den = num * c, den * (n - c)
                        if num <= den:
                            break
                    else:
                        want += path_chain_joint(delta, n, z)
                got = two_suspect_survival_mass(delta, depth, n)
                assert got == want, (delta, n, depth)


def test_survival_mass_validation():
    with pytest.raises(ValidationError):
        two_suspect_survival_mass(3, 0, 10)
    with pytest.raises(ValidationError):
        two_suspect_survival_mass(1, 2, 10)
    assert two_suspect_survival_mass(3, 2, 1) == 0


def test_line_expression_parity_behaviour():
    # the printed binomial-window formula for two line suspects is an error
    # probability and is only exact when n - d is even; odd cases are off by
    # a one-term window shift.  At d >= n it saturates to zero (sure
    # detection), matching the error reading trivially.  The detection
    # reading never matches.
    for n in range(3, 30):
        for d in range(1, n + 2):
            audit = audit_two_suspect_closed_form(n, d)
            assert audit["pc_enumeration"] == \
                pc_two_suspects(2, d, n, exact=True).value
            if d >= n:
                assert audit["expression"] == 0
                assert audit["matches_as_pe"], (n, d)
            elif (n - d) % 2 == 0:
                assert audit["matches_as_pe"], (n, d)
            else:
                assert not audit["matches_as_pe"], (n, d)
                assert audit["corrected_matches_as_pe"], (n, d)
            assert not audit["matches_as_pc"]


def test_line_expression_residual_is_two_binomials():
    # the odd-parity window includes two extra terms relative to the one the
    # enumeration vindicates; they are exactly the residual
    for n in range(4, 24):
        for d in (1, 2, 3):
            if (n - d) % 2 == 0 or d >= n:
                continue
            audit = audit_two_suspect_closed_form(n, d)
            lo = (n - d - 1) // 2
            hi = (n + d + 1) // 2
            extra = math.comb(n - 1, lo)
            if hi <= n - 1:
                extra += math.comb(n - 1, hi)
            assert abs(audit["residual_vs_pe_reading"]) == \
                Fraction(extra, 2 ** n)


def test_line_expression_raw_value():
    # even parity example, written out by hand: window z = 3..4 of C(7, z)
    expr = line_two_suspect_expression(8, 2)
    window = math.comb(7, 3) + math.comb(7, 4)
    assert expr == Fraction(1, 2) - Fraction(window, 2 ** 8)


def test_monotone_in_distance_small():
    for delta in (2, 3, 4):
        for n in (6, 11, 20):
            vals = [pc_two_suspects(delta, d, n, exact=True).value
                    for d in range(1, 6)]
            for a, b in zip(vals, vals[1:]):
                assert a <= b


def test_monotone_in_n_and_delta_small():
    for delta in (2, 3, 4):
        vals = [pc_all_suspects(delta, n, exact=True).value
                for n in range(1, 30)]
        for a, b in zip(vals, vals[1:]):
            assert a >= b
        # half-integer staircase: each even n matches the next odd one
        for i in range(1, 14):
            assert vals[2 * i - 1] == vals[2 * i]
    for n in (2, 7, 19):
        assert pc_all_suspects(2, n, exact=True).value <= \
            pc_all_suspects(3, n, exact=True).value <= \
            pc_all_suspects(4, n, exact=True).value


def test_limits_match_large_n():
    # finite-n values should approach the degree-only limits
    for delta in (3, 4, 6):
        lim = phi1(delta)
        fin = pc_all_suspects(delta, 4000, exact=False).value
        assert abs(fin - lim) < 2e-3, (delta, fin, lim)
    lim2 = phi2(4, 5)
    fin2 = pc_connected(4, 5, 4000, exact=False).value
    assert abs(fin2 - lim2) < 2e-3
    lim3 = phi3(3)
    fin3 = pc_two_suspects(3, 1, 2500, exact=False).value
    assert abs(fin3 - lim3) < 2e-3


def test_phi_values():
    assert phi1(3) == 0.25
    assert abs(phi1(4) - (4 / math.pi - 1)) < 1e-12
    assert phi3(3) == 0.75
    assert abs(phi3(4) - (0.5 + 1 / math.pi)) < 1e-12
    for k in (2, 5, 100):
        assert abs(phi2(3, k) - (k + 1) / (2 * k)) < 1e-12
    assert phi2(3, 1) == 1.0
    # large-degree limit of the leading asymptote is 1 - ln 2
    assert abs(phi1(10 ** 4) - (1 - math.log(2))) < 1e-3


def test_phi_validation():
    for f in (phi1, phi3):
        with pytest.raises(ValidationError):
            f(2)
    with pytest.raises(ValidationError):
        phi2(2, 3)
    with pytest.raises(ValidationError):
        phi2(3, 0)


def test_phi_monotonicity():
    # the paper's first claim: the all-suspects limit grows from 0.25 toward
    # 1 - ln 2 = 0.307 as the degree grows
    a = [phi1(d) for d in range(3, 5001)]
    for x, y in zip(a, a[1:]):
        assert x < y
    assert a[0] == 0.25 and a[-1] < 1 - math.log(2)
    b = [phi2(4, k) for k in (2, 4, 8, 50, 1000)]
    for x, y in zip(b, b[1:]):
        assert x > y
    assert all(0 < v < 1 for v in a + b)
