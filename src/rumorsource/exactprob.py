"""Exact and asymptotic probabilities of catching the source on regular trees.

The subtree sizes z_1 > z_2 > ... along the path leaving the source form a
Markov chain (`urn.path_chain_joint`), and one walk over that chain yields
every exact engine here:

* two suspects at distance d: a chain of length d errs (or ties) when the
  product of size odds z_h / (n - z_h) along it exceeds (or equals) 1.
  Only chains whose every prefix keeps that product above 1 can end in an
  error, which prunes the walk to a thin wedge.  Below the root every
  level has one law (`urn._inv_table`): an inner level only divides the
  carried weight, and the last two levels close together, a few steps
  per run of counts that share one last-level threshold, so the walk
  holds O(n) memory.  Each root count's weight steps from its
  neighbour's by one small ratio.
* the single-subtree tail is the d = 1 case: one fixed neighbor subtree of
  the true source swallows more than half of the infection (plus half the
  mass of an exact half split).  Detection fails through a suspect
  neighbor exactly when its subtree does that, so P_c = 1 - mu * tail,
  where mu, the source's mean number of suspect neighbors, is delta when
  all nodes are suspects, 2(k-1)/k for k connected suspects and m given m.
* the survival bound for deep suspect pairs is the error mass of the
  pruned walk at d = depth.

This module alone picks exact or float arithmetic (the urn oracles are
exact only): exact=None means Fractions up to n = 500
(`EXACT_DEFAULT_LIMIT`), floats beyond.  Exact masses are integers over
one common denominator, made Fractions only at the end.
Both root laws step by one ratio (`urn.split_step`): the exact one in
integers, the float one outward from its mode and divided by its sum
(`urn.tree_split_marginal_pmf`).  Tie mass enters with weight 1/2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import BudgetError, ValidationError
from .urn import (_check_delta_n, _inv_table, limit_split_half, rising_product,
                  split_step, tree_split_marginal_pmf)

# exact=None means Fractions up to this many infected nodes, floats beyond.
EXACT_DEFAULT_LIMIT = 500
# Visited-state cap for the two-suspect chain walk.
DEFAULT_STATE_BUDGET = 3_000_000
# Above this n the float degree-2 closed form uses a series, not a big Fraction.
BINOM_FLOAT_N = 20_000


def _resolve_exact(exact, n: int) -> bool:
    return n <= EXACT_DEFAULT_LIMIT if exact is None else bool(exact)


@dataclass(frozen=True)
class DetectionResult:
    """A detection probability with how it was computed.

    value is a Fraction in exact mode, a float otherwise.  method is one of
    closed-form, tail-sum, chain-enumeration, lower-bound.
    """

    value: object
    method: str


# ---------------------------------------------------------------------------
# single-subtree tail

def _tail_float(delta: int, n: int) -> float:
    p = tree_split_marginal_pmf(delta, n)
    total = float(p[n // 2 + 1:].sum())
    if n % 2 == 0:
        total += 0.5 * float(p[n // 2])
    return total


def _central_term(n: int) -> float:
    """C(n-1, m)/2^(n-1), m = (n-1)//2, from the series of C(2m, m)/4^m."""
    m = (n - 1) // 2
    c = (1 - 1 / (8 * m) + 1 / (128 * m ** 2) + 5 / (1024 * m ** 3)
         - 21 / (32768 * m ** 4)) / math.sqrt(math.pi * m)
    if (n - 1) % 2:
        c *= (2 * m + 1) / (2 * m + 2)
    return c


def single_subtree_tail(delta: int, n: int, exact=None):
    """P[one fixed source-neighbor subtree holds > half of n] + half the
    exact-half mass.  The building block of every tail-sum probability.

    Closed forms at degree 2, (1 - c)/2 with c the central binomial term
    (a binomial window, or its series in float above BINOM_FLOAT_N), and at
    degree 3, (n//2)/(4(n//2)+2); a float closed form is the rational
    rounded once.  Higher degrees walk the d = 1 chain.
    """
    _check_delta_n(delta, n)
    use_exact = _resolve_exact(exact, n)
    if delta == 2 and not use_exact and n > BINOM_FLOAT_N:
        return (1 - _central_term(n)) / 2
    if delta == 2:
        tail = _binomial_window(n, (n - 1) // 2, (n - 1) // 2)
    elif delta == 3:
        tail = Fraction(n // 2, 4 * (n // 2) + 2)
    elif use_exact:
        m = _chain_masses(delta, n, 1, True, math.inf, prune=True)
        return m.error + m.tie / 2
    else:
        return _tail_float(delta, n)
    return tail if use_exact else float(tail)


# ---------------------------------------------------------------------------
# tail sums: conditional, all suspects, connected suspects

def _tail_sum(delta: int, n: int, mult, exact) -> DetectionResult:
    """1 - mult * single_subtree_tail, mult the source's mean number of
    suspect neighbors.  The tail has a closed form at degree 2 and 3, taken
    exactly and rounded once, and is walked above; with mult = 0 nothing is
    walked."""
    use_exact = _resolve_exact(exact, n)
    if not mult:
        v = Fraction(1)
    elif delta > 3:
        return DetectionResult(value=1 - mult * single_subtree_tail(delta, n, use_exact),
                               method="tail-sum")
    elif delta == 2 and not use_exact and n > BINOM_FLOAT_N:
        # 1 - mult (1 - c)/2, with the small c kept apart from the 1
        return DetectionResult(
            value=float(1 - Fraction(mult, 2) + mult * _central_term(n) / 2),
            method="closed-form")
    else:
        v = 1 - mult * single_subtree_tail(delta, n, exact=True)
    return DetectionResult(value=v if use_exact else float(v), method="closed-form")


def pc_conditional(delta: int, m: int, n: int, exact=None) -> DetectionResult:
    """Detection probability given the source has exactly m suspect neighbors.

    Errors escape through each of the m neighbors with the single-subtree
    tail mass, and those events are disjoint, so P = 1 - m * tail.
    """
    _check_delta_n(delta, n)
    if not 0 <= m <= delta:
        raise ValidationError(f"m must lie in [0, {delta}], got {m}")
    return _tail_sum(delta, n, m, exact)


def pc_all_suspects(delta: int, n: int, exact=None) -> DetectionResult:
    """P[MAP estimator names the source] when every infected node is suspect."""
    _check_delta_n(delta, n)
    return _tail_sum(delta, n, delta, exact)


def pc_connected(delta: int, k: int, n: int, exact=None) -> DetectionResult:
    """Detection probability when the k suspects form a connected subtree.

    Any connected k-node suspect pattern on the regular tree gives the same
    value: the pattern has k-1 internal edges, the source is uniform over
    the k suspects, and errors leak only through suspect-suspect edges, so
    the multiplier on the tail is 2(k-1)/k.
    """
    _check_delta_n(delta, n)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return _tail_sum(delta, n, Fraction(2 * (k - 1), k), exact)


def pc_general_lower_bound(delta: int, k: int, n: int, exact=None) -> DetectionResult:
    """Valid lower bound for ANY k-suspect arrangement: the connected value.

    Spreading suspects out only helps, so the connected pattern is worst
    case.
    """
    inner = pc_connected(delta, k, n, exact=exact)
    return DetectionResult(value=inner.value, method="lower-bound")


# ---------------------------------------------------------------------------
# two suspects at distance d

@dataclass(frozen=True)
class ChainMasses:
    """Classified mass of the two-suspect chain walk."""

    error: object
    tie: object
    success: object
    states: int

    @property
    def total(self):
        return self.error + self.tie + self.success


def _chain_masses(delta: int, n: int, d: int, use_exact: bool,
                  max_states, prune: bool) -> ChainMasses:
    """Walk the suspect-path subtree chains of length d, classifying each.

    A chain (z_1 > ... > z_d >= 1) errs when prod z_h > prod (n - z_h),
    ties at equality, else the true source wins; a chain hitting 0 before
    level d means the far suspect was never infected (success).  With
    prune=True a branch is dropped once its prefix product is at most 1,
    since every erring or tying chain keeps each prefix above 1; the success
    mass is then meaningless.  With prune=False every branch is walked, and
    exact masses total 1.

    Level 1 is the (1, delta-1) urn over n-1 draws.  Below it the walk
    carries w ~ mass / I[z_{h-1} - 1] (`_inv_table`): an inner level only
    divides w by c eps.  The pruned walk closes levels d-1 and d together
    (`close`), with a few steps per run of equal last-level thresholds; the
    unpruned one classifies every last count on its own, so it stays an
    independent check.  Exact masses are integers over one denominator D S,
    D = rise(delta, eps, n-1) and S = E T: each root count's sub-walk starts
    at w = T = (L eps)^(inner levels), L = lcm(1..n-2), so every division
    is exact, and its sums are scaled once by U(z_1) = R(z_1) E / I[z_1 - 1].
    U(n-1) = E, and each U steps from its neighbour by one small ratio.
    Floats take D = E = T = L = 1 and U = R / I.  At delta = 2 (eps = 0)
    the root count fixes the chain.
    """
    _check_delta_n(delta, n)
    if d < 1:
        raise ValidationError(f"suspect distance must be >= 1, got {d}")
    if not max_states >= 1:
        raise ValidationError(f"max_states must be >= 1, got {max_states}")
    if prune and d >= n:
        # the far suspect needs d+1 infected path nodes, more than exist
        zero = Fraction(0) if use_exact else 0.0
        return ChainMasses(error=zero, tie=zero, success=zero, states=0)
    N, eps = n - 1, delta - 2
    walks = eps > 0 and d > 1
    I = _inv_table(eps, max(N - 1, 0), use_exact) if walks else [1]
    E = I[0]
    if use_exact:
        div, ratio, D = operator.floordiv, Fraction, rising_product(delta, eps, N)
        # R(c) = D P(z_1 = c) for c = N..0, stepped down exactly
        root = accumulate((split_step(delta, N, c) for c in range(N, 0, -1)),
                          lambda r, s: r * s[1] // s[0], initial=rising_product(1, eps, N))
        # U(z) for z = N..1 from U(N) = E: each step down is the root step
        # times the table step I[z-1] / I[z-2], and divides exactly
        weights = accumulate(((*split_step(delta, N, z), z - 1) for z in range(N, 1, -1)),
                             lambda u, s: u * s[1] * (1 + s[2] * eps) // (s[0] * s[2] * eps),
                             initial=E)
        L = math.lcm(*range(1, N)) if walks else 1
        inner = min(d, N + 1) - 2  # most inner levels a chain can pass
        T = (L * eps) ** inner if walks and inner > 0 else 1
    else:
        div = ratio = operator.truediv
        D = T = L = 1.0
        # not stepped down from P(Z1 = N): at delta = 2 that is 2^-N, a float
        # 0 from n = 1100 on, and every weight below it would be too
        root = tree_split_marginal_pmf(delta, n)[::-1].tolist()
        weights = (r / I[z - 1] for z, r in zip(range(N, 0, -1), root))
    # HL[c] = sum_{j <= c} L / j, so w / (L eps) (HL[hi] - HL[lo-1]) is the
    # sum of w / (c eps) over a run of last-level counts
    HL = (list(accumulate((div(L, j) for j in range(1, N)), initial=0))
          if prune and walks and d > 2 else None)
    S = E * T
    err = tie = succ = states = 0
    e = t = s = 0  # one root count's sums, in units of U / (D S)

    def bump(k: int = 1):
        nonlocal states
        states += k
        if states > max_states:
            raise BudgetError(f"chain walk for delta={delta}, n={n}, d={d} exceeded "
                              f"{max_states} states; raise max_states to go further")

    def classify(num: int, den: int, m) -> bool:
        """Add m to the root count's sums by the odds num/den; False when
        pruning and no lower last count can err or tie."""
        nonlocal e, t, s
        if num > den:
            e += m
        elif num == den:
            t += m
        elif prune:
            return False
        else:
            s += m
        return True

    def close(p: int, num: int, den: int, w):
        """Pruned levels d-1 and d below z_{d-2} = p, w the mass over
        I[p-1].  A count c passes level d-1 from lo on, and its last level
        errs above K_c = n den (n-c) // (num c + den (n-c)), which falls as
        c rises: the counts that err are c in [a, p-1], where K_c <= c-2.
        Their mass, the sum of w / (c eps) (I[c-1] - I[K_c]), telescopes
        in its first half and takes one HL difference per run of equal K_c
        in its second.  A tie needs K_c to be exact, which can happen only
        at the top of a run or at a-1."""
        nonlocal e, t
        nd = n * den
        lo = max(1, nd // (num + den)) + 1
        # counts visited at level d-1, plus one last-level state per pass
        bump(max(0, p - max(min(lo - 1, p - 1), 2)) + max(0, p - lo))
        c, f = p - 1, 0  # f: sum over runs of I[K] (HL[top] - HL[bottom-1])
        while c >= lo:
            x, tot = nd * (n - c), num * c + den * (n - c)
            K = x // tot
            if 0 < K < c and x % tot == 0:
                t += div(w, c * eps) * div(I[K - 1], K * eps)
            if K > c - 2:
                break  # c = a-1: no lower count errs
            # the run of K ends below where K_c reaches K+1; below K+2 no count errs
            m = n - K - 1
            b = max(lo, K + 2, nd * m // (den * m + (K + 1) * num) + 1)
            f += I[K] * (HL[c] - HL[b - 1])
            c = b - 1
        e += w * (I[p - 1] - I[c]) - div(w, L * eps) * f

    def walk(h: int, p: int, num: int, den: int, w):
        """Classify every continuation through levels h..d given
        z_{h-1} = p; num/den is the prefix product so far (above 1 when
        pruning) and w the mass here over I[p-1], in units of U / (D S)."""
        nonlocal e, t, s
        if prune and h == d:
            # d = 2: the chain errs exactly from the last count c_star on
            bump()
            tot = num + den
            c_star = n * den // tot + 1
            if c_star < p:
                e += w * (I[p - 1] - I[c_star - 1])
            if n * den % tot == 0 and 1 < c_star <= p:
                t += w * div(I[c_star - 2], (c_star - 1) * eps)
            return
        if prune and h == d - 1:
            close(p, num, den, w)
            return
        # pruned chains must still strictly descend to z_d >= 1
        for c in range(p - 1, d - h if prune else 0, -1):
            bump()
            num2, den2 = num * c, den * (n - c)
            if h == d:
                classify(num2, den2, w * div(I[c - 1], c * eps))
            elif prune and num2 <= den2:
                break  # lower counts only shrink the product further
            else:
                walk(h + 1, c, num2, den2, div(w, c * eps))
        if not prune:
            s += w * E  # z_h = 0: the far suspect was never infected

    try:
        for z, r in zip(range(N, -1, -1), root):
            if prune and z < d:
                break  # cannot strictly descend to z_d >= 1
            if z == 0 or (not walks and z < d):
                succ += r * S  # the chain hits 0 before level d
                continue
            bump()
            e = t = s = 0
            u = next(weights) if walks else r
            if not walks:  # the chain is z, z-1, ..., z-d+1, and S = 1
                if not classify(math.prod(range(z - d + 1, z + 1)),
                                math.prod(range(n - z, n - z + d)), 1):
                    break
            elif prune and z <= n - z:
                break
            else:
                walk(2, z, z, n - z, T)
            err, tie, succ = err + u * e, tie + u * t, succ + u * s
    finally:
        walk = None  # the closure refers to itself; leave no cycle behind
    q = D * S
    return ChainMasses(error=ratio(err, q), tie=ratio(tie, q),
                       success=ratio(succ, q), states=states)


def pc_two_suspects(delta: int, d: int, n: int, exact=None,
                    max_states: int = DEFAULT_STATE_BUDGET) -> DetectionResult:
    """Detection probability with two suspects at path distance d.

    Exact chain enumeration (the authoritative route; no closed form is
    trusted here).  Distance at least n means the second suspect cannot be
    infected, so detection is sure.
    """
    masses = _chain_masses(delta, n, d, _resolve_exact(exact, n), max_states,
                           prune=True)
    return DetectionResult(value=1 - (masses.error + masses.tie / 2),
                           method="chain-enumeration")


def two_suspect_chain_audit(delta: int, d: int, n: int, exact=True,
                            max_states: int = DEFAULT_STATE_BUDGET) -> ChainMasses:
    """Unpruned walk: every chain and drop-out branch classified.

    error + tie + success totals exactly 1 in exact mode, which is the
    internal-consistency certificate for the enumeration.
    """
    return _chain_masses(delta, n, d, _resolve_exact(exact, n), max_states,
                         prune=False)


def two_suspect_survival_mass(delta: int, depth: int, n: int, exact=True,
                              max_states: int = DEFAULT_STATE_BUDGET):
    """Mass of chains whose first `depth` prefix products all strictly
    exceed 1 (with every level count at least 1).

    Any chain that errs or ties at some distance d > depth keeps every
    proper prefix strictly above 1, so this is an upper bound on the
    error + tie mass of pc_two_suspects at every d > depth.  Walking a
    few levels here certifies bounds for arbitrarily deep suspects where
    enumerating the full chain space would be hopeless.  Such a chain is
    exactly an erring chain of the pruned walk at d = depth.
    """
    return _chain_masses(delta, n, depth, _resolve_exact(exact, n), max_states,
                         prune=True).error


# ---------------------------------------------------------------------------
# degree-2 line: published closed form vs enumeration

def _binomial_window(n: int, lo: int, hi: int) -> Fraction:
    """1/2 - sum C(n-1, z) / 2^n over z = lo..hi clipped to 0..n-1."""
    s = sum(math.comb(n - 1, z) for z in range(max(lo, 0), min(hi, n - 1) + 1))
    return Fraction(1, 2) - Fraction(s, 2 ** n)


def line_two_suspect_expression(n: int, d: int) -> Fraction:
    """The quoted binomial-window expression for the degree-2 line case,
    evaluated verbatim (window depends on the parity of n - d)."""
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    if (n - d) % 2:  # n - d odd
        return _binomial_window(n, (n - d - 1) // 2, (n + d + 1) // 2)
    return _binomial_window(n, (n - d) // 2, (n + d - 2) // 2)


def audit_two_suspect_closed_form(n: int, d: int) -> dict:
    """Compare the quoted degree-2 closed form against exact enumeration.

    The enumeration is the source of truth.  Read as an error probability
    (detection = 1 - expression) the quoted form is exact whenever n - d is
    even; for odd n - d its tie window is shifted by one (it spans
    (n-d-1)/2 .. (n+d+1)/2 where the chain walk shows the boundary sits at
    (n-d+1)/2 .. (n+d-1)/2), leaving the residual reported here.  Once
    d >= n the window swallows the whole binomial mass, the expression
    saturates at zero, and the error-probability reading holds trivially;
    read directly as a detection probability the form never matches.
    """
    enum = pc_two_suspects(2, d, n, exact=True)
    expr = line_two_suspect_expression(n, d)
    pc_enum = enum.value
    residual = pc_enum - (1 - expr)
    corrected = (_binomial_window(n, (n - d + 1) // 2, (n + d - 1) // 2)
                 if (n - d) % 2 else expr)
    return {
        "n": n,
        "d": d,
        "parity_n_minus_d": "odd" if (n - d) % 2 else "even",
        "pc_enumeration": pc_enum,
        "expression": expr,
        "matches_as_pc": expr == pc_enum,
        "matches_as_pe": 1 - expr == pc_enum,
        "corrected_expression": corrected,
        "corrected_matches_as_pe": 1 - corrected == pc_enum,
        "residual_vs_pe_reading": residual,
    }


# ---------------------------------------------------------------------------
# asymptotics

def _limit(delta: int, mult) -> float:
    """Large-n form of 1 - mult * tail: the leading subtree share > 1/2."""
    return 1.0 - mult * (1.0 - limit_split_half(delta))


def phi1(delta: int) -> float:
    """Limit of the all-suspect detection probability as n grows."""
    return _limit(delta, delta)


def phi2(delta: int, k: int) -> float:
    """Limit of the connected-k detection probability."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return _limit(delta, 2.0 * (k - 1) / k)


def phi3(delta: int) -> float:
    """Limit of the two-suspect detection probability at distance 1."""
    return limit_split_half(delta)
