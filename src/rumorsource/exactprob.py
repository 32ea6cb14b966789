"""Exact and asymptotic probabilities of catching the source on regular trees.

Everything reduces to two engines:

* a single-subtree tail: the chance that one fixed neighbor subtree of the
  true source swallows more than half of the infection (plus half the mass
  of an exact half split).  Detection fails through a suspect neighbor
  exactly when its subtree does that, so the all-suspect and connected-k
  probabilities are 1 - (multiplier) * tail.
* a chain enumeration for two suspects at distance d: the subtree sizes
  along the path joining them form a Markov chain, and the wrong suspect
  wins (or ties) according to the product of size odds along the path.
  Only chains whose every prefix keeps that product above 1 can end in an
  error, which prunes the walk to a thin wedge and keeps exact rational
  enumeration cheap.

Counts are exact Fractions by default up to n = 500, log-gamma floats
beyond; tie mass always enters with weight 1/2 (fair coin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import BudgetError, ValidationError
from .urn import _resolve_exact, incomplete_beta

# Visited-state cap for the two-suspect chain walk.
DEFAULT_STATE_BUDGET = 3_000_000


@dataclass(frozen=True)
class DetectionResult:
    """A detection probability with how it was computed.

    value is a Fraction in exact mode, a float otherwise.  method is one of
    closed-form, tail-sum, chain-enumeration, asymptotic, lower-bound.
    """

    value: object
    method: str
    scenario: str

    @property
    def as_float(self) -> float:
        return float(self.value)


def _check_delta_n(delta: int, n: int) -> None:
    if delta < 2:
        raise ValidationError(f"degree must be >= 2, got {delta}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# single-subtree tail

@lru_cache(maxsize=8192)
def _tail_exact(delta: int, n: int) -> Fraction:
    """Fraction form of single_subtree_tail; cached since sweeps reuse it."""
    N = n - 1
    eps = delta - 2
    if N == 0:
        return Fraction(0)
    # marginal pmf of one subtree's count x against the other delta-1,
    # stepped downward from x = N
    num = den = 1
    for i in range(N):
        num *= 1 + i * eps
        den *= delta + i * eps
    p = Fraction(num, den)  # P(X1 = N)
    tail = Fraction(0)
    half2 = n  # compare 2*x against n
    x = N
    while 2 * x >= half2 and x >= 0:
        if 2 * x == half2:
            tail += p / 2
        else:
            tail += p
        # P(x-1) = P(x) * x/(N-x+1) * ((delta-1)+(N-x)eps)/(1+(x-1)eps)
        if x >= 1:
            p = p * Fraction(x * ((delta - 1) + (N - x) * eps),
                             (N - x + 1) * (1 + (x - 1) * eps))
        x -= 1
    return tail


def _tail_float(delta: int, n: int) -> float:
    N = n - 1
    if N == 0:
        return 0.0
    xs = np.arange(n // 2 + 1, N + 1, dtype=np.float64)
    total = 0.0
    if xs.size:
        lp = _log_marginal(delta, n, xs)
        m = lp.max()
        total = math.exp(m) * float(np.exp(lp - m).sum())
    if n % 2 == 0 and n // 2 <= N:
        total += 0.5 * math.exp(float(_log_marginal(delta, n, np.array([n / 2]))[0]))
    return total


def _log_marginal(delta: int, n: int, xs):
    """log P(X1 = x) for the (1, delta-1) split urn, vectorized over xs."""
    N = n - 1
    eps = delta - 2
    ys = N - xs
    out = gammaln(N + 1) - gammaln(xs + 1) - gammaln(ys + 1)
    if eps == 0:
        out = out - N * math.log(delta)  # both balls are 1 and delta-1=1
        return out
    out = out + xs * math.log(eps) + gammaln(1.0 / eps + xs) - gammaln(1.0 / eps)
    b2 = (delta - 1.0) / eps
    out = out + ys * math.log(eps) + gammaln(b2 + ys) - gammaln(b2)
    btot = delta / eps
    out = out - (N * math.log(eps) + gammaln(btot + N) - gammaln(btot))
    return out


def single_subtree_tail(delta: int, n: int, exact=None):
    """P[one fixed source-neighbor subtree holds > half of n] + half the
    exact-half mass.  The building block of every tail-sum probability."""
    _check_delta_n(delta, n)
    if _resolve_exact(exact, n):
        return _tail_exact(delta, n)
    return _tail_float(delta, n)


def pc_conditional(delta: int, m: int, n: int, exact=None):
    """Detection probability given the source has exactly m suspect neighbors.

    Errors escape through each of the m neighbors with the single-subtree
    tail mass, and those events are disjoint, so P = 1 - m * tail.
    """
    _check_delta_n(delta, n)
    if not 0 <= m <= delta:
        raise ValidationError(f"m must lie in [0, {delta}], got {m}")
    return 1 - m * single_subtree_tail(delta, n, exact=exact)


# ---------------------------------------------------------------------------
# all suspects / connected suspects

def pc_all_suspects(delta: int, n: int, exact=None, via="auto") -> DetectionResult:
    """P[MAP estimator names the source] when every infected node is suspect.

    via: "auto" picks the closed form for degree 2 and 3 and the tail sum
    otherwise; forcing either route is allowed where it exists (the two
    agree exactly, which the tests pin down).
    """
    _check_delta_n(delta, n)
    use_exact = _resolve_exact(exact, n)
    if via not in ("auto", "closed-form", "tail-sum"):
        raise ValidationError(f"unknown route {via!r}")
    if via == "closed-form" and delta > 3:
        raise ValidationError("no closed form above degree 3; use tail-sum")
    if via in ("auto", "closed-form") and delta == 2:
        v = Fraction(math.comb(n - 1, (n - 1) // 2), 2 ** (n - 1))
        return _wrap(v, use_exact, "closed-form", "all-suspects")
    if via in ("auto", "closed-form") and delta == 3:
        v = Fraction(1, 4) + Fraction(3, 4) / (2 * (n // 2) + 1)
        return _wrap(v, use_exact, "closed-form", "all-suspects")
    tail = single_subtree_tail(delta, n, exact=use_exact)
    if use_exact:
        v = Fraction(1) - delta * tail
    else:
        v = 1.0 - delta * tail
    return DetectionResult(value=v, method="tail-sum", scenario="all-suspects")


def pc_connected(delta: int, k: int, n: int, exact=None, via="auto") -> DetectionResult:
    """Detection probability when the k suspects form a connected subtree.

    Any connected k-node suspect pattern on the regular tree gives the same
    value: the pattern has k-1 internal edges, the source is uniform over
    the k suspects, and errors leak only through suspect-suspect edges, so
    the multiplier on the tail is 2(k-1)/k.
    """
    _check_delta_n(delta, n)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    use_exact = _resolve_exact(exact, n)
    if via not in ("auto", "closed-form", "tail-sum"):
        raise ValidationError(f"unknown route {via!r}")
    if via == "closed-form" and delta > 3:
        raise ValidationError("no closed form above degree 3; use tail-sum")
    if k == 1:
        return _wrap(Fraction(1), use_exact, "closed-form", "connected-k")
    if via in ("auto", "closed-form") and delta == 2:
        c = Fraction(math.comb(n - 1, (n - 1) // 2), 2 ** (n - 1))
        v = (1 + (k - 1) * c) / Fraction(k)
        return _wrap(v, use_exact, "closed-form", "connected-k")
    if via in ("auto", "closed-form") and delta == 3:
        v = Fraction(k + 1, 2 * k) + Fraction(k - 1, k) / (4 * (n // 2) + 2)
        return _wrap(v, use_exact, "closed-form", "connected-k")
    tail = single_subtree_tail(delta, n, exact=use_exact)
    if use_exact:
        v = Fraction(1) - Fraction(2 * (k - 1), k) * tail
    else:
        v = 1.0 - (2.0 * (k - 1) / k) * tail
    return DetectionResult(value=v, method="tail-sum", scenario="connected-k")


def _wrap(v: Fraction, use_exact: bool, method: str, scenario: str) -> DetectionResult:
    return DetectionResult(value=v if use_exact else float(v), method=method,
                           scenario=scenario)


def pc_general_lower_bound(delta: int, k: int, n: int, exact=None) -> DetectionResult:
    """Valid lower bound for ANY k-suspect arrangement: the connected value.

    Spreading suspects out only helps, so the connected pattern is worst
    case.
    """
    inner = pc_connected(delta, k, n, exact=exact)
    return DetectionResult(value=inner.value, method="lower-bound",
                           scenario="general-k-bound")


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
                  max_states: int, prune: bool) -> ChainMasses:
    """Walk the suspect-path subtree chains of length d, classifying each.

    A chain (z_1 > ... > z_d >= 1) errs when prod z_h > prod (n - z_h),
    ties at equality, else the true source wins; a chain hitting 0 before
    level d means the far suspect was never infected (success).  With
    prune=True, a branch is dropped as soon as its prefix product falls to
    or below 1 (no completion can then err or tie, since any erring or
    tying chain keeps every prefix strictly above 1); the returned success
    mass is then meaningless.  With prune=False every branch is walked and
    error + tie + success totals exactly 1 in exact mode.
    """
    N = n - 1
    eps = delta - 2
    zero = Fraction(0) if use_exact else 0.0
    one = Fraction(1) if use_exact else 1.0
    err = tie = succ = zero
    if N == 0:
        return ChainMasses(error=zero, tie=zero, success=one, states=0)

    # conditional start values S[prev] = P(next = prev-1 | prev), prev >= 1
    S = [None, one]
    for prev in range(1, N + 1):
        rn, rd = 1 + (prev - 1) * eps, (delta - 1) + (prev - 1) * eps
        S.append(S[prev] * Fraction(rn, rd) if use_exact else S[prev] * rn / rd)

    states = 0

    def bump():
        nonlocal states
        states += 1
        if states > max_states:
            raise BudgetError(
                f"chain walk for delta={delta}, n={n}, d={d} exceeded "
                f"{max_states} states; raise max_states to go further"
            )

    # Per-prev conditional pmf Q[c] and upper tail T[c] = sum_{c' >= c} Q[c'].
    # The final level's error region is a contiguous top range of c, so one
    # tail lookup replaces the per-leaf loop there.
    cond_cache: dict[int, tuple] = {}

    def cond_tables(prev: int) -> tuple:
        hit = cond_cache.get(prev)
        if hit is not None:
            return hit
        M = prev - 1
        Q = [zero] * (M + 1)
        p = S[prev]
        c = M
        while c >= 0:
            Q[c] = p
            if c == 0 or p == zero:
                break
            rn = c * ((delta - 2) + (M - c) * eps)
            rd = (M - c + 1) * (1 + (c - 1) * eps)
            if rn == 0:
                p = zero
            elif use_exact:
                p = p * Fraction(rn, rd)
            else:
                p = p * rn / rd
            c -= 1
        T = [zero] * (M + 2)
        for c in range(M, 0, -1):
            T[c] = T[c + 1] + Q[c]
        cond_cache[prev] = (Q, T)
        return Q, T

    def tail_close(prev: int, num: int, den: int, w):
        """Error and tie mass over the last level, closed in one lookup."""
        nonlocal err, tie
        bump()
        M = prev - 1
        tot = num + den
        c_star = (n * den) // tot + 1
        exact_tie = (n * den) % tot == 0
        if c_star > M and not (exact_tie and 1 <= c_star - 1 <= M):
            return
        Q, T = cond_tables(prev)
        if c_star <= M:
            err += w * T[c_star]
        if exact_tie:
            ct = c_star - 1
            if 1 <= ct <= M:
                tie += w * Q[ct]

    def descend(h: int, prev: int, num: int, den: int, w):
        """Classify all continuations given z_{h-1} = prev and a strictly
        above-1 prefix product num/den."""
        nonlocal err, tie, succ
        if prune and h == d:
            tail_close(prev, num, den, w)
            return
        M = prev - 1
        p = S[prev]
        c = M
        while c >= 0:
            if prune and c < d - h + 1:
                break  # cannot strictly descend to z_d >= 1 from here
            if c == 0:
                # far suspect misses the infection entirely
                if not prune:
                    succ += w * p
                break
            if p == zero:
                break  # the pmf recurrence keeps every lower count at zero
            bump()
            wc = w * p
            num2 = num * c
            den2 = den * (n - c)
            if h == d:
                if num2 > den2:
                    err += wc
                elif num2 == den2:
                    tie += wc
                else:
                    succ += wc
            else:
                if num2 > den2:
                    descend(h + 1, c, num2, den2, wc)
                elif prune:
                    break
                else:
                    descend(h + 1, c, num2, den2, wc)
            # step the conditional pmf down one count
            rn = c * ((delta - 2) + (M - c) * eps)
            rd = (M - c + 1) * (1 + (c - 1) * eps)
            if rn == 0:
                p = zero
            elif use_exact:
                p = p * Fraction(rn, rd)
            else:
                p = p * rn / rd
            c -= 1

    # marginal P(Z1 = z1), stepped downward from z1 = N
    if use_exact:
        num0 = den0 = 1
        for i in range(N):
            num0 *= 1 + i * eps
            den0 *= delta + i * eps
        p1 = Fraction(num0, den0)
    else:
        p1 = 0.0
        for i in range(N):
            p1 += math.log1p(i * eps) - math.log(delta + i * eps)
        p1 = math.exp(p1)
    z1 = N
    while z1 >= 0:
        if prune and z1 < d:
            break  # no strictly descending length-d chain starts this low
        if z1 == 0:
            if not prune:
                succ += p1
            break
        bump()
        num, den = z1, n - z1
        if d == 1:
            if num > den:
                err += p1
            elif num == den:
                tie += p1
            elif prune:
                break
            else:
                succ += p1
        else:
            if num > den:
                descend(2, z1, num, den, p1)
            elif prune:
                break
            else:
                descend(2, z1, num, den, p1)
        rn = z1 * ((delta - 1) + (N - z1) * eps)
        rd = (N - z1 + 1) * (1 + (z1 - 1) * eps)
        if use_exact:
            p1 = p1 * Fraction(rn, rd)
        else:
            p1 = p1 * rn / rd
        z1 -= 1
    return ChainMasses(error=err, tie=tie, success=succ, states=states)


def pc_two_suspects(delta: int, d: int, n: int, exact=None,
                    max_states: int = DEFAULT_STATE_BUDGET) -> DetectionResult:
    """Detection probability with two suspects at path distance d.

    Exact chain enumeration (the authoritative route; no closed form is
    trusted here).  Distance at least n means the second suspect cannot be
    infected, so detection is sure.
    """
    _check_delta_n(delta, n)
    if d < 1:
        raise ValidationError(f"suspect distance must be >= 1, got {d}")
    use_exact = _resolve_exact(exact, n)
    if d >= n:
        # the far suspect needs d+1 infected path nodes, more than exist
        return DetectionResult(value=Fraction(1) if use_exact else 1.0,
                               method="chain-enumeration",
                               scenario="two-at-d")
    masses = _chain_masses(delta, n, d, use_exact, max_states, prune=True)
    pe = masses.error + masses.tie / 2
    v = (Fraction(1) - pe) if use_exact else 1.0 - pe
    return DetectionResult(value=v, method="chain-enumeration",
                           scenario="two-at-d")


def two_suspect_chain_audit(delta: int, d: int, n: int, exact=True,
                            max_states: int = DEFAULT_STATE_BUDGET) -> ChainMasses:
    """Unpruned walk: every chain and drop-out branch classified.

    error + tie + success totals exactly 1 in exact mode, which is the
    internal-consistency certificate for the enumeration.
    """
    _check_delta_n(delta, n)
    if d < 1:
        raise ValidationError(f"suspect distance must be >= 1, got {d}")
    return _chain_masses(delta, n, d, bool(exact), max_states, prune=False)


def two_suspect_survival_mass(delta: int, depth: int, n: int, exact=True,
                              max_states: int = DEFAULT_STATE_BUDGET):
    """Mass of chains whose first `depth` prefix products all strictly
    exceed 1 (with every level count at least 1).

    Any chain that errs or ties at some distance d > depth keeps every
    proper prefix strictly above 1, so this is an upper bound on the
    error + tie mass of pc_two_suspects at every d > depth.  Walking a
    few levels here certifies bounds for arbitrarily deep suspects where
    enumerating the full chain space would be hopeless.
    """
    _check_delta_n(delta, n)
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    use_exact = bool(exact)
    N = n - 1
    eps = delta - 2
    zero = Fraction(0) if use_exact else 0.0
    one = Fraction(1) if use_exact else 1.0
    if N == 0:
        return zero
    surv = zero

    S = [None, one]
    for prev in range(1, N + 1):
        rn, rd = 1 + (prev - 1) * eps, (delta - 1) + (prev - 1) * eps
        S.append(S[prev] * Fraction(rn, rd) if use_exact else S[prev] * rn / rd)

    states = 0

    def bump():
        nonlocal states
        states += 1
        if states > max_states:
            raise BudgetError(
                f"survival walk for delta={delta}, n={n}, depth={depth} "
                f"exceeded {max_states} states"
            )

    def descend(h, prev, num, den, w):
        nonlocal surv
        M = prev - 1
        p = S[prev]
        c = M
        while c >= 1:
            if p == zero:
                break
            bump()
            num2 = num * c
            den2 = den * (n - c)
            if num2 > den2:
                if h == depth:
                    surv += w * p
                else:
                    descend(h + 1, c, num2, den2, w * p)
            else:
                break  # lower c only shrinks the product further
            rn = c * ((delta - 2) + (M - c) * eps)
            rd = (M - c + 1) * (1 + (c - 1) * eps)
            p = zero if rn == 0 else (
                p * Fraction(rn, rd) if use_exact else p * rn / rd)
            c -= 1

    if use_exact:
        num0 = den0 = 1
        for i in range(N):
            num0 *= 1 + i * eps
            den0 *= delta + i * eps
        p1 = Fraction(num0, den0)
    else:
        acc = 0.0
        for i in range(N):
            acc += math.log1p(i * eps) - math.log(delta + i * eps)
        p1 = math.exp(acc)
    z1 = N
    while z1 >= 1:
        bump()
        if z1 > n - z1:
            if depth == 1:
                surv += p1
            else:
                descend(2, z1, z1, n - z1, p1)
        else:
            break
        rn = z1 * ((delta - 1) + (N - z1) * eps)
        rd = (N - z1 + 1) * (1 + (z1 - 1) * eps)
        p1 = p1 * Fraction(rn, rd) if use_exact else p1 * rn / rd
        z1 -= 1
    return surv


# ---------------------------------------------------------------------------
# degree-2 line: published closed form vs enumeration

def line_two_suspect_expression(n: int, d: int) -> Fraction:
    """The quoted binomial-window expression for the degree-2 line case,
    evaluated verbatim (window depends on the parity of n - d)."""
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    if (n - d) % 2:  # n - d odd
        lo, hi = (n - d - 1) // 2, (n + d + 1) // 2
    else:
        lo, hi = (n - d) // 2, (n + d - 2) // 2
    s = sum(math.comb(n - 1, z) for z in range(max(lo, 0), min(hi, n - 1) + 1))
    return Fraction(1, 2) - Fraction(s, 2 ** n)


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
    if (n - d) % 2:
        lo, hi = (n - d + 1) // 2, (n + d - 1) // 2
        s = sum(math.comb(n - 1, z) for z in range(max(lo, 0), min(hi, n - 1) + 1))
        corrected = Fraction(1, 2) - Fraction(s, 2 ** n)
    else:
        corrected = expr
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

def _limit_tail(delta: int) -> float:
    # limiting single-subtree tail: 1 - I_{1/2}(1/(delta-2), (delta-1)/(delta-2))
    return 1.0 - incomplete_beta(0.5, 1.0 / (delta - 2), (delta - 1.0) / (delta - 2))


def phi1(delta: int) -> float:
    """Limit of the all-suspect detection probability as n grows."""
    if delta < 3:
        raise ValidationError("limit exists only for degree >= 3 (degree 2 decays to 0)")
    return 1.0 - delta * _limit_tail(delta)


def phi2(delta: int, k: int) -> float:
    """Limit of the connected-k detection probability."""
    if delta < 3:
        raise ValidationError("limit exists only for degree >= 3")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return 1.0 - (2.0 * (k - 1) / k) * _limit_tail(delta)


def phi3(delta: int) -> float:
    """Limit of the two-suspect detection probability at distance 1."""
    if delta < 3:
        raise ValidationError("limit exists only for degree >= 3")
    return incomplete_beta(0.5, 1.0 / (delta - 2), (delta - 1.0) / (delta - 2))
