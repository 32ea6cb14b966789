"""Polya urn laws behind subtree growth on regular trees.

An urn starts with b_j balls of color j and adds `eps` balls of the drawn
color after each draw.  The joint law of color counts after N draws is

    P[X = x] = multinomial(N; x) * prod_j rise(b_j, eps, x_j) / rise(sum b, eps, N)

with rise(b, e, x) = b (b+e) (b+2e) ... (b+(x-1)e).  Two parameterizations
matter here: one ball per source-neighbor subtree with eps = delta-2 (the
joint subtree split), and the (1, delta-1) two-color collapse (one subtree
against the rest).  Each law is stated once, here: `polya_joint` is the
exact oracle, `split_step` the root step ratio and `_inv_table` the step
law below the root, and `limit_split_half` the large-n limit of the split.
The urn oracles return exact Fractions at every size; large-n float callers
sum `tree_split_marginal_pmf` instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError

@dataclass(frozen=True)
class PolyaSpec:
    """Urn description: initial counts per color, balls added per draw, draws.

    Zero initial counts are allowed (a zero-ball color just never gets drawn
    when eps reinforcement is absent); the total must be positive.
    """

    initial: tuple
    increment: int
    draws: int

    def __post_init__(self):
        if len(self.initial) == 0:
            raise ValidationError("urn needs at least one color")
        if any(b < 0 for b in self.initial):
            raise ValidationError(f"negative initial count in {self.initial}")
        if sum(self.initial) < 1:
            raise ValidationError("urn needs at least one ball")
        if self.increment < 0:
            raise ValidationError(f"increment must be >= 0, got {self.increment}")
        if self.draws < 0:
            raise ValidationError(f"draws must be >= 0, got {self.draws}")


def _check_delta_n(delta: int, n: int) -> None:
    if delta < 2:
        raise ValidationError(f"degree must be >= 2, got {delta}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")


def rising_product(b: int, eps: int, x: int) -> int:
    """b (b+eps) ... (b+(x-1)eps) as an exact integer; empty product is 1."""
    out = 1
    for i in range(x):
        out *= b + i * eps
    return out


def polya_joint(spec: PolyaSpec, counts) -> Fraction:
    """Exact probability that the urn ends with `counts` draws per color.

    counts must be non-negative and sum to spec.draws.
    """
    counts = tuple(counts)
    if len(counts) != len(spec.initial):
        raise ValidationError(
            f"{len(counts)} counts for {len(spec.initial)} colors"
        )
    if any(c < 0 for c in counts):
        raise ValidationError(f"negative count in {counts}")
    if sum(counts) != spec.draws:
        raise ValidationError(
            f"counts sum to {sum(counts)}, expected {spec.draws} draws"
        )
    coef, num = math.factorial(spec.draws), 1
    for b_j, x_j in zip(spec.initial, counts):
        coef //= math.factorial(x_j)
        num *= rising_product(b_j, spec.increment, x_j)
    return Fraction(coef * num, rising_product(sum(spec.initial), spec.increment, spec.draws))


def tree_split_spec(delta: int, n: int) -> PolyaSpec:
    """Urn whose colors are the delta subtrees hanging off the source."""
    _check_delta_n(delta, n)
    return PolyaSpec(initial=(1,) * delta, increment=delta - 2, draws=n - 1)


def tree_split_joint(delta: int, counts, n: int) -> Fraction:
    """Joint law of the delta subtree sizes around the source at n infected."""
    counts = tuple(counts)
    if len(counts) != delta:
        raise ValidationError(f"need {delta} subtree counts, got {len(counts)}")
    return polya_joint(tree_split_spec(delta, n), counts)


def tree_split_marginal(delta: int, x1: int, n: int) -> Fraction:
    """Law of one subtree's size against the other delta-1 combined."""
    _check_delta_n(delta, n)
    spec = PolyaSpec(initial=(1, delta - 1), increment=delta - 2, draws=n - 1)
    return polya_joint(spec, (x1, n - 1 - x1))


def split_step(delta: int, N: int, c):
    """P(X1 = c) / P(X1 = c-1) of the (1, delta-1) urn over N draws, as a
    (numerator, denominator) pair: (N-c+1)(1+(c-1)eps) over
    c(delta-1+(N-c)eps), eps = delta-2.  c may be an int or a numpy array."""
    eps = delta - 2
    return (N - c + 1) * (1 + (c - 1) * eps), c * (delta - 1 + (N - c) * eps)


def tree_split_marginal_pmf(delta: int, n: int) -> np.ndarray:
    """Float P(X1 = c) for c = 0..n-1: tree_split_marginal over every count.

    Walks `split_step` outward from the mode, N = n-1, then divides by the
    sum; no log-gamma enters.  Every step taken moves away from the mode,
    so its factor is at most 1 and the products cannot overflow.  The law
    is unimodal: at delta >= 3 every factor is below 1 (mode 0); at
    delta = 2 the factors fall through 1 once.
    """
    _check_delta_n(delta, n)
    N = n - 1
    num, den = split_step(delta, N, np.arange(1, N + 1, dtype=np.float64))
    step = num / den  # step[c-1] = P(c) / P(c-1)
    mode = int(np.count_nonzero(step >= 1))
    p = np.ones(N + 1)
    p[mode + 1:] = np.cumprod(step[mode:])
    if mode:
        p[:mode] = np.cumprod(1 / step[mode - 1::-1])[::-1]
    return p / p.sum()


def limit_split_half(delta: int) -> float:
    """Large-n limit of P(one subtree holds at most half of the infection).

    The subtree's share tends to Beta(a, 1+a), a = 1/(delta-2), and its CDF
    at 1/2 has a closed form: I_{1/2}(a, a) = 1/2 and I_x(a, b+1) =
    I_x(a, b) + x^a (1-x)^b / (b B(a, b)) give 1/2 + 4^-a G(2a) / (a G(a)^2)
    with G the gamma function.  delta = 3 gives 3/4, delta = 4 gives
    1/2 + 1/pi.  Needs delta >= 3: at delta = 2 the share tends to a point
    mass and no continuous limit exists.
    """
    if delta < 3:
        raise ValidationError("limiting split law needs degree >= 3")
    a = 1.0 / (delta - 2)
    return 0.5 + 4.0 ** -a * math.gamma(2 * a) / (a * math.gamma(a) ** 2)


def chain_step_pmf(delta: int, parent_count: int, child_count: int) -> Fraction:
    """One step down the suspect path: next subtree size given the previous.

    Given z infections fell in the subtree at distance h-1, the subtree one
    edge further holds Z_h of z-1 remaining slots with urn ((1, delta-2),
    eps=delta-2).  At delta=2 this degenerates to Z_h = z-1 surely.
    """
    if parent_count < 1:
        raise ValidationError(f"parent count must be >= 1, got {parent_count}")
    if not 0 <= child_count <= parent_count - 1:
        raise ValidationError(
            f"child count must lie in [0, {parent_count - 1}], got {child_count}"
        )
    spec = PolyaSpec(initial=(1, delta - 2), increment=delta - 2,
                     draws=parent_count - 1)
    return polya_joint(spec, (child_count, parent_count - 1 - child_count))


def _inv_table(eps: int, m: int, integer: bool) -> list:
    """I[k] = E prod_{j=1..k} (1 + j eps) / (j eps) for k = 0..m (eps >= 1).

    The step law of `chain_step_pmf` at delta = eps + 2: given z_{h-1} = p,
    z_h is beta-binomial(p-1, 1/eps, 1), and P(z_h = c | z_{h-1} = p) =
    I[c] / (I[p-1] (1 + c eps)).  Integer tables take E = eps^m m!, so every
    entry is an integer; float ones take E = 1.0 and grow like k^(1/eps).
    """
    div = operator.floordiv if integer else operator.truediv
    inv = [eps ** m * math.factorial(m) if integer else 1.0]
    for j in range(1, m + 1):
        inv.append(div(inv[-1] * (1 + j * eps), j * eps))
    return inv


def path_chain_joint(delta: int, n: int, z) -> Fraction:
    """Joint law of subtree sizes along a path away from the source.

    z = (z_1, ..., z_d): z_h counts infections in the subtree rooted at the
    h-th node of the path (toward the far endpoint).  The sequence must be
    strictly decreasing with z_d >= 1 and z_1 <= n-1; the chain is Markov,
    root marginal times per-edge steps.
    """
    z = tuple(z)
    if not z:
        raise ValidationError("need at least one path subtree size")
    if any(a <= b for a, b in zip(z, z[1:])):
        raise ValidationError(f"path sizes must strictly decrease, got {z}")
    if z[-1] < 1:
        raise ValidationError(f"innermost size must be >= 1, got {z[-1]}")
    if z[0] > n - 1:
        raise ValidationError(f"z1 must be <= n-1 = {n - 1}, got {z[0]}")
    p = tree_split_marginal(delta, z[0], n)
    for prev, cur in zip(z, z[1:]):
        p *= chain_step_pmf(delta, prev, cur)
    return p
