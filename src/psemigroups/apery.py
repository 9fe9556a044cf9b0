"""Apery sets and the invariants derived from them.

The least member in each residue class modulo a generator determines the
whole membership picture.  The Frobenius number is the largest Apery
element less the modulus; the genus, the Sylvester sum and every power sum
of the gaps are the entries of one Bernoulli expansion, ``gap_power_sums``,
summed in integers over one common denominator.  Each entry ends in an
integrality check: a non-integer outcome signals a bug, never a rounding
decision.

The formulas read an Apery tuple modulo any generator a, not only the
least, and take a as the tuple's length: adding a generator never removes a
representation, so each residue class modulo a holds exactly its Apery
element plus the multiples of a.
"""

from __future__ import annotations

import functools
from math import comb, lcm
from operator import mul

from .core import NonIntegerResultError, PSemigroup, ValidationError


def apery_set(semigroup: PSemigroup) -> tuple[int, ...]:
    """Apery set modulo the least generator: the tuple the semigroup was built from.

    Entry j is the least member congruent to j, so the tuple's length is its
    modulus.
    """
    return semigroup.apery


def frobenius_from_apery(ap: tuple[int, ...]) -> int:
    """Largest non-member: max Apery element minus the modulus ``len(ap)``."""
    return max(ap) - len(ap)


@functools.cache
def bernoulli(n: int):
    """Bernoulli number B_n, a ``fractions.Fraction``, as fixed by x/(e^x - 1).

    Generated by the recurrence sum_{j<=m} C(m+1, j) B_j = 0 (m >= 1), which
    forces B_1 = -1/2.  Memoized by ``functools.cache``; each call asks for
    B_0..B_{n-1} in ascending order, so the recursion stays two calls deep
    whatever index comes first.  A negative index raises, and nothing is
    cached for it.  ``fractions`` (and the ``decimal`` it loads) is imported
    here, for B_0, so that a process that needs no Bernoulli number never
    loads it.
    """
    if n < 0:
        raise ValidationError("Bernoulli index must be non-negative")
    if n == 0:
        from fractions import Fraction

        return Fraction(1)
    return -sum(comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


@functools.cache
def _bernoulli_weights(mu_max: int) -> tuple[int, tuple[int, ...]]:
    """lcd = lcm(den B_0..B_{mu_max+1}) and the integers B_k * lcd, per ``mu_max``.

    Memoized by ``functools.cache``, like ``bernoulli``: they depend on
    ``mu_max`` alone, not on the Apery tuple.
    """
    numbers = [bernoulli(k) for k in range(mu_max + 2)]
    lcd = lcm(*[b.denominator for b in numbers])
    return lcd, tuple(b.numerator * (lcd // b.denominator) for b in numbers)


def gap_power_sums(ap: tuple[int, ...], mu_max: int) -> list[int]:
    """Sum of n**mu over the gaps for mu = 0..mu_max, from an Apery tuple.

    With a = len(ap) and P_j the sum of w**j over the tuple (P_0 = a), entry
    mu is (sum_{k<=mu+1} C(mu+1, k) B_k a**(k-1) P_{mu+1-k} - B_{mu+1}) / (mu+1),
    summed in integers over a * lcm(den B_0..B_{mu_max+1}).  The weights come
    from ``_bernoulli_weights`` and the P_j are computed once for all
    entries, from one running product per element: each P_j multiplies the
    list of the w**(j-1) by the tuple once more, one C-level ``map``, which
    costs less than a ``pow`` per element and exponent.  Entry 0 is the
    genus and entry 1 the Sylvester sum.
    """
    a = len(ap)
    lcd, weights = _bernoulli_weights(mu_max)  # weights[k] = B_k * lcd
    scaled = [w * a**k for k, w in enumerate(weights)]  # B_k * lcd * a**k
    powers = ap
    sums = [a, sum(ap)]  # P_j
    for _ in range(mu_max):
        powers = list(map(mul, powers, ap))
        sums.append(sum(powers))
    out = []
    for n in range(1, mu_max + 2):  # n = mu + 1
        total = sum(comb(n, k) * scaled[k] * sums[n - k] for k in range(n + 1))
        total -= weights[n] * a
        value, rest = divmod(total, n * a * lcd)
        if rest or value < 0:
            # B_0 = Fraction(1), so this is total / (n * a * lcd) in lowest terms
            raise NonIntegerResultError(
                f"gap power sum (mu={n - 1}) evaluated to {bernoulli(0) * total / (n * a * lcd)}"
            )
        out.append(value)
    return out


def power_sum(semigroup: PSemigroup, mu: int) -> int:
    """Exact sum of n**mu over all gaps, for mu >= 1: entry mu of ``gap_power_sums``."""
    if mu < 1:
        raise ValidationError("power-sum exponent must be >= 1")
    return gap_power_sums(apery_set(semigroup), mu)[mu]
