"""Apery sets and the invariants derived from them.

The least member in each residue class modulo a generator determines the
whole membership picture: Frobenius number, genus and arbitrary power sums
of the gaps all follow from the Apery elements, via Bernoulli numbers for
the general power sum.  Every division is exact-rational with a final
integrality assertion; a non-integer outcome signals a bug, never a
rounding decision.

The formulas read an Apery tuple modulo any generator a, not only the
least, and take a as the tuple's length: adding a generator never removes a
representation, so each residue class modulo a holds exactly its Apery
element plus the multiples of a.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import repeat
from math import comb, lcm

from .core import (
    ModulusNotGeneratorError,
    NonIntegerResultError,
    PSemigroup,
    ValidationError,
    _exact_int,
    _least_per_class,
)


def apery_set(semigroup: PSemigroup, modulus: int | None = None) -> tuple[int, ...]:
    """Apery set of the semigroup with respect to ``modulus`` (default min generator).

    Entry j is the least member congruent to j, so the tuple's length is its
    modulus.  The least modulus returns the tuple the semigroup was built
    from; any other generator searches the membership table once per class.
    """
    a = semigroup.gens.least if modulus is None else modulus
    if a == semigroup.gens.least:
        return semigroup.apery
    if a not in semigroup.gens.elements:
        raise ModulusNotGeneratorError(f"{a} is not one of the generators")
    return _least_per_class(semigroup.membership, a)


def frobenius_from_apery(ap: tuple[int, ...]) -> int:
    """Largest non-member: max Apery element minus the modulus ``len(ap)``."""
    return max(ap) - len(ap)


def genus_from_apery(ap: tuple[int, ...]) -> int:
    """Gap count from the Apery element sum, for any generator modulus."""
    a = len(ap)
    value = Fraction(sum(ap), a) - Fraction(a - 1, 2)
    return _exact_int(value, "genus")


def sylvester_sum_from_apery(ap: tuple[int, ...]) -> int:
    """Sum of all gaps from the first two Apery power sums, for any generator modulus."""
    a = len(ap)
    value = (
        Fraction(sum(m * m for m in ap), 2 * a)
        - Fraction(sum(ap), 2)
        + Fraction(a * a - 1, 12)
    )
    return _exact_int(value, "sylvester sum")


_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n under the convention fixed by x/(e^x - 1).

    Generated by the recurrence sum_{j<=m} C(m+1, j) B_j = 0 (m >= 1), which
    forces B_1 = -1/2.  The cache only ever grows, so concurrent readers see
    a consistent prefix.
    """
    if n < 0:
        raise ValidationError("Bernoulli index must be non-negative")
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI_CACHE) <= n:
            m = len(_BERNOULLI_CACHE)
            acc = Fraction(0)
            for j in range(m):
                acc += comb(m + 1, j) * _BERNOULLI_CACHE[j]
            _BERNOULLI_CACHE.append(-acc / (m + 1))
        return _BERNOULLI_CACHE[n]


def power_sum(semigroup: PSemigroup, mu: int) -> int:
    """Exact sum of n**mu over all gaps, evaluated from the Apery set.

    Uses the Bernoulli-weighted expansion of the power sum; mu = 1 reduces
    algebraically to the Sylvester sum formula.  The expansion is summed in
    integers over the common denominator (mu+1) * a * lcm(den B_0..B_{mu+1}).
    """
    if mu < 1:
        raise ValidationError("power-sum exponent must be >= 1")
    ap = apery_set(semigroup)
    a = len(ap)
    numbers = [bernoulli(k) for k in range(mu + 2)]
    lcd = lcm(*[b.denominator for b in numbers])
    weights = [b.numerator * (lcd // b.denominator) for b in numbers]  # B_k * lcd
    total = weights[mu + 1] * a * (a ** (mu + 1) - 1)
    for k in range(mu + 1):
        if weights[k]:
            inner = sum(map(pow, ap, repeat(mu + 1 - k)))
            total += comb(mu + 1, k) * weights[k] * a**k * inner
    denominator = (mu + 1) * a * lcd
    value, rest = divmod(total, denominator)
    if rest:
        raise NonIntegerResultError(
            f"power sum (mu={mu}) evaluated to non-integer {Fraction(total, denominator)}"
        )
    if value < 0:
        raise NonIntegerResultError(f"power sum (mu={mu}) evaluated negative: {value}")
    return value
