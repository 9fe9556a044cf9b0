"""Closed-form invariant evaluators and the gcd reduction that lifts them.

Two-generator invariants, standard-form membership, the gcd reduction with
its lifted Frobenius/genus/Sylvester formulas, and the arithmetic-triple
closed forms.  An arithmetic triple (a, a+d, a+2d) has one derivation: its
Apery tuple mod a written as closed progressions (``_arith_apery``), from
which the least element is read and the Hilbert series is factored; the
Frobenius number and genus keep the paper's formulas.  Nothing here runs
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import (
    GcdNotOneError,
    GeneratorTuple,
    InternalConsistencyError,
    OutOfValidityRangeError,
    ValidationError,
    _exact_int,
    validate_generators,
)


def _check_two_var(a: int, b: int) -> None:
    if not (2 <= a < b):
        raise ValidationError(f"need 2 <= a < b, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise GcdNotOneError(f"gcd({a}, {b}) != 1")


def two_var_invariants(a: int, b: int, p: int) -> tuple[int, int, int]:
    """(frobenius, genus, sylvester_sum) for two coprime generators."""
    _check_two_var(a, b)
    if p < 0:
        raise ValidationError("p must be non-negative")
    frob = (p + 1) * a * b - a - b
    genus = p * a * b + (a - 1) * (b - 1) // 2
    sylvester = _exact_int(
        Fraction(p * p * a * a * b * b, 2)
        + Fraction(p * (a * b - a - b) * a * b, 2)
        + Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12),
        "two-generator sylvester sum",
    )
    return frob, genus, sylvester


def two_var_membership(n: int, a: int, b: int, p: int) -> bool:
    """Does n have more than p representations over coprime (a, b)?

    Writes n = a*x0 + b*y0 in standard form (0 <= y0 < a, x0 maximal); n is
    a member exactly when x0 >= p*b.
    """
    if gcd(a, b) != 1:
        raise GcdNotOneError(f"gcd({a}, {b}) != 1")
    if a < 1 or b < 1:
        raise ValidationError("generators must be positive")
    if p < 0:
        raise ValidationError("p must be non-negative")
    if n < 0:
        return False
    y0 = (n * pow(b, -1, a)) % a if a > 1 else 0
    x0, rem = divmod(n - b * y0, a)
    if rem != 0:
        raise InternalConsistencyError("standard form residue mismatch")
    return x0 >= p * b


@dataclass(frozen=True)
class GcdReduction:
    """Reduction data: distinguished generator, gcd of the rest, reduced tuple."""

    a1: int
    d: int
    reduced: GeneratorTuple


def gcd_reduce(gens: GeneratorTuple) -> GcdReduction:
    """Factor out the gcd of all generators except one.

    The distinguished generator a1 is the smallest whose reduced alphabet
    stays duplicate-free: a1 is coprime to the gcd d of the others, and a1
    is none of their quotients r/d (d = 1 gives the identity reduction).
    The largest generator a_k always qualifies, so the loop breaks at the
    latest there: gcd(a_k, d) is the gcd of the whole tuple, 1; every
    quotient r/d is at most r < a_k; and the quotients have gcd 1, so the
    reduced tuple validates.
    """
    elements = gens.elements
    for i, a1 in enumerate(elements):
        rest = elements[:i] + elements[i + 1 :]
        d = gcd(*rest)
        quotients = [r // d for r in rest]
        if gcd(a1, d) == 1 and a1 not in quotients:
            break
    return GcdReduction(a1=a1, d=d, reduced=validate_generators([a1, *quotients]))


def lift_invariants(
    reduction: GcdReduction,
    reduced_frobenius: int,
    reduced_genus: int,
    reduced_sylvester_sum: int,
) -> tuple[int, int, int]:
    """Lift (frobenius, genus, sylvester_sum) of the reduced tuple to the original."""
    a1, d = reduction.a1, reduction.d
    frob = d * reduced_frobenius + (d - 1) * a1
    genus = _exact_int(
        d * reduced_genus + Fraction((d - 1) * (a1 - 1), 2), "lifted genus"
    )
    sylvester = _exact_int(
        d * d * reduced_sylvester_sum
        + Fraction(a1 * d * (d - 1), 2) * reduced_genus
        + Fraction((a1 - 1) * (d - 1) * (2 * a1 * d - a1 - d - 1), 12),
        "lifted sylvester sum",
    )
    return frob, genus, sylvester


def _check_arith(a: int, d: int, p: int) -> None:
    if a < 3 or d < 1:
        raise ValidationError(f"need a >= 3 and d >= 1, got a={a}, d={d}")
    if gcd(a, d) != 1:
        raise GcdNotOneError(f"gcd({a}, {d}) != 1")
    if not 0 <= p <= a // 2:
        raise OutOfValidityRangeError(
            f"arithmetic-triple formulas require 0 <= p <= {a // 2}, got {p}"
        )


def _arith_apery(a: int, d: int, p: int) -> tuple[int, ...]:
    """Closed-form Apery tuple mod a of (a, a+d, a+2d), for 0 <= p <= a // 2.

    The elements are (start, step, terms) progressions: three families for
    odd a; for even a, two families and their shifts by a + d.  Sorted by
    residue they must be one non-negative element per class mod a; a
    negative element, two in one class or an empty class is an internal error.
    """
    _check_arith(a, d, p)
    top = 2 * p * (a + d)
    if a % 2 == 1:
        families = [
            ((a - 1) * (a + 2 * d) // 2 + p * a + d, d, 2 * p),
            (top, a + 2 * d, (a - 1) // 2 - p + 1),
            (top + a + d, a + 2 * d, (a - 1) // 2 - p),
        ]
    else:
        low = a * (a + 2 * d) // 2 + (p - 1) * a
        families = [
            (start + shift, step, terms)
            for start, step, terms in ((low, 2 * d, p), (top, a + 2 * d, a // 2 - p))
            for shift in (0, a + d)
        ]
    elements = [start + i * step for start, step, terms in families for i in range(terms)]
    ap = sorted(elements, key=lambda w: w % a)
    if [w % a for w in ap] != list(range(a)) or min(ap) < 0:
        raise InternalConsistencyError(
            f"closed Apery families of (a={a}, d={d}, p={p}) are not one "
            f"non-negative element per class mod {a}: {ap}"
        )
    return tuple(ap)


def arith_invariants(a: int, d: int, p: int) -> tuple[int, int, int]:
    """(frobenius, genus, least element) for the triple (a, a+d, a+2d).

    Valid for 0 <= p <= floor(a/2).  The genus numerator gains 1 for even a;
    the least element is the least of the closed Apery families.
    """
    least = min(_arith_apery(a, d, p))
    frob = (a + 2 * d) * p + ((a - 2) // 2) * a + (a - 1) * d
    genus = _exact_int(
        (2 * a + 2 * d - 1 - p) * p + Fraction((a - 1) * (a + 2 * d - 1) + 1 - a % 2, 4),
        "arithmetic-triple genus",
    )
    return frob, genus, least
