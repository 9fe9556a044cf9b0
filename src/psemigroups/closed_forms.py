"""Closed-form invariant evaluators and the gcd reduction that lifts them.

Two-generator invariants, standard-form membership, the gcd reduction with
its lifted Frobenius/genus/Sylvester formulas, and the arithmetic-triple
formulas.  The arithmetic-triple least element takes the minimum of two
candidate Apery heads; whenever that deviates from the simple 2p(a+d)
candidate the value is re-verified against enumeration, since the simple
candidate's stated applicability window is unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import (
    GcdNotOneError,
    GeneratorTuple,
    InternalConsistencyError,
    NoCoprimeElementError,
    OutOfValidityRangeError,
    ValidationError,
    _exact_int,
    validate_generators,
)
from .enumeration import build_psemigroup


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

    The distinguished generator is the smallest whose reduced alphabet stays
    duplicate-free (overall gcd 1 makes every element coprime to the gcd of
    the others, so a candidate always exists; d = 1 gives the identity
    reduction).
    """
    elements = gens.elements
    for i, a1 in enumerate(elements):
        rest = elements[:i] + elements[i + 1 :]
        d = 0
        for r in rest:
            d = gcd(d, r)
        if gcd(a1, d) != 1:
            continue
        quotients = [r // d for r in rest]
        if a1 in quotients:
            continue
        reduced = validate_generators([a1, *quotients])
        return GcdReduction(a1=a1, d=d, reduced=reduced)
    raise NoCoprimeElementError(
        "no generator is coprime to the gcd of the others"
    )


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


def arith_least_element_candidates(a: int, d: int, p: int) -> tuple[int, ...]:
    """Candidate least elements from the two Apery-set families."""
    if p == 0:
        return (0,)
    if a % 2 == 1:
        return (2 * p * (a + d),)
    return (2 * p * (a + d), (a // 2 + p - 1) * (a + 2 * d) - 2 * (p - 1) * d)


def arith_invariants(a: int, d: int, p: int) -> tuple[int, int, int]:
    """(frobenius, genus, least element) for the triple (a, a+d, a+2d).

    Valid for 0 <= p <= floor(a/2).  When the least element comes from the
    second candidate family the closed value is cross-checked against
    enumeration before being returned.
    """
    _check_arith(a, d, p)
    frob = (a + 2 * d) * p + ((a - 2) // 2) * a + (a - 1) * d
    if a % 2 == 1:
        genus = _exact_int(
            (2 * a + 2 * d - 1 - p) * p + Fraction((a - 1) * (a + 2 * d - 1), 4),
            "arithmetic-triple genus",
        )
    else:
        genus = _exact_int(
            (2 * a + 2 * d - 1 - p) * p
            + Fraction((a - 1) * (a + 2 * d - 1) + 1, 4),
            "arithmetic-triple genus",
        )
    candidates = arith_least_element_candidates(a, d, p)
    least = min(candidates)
    if len(candidates) > 1 and least != candidates[0]:
        semigroup = build_psemigroup(
            validate_generators([a, a + d, a + 2 * d]), p
        )
        if semigroup.least_element != least:
            raise InternalConsistencyError(
                f"arithmetic-triple least element {least} contradicts "
                f"enumeration {semigroup.least_element} for (a={a}, d={d}, p={p})"
            )
    return frob, genus, least
