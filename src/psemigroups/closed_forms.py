"""The paper's closed forms, each as a whole Apery tuple, and the gcd reduction.

Each closed form is the Apery tuple mod a1 that the build of its family
must return: two generators (``_two_var_apery``), arithmetic triples
(``_arith_apery``) and, through ``gcd_reduce``, the reduced tuple's
Apery set scaled by d.  A tuple decides every membership bit (n is a member
iff n >= ap[n mod a1]), so ``--verify`` compares whole tuples, and the
Frobenius number, genus and Sylvester sum are read from them by
``apery.frobenius_from_apery`` and ``apery.gap_power_sums``, the one owner
of those numbers.  The paper's scalar formulas for them are pinned by the
tests.  Standard-form membership answers a single n for two generators.
Nothing here runs enumeration.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .apery import frobenius_from_apery, gap_power_sums
from .core import (
    GcdNotOneError,
    GeneratorTuple,
    InternalConsistencyError,
    OutOfValidityRangeError,
    ValidationError,
    validate_generators,
)


def _check_two_var(a: int, b: int) -> None:
    if not (2 <= a < b):
        raise ValidationError(f"need 2 <= a < b, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise GcdNotOneError(f"gcd({a}, {b}) != 1")


def _two_var_apery(a: int, b: int, p: int) -> tuple[int, ...]:
    """Closed Apery tuple mod a of coprime (a, b) at p: entry j*b mod a is (j + p*a)*b.

    With 0 <= j < a, the representations n = a*x + b*y in the class of j*b
    have y = j + k*a for k >= 0, one for each such y with y*b <= n, so
    d(n) > p iff (j + p*a)*b <= n.
    """
    inverse = pow(b, -1, a)
    return tuple((r * inverse % a + p * a) * b for r in range(a))


def two_var_invariants(a: int, b: int, p: int) -> tuple[int, int, int]:
    """(frobenius, genus, sylvester_sum) for two coprime generators, from their closed tuple."""
    _check_two_var(a, b)
    if p < 0:
        raise ValidationError("p must be non-negative")
    ap = _two_var_apery(a, b, p)
    return (frobenius_from_apery(ap), *gap_power_sums(ap, 1))


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


class GcdReduction(NamedTuple):
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

    The lift, at every p: Ap(S, a1) = d * Ap(T, a1), with S the tuple, T the
    reduced one and both Apery sets taken mod a1.  Write the other
    generators as d*q_i.  A representation n = a1*x + d*(sum q_i*y_i) has
    a1*x ≡ n (mod d); as gcd(a1, d) = 1, x ≡ x0 for the one x0 in [0, d)
    with a1*x0 ≡ n, so x = x0 + d*t with t >= 0.  Then (t, y) represents
    m = (n - a1*x0)/d over T, and every representation of m gives one of n
    back, so d_S(n) = d_T(m), and S_p is the union over x0 < d of
    a1*x0 + d*T_p.  A member a1*x0 + d*m of S_p lies in the class of d*m
    mod a1 and is at least d*m, so the least member of each class has
    x0 = 0: it is d times the least member of T_p in the matching class.
    At p = 0 this gives Johnson's lift of the Frobenius number (1960).

    With d = 1 the quotients are the other generators unchanged, so the
    reduced tuple is ``gens`` itself, returned without validating it again.
    """
    elements = gens.elements
    for i, a1 in enumerate(elements):
        rest = elements[:i] + elements[i + 1 :]
        d = gcd(*rest)
        quotients = [r // d for r in rest]
        if gcd(a1, d) == 1 and a1 not in quotients:
            break
    reduced = gens if d == 1 else validate_generators([a1, *quotients])
    return GcdReduction(a1=a1, d=d, reduced=reduced)


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
    """(frobenius, genus, least element) for the triple (a, a+d, a+2d), from its closed tuple.

    Valid for 0 <= p <= floor(a/2).
    """
    ap = _arith_apery(a, d, p)
    return frobenius_from_apery(ap), gap_power_sums(ap, 0)[0], min(ap)
