"""Truncated membership series and the Hilbert-series evaluators.

Membership generating functions are read two ways: straight from the table,
and from an Apery tuple, each of whose elements w contributes
x**w / (1 - x**a) for the tuple's modulus a.  For arithmetic triples the
closed rational form is that same factorization, with the Apery tuple
written as a few arithmetic progressions whose values are closed formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalConsistencyError, PSemigroup, ValidationError, _check_table_size
from .closed_forms import _check_arith
from .symmetry import _FLIP


@dataclass(frozen=True)
class PowerSeries:
    """Integer coefficients c_0..c_N of a series truncated at degree N."""

    coefficients: tuple[int, ...]

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1


def _check_truncation(n: int) -> None:
    if n < 0:
        raise ValidationError("truncation must be non-negative")
    _check_table_size(n + 1, "the truncated series")


def _window(semigroup: PSemigroup, truncation: int) -> bytes:
    """Membership bytes for 0..truncation; every integer past the table is a member."""
    _check_truncation(truncation)
    return semigroup.membership[: truncation + 1].ljust(truncation + 1, b"\x01")


def hilbert_direct(semigroup: PSemigroup, truncation: int) -> PowerSeries:
    """Membership indicator series straight from the table."""
    return PowerSeries(tuple(_window(semigroup, truncation)))


def gaps_series(semigroup: PSemigroup, truncation: int) -> PowerSeries:
    """Indicator series of the non-members; complements hilbert_direct."""
    return PowerSeries(tuple(_window(semigroup, truncation).translate(_FLIP)))


def hilbert_from_apery(ap: tuple[int, ...], truncation: int) -> PowerSeries:
    """Apery factorization: sum of x**m over the set, times 1/(1 - x**len(ap)).

    Holds for the Apery tuple modulo any generator: each residue class is
    its Apery element plus the multiples of the modulus.
    """
    _check_truncation(truncation)
    a = len(ap)
    coeffs = [0] * (truncation + 1)
    for m in ap:
        for e in range(m, truncation + 1, a):
            coeffs[e] = 1
    return PowerSeries(tuple(coeffs))


def _arith_apery(a: int, d: int, p: int) -> tuple[int, ...]:
    """Closed-form Apery tuple mod a of (a, a+d, a+2d), for 0 <= p <= a // 2.

    The elements are (start, step, terms) progressions: three families for
    odd a; for even a, two families and their shifts by a + d.  Sorted by
    residue they must be one non-negative element per class mod a; a
    negative element, two in one class or an empty class is an internal error.
    """
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


def arith_hilbert_closed(a: int, d: int, p: int, truncation: int) -> PowerSeries:
    """Closed rational form of the membership series for (a, a+d, a+2d).

    The numerator is the closed-form Apery tuple of ``_arith_apery`` and the
    denominator 1 - x**a, so the series is its Apery factorization.
    """
    _check_arith(a, d, p)
    return hilbert_from_apery(_arith_apery(a, d, p), truncation)
