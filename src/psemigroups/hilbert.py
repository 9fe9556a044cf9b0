"""Truncated membership series and the Hilbert-series evaluators.

The membership series is read two ways: straight from the table, and as
the Apery factorization, in which each element w of an Apery tuple modulo
a contributes x**w / (1 - x**a).  The closed rational form of an
arithmetic triple is that factorization over the closed Apery families of
``closed_forms``.

Every series here has 0/1 coefficients, so it is held in the membership
table's format: byte n of ``PowerSeries.coefficients`` is c_n, and
``list(series.coefficients)`` gives the coefficients as ints.  The series
stays bytes from the build to the output, where ``core._digits`` writes it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import _FLIP, PSemigroup, ValidationError, _check_table_size, _window
from .closed_forms import _arith_apery


class PowerSeries(NamedTuple):
    """Coefficients c_0..c_N of a 0/1 series truncated at degree N.

    Byte n of ``coefficients`` is c_n, as in a membership table.
    """

    coefficients: bytes

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1


def _check_truncation(n: int) -> None:
    if n < 0:
        raise ValidationError("truncation must be non-negative")
    _check_table_size(n + 1, "the truncated series")


def hilbert_direct(semigroup: PSemigroup, truncation: int) -> PowerSeries:
    """Membership indicator series straight from the table."""
    _check_truncation(truncation)
    return PowerSeries(_window(semigroup.membership, 0, truncation + 1))


def gaps_series(semigroup: PSemigroup, truncation: int) -> PowerSeries:
    """Indicator series of the non-members; complements hilbert_direct."""
    _check_truncation(truncation)
    return PowerSeries(_window(semigroup.membership, 0, truncation + 1).translate(_FLIP))


def hilbert_from_apery(ap: tuple[int, ...], truncation: int) -> PowerSeries:
    """Apery factorization: sum of x**m over the set, times 1/(1 - x**len(ap)).

    Holds for the Apery tuple modulo any generator: each residue class is
    its Apery element plus the multiples of the modulus.
    """
    _check_truncation(truncation)
    a = len(ap)
    coeffs = bytearray(truncation + 1)
    for m in ap:
        coeffs[m::a] = b"\x01" * len(range(m, truncation + 1, a))
    return PowerSeries(bytes(coeffs))


def arith_hilbert_closed(a: int, d: int, p: int, truncation: int) -> PowerSeries:
    """Closed rational form of the membership series for (a, a+d, a+2d).

    The numerator is the closed Apery tuple of ``_arith_apery`` and the
    denominator 1 - x**a, so the series is its Apery factorization.
    """
    return hilbert_from_apery(_arith_apery(a, d, p), truncation)
