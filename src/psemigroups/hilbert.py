"""Truncated integer power series and the Hilbert-series evaluators.

Membership generating functions are computed three ways: directly from the
table, from the Apery set with a geometric tail, and (for arithmetic
triples) from closed rational forms expanded with exact polynomial
arithmetic.  Division only ever appears as multiplication by a truncated
geometric series or as an exact finite geometric block, so no negative
powers arise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalConsistencyError, PSemigroup, ValidationError, _check_table_size
from .closed_forms import _check_arith
from .symmetry import _FLIP


@dataclass(frozen=True)
class PowerSeries:
    """Integer coefficients c_0..c_N; arithmetic truncates at the shorter N."""

    coefficients: tuple[int, ...]

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.truncation:
            raise ValidationError(f"coefficient index {n} out of range")
        return self.coefficients[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        return PowerSeries(
            tuple(self.coefficients[i] + other.coefficients[i] for i in range(n))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        return PowerSeries(
            tuple(self.coefficients[i] - other.coefficients[i] for i in range(n))
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        out = [0] * n
        for i, ci in enumerate(self.coefficients[:n]):
            if ci:
                for j, cj in enumerate(other.coefficients[: n - i]):
                    if cj:
                        out[i + j] += ci * cj
        return PowerSeries(tuple(out))

    def coefficient_sum(self) -> int:
        return sum(self.coefficients)

    def weighted_sum(self) -> int:
        """Sum of n * c_n, the formal derivative evaluated at 1."""
        return sum(n * c for n, c in enumerate(self.coefficients))


def monomial(exponent: int, truncation: int) -> PowerSeries:
    if exponent < 0:
        raise InternalConsistencyError(f"negative exponent {exponent} in series")
    coeffs = [0] * (truncation + 1)
    if exponent <= truncation:
        coeffs[exponent] = 1
    return PowerSeries(tuple(coeffs))


def geometric(step: int, truncation: int) -> PowerSeries:
    """1/(1 - x**step) truncated: ones at multiples of step."""
    if step < 1:
        raise ValidationError("geometric step must be positive")
    coeffs = [0] * (truncation + 1)
    for e in range(0, truncation + 1, step):
        coeffs[e] = 1
    return PowerSeries(tuple(coeffs))


def finite_geometric(step: int, terms: int, truncation: int) -> PowerSeries:
    """(1 - x**(terms*step)) / (1 - x**step) as an exact polynomial."""
    coeffs = [0] * (truncation + 1)
    for i in range(terms):
        e = i * step
        if e > truncation:
            break
        coeffs[e] = 1
    return PowerSeries(tuple(coeffs))


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


def arith_hilbert_closed(a: int, d: int, p: int, truncation: int) -> PowerSeries:
    """Closed rational form of the membership series for (a, a+d, a+2d).

    Evaluates the Apery-family generating polynomials (exact finite
    geometric blocks) and one geometric tail; the result must be a 0/1
    series or an internal error is raised.
    """
    _check_arith(a, d, p)
    _check_truncation(truncation)
    n = truncation
    if a % 2 == 1:
        half = (a - 1) // 2
        numer = (
            monomial((a - 1) * (a + 2 * d) // 2 + p * a + d, n)
            * finite_geometric(d, 2 * p, n)
            + monomial(2 * p * (a + d), n)
            * finite_geometric(a + 2 * d, half - p + 1, n)
            + monomial((2 * p + 1) * (a + d), n)
            * finite_geometric(a + 2 * d, half - p, n)
        )
    else:
        half = a // 2
        inner = (
            monomial(a * (a + 2 * d) // 2 + (p - 1) * a, n)
            * finite_geometric(2 * d, p, n)
            + monomial(2 * p * (a + d), n)
            * finite_geometric(a + 2 * d, half - p, n)
        )
        numer = (monomial(0, n) + monomial(a + d, n)) * inner
    series = numer * geometric(a, n)
    for i, c in enumerate(series.coefficients):
        if c not in (0, 1):
            raise InternalConsistencyError(
                f"closed Hilbert form produced coefficient {c} at degree {i} "
                f"for (a={a}, d={d}, p={p})"
            )
    return series
