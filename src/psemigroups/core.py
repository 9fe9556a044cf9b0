"""Domain types and validation shared by every other module.

Everything is exact: integers are arbitrary precision, rational
intermediates use ``fractions.Fraction``, and there is no floating-point
fallback anywhere.  All types are immutable after construction and safe to
share across threads without synchronization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Iterator, Sequence


class ValidationError(ValueError):
    """Rejected input (CLI exit code 2)."""


class EmptyInputError(ValidationError):
    pass


class NonPositiveElementError(ValidationError):
    pass


class GcdNotOneError(ValidationError):
    pass


class ModulusNotGeneratorError(ValidationError):
    pass


class OutOfValidityRangeError(ValidationError):
    pass


class NoCoprimeElementError(ValidationError):
    pass


class TableLimitError(ValidationError):
    """A membership table would exceed the configured size cap."""


class InternalConsistencyError(RuntimeError):
    """Two provably-equal computations disagreed (CLI exit code 1)."""


class NonIntegerResultError(InternalConsistencyError):
    """An always-integral formula produced a non-integer."""


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerResultError(f"{what} evaluated to non-integer {value}")
    return value.numerator


DEFAULT_TABLE_LIMIT = 10**8
TABLE_LIMIT_ENV = "PSG_MAX_TABLE"


def _table_cap() -> int:
    raw = os.environ.get(TABLE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_TABLE_LIMIT
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{TABLE_LIMIT_ENV}={raw!r} is not an integer") from None
    if cap < 1:
        raise ValidationError(f"{TABLE_LIMIT_ENV} must be positive")
    return cap


def _check_table_size(entries: int, what: str) -> None:
    """Reject a table of ``entries`` entries that the size cap does not allow."""
    cap = _table_cap()
    if entries > cap:
        raise TableLimitError(
            f"{what} needs {entries} entries, more than the {cap} allowed "
            f"(raise {TABLE_LIMIT_ENV} to allow it)"
        )


@dataclass(frozen=True)
class GeneratorTuple:
    """Strictly ascending positive integers with overall gcd 1.

    ``minimal`` records whether the tuple is a minimal generating set of the
    ordinary semigroup it spans.  Redundant generators are legal input, but
    they change representation counts once the threshold is positive, so the
    flag is surfaced to callers instead of being enforced.
    """

    elements: tuple[int, ...]
    minimal: bool = True
    minimality_checked: bool = False

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def least(self) -> int:
        return self.elements[0]


def _representable(target: int, gens: Sequence[int]) -> bool:
    """Is ``target`` a non-negative combination of ``gens``?

    Oracle for the minimality check in ``validate_generators``; it fills a
    table of ``target + 1`` entries, so only tests call it.
    """
    reachable = bytearray(target + 1)
    reachable[0] = 1
    for a in gens:
        for n in range(a, target + 1):
            if reachable[n - a]:
                reachable[n] = 1
    return bool(reachable[target])


def validate_generators(raw: Sequence[int]) -> GeneratorTuple:
    """Sort, deduplicate and validate a raw generator list.

    Raises on empty input, non-positive entries, fewer than two distinct
    elements, or gcd > 1.  A non-minimal generating set is *not* an error:
    minimality is checked (element redundant iff representable by the
    others) and recorded on the returned tuple.  The check keeps one table
    entry per residue class modulo the least generator, within the size cap.
    """
    values = list(raw)
    if not values:
        raise EmptyInputError("generator list is empty")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise NonPositiveElementError(f"generator {v!r} is not an integer")
        if v < 1:
            raise NonPositiveElementError(f"generator {v} is not positive")
    elements = tuple(sorted(set(values)))
    if len(elements) < 2:
        raise ValidationError("need at least two distinct generators")
    g = 0
    for v in elements:
        g = gcd(g, v)
    if g != 1:
        raise GcdNotOneError(f"gcd of generators is {g}, expected 1")
    _check_table_size(elements[0], "the minimality table")
    return GeneratorTuple(elements, minimal=_is_minimal(elements), minimality_checked=True)


def _is_minimal(elements: tuple[int, ...]) -> bool:
    """Is no generator a combination of the smaller ones?

    ``least[r]`` is the least combination of the generators taken so far
    that is congruent to r modulo a1, so the next generator a is redundant
    iff least[a % a1] <= a.  Taking a walks each of the gcd(a1, a) residue
    cycles of step a once, from its smallest entry, which no new path can
    improve (the round-robin update of Boecker and Liptak, Algorithmica 48,
    2007): O(a1) per generator.
    """
    a1, last = elements[0], elements[-1]
    least = [0] + [inf] * (a1 - 1)  # inf: no combination in this class yet
    for a in elements[1:-1]:
        if least[a % a1] <= a:
            return False
        d = gcd(a1, a)
        for start in range(d):
            n = min(least[start::d])
            if n == inf:
                continue
            for _ in range(a1 // d - 1):
                n += a
                r = n % a1
                n = least[r] = min(n, least[r])
    return least[last % a1] > last


@dataclass(frozen=True)
class PSemigroup:
    """The integers with more than ``p`` representations, from their Apery tuple.

    ``apery[j]`` is the least member congruent to j modulo a1 = min(gens);
    every class is closed under adding a1, so the tuple decides membership.
    ``membership[n]`` is the same answer tabulated for n < frontier, where
    ``frontier`` is one past the a1 consecutive members that follow the
    Frobenius number; every n >= frontier is a member.

    ``least_element`` is the least member (0 exactly when p = 0) and
    ``frobenius`` the largest non-member (-1 when there are no gaps at all).
    """

    gens: GeneratorTuple
    p: int
    membership: bytes
    frontier: int
    least_element: int
    frobenius: int
    apery: tuple[int, ...]

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.frontier:
            return True
        return bool(self.membership[n])

    @property
    def gap_count(self) -> int:
        return self.membership.count(0)
