"""Domain types and validation shared by every other module.

Everything is exact: integers are arbitrary precision, rational
intermediates use ``fractions.Fraction``, and there is no floating-point
fallback anywhere.  All types are immutable after construction and safe to
share across threads without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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
    """Is ``target`` a non-negative combination of ``gens``?"""
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
    others) and recorded on the returned tuple.
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
    minimal = True
    for i, a in enumerate(elements):
        rest = elements[:i] + elements[i + 1 :]
        if _representable(a, rest):
            minimal = False
            break
    return GeneratorTuple(elements, minimal=minimal, minimality_checked=True)


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
