"""Ordinary numerical semigroups and irreducible intersection decompositions.

A semigroup is stored as a canonical membership table trimmed at its
Frobenius number, so structural equality and hashing just work.  It reads
like a ``PSemigroup`` whose least element is 0, so gaps, pseudo-Frobenius
numbers, the window pairing and the minimal-generator scan are the shared
functions of ``enumeration`` and ``symmetry``.  The decomposition walks the
uncovered gaps from the top: for each one it greedily completes the
semigroup to an irreducible oversemigroup avoiding that gap (keep adjoining
other special gaps until none remain, which pins the Frobenius number there
and forces maximality).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalConsistencyError, PSemigroup, ValidationError, validate_generators
from .enumeration import build_psemigroup, gaps
from .symmetry import _pairs_exactly_one, pseudo_frobenius


@dataclass(frozen=True)
class FiniteSemigroup:
    """Additively closed subset of the non-negative integers containing 0.

    ``membership`` covers 0..frobenius and ends with a 0 byte (the Frobenius
    number); everything past it is a member.  The empty table is the full
    monoid.  ``least_element`` is 0, as for a ``PSemigroup`` with p = 0.
    """

    membership: bytes
    least_element = 0

    @staticmethod
    def from_table(table: bytes | bytearray) -> "FiniteSemigroup":
        return FiniteSemigroup(bytes(table).rstrip(b"\x01"))

    @staticmethod
    def from_psemigroup(semigroup: PSemigroup) -> "FiniteSemigroup":
        """The members with 0 adjoined, as an ordinary numerical semigroup."""
        return FiniteSemigroup.from_table(
            b"\x01" + semigroup.membership[1 : semigroup.frobenius + 1]
        )

    @staticmethod
    def from_generators(gens: list[int] | tuple[int, ...]) -> "FiniteSemigroup":
        return FiniteSemigroup.from_psemigroup(
            build_psemigroup(validate_generators(list(gens)), 0)
        )

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        return n >= len(self.membership) or bool(self.membership[n])

    @property
    def frobenius(self) -> int:
        return len(self.membership) - 1

    @property
    def genus(self) -> int:
        return self.membership.count(0)

    @property
    def multiplicity(self) -> int:
        """Least positive member (1 for the full monoid)."""
        return (self.membership + b"\x01\x01").find(1, 1)

    def with_member(self, h: int) -> "FiniteSemigroup":
        """Adjoin one element (no closure check; callers pass special gaps)."""
        if h < 0:
            raise ValidationError("members are non-negative")
        if self.contains(h):
            return self
        table = bytearray(self.membership)
        table[h] = 1
        return FiniteSemigroup.from_table(table)

    def special_gaps(self) -> list[int]:
        """Pseudo-Frobenius numbers whose double is a member; exactly the
        gaps whose adjunction keeps the set additively closed."""
        return [x for x in pseudo_frobenius(self) if self.contains(2 * x)]


def is_subsemigroup(inner: FiniteSemigroup, outer: FiniteSemigroup) -> bool:
    hi = max(len(inner.membership), len(outer.membership))
    return all(outer.contains(n) for n in range(hi) if inner.contains(n))


def intersect(components: list[FiniteSemigroup]) -> FiniteSemigroup:
    if not components:
        raise ValidationError("cannot intersect an empty component list")
    hi = max(len(c.membership) for c in components)
    return FiniteSemigroup.from_table(
        bytes(
            1 if all(c.contains(n) for c in components) else 0 for n in range(hi)
        )
    )


def is_irreducible_classic(semigroup: FiniteSemigroup) -> bool:
    """Symmetric or pseudo-symmetric in the ordinary sense (pairing at the
    Frobenius number), equivalently not an intersection of two proper
    oversemigroups."""
    return _pairs_exactly_one(semigroup.membership, semigroup.frobenius, skip_mid=True)


def is_irreducible_shifted(semigroup: FiniteSemigroup) -> bool:
    """Irreducibility of the positive part, pairing anchored at
    multiplicity + Frobenius with 0 treated as a gap."""
    return _pairs_exactly_one(
        b"\x00" + semigroup.membership[1:],
        semigroup.frobenius + semigroup.multiplicity,
        skip_mid=True,
    )


def irreducible_oversemigroup_avoiding(
    semigroup: FiniteSemigroup, gap: int
) -> FiniteSemigroup:
    """Greedy completion to an irreducible oversemigroup with Frobenius ``gap``.

    Adjoining special gaps other than ``gap`` until none remain yields a
    semigroup maximal among those avoiding ``gap``; its special-gap set is
    then {gap}, which characterizes irreducibility.
    """
    if semigroup.contains(gap):
        raise ValidationError(f"{gap} is a member, cannot be avoided")
    current = semigroup
    while True:
        candidates = [h for h in current.special_gaps() if h != gap]
        if not candidates:
            break
        current = current.with_member(max(candidates))
    if not is_irreducible_classic(current):
        raise InternalConsistencyError(
            f"completion avoiding {gap} is not irreducible"
        )
    return current


def irreducible_decomposition(semigroup: FiniteSemigroup) -> list[FiniteSemigroup]:
    """Irreducible oversemigroups whose intersection is the input.

    Walks uncovered gaps from the largest down, excludes each by a greedy
    irreducible completion, then prunes components whose removal keeps the
    intersection exact.  The result is non-redundant, not guaranteed
    globally minimal.
    """
    if is_irreducible_classic(semigroup):
        return [semigroup]
    components: list[FiniteSemigroup] = []
    uncovered = set(gaps(semigroup))
    while uncovered:
        target = max(uncovered)
        component = irreducible_oversemigroup_avoiding(semigroup, target)
        components.append(component)
        uncovered = {y for y in uncovered if component.contains(y)}
    i = 0
    while i < len(components):
        rest = components[:i] + components[i + 1 :]
        if rest and intersect(rest) == semigroup:
            components.pop(i)
        else:
            i += 1
    return components


def verify_decomposition(
    semigroup: FiniteSemigroup, components: list[FiniteSemigroup]
) -> bool:
    """Is ``components`` a valid irreducible decomposition of ``semigroup``?

    Requires every component to be an oversemigroup that is irreducible in
    the ordinary or the multiplicity-anchored sense, and the intersection to
    equal the input exactly.
    """
    if not components:
        return False
    for component in components:
        if not is_subsemigroup(semigroup, component):
            return False
        if not (
            is_irreducible_classic(component) or is_irreducible_shifted(component)
        ):
            return False
    return intersect(components) == semigroup
