"""Ordinary numerical semigroups and irreducible intersection decompositions.

A semigroup is stored as a canonical membership table trimmed at its
Frobenius number, so structural equality and hashing just work.  It reads
like a ``PSemigroup`` whose least element is 0, so gaps, pseudo-Frobenius
numbers, the window pairing and the minimal generators (the lower-half
sumset, checked by the scan) are the shared functions of ``enumeration``
and ``symmetry``.  The decomposition walks the uncovered gaps from the top:
for each one it completes the semigroup to an irreducible oversemigroup
avoiding that gap, in closed form (the members below the gap, the
upper-half integers whose partner below the gap is not a member,
everything above it).  Each component is the only one that excludes its
own gap, so no component is redundant.  The walk also keeps the meet of
its components and raises unless it is the input.

The completion, ``intersect`` and the uncovered-gap walk read a table as
a Python int "word" built by ``core._bits``: bit n is set iff n is a
member (for a gap word, iff n is a gap).  The walk converts the input's
table and its reversal once; each completion is then one word expression,
whose low bits give the component's bytes in one conversion.  Tables of
unequal length are padded with members first, by ``core._window``.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    InternalConsistencyError, PSemigroup, ValidationError,
    _bits, _least_positive, _table_of, _window, validate_generators,
)
from .enumeration import build_psemigroup
from .symmetry import _pairs_exactly_one, pseudo_frobenius


class FiniteSemigroup(NamedTuple):
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
    def from_word(word: int, length: int) -> "FiniteSemigroup":
        """Members below ``length`` are the set bits of ``word``; the rest are all members."""
        # bit ``length`` is a padding member, so the bytes cover every gap
        # below it even when there is none; ``from_table`` strips it again
        return FiniteSemigroup.from_table(_table_of(word & ~(-1 << length) | 1 << length))

    @staticmethod
    def from_generators(gens: list[int] | tuple[int, ...]) -> "FiniteSemigroup":
        return FiniteSemigroup.from_psemigroup(
            build_psemigroup(validate_generators(list(gens)), 0)
        )

    contains = PSemigroup.contains
    genus = PSemigroup.gap_count

    @property
    def frobenius(self) -> int:
        return len(self.membership) - 1

    @property
    def multiplicity(self) -> int:
        """Least positive member (1 for the full monoid)."""
        return _least_positive(self.membership)

    # adding it maps members to members, the role a1 plays for a PSemigroup
    modulus = multiplicity

    def special_gaps(self) -> list[int]:
        """Pseudo-Frobenius numbers whose double is a member; exactly the
        gaps whose adjunction keeps the set additively closed.  The
        completion's closed form needs none of them; the tests' greedy
        completion, which adjoins them one at a time, is its oracle."""
        return [x for x in pseudo_frobenius(self) if self.contains(2 * x)]


def intersect(components: list[FiniteSemigroup]) -> FiniteSemigroup:
    if not components:
        raise ValidationError("cannot intersect an empty component list")
    length = max(len(c.membership) for c in components)
    word = -1
    for component in components:
        word &= _bits(_window(component.membership, 0, length))
    return FiniteSemigroup.from_word(word, length)


def is_irreducible_classic(semigroup: FiniteSemigroup) -> bool:
    """Symmetric or pseudo-symmetric in the ordinary sense (pairing at the
    Frobenius number), equivalently not an intersection of two proper
    oversemigroups."""
    return _pairs_exactly_one(semigroup.membership, semigroup.frobenius)


def is_irreducible_shifted(semigroup: FiniteSemigroup) -> bool:
    """Irreducibility of the positive part, pairing anchored at
    multiplicity + Frobenius with 0 treated as a gap."""
    return _pairs_exactly_one(
        b"\x00" + semigroup.membership[1:],
        semigroup.frobenius + semigroup.multiplicity,
    )


def _completion(
    members: int, mirrored: int, length: int, gap: int
) -> tuple[int, FiniteSemigroup]:
    """The irreducible oversemigroup of S avoiding ``gap``, as a word and a component.

    ``members`` is the word of S's table, ``mirrored`` that of the table
    reversed and ``length`` the table's length; ``gap`` is a gap of S, so
    it lies below ``length``.  Writing g for ``gap``, the completion is

        T = S ∪ {x : g/2 < x < g, g - x ∉ S} ∪ {x > g},

    one word expression: bit x of ``mirrored >> (length - 1 - g)`` is set
    iff g - x is a member, for 0 <= x <= g, and no bit past g is.  The
    word has every bit past g set.  The component's bytes are the word's
    bits 0..g, which end in the 0 byte at g, so they are canonical.

    - T is additively closed.  A sum above g is in T.  Two added upper-half
      elements sum above g.  For s ∈ S positive and x added: if s + x = g or
      s + x < g with g - s - x ∈ S, then g - x ∈ S, which x excludes.
    - T pairs exactly one of x and g - x for every x ≠ g/2: below g/2, T
      agrees with S, and the partner above g/2 is added iff x ∉ S.  The
      midpoint g/2 is never a member, since g is not.  So T is symmetric or
      pseudo-symmetric, hence maximal among semigroups avoiding g: any
      x ∉ T below g would bring its partner g - x ∈ T, and so g.
    - T equals the greedy completion (adjoin the largest special gap other
      than g until none remain).  It adjoins every gap above g first, the
      Frobenius number being always special; then, by induction from the
      top, an upper-half x exactly when g - x ∉ S.  Its result therefore
      contains T and avoids g, and by maximality equals T.
    """
    low = (1 << gap + 1) - 1
    word = members & low | -1 << (gap // 2 + 1) & ~(mirrored >> (length - 1 - gap))
    table = _table_of(word & low | low + 1)[:-1]
    # a completion holding its gap would never cover it in the decomposition walk
    if word >> gap & 1 or not _pairs_exactly_one(table, gap):
        raise InternalConsistencyError(
            f"completion avoiding {gap} is not an irreducible oversemigroup avoiding it"
        )
    return word, FiniteSemigroup(table)


def irreducible_decomposition(semigroup: FiniteSemigroup) -> list[FiniteSemigroup]:
    """Irreducible oversemigroups whose intersection is the input.

    Walks the uncovered gaps from the largest down and excludes each by its
    irreducible completion, ``_completion`` of the input's word and its
    mirror, both built once.  No component is redundant: the component for
    target t has Frobenius number t.  Later components have smaller
    Frobenius numbers, so they contain t; earlier ones contain t, because t
    was still uncovered.  So each component is the only one that excludes
    its target.  An irreducible input with a gap is maximal among the
    semigroups avoiding its Frobenius number, so it is its own single
    completion.  The full monoid is the only input without a gap: the walk
    finds no target and it is returned as its own single component.  The
    result is irredundant, not guaranteed globally minimal.

    The input must be a numerical semigroup.  A table without 0 raises
    ``ValidationError``; additive closure is a precondition, not checked
    here (``verify_decomposition`` checks it).
    """
    if not semigroup.contains(0):
        raise ValidationError("a numerical semigroup holds 0")
    table = semigroup.membership
    length = len(table)
    members = _bits(table)
    mirrored = _bits(table[::-1])
    components: list[FiniteSemigroup] = []
    # below ``length``: the members of every component so far, and the
    # input's gaps that no component excludes yet
    meet = (1 << length) - 1
    uncovered = meet ^ members
    while uncovered:
        word, component = _completion(members, mirrored, length, uncovered.bit_length() - 1)
        components.append(component)
        meet &= word
        uncovered &= word
    if meet != members:  # every gap is excluded, so a component lost a member
        raise InternalConsistencyError("the components do not intersect to the input")
    return components or [semigroup]


def _is_semigroup(semigroup: FiniteSemigroup) -> bool:
    """Does the table hold 0 and is it closed under addition?

    A sum past the table is a member, and a sum s + t inside it with
    0 < s <= t has 2*s below the table's length, so the member word shifted
    by each such member s must set no gap.
    """
    table = semigroup.membership
    members = _bits(table)
    gaps = members ^ (1 << len(table)) - 1
    shifts = range(1, (len(table) + 1) // 2)
    return semigroup.contains(0) and not any(members << s & gaps for s in shifts if table[s])


def verify_decomposition(
    semigroup: FiniteSemigroup, components: list[FiniteSemigroup]
) -> bool:
    """Is ``components`` a valid irreducible decomposition of ``semigroup``?

    Requires the input and every component to hold 0 and be additively
    closed, every component to be irreducible in the ordinary or the
    multiplicity-anchored sense, and the intersection to equal the input
    exactly.  The intersection lies inside each component, so that makes
    every component an oversemigroup of the input.
    """
    irreducible = (is_irreducible_classic(c) or is_irreducible_shifted(c) for c in components)
    return (
        bool(components)
        and all(map(_is_semigroup, [semigroup, *components]))
        and all(irreducible)
        and intersect(components) == semigroup
    )
