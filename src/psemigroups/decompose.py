"""Ordinary numerical semigroups and irreducible intersection decompositions.

A semigroup is stored as a canonical membership table trimmed at its
Frobenius number, so structural equality and hashing just work.  It reads
like a ``PSemigroup`` whose least element is 0, so gaps, pseudo-Frobenius
numbers, the window pairing and the minimal-generator scan are the shared
functions of ``enumeration`` and ``symmetry``.  The decomposition walks the
uncovered gaps from the top: for each one it greedily completes the
semigroup to an irreducible oversemigroup avoiding that gap (keep adjoining
other special gaps until none remain, which pins the Frobenius number there
and forces maximality).  The completion is one downward scan over the table,
because the greedy adjoins gaps in strictly decreasing order.

The completion, ``intersect``, ``is_subsemigroup``, the uncovered-gap walk
and the pruning read a table as a Python int "word": byte n of the table is
bits 8n..8n+7 of ``int.from_bytes(table, "little")``, so bit 8n is set iff n
is a member.  Tables of unequal length are padded with member bytes first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import InternalConsistencyError, PSemigroup, ValidationError, validate_generators
from .enumeration import build_psemigroup
from .symmetry import _FLIP, _pairs_exactly_one, pseudo_frobenius


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

    def special_gaps(self) -> list[int]:
        """Pseudo-Frobenius numbers whose double is a member; exactly the
        gaps whose adjunction keeps the set additively closed.  The
        completion finds them in its own scan; tests use this definition as
        its oracle."""
        return [x for x in pseudo_frobenius(self) if self.contains(2 * x)]


def _word(table: bytes, length: int) -> int:
    """Members of ``table`` padded with members to ``length`` bytes, as a word."""
    return int.from_bytes(table.ljust(length, b"\x01"), "little")


def is_subsemigroup(inner: FiniteSemigroup, outer: FiniteSemigroup) -> bool:
    length = max(len(inner.membership), len(outer.membership))
    return _word(inner.membership, length) & ~_word(outer.membership, length) == 0


def intersect(components: list[FiniteSemigroup]) -> FiniteSemigroup:
    if not components:
        raise ValidationError("cannot intersect an empty component list")
    length = max(len(c.membership) for c in components)
    word = -1
    for component in components:
        word &= _word(component.membership, length)
    return FiniteSemigroup.from_table(word.to_bytes(length, "little"))


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


def irreducible_oversemigroup_avoiding(
    semigroup: FiniteSemigroup, gap: int
) -> FiniteSemigroup:
    """Greedy completion to an irreducible oversemigroup with Frobenius ``gap``.

    Adjoining the largest special gap other than ``gap`` until none remain
    yields a semigroup maximal among those avoiding ``gap``; its special-gap
    set is then {gap}, which characterizes irreducibility.

    The greedy adjoins in strictly decreasing order, so one downward scan
    does it.  Lemma: for a gap h of S, PF(S ∪ {h}) ⊆ PF(S) ∪ {h - s : s ∈ S,
    s > 0} (if y is pseudo-Frobenius in S ∪ {h} but not in S, some positive
    s ∈ S has y + s ∉ S, yet y + s ∈ S ∪ {h}, so y = h - s).  A gap y > h
    that is pseudo-Frobenius in S ∪ {h} is therefore pseudo-Frobenius in S,
    and 2y > h is a member of S ∪ {h} iff it is one of S; so after h =
    max(SG(S) minus ``gap``) is adjoined, every special gap above h is
    ``gap``.  Scanning x downward, x is adjoined iff it is a special gap of
    the current semigroup: a gap, not ``gap``, with 2x a member, and no
    positive member s with x + s a gap, i.e. the gap word shifted down by x
    shares no bit with the positive-member word.
    """
    if gap < 0:
        raise ValidationError(f"{gap} is negative, not a gap")
    if semigroup.contains(gap):
        raise ValidationError(f"{gap} is a member, cannot be avoided")
    table = bytearray(semigroup.membership)
    size = len(table)
    gap_word = int.from_bytes(table.translate(_FLIP), "little")
    positive_word = int.from_bytes(table, "little") & ~1
    for x in range(size - 1, 0, -1):
        if table[x] or x == gap or (2 * x < size and not table[2 * x]):
            continue
        if (gap_word >> 8 * x) & positive_word == 0:
            table[x] = 1
            gap_word ^= 1 << 8 * x
            positive_word |= 1 << 8 * x
    current = FiniteSemigroup.from_table(table)
    # a completion holding its gap would never cover it in the decomposition walk
    if current.contains(gap) or not is_irreducible_classic(current):
        raise InternalConsistencyError(
            f"completion avoiding {gap} is not an irreducible oversemigroup avoiding it"
        )
    return current


def irreducible_decomposition(semigroup: FiniteSemigroup) -> list[FiniteSemigroup]:
    """Irreducible oversemigroups whose intersection is the input.

    Walks uncovered gaps from the largest down, excludes each by a greedy
    irreducible completion, then prunes components whose removal keeps the
    intersection exact.  A component is dropped when the components kept so
    far and those after it, not yet examined, still intersect to the input;
    the later ones enter as one precomputed suffix AND of words.  The result
    is non-redundant, not guaranteed globally minimal.
    """
    if is_irreducible_classic(semigroup):
        return [semigroup]
    length = len(semigroup.membership)
    components: list[FiniteSemigroup] = []
    words: list[int] = []
    # gaps of the input that no component excludes yet
    uncovered = int.from_bytes(semigroup.membership.translate(_FLIP), "little")
    while uncovered:
        target = (uncovered.bit_length() - 1) // 8
        component = irreducible_oversemigroup_avoiding(semigroup, target)
        components.append(component)
        words.append(_word(component.membership, length))
        uncovered &= words[-1]
    # suffix[i] is the AND of words[i:]; -1 (every bit set) for none
    suffix = list(accumulate(reversed(words), int.__and__, initial=-1))[::-1]
    target_word = _word(semigroup.membership, length)
    kept: list[FiniteSemigroup] = []
    kept_word = -1
    for i, (component, word) in enumerate(zip(components, words)):
        others = len(kept) + len(components) - i - 1
        if others and kept_word & suffix[i + 1] == target_word:
            continue
        kept.append(component)
        kept_word &= word
    return kept


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
