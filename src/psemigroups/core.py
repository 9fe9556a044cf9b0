"""Domain types, validation and the membership-table format of every other module.

Everything is exact: integers are arbitrary precision, the only rational
numbers are the Bernoulli numbers of ``apery``, and there is no
floating-point fallback anywhere.  The value types, ``GeneratorTuple`` and
``PSemigroup`` here and ``FiniteSemigroup``, ``PowerSeries`` and
``GcdReduction`` elsewhere, are ``typing.NamedTuple`` classes: tuples of
their fields, so they are immutable, hashable, unpack in field order and
compare equal to any tuple of equal fields, and ``_replace`` gives a changed
copy.  They are safe to share across threads without synchronization.

Only this module knows the table format.  Byte n of a membership table is 1
iff the integer n is a member, and every integer past the table is a
member.  The package has one word format, bit n for integer n, shared by the
membership build, the minimal generators' sumset, ``pf_via_gap_maximals``
and every word of the decomposition; ``_bits`` turns bytes into such a word
and ``_table_of`` turns it back.  ``_digits`` writes a table, or any 0/1
series held in the same format, as ASCII digits for output, and
``_gap_sum`` sums its non-members, the leading run in closed form and the
rest with weighted popcounts.  ``_window``, ``_least_per_class`` and
``_least_positive`` count the members past a table, so no other module pads
one.
"""

from __future__ import annotations

import os
from math import gcd, inf
from typing import NamedTuple, Sequence


class ValidationError(ValueError):
    """Rejected input (CLI exit code 2)."""


class EmptyInputError(ValidationError):
    pass


class NonPositiveElementError(ValidationError):
    pass


class GcdNotOneError(ValidationError):
    pass


class OutOfValidityRangeError(ValidationError):
    pass


class TableLimitError(ValidationError):
    """A membership table would exceed the configured size cap."""


class InternalConsistencyError(RuntimeError):
    """Two provably-equal computations disagreed (CLI exit code 1)."""


class NonIntegerResultError(InternalConsistencyError):
    """An always-integral formula produced a non-integer."""


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


def _check_work(steps: int, table: bytes, what: str) -> None:
    """Reject an oracle of ``steps`` steps over ``table`` that the size cap does not allow.

    No more steps than the table has entries is no more than building the
    table took, which the cap already allowed, so those skip the check and
    its read of the environment, a sizeable share of a small oracle's time.
    """
    if steps > len(table):
        _check_table_size(steps, what)


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _digits(table: bytes, sep: bytes = b"") -> bytes:
    """The table as ASCII digits, byte n the digit ``table[n]``, with ``sep`` between two.

    One translate and, given a ``sep``, one strided slice assignment: no
    Python object per entry, so a million-entry series renders in
    milliseconds.
    """
    digits = table.translate(_DIGITS)
    if not sep:
        return digits
    out = bytearray((sep + b"0") * len(digits))[len(sep) :]
    out[:: len(sep) + 1] = digits
    return out


def _bits(table: bytes) -> int:
    """The table as a word: bit n is set iff ``table[n]`` is 1 (0 when empty)."""
    return int(_digits(table[::-1]), 2) if table else 0


def _table_of(word: int) -> bytes:
    """Byte n is 1 iff bit n of ``word`` is set, up to its highest set bit."""
    return format(word, "b").encode()[::-1].translate(_FROM_DIGITS)


_GAP_DIGITS = bytes.maketrans(b"\x00\x01", b"10")
_CHUNK = 4096
# Entry k has bit i set iff bit k of i is, for i < _CHUNK: built once, 6 KB in all.
_INDEX_BITS = tuple(
    int(("1" * (1 << k) + "0" * (1 << k)) * (_CHUNK >> (k + 1)), 2)
    for k in range((_CHUNK - 1).bit_length())
)


def _gap_sum(table: bytes) -> int:
    """The sum of the non-members of ``table``: the indices of its zero bytes.

    The leading gaps 0..s-1, s the first member (the table's length when it
    has none), sum to s(s-1)/2; on a p-semigroup at p >= 1, s is the least
    element, and that run often holds most of the gaps.  Only the bytes from
    s on are translated, and read in chunks of _CHUNK bytes.  With G the
    word of the zero bytes of the chunk from table index b, bit i for byte
    b + i, the chunk adds b * popcount(G) + sum_k 2**k * popcount(G & I_k),
    where I_k is entry k of ``_INDEX_BITS``: every offset i is the sum of
    the 2**k whose bit k it has.  A chunk of n bytes needs I_k only for k
    below (n - 1).bit_length(), so a small table takes a few ANDs.  No
    Python object per gap, and no mask as long as the table.  The bytes
    alone decide the sum, so it checks the Apery-tuple formula without
    sharing any of its arithmetic.
    """
    start = table.find(1)
    if start < 0:
        start = len(table)
    digits = table[start:].translate(_GAP_DIGITS)
    total = start * (start - 1) // 2
    for base in range(0, len(digits), _CHUNK):
        chunk = digits[base : base + _CHUNK]
        gaps = int(chunk[::-1], 2)
        total += (start + base) * gaps.bit_count()
        for k in range((len(chunk) - 1).bit_length()):
            total += (gaps & _INDEX_BITS[k]).bit_count() << k
    return total


def _window(table: bytes, start: int, stop: int) -> bytes:
    """Bytes start..stop - 1 of ``table`` (start >= 0), with members past its end."""
    return table[start:stop].ljust(stop - start, b"\x01")


def _least_per_class(table: bytes, a: int) -> tuple[int, ...]:
    """Entry j is the least member congruent to j modulo ``a``, one C-level search each.

    From a list: tuple() over a generator reallocates as it grows, which
    fragmented the heap enough to add ~3 MB of peak RSS over 40 batches.
    """
    return tuple([j + a * (table[j::a] + b"\x01").find(1) for j in range(a)])


def _least_positive(table: bytes) -> int:
    """The least positive member (1 for the empty table)."""
    n = table.find(1, 1)
    return n if n > 0 else max(len(table), 1)


class GeneratorTuple(NamedTuple):
    """Strictly ascending positive integers with overall gcd 1.

    ``minimal`` records whether the tuple is a minimal generating set of the
    ordinary semigroup it spans.  Redundant generators are legal input, but
    they change representation counts once the threshold is positive, so the
    flag is surfaced to callers instead of being enforced.
    """

    elements: tuple[int, ...]
    minimal: bool = True

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def least(self) -> int:
        return self.elements[0]


# ``_replace`` builds its copy with ``_make``, which compares ``len`` with the
# two fields and so fails on the ``__len__`` above; ``tuple.__new__`` does not.
GeneratorTuple._make = classmethod(tuple.__new__)


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
    return GeneratorTuple(elements, minimal=_is_minimal(elements))


def _is_minimal(elements: tuple[int, ...]) -> bool:
    """Is no generator a combination of the smaller ones?

    ``least[r]`` is the least combination of the generators taken so far
    that is congruent to r modulo a1, so the next generator a is redundant
    iff least[a % a1] <= a.  Taking a walks each of the gcd(a1, a) residue
    cycles of step a once, from its smallest entry, which no new path can
    improve (the round-robin update of Boecker and Liptak, Algorithmica 48,
    2007): O(a1) per generator.  Tuples below 2 * a1 skip it: any sum of two
    or more generators is at least 2 * a1.
    """
    a1, last = elements[0], elements[-1]
    if last < 2 * a1:
        return True
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
                m = least[r]
                if m < n:
                    n = m
                else:
                    least[r] = n
    return least[last % a1] > last


class PSemigroup(NamedTuple):
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
        return n >= len(self.membership) or bool(self.membership[n])

    @property
    def gap_count(self) -> int:
        return self.membership.count(0)

    @property
    def modulus(self) -> int:
        """a1 = min(gens): adding it maps members to members."""
        return self.gens.least
