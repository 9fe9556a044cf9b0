"""Membership construction, denumerant tables and derived data.

A p-semigroup is built from its membership word: bit n is set iff d(n) > p,
where d(n) counts the representations of n by the generators.  The word
comes from bit-sliced saturating counts, B = (p+1).bit_length() bit-planes
with one ripple-carry add per factor 1 + x**(a * 2**j), so its cost grows
with the Frobenius number: about B * sum_a log2(limit / a) word operations
on limit-bit ints, where the limit is a guess at the frontier, doubled until
the word certifies it.  The membership bytes, the Frobenius number, the
Apery tuple modulo a1 = min(gens) and the least element all follow.  The
minimal generators come from one sumset word of the least positive member
of each class mod a1: about a1 / 2 shift-ORs of words of at most width
bits, where width is one more than the spread of those members.  That word
and the word of those members, each closed under adding a1 by doubling
shifts, give the generators as the members that are not sums, one AND-NOT:
their count is a ``bit_count`` and their list one pass over the word's
bytes, with no Python step per class or per generator.

The exact counts d(0..size-1) are one packed int.  Entry n is the c-byte
field at bit 8 * c * n.  ``denumerant`` packs d(0..n) and reads d(n) as the
top field, the one number the membership and denumerant commands need;
``denumerant_table`` reads every field, for the tests and library callers;
run up to the frontier, the word is the membership oracle for tests and
``--verify``.  c is fixed before any work so that the top bit of every
field stays free under the bound
d(n) <= (n * g // (a1 * a2) + 1) * prod(n // a_i + 1 for i >= 3),
g = gcd(a1, a2): once x_3..x_k are fixed, x_2 <= n / a2 lies in a single
residue class mod a1 / g (proof in ``_count_bound``).  Each factor
1/(1 - x**a) is applied by the doubling shift-adds
``word += (word & low) << s``, masked before the shift.  No field overflows: each partial product P
times the factors still to come, a series with constant term 1 and
nonnegative coefficients, is the full series, so P's coefficient at n is at
most d(n).  The oracle adds 2**(8c-1) - 1 - p to every field, which sets a
field's top bit iff d(n) > p, and reads all the top bytes in one slice.  It
shares the shift schedule with the planes (the same factorization), but not
their saturating bit-slice adders, carry saturation or top-down comparator;
the recursive ``denumerant_oracle`` shares neither, and the tests check the
packed table against it.

The embedding dimension has one oracle, ``_generator_count``, which shares
no kernel with the sumset: the member word read from the membership bytes,
shifted by each least positive member up to half its window, then one
AND-NOT.  Its work is provably within the sumset's, so the cap that bounded
the build bounds it.  The decomposition components carry no Apery tuple;
their generators come from the table alone, as one sumset word shifted by
the members of its lower half (``minimal_generators_lower_half``), which
the definitional scan of the tests checks.
"""

from __future__ import annotations

from itertools import compress, count
from math import factorial, gcd, prod

from .core import (
    TABLE_LIMIT_ENV, _FLIP, GeneratorTuple, PSemigroup, TableLimitError, ValidationError,
    _bits, _check_table_size, _least_per_class, _least_positive, _table_cap, _table_of, _window,
)
from .apery import apery_set

# 1 for a byte whose high bit is set, else 0
_HIGH_BIT = bytes(b >> 7 for b in range(256))


def _count_bound(elements: tuple[int, ...], n: int) -> int:
    """An upper bound on d(m) for every 0 <= m <= n.

    The bound is (n * g // (a1 * a2) + 1) * prod(n // a_i + 1 for i >= 3),
    with g = gcd(a1, a2).  Fix x_3..x_k and let r = m - sum_{i>=3} a_i x_i.
    Then a1 x_1 + a2 x_2 = r forces a2 x_2 = r (mod a1), which puts x_2 in a
    single residue class mod a1 / g, since a2 / g is invertible there; with
    0 <= x_2 <= r // a2 that leaves at most r * g // (a1 * a2) + 1 values,
    each fixing x_1.  Each x_i (i >= 3) lies in 0..n // a_i.  The bound does
    not decrease with n, so it holds for every m <= n.
    """
    a1, a2, *rest = elements
    return (n * gcd(a1, a2) // (a1 * a2) + 1) * prod(n // a + 1 for a in rest)


def _packed_counts(elements: tuple[int, ...], size: int) -> tuple[int, int]:
    """d(0..size-1) as the c-byte fields of one int, and c (size >= 1).

    c is the least byte width whose top bit stays free under the bound of
    ``_count_bound``.  Below x**size the factor 1/(1 - x**a) is the product
    of 1 + x**s for s = a, 2a, 4a, ... < size; each is one shift-add, the
    word cut to its low size - s fields before the shift, so each step holds
    about three words.  While the word is still that short, as on every
    step of the first generator, the cut is skipped.
    """
    c = _count_bound(elements, size - 1).bit_length() // 8 + 1
    bits = 8 * c
    word = 1
    for a in elements:
        s = a
        while s < size:
            keep = bits * (size - s)
            # one expression, so the cut copy is freed as soon as it is shifted
            word += (word if word.bit_length() <= keep else word & ((1 << keep) - 1)) << bits * s
            s += s
    return word, c


def denumerant(gens: GeneratorTuple, n: int) -> int:
    """d(n), the number of representations of n, read off the packed count word.

    The word of ``_packed_counts`` up to size n + 1 holds d(0..n) as c-byte
    fields, and field n is its top one: each shift-add cuts the word to its
    low size - s fields before shifting by s fields, so no field at or past
    the size exists.  One shift by 8 * c * n bits reads d(n), with no Python
    int per entry.  The size cap counts the n + 1 entries of the word.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    _check_table_size(n + 1, "the denumerant table")
    word, c = _packed_counts(gens.elements, n + 1)
    return word >> 8 * c * n


def denumerant_table(gens: GeneratorTuple, limit: int) -> list[int]:
    """Exact representation counts: entry n is d(n), for 0..limit.

    The packed word of ``_packed_counts``: entry n is its c-byte field at
    bit 8 * c * n, c fixed by the bound of ``_count_bound`` with each
    field's top bit free, read from the word's little-endian bytes with
    one ``int.from_bytes`` per entry, whatever the host's byte order.  The
    table shares only the shift schedule with the bit planes of
    ``build_psemigroup``, not their adders, saturation or comparator.
    """
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    _check_table_size(limit + 1, "the denumerant table")
    word, c = _packed_counts(gens.elements, limit + 1)
    raw = word.to_bytes(c * (limit + 1), "little")
    return [int.from_bytes(raw[i : i + c], "little") for i in range(0, len(raw), c)]


def denumerant_oracle(gens: GeneratorTuple, n: int) -> int:
    """Representation count by plain recursive enumeration.

    Structurally independent of the table recurrence (descends over
    generators, largest first, no shared state); intended for tests and
    ``--verify``.  The generators above n take no part in a representation
    of n, so the recursion, one level per generator, runs over the others
    only.  Its loop runs at most prod(n // a + 1) times over those but the
    least, which the size cap bounds.  Each such a <= n at least doubles
    that product, so the depth is at most log2 of the cap plus one.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    desc = sorted((a for a in gens.elements if a <= n), reverse=True)
    if not desc:
        return int(n == 0)
    _check_table_size(prod(n // a + 1 for a in desc[:-1]), "the recursive denumerant oracle")
    last = len(desc) - 1

    def count(i: int, m: int) -> int:
        a = desc[i]
        if i == last:
            return 1 if m % a == 0 else 0
        total = 0
        for r in range(m, -1, -a):
            total += count(i + 1, r)
        return total

    return count(0, n)


def _closed(word: int, a: int, mask: int) -> int:
    """``word`` closed under adding ``a``, cut to the bits of ``mask``.

    One shift-OR per doubling: after the shifts by a, 2a, ..., 2**j * a, bit
    n is set iff bit n - i * a was for some 0 <= i < 2**(j + 1).  ``word``
    must lie within ``mask``, a run of low bits.
    """
    limit = mask.bit_length()
    s = a
    while s < limit:
        word |= (word << s) & mask
        s += s
    return word


def _member_word(elements: tuple[int, ...], p: int, limit: int) -> int:
    """The word whose bit n (n < limit) is set iff d(n) > p.

    The counts live in B = (p+1).bit_length() bit-planes, saturated at
    2**B - 1 >= p + 1, which is all the comparison with p needs.  Each
    factor 1/(1 - x**a) of the generating function is, below x**limit, the
    product of the factors 1 + x**s for s = a, 2a, 4a, ... < limit, and each
    of those is one ripple-carry add of the planes shifted by s; a carry out
    of the top plane sets every plane, which saturates the count.  For p = 0
    there is one plane and the add is an OR.
    """
    mask = (1 << limit) - 1
    if not p:
        word = mask & 1
        for a in elements:
            word = _closed(word, a, mask)
        return word
    planes = [mask & 1] + [0] * ((p + 1).bit_length() - 1)
    for a in elements:
        s = a
        while s < limit:
            low = planes[0]
            shifted = (low << s) & mask
            planes[0] = low ^ shifted
            carry = low & shifted
            for i in range(1, len(planes)):
                x = planes[i]
                shifted = (x << s) & mask
                half = x ^ shifted
                planes[i] = half ^ carry
                carry = (x & shifted) | (half & carry)
            if carry:
                for i in range(len(planes)):
                    planes[i] |= carry
            s += s
    # count > p, decided from the top plane down: ``tie`` holds the integers
    # whose count agrees with p on every plane read so far
    above, tie = 0, mask
    for i in reversed(range(len(planes))):
        if p >> i & 1:
            tie &= planes[i]
        else:
            above |= tie & planes[i]
            tie &= ~planes[i]
    return above


def _membership_over_cap(cap: int) -> TableLimitError:
    return TableLimitError(
        f"the membership table needs more than the {cap} entries allowed "
        f"(raise {TABLE_LIMIT_ENV} to allow it)"
    )


def build_psemigroup(gens: GeneratorTuple, p: int) -> PSemigroup:
    """The p-semigroup of ``gens``, from its membership word.

    The word is built up to a limit that starts at a guess and doubles until
    its top a1 bits are all members: that run certifies every larger
    integer (adding a1 never removes a representation), so the frontier,
    one past the a1 members that follow the Frobenius number, is at most the
    limit.  Each limit is clamped to the size cap, and a bound on d(cap - 1)
    rejects most jobs whose frontier exceeds the cap before any word is
    built.  The B planes of one limit may hold at most 8 * cap bits, the
    bytes of a cap-entry table; the budget is checked before each word, and
    only p >= 255 (B > 8) can break it.  So for p < 255 a job is rejected
    exactly when its frontier exceeds the cap.  The Apery tuple mod a1 is the
    first member of each residue class of the bytes.
    """
    if p < 0:
        raise ValidationError("p must be non-negative")
    elements = gens.elements
    a1 = elements[0]
    cap = _table_cap()
    run = (1 << a1) - 1
    # For k generators d(n) grows like n**(k-1) / ((k-1)! * prod(gens)), so
    # the frontier is near the (k-1)-th root of ``guess``; the pair a1, a2
    # alone has its frontier below (p+1) * a1 * a2, and more generators only
    # lower it.
    m = len(elements) - 1
    guess = (p + 1) * factorial(m) * prod(elements)
    # d(n) is at most the number of x_2..x_k >= 0 with sum a_i x_i <= n, and
    # their unit cubes fill part of the simplex sum a_i y_i <= n + a_2 + ...
    # + a_k, of volume (n + a_2 + ... + a_k)**m / (m! * a_2 * ... * a_k).  If
    # that is below p + 1 at n = cap - 1, then cap - 1 is a gap and the
    # frontier exceeds the cap: reject before building anything.
    if (cap - 1 + sum(elements) - a1) ** m * a1 < guess:
        raise _membership_over_cap(cap)
    limit = min(1 << -(-guess.bit_length() // m), (p + 1) * a1 * elements[1], cap)
    planes = (p + 1).bit_length()
    while True:
        if planes * limit > 8 * cap:
            raise TableLimitError(
                f"the {planes} membership bit-planes need {planes * limit} bits, "
                f"more than the {8 * cap} allowed (raise {TABLE_LIMIT_ENV} to "
                f"allow them)"
            )
        word = _member_word(elements, p, limit)
        if limit >= a1 and word >> (limit - a1) == run:
            break
        if limit == cap:
            raise _membership_over_cap(cap)
        limit = min(2 * limit, cap)
    frobenius = (word ^ ((1 << limit) - 1)).bit_length() - 1
    frontier = frobenius + 1 + a1
    membership = _table_of(word & ((1 << frontier) - 1))
    ap = _least_per_class(membership, a1)
    return PSemigroup(
        gens=gens,
        p=p,
        membership=membership,
        frontier=frontier,
        least_element=min(ap),
        frobenius=frobenius,
        apery=ap,
    )


def membership_oracle(gens: GeneratorTuple, p: int, limit: int) -> bytes:
    """Oracle: membership bytes for 0..limit-1 from the exact count table.

    The c-byte fields of ``_packed_counts`` hold d(n) <= 2**(8c-1) - 1 =
    top.  With p clamped to -1..top, adding top - p to every field sets its
    top bit iff d(n) > p and carries into no other field, so one slice of
    the top bytes, each translated by its high bit, is the answer: no
    Python int per entry.  The table shares only the shift schedule with the
    bit planes of ``build_psemigroup``, not their adders, saturation or
    comparator.  Run up to the frontier it must equal
    ``PSemigroup.membership``, whose last a1 entries are all members: the
    run that certifies every larger integer, since adding a1 never removes a
    representation.  The size cap bounds ``limit`` entries once per
    generator.
    """
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    _check_table_size(limit * len(gens), "the count-table membership oracle")
    if limit == 0:
        return b""
    word, c = _packed_counts(gens.elements, limit)
    top = (1 << 8 * c - 1) - 1
    word += int.from_bytes((top - min(max(p, -1), top)).to_bytes(c, "little") * limit, "little")
    return word.to_bytes(c * limit, "little")[c - 1 :: c].translate(_HIGH_BIT)


def gaps(semigroup: PSemigroup) -> list[int]:
    """Ascending non-members; length, sum and max are the basic invariants.

    Every integer past the membership table is a member, so this serves the
    decomposition's ``FiniteSemigroup`` as well.
    """
    table = semigroup.membership
    return list(compress(range(len(table)), table.translate(_FLIP)))


def _positive_apery(semigroup: PSemigroup) -> list[int]:
    """Least positive member per residue class mod a1 (a1 itself for class 0 when p = 0)."""
    a1 = semigroup.gens.least
    return [m if m else a1 for m in apery_set(semigroup)]


def _generator_word(semigroup: PSemigroup) -> tuple[int, int]:
    """The minimal generators of the members with 0 adjoined, as one word.

    Returns (word, l): bit i of ``word`` is set iff l + i is a minimal
    generator, where l = min(pos) and pos[r] is the least positive member of
    class r mod a1.  The sums of two positive members in class r are exactly
    the integers of that class from the least pos[i] + pos[j] in it on,
    because every class is closed under adding a1.  The minimal generators
    of class r are its members below that bound.

    Let M = max(pos).  Every sum is at least 2l, and class r holds the sum
    pos[r - l] + l <= M + l, so its least sum lies in the window [2l, M + l],
    offsets 0..width - 1 from 2l with width = M - l + 1.  The word of the
    offsets pos[i] - l, shifted up by d = pos[j] - l and cut to the window,
    marks every sum pos[i] + pos[j] there.  A shift with 2d >= width
    reaches, inside the window, only offsets u < d, whose own shift by u
    marked those sums already, so it is skipped.  Closed under adding a1,
    that word marks every sum in the window; the offset word closed the same
    way over [l, M + l] marks every positive member there.  The generators
    are the members there that are not sums: each lies below the least sum
    of its class, so below M + l.
    """
    a1 = semigroup.gens.least
    pos = _positive_apery(semigroup)
    low, high = min(pos), max(pos)
    width = high - low + 1
    # one byte per offset, one conversion: an OR per element would copy the word a1 times
    offsets = bytearray(width)
    for m in pos:
        offsets[m - low] = 1
    word = _bits(offsets)
    window = (1 << width) - 1
    sums = 0
    for m in pos:
        d = m - low
        if 2 * d < width:
            sums |= (word << d) & window
    members = _closed(word, a1, (1 << (high + 1)) - 1)
    return members & ~(_closed(sums, a1, window) << low), low


def minimal_generators(semigroup: PSemigroup) -> list[int]:
    """Minimal monoid generators of the members with 0 adjoined, ascending."""
    word, low = _generator_word(semigroup)
    return list(compress(count(low), _table_of(word)))


def embedding_dimension(semigroup: PSemigroup) -> int:
    """The number of minimal generators, counted without listing them."""
    return _generator_word(semigroup)[0].bit_count()


def _generator_count(semigroup: PSemigroup) -> int:
    """Oracle for ``embedding_dimension``: the members that are not sums, from the table.

    A minimal generator is a positive member that is not the sum of two
    positive members.  With pos[r] the least positive member of class r mod
    a1 and low = min(pos), every generator lies in [low, top], top =
    max(F + low, low): past F + low, subtracting low leaves a member.  A
    sum s + t of positive members, s <= t, with s = pos[r] + k * a1 is
    pos[r] + u for the positive member u = k * a1 + t, and pos[r] + u is a
    sum for every positive member u.  Every sum is at least 2 * low, so the
    members in [low, 2 * low) are generators; a member m in [2 * low, top]
    is one iff no pos[r] <= m / 2 has m - pos[r] a member, and then u lies
    in [low, top - low].  So the word of the members there, shifted by
    pos[r] - low for each pos[r] <= top / 2 and cut to [2 * low, top], marks
    every sum there (larger shifts mark sums too), and one AND-NOT and a
    ``bit_count`` finish.

    It reads its members from the membership bytes, not from the Apery
    offsets closed under adding a1, and has no skip rule, so it shares no
    kernel with ``_generator_word``; its shift set is the Apery tuple, which
    ``check_series`` checks against the bytes.  It checks no work estimate:
    F = max(ap) - a1 < max(pos), so each shift pos[r] - low has 2 * pos[r]
    <= top < max(pos) + low + 1 and is a shift of ``_generator_word``, and
    its word is cut to top - 2 * low + 1 <= width - a1 bits, narrower than
    that sumset's window.  The default path runs the sumset within the size
    cap that bounded the build, so the cap bounds this oracle too.
    """
    pos = _positive_apery(semigroup)
    low = min(pos)
    top = max(semigroup.frobenius + low, low)
    members = _window(semigroup.membership, low, top + 1)
    span = max(top - 2 * low + 1, 0)  # [low, top - low] and [2 * low, top]
    word = _bits(members[:span])
    window = (1 << span) - 1
    sums = 0
    for m in pos:
        if 2 * m <= top:
            sums |= (word << m - low) & window
    return members[:low].count(1) + (_bits(members[low:]) & ~sums).bit_count()


def minimal_generators_lower_half(semigroup: PSemigroup) -> list[int]:
    """Minimal monoid generators of the members with 0 adjoined, from the table alone.

    With mu the least positive member, every minimal generator lies in
    [mu, top], top = max(F + mu, mu): past F + mu, subtracting mu leaves a
    member.  A member m <= top that is a sum s + t of positive members, s <=
    t, has mu <= s <= top / 2.  So with w the word of the positive members up
    to top, the sums there are the OR of w << s over the members s in
    [mu, top // 2], and the generators are the bits of w that no shift sets.
    It reads only the membership bytes, so it serves the decomposition
    components (``FiniteSemigroup``), which carry no Apery tuple; the
    definitional scan and the per-integer oracle of the tests check it.
    """
    mu = _least_positive(semigroup.membership)
    top = max(semigroup.frobenius + mu, mu)
    window = _window(semigroup.membership, 0, top + 1)
    word = _bits(window) & ~1
    sums = 0
    for s in compress(count(mu), window[mu : top // 2 + 1]):
        sums |= word << s
    return list(compress(count(), _table_of(word & ~sums)))
