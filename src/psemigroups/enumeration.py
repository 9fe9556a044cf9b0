"""Apery-first membership construction, denumerant tables and derived data.

A p-semigroup is built from its Apery tuple modulo a1 = min(gens): the
least member of residue class j is the (p+1)-th smallest multiset sum of
a2..ak in that class, found by a shortest-path search whose cost does not
depend on the Frobenius number.  The membership bytes, the Frobenius number,
the least element and the minimal generators all follow from the tuple.
The coin-counting table survives as the denumerant evaluator and, run up to
the frontier, as the membership oracle for tests and ``--verify``; the
definitional minimal-generator scan is kept as an oracle the same way, and
serves the decomposition components, which carry no Apery tuple.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from operator import add

from .core import GeneratorTuple, PSemigroup, ValidationError, _check_table_size


def _count_table(gens: tuple[int, ...], limit: int, cap: int | None = None) -> list[int]:
    """Coin-counting recurrence: counts[n] = #tuples x with sum a_i x_i = n.

    With ``cap`` set, counts saturate at ``cap``; min(true, cap) is preserved
    by the recurrence, which is all the membership comparison d > p needs.
    """
    counts = [0] * (limit + 1)
    counts[0] = 1
    for a in gens:
        if cap is None:
            for n in range(a, limit + 1):
                counts[n] += counts[n - a]
        else:
            for n in range(a, limit + 1):
                c = counts[n] + counts[n - a]
                counts[n] = c if c < cap else cap
    return counts


def denumerant_table(gens: GeneratorTuple, limit: int) -> list[int]:
    """Exact representation counts: entry n is d(n), for 0..limit."""
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    _check_table_size(limit + 1, "the denumerant table")
    return _count_table(gens.elements, limit)


def denumerant_oracle(gens: GeneratorTuple, n: int) -> int:
    """Representation count by plain recursive enumeration.

    Structurally independent of the table recurrence (descends over
    generators, largest first, no shared state); intended for tests.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    desc = sorted(gens.elements, reverse=True)
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


def _apery_tuple(elements: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Least member per residue class mod a1, by (p+1)-shortest multiset sums.

    n has d(n) > p iff at least p+1 multisets of a2..ak have sum <= n in the
    class of n (each one is completed by copies of a1), so the Apery element
    of class j is the (p+1)-th smallest such sum.  A Dijkstra search over the
    states (residue, index i of the last generator) enumerates the non-empty
    multisets, as ascending index sequences, in ascending sum order.  A pop
    pushes two moves: append generator i again, or replace the last one by
    generator i+1.  Each sequence has one parent, so each multiset is reached
    once; the sums reachable from a state are its own minus g_i plus those of
    the multisets from index i on, so a state popped p+1 times is done: any
    longer path through it is beaten by p+1 others with the same continuation.
    """
    a1, rest = elements[0], elements[1:]
    m = len(rest)
    width = a1 * m
    need = p + 1
    visits = [0] * width
    seen = [0] * a1
    seen[0] = 1  # the empty multiset
    ap = [0] * a1
    left = a1 - 1 if need == 1 else a1
    g = rest[0]
    heap = [g * width + (g % a1) * m]  # key sum * width + residue * m + last index
    while left:
        s, state = divmod(heappop(heap), width)
        if visits[state] == need:
            continue
        visits[state] += 1
        r, i = divmod(state, m)
        seen[r] += 1
        if seen[r] == need:
            ap[r] = s
            left -= 1
        g = rest[i]
        nxt = ((r + g) % a1) * m + i
        if visits[nxt] < need:
            heappush(heap, (s + g) * width + nxt)
        if i + 1 < m:
            h = rest[i + 1] - g
            nxt = ((r + h) % a1) * m + i + 1
            if visits[nxt] < need:
                heappush(heap, (s + h) * width + nxt)
    return tuple(ap)


def build_psemigroup(gens: GeneratorTuple, p: int) -> PSemigroup:
    """The p-semigroup of ``gens``, built from its Apery tuple mod a1.

    The search pops each of its a1*(k-1) states at most p+1 times, so its
    work is known before it starts and is checked against the size cap; the
    frontier, one past the a1 members that follow the Frobenius number, is
    checked before the membership bytes are allocated.  The bytes take one
    slice assignment per residue class.
    """
    if p < 0:
        raise ValidationError("p must be non-negative")
    elements = gens.elements
    a1 = elements[0]
    _check_table_size(a1 * (len(elements) - 1) * (p + 1), "the Apery search")
    ap = _apery_tuple(elements, p)
    frobenius = max(ap) - a1
    frontier = frobenius + 1 + a1
    _check_table_size(frontier, "the membership table")
    membership = bytearray(frontier)
    for start in ap:
        membership[start::a1] = b"\x01" * len(range(start, frontier, a1))
    return PSemigroup(
        gens=gens,
        p=p,
        membership=bytes(membership),
        frontier=frontier,
        least_element=min(ap),
        frobenius=frobenius,
        apery=ap,
    )


def membership_oracle(gens: GeneratorTuple, p: int, limit: int) -> bytes:
    """Oracle: membership bytes for 0..limit-1 from the saturating count table.

    Shares nothing with the Apery search.  Run up to the frontier it must
    equal ``PSemigroup.membership``, whose last a1 entries are all members:
    the run that certifies every larger integer, since adding a1 never
    removes a representation.
    """
    if limit < 0:
        raise ValidationError("table limit must be non-negative")
    _check_table_size(limit, "the membership oracle")
    if limit == 0:
        return b""
    counts = _count_table(gens.elements, limit - 1, cap=p + 1)
    return bytes(1 if c > p else 0 for c in counts)


def gaps(semigroup: PSemigroup) -> list[int]:
    """Ascending non-members; length, sum and max are the basic invariants.

    Every integer past the membership table is a member, so this serves the
    decomposition's ``FiniteSemigroup`` as well.
    """
    table = semigroup.membership
    return [n for n in range(len(table)) if not table[n]]


def _positive_apery(semigroup: PSemigroup) -> list[int]:
    """Least positive member per residue class mod a1 (a1 itself for class 0 when p = 0)."""
    a1 = semigroup.gens.least
    return [m if m else a1 for m in semigroup.apery]


def minimal_generators(semigroup: PSemigroup) -> list[int]:
    """Minimal monoid generators of the members with 0 adjoined.

    With pos[r] the least positive member of class r, the sums of two
    positive members in class r are exactly the integers of that class from
    min_i pos[i] + pos[r - i] on, because every class is closed under adding
    a1.  The minimal generators of class r are the members below that bound.
    """
    a1 = semigroup.gens.least
    pos = _positive_apery(semigroup)
    out = []
    for r in range(a1):
        partners = pos[r::-1] + pos[:r:-1]  # partners[i] = pos[(r - i) % a1]
        bound = min(map(add, pos, partners))
        out.extend(range(pos[r], bound, a1))
    return sorted(out)


def minimal_generators_scan(semigroup: PSemigroup) -> list[int]:
    """Oracle for ``minimal_generators``: the definitional scan.

    A member is minimal iff it is not the sum of two positive members.  All
    minimal generators lie in [m, frobenius + m] for the least positive
    member m, and subtracting m from any of them must leave a non-member,
    which caps the candidate count at m.  It indexes the membership bytes,
    padded with members, so it stays independent of the Apery tuple; it is
    also the production path for the decomposition components
    (``FiniteSemigroup``, least element 0), where that tuple is not at hand.
    """
    mu = (semigroup.membership + b"\x01\x01").find(1, 1)
    top = max(semigroup.frobenius + mu, mu)
    window = semigroup.membership[: top + 1].ljust(top + 1, b"\x01")
    members = list(compress(range(mu, top + 1), window[mu:]))
    out = []
    for m in members:
        if m > mu and window[m - mu]:
            continue
        for s in members:
            if 2 * s > m:
                out.append(m)
                break
            if window[m - s]:
                break
    return out
