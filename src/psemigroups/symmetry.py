"""Symmetry classification, pseudo-Frobenius sets and valuation lengths.

Symmetry and pseudo-symmetry are one pairing: members and non-members pair
off exactly under x <-> total - x, with total = least member + Frobenius,
and an integral midpoint is exempt.  The parity of total decides which of
the two it is: symmetric when total is odd, pseudo-symmetric when it is
even; ``classify`` alone reads that parity, and the ``is_p_*`` predicates
read ``classify``.  ``_pairing`` decides the pairing once per call from the
membership window and from the Apery tuple (classes r and total - r sum to
total + a1) and refuses to answer if they disagree.  The genus identity
implied by the pairing is asserted in the forward direction only: its
converse fails, for minimal generator tuples too.  (9,23,26,28) at p = 2
and (9,10,23) at p = 3 have (F + least + 1)/2 gaps and are not symmetric.

The pseudo-Frobenius numbers are the maximal gaps under x <= y iff y - x
is 0 or a positive shifted member t (least + t a member).  Let t =
``semigroup.modulus``: a1 for a p-semigroup, where adding a1 to each
representation of n gives distinct representations of n + a1, and the
multiplicity of an ordinary semigroup, by closure.  Either way S + t lies in
S, and least + t is a member, so t is a positive shift.  A
pseudo-Frobenius number x therefore has x + t inside, hence every x + kt
inside: it is the top gap of its class modulo t.  The two gap-based oracles
test just these candidates, at most t of them, found by one AND of two ints
holding a byte per integer.

The pairing bounds the pseudo-Frobenius set.  At p >= 1, 0 is a gap, so F
>= 0, and F is pseudo-Frobenius: every x > F is a member.  Let x < F be any
other gap, and not an integral midpoint.  Then 0 <= x < total, so the
pairing puts total - x inside.  The shift t = F - x >= 1 has least + t =
total - x inside, but x + t = F is a gap, so x is not pseudo-Frobenius.
Hence p-symmetric (no midpoint) gives PF = {F}, type 1, and
p-pseudo-symmetric gives PF within {F, total / 2} = {F, (F + least)/2}.
At p = 0 the converses hold too, the classical characterizations; at p >=
1 they fail.  (12,20,23,27) at p = 6 has type 1 (PF {157}) and is neither;
(6,20,21,25) at p = 4 has PF {85, 89} = {(F + least)/2, F} and is not
p-pseudo-symmetric; and (5,17,26) at p = 7 is p-pseudo-symmetric with its
midpoint 157 a gap, yet PF = {159}, so the inclusion can be strict.

The window pairing and the two gap-based oracles read only ``membership``,
``frobenius``, ``least_element`` and ``modulus``, so the ordinary
semigroups of the decomposition (``FiniteSemigroup``, least element 0,
modulus its multiplicity) run on them too.
"""

from __future__ import annotations

from operator import add

from .core import (
    _FLIP, InternalConsistencyError, PSemigroup, ValidationError,
    _bits, _check_work, _least_per_class, _window,
)
from .apery import apery_set
from .enumeration import _positive_apery


def _pairs_exactly_one(membership: bytes, total: int) -> bool:
    """Exactly one of x and total - x is a member, for 0 <= x <= total.

    ``membership`` tabulates 0..len - 1; every integer past it is a member.
    An integral midpoint pairs with itself and is exempt.
    """
    window = _window(membership, 0, total + 1)
    half = (total + 1) // 2
    return window[:half].translate(_FLIP) == window[::-1][:half]


def _pairing(semigroup: PSemigroup) -> tuple[bool, int, bool | None]:
    """The pairing under x <-> total - x: (holds, total, midpoint is a member).

    The midpoint flag is None when total is odd.  The window answer must match
    the Apery one, where class r pairs with class total - r: their elements
    sum to total + a, except in the midpoint's own class, whose element is
    the midpoint when that is a member and the midpoint plus a when not.
    With c = total mod a, the partner of class r is class (c - r) mod a, so
    the partners in class order are the tuple read down from c and then
    down from a - 1 to c + 1: two slices and one ``map(add)``, no Python
    step per class.  When the pairing holds, the gap count must be one per
    pair plus one for a non-member midpoint.
    """
    total = semigroup.frobenius + semigroup.least_element
    mid_member = semigroup.contains(total // 2) if total % 2 == 0 else None
    pairing = _pairs_exactly_one(semigroup.membership, total)
    ap = apery_set(semigroup)
    a = len(ap)
    expected = [total + a] * a
    if mid_member is not None:
        expected[total // 2 % a] = total + (0 if mid_member else 2 * a)
    c = total % a
    apery_pairing = list(map(add, ap, ap[c::-1] + ap[:c:-1])) == expected
    where = f"gens={semigroup.gens.elements} p={semigroup.p}"
    if pairing != apery_pairing:
        raise InternalConsistencyError(
            f"window pairing ({pairing}) and Apery pairing ({apery_pairing}) "
            f"disagree for {where}"
        )
    genus = total // 2 + (0 if mid_member else 1)
    if pairing and semigroup.gap_count != genus:
        raise InternalConsistencyError(
            f"pairing holds but gap count {semigroup.gap_count} != {genus} for {where}"
        )
    return pairing, total, mid_member


def is_p_symmetric(semigroup: PSemigroup) -> bool:
    """Members and non-members pair off exactly under x -> total - x, total odd."""
    return classify(semigroup)["symmetric"]


def is_p_pseudo_symmetric(semigroup: PSemigroup) -> bool:
    """Same pairing with total even and its midpoint exempt."""
    return classify(semigroup)["pseudo_symmetric"]


def is_p_completely_symmetric(semigroup: PSemigroup) -> bool:
    """Symmetric with no gaps above the least member."""
    return classify(semigroup)["completely_symmetric"]


def _pf_candidates(semigroup: PSemigroup) -> list[int]:
    """The gaps x with x + t a member, t = ``semigroup.modulus``, ascending.

    Every pseudo-Frobenius number is one (module docstring), and each is
    the top gap of its class modulo t, so there are at most t.  The gap
    bytes up to F and the member bytes from t on, padded with members, are
    read as two ints, one byte per integer, whose AND is 1 at exactly the
    candidates; its bytes are searched with one ``find`` per candidate.  On
    the 9.3-million-entry table of (10007, 12011, 14009) at p = 10 that
    takes about 40 ms, where bit words listed by ``compress`` took 230 ms
    (2-vCPU VM, CPython 3.11).
    """
    table = semigroup.membership
    size = semigroup.frobenius + 1
    t = semigroup.modulus
    gaps = int.from_bytes(table[:size].translate(_FLIP), "little")
    marked = (gaps & int.from_bytes(_window(table, t, t + size), "little")).to_bytes(size, "little")
    out = []
    x = marked.find(1)
    while x >= 0:
        out.append(x)
        x = marked.find(1, x + 1)
    return out


def pseudo_frobenius(
    semigroup: PSemigroup, *, candidates: list[int] | None = None
) -> list[int]:
    """Non-members x with x + t inside for every positive shifted member t.

    Only the candidates of ``_pf_candidates`` are tested, and for each only
    the least shift t of every class modulo ``modulus``: t + k * modulus is
    a shift too, and x + t inside puts x + t + k * modulus inside.  Shifts
    t > frobenius - x land past the Frobenius number and never matter.  The
    work, candidates times those shifts (at most modulus**2), is checked
    against the size cap first.  ``candidates``, if given, is that list,
    so ``--verify`` scans the table for it once for both gap oracles.
    """
    g = semigroup.frobenius
    table = semigroup.membership
    least = semigroup.least_element
    if candidates is None:
        candidates = _pf_candidates(semigroup)
    # byte t - 1 is least + t for 1 <= t <= g; members past the table padded in
    above_least = _window(table, least + 1, least + g + 1)
    shifts = sorted(i + 1 for i in _least_per_class(above_least, semigroup.modulus) if i < g)
    _check_work(
        len(candidates) * len(shifts), table, "the definitional pseudo-Frobenius oracle"
    )
    out = []
    for x in candidates:
        ok = True
        for t in shifts:
            if t > g - x:
                break
            if not table[x + t]:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def pf_via_gap_maximals(
    semigroup: PSemigroup, *, candidates: list[int] | None = None
) -> list[int]:
    """Maximal gaps under x <= y iff y - x is 0 or a positive shifted member.

    One shift-AND per candidate on bit-per-integer words: x is dominated iff
    some gap x + t, t >= 1, has least + t a member, i.e. the gap word
    shifted down by x meets the word of those shifts t.  Only the at most
    ``modulus`` candidates of ``_pf_candidates`` (or ``candidates``, that
    list computed once for both oracles) are tested, so the work is
    candidates times the words of an F-bit integer, run in C and checked
    against the size cap first.  The words come from ``_bits``, the builder
    that every word of the decomposition shares.  ``pseudo_frobenius`` (the
    per-integer definition) shares only the candidate filter with it, whose
    proof is in the module docstring and whose output the tests check
    against an unfiltered scan; ``pf_via_apery_maximals`` (the Apery tuple)
    shares no kernel with either, so the three-way ``--verify`` check keeps
    two witnesses independent of the shift-AND and one independent of the
    filter.  All three read the bytes and tuple of one bit-plane build
    (``enumeration._member_word``), whose own witness is the count table of
    ``membership_oracle``.
    """
    g = semigroup.frobenius
    table = semigroup.membership
    least = semigroup.least_element
    if candidates is None:
        candidates = _pf_candidates(semigroup)
    _check_work(len(candidates) * (g // 64 + 1), table, "the gap pseudo-Frobenius oracle")
    gap_word = _bits(table.translate(_FLIP))
    # bit t is set iff t >= 1 and least + t is a member; t > g never matters
    shifts = _bits(_window(table, least + 1, least + g + 1)) << 1
    return [x for x in candidates if (gap_word >> x) & shifts == 0]


def pf_via_apery_maximals(semigroup: PSemigroup) -> list[int]:
    """Maximal Apery elements (same order), each shifted down by the modulus.

    w is dominated iff v - w + least is a member for some Apery element
    v > w.  Those probes stay below max(ap) + least + 1, so the membership
    bytes are padded with members to that length once and indexed.  The
    partners v are tried from the largest down, because a probe past the
    Frobenius number is a member: most dominated w stop at the first one.
    """
    if semigroup.frobenius < 0:
        return []
    elements = sorted(apery_set(semigroup), reverse=True)
    a = len(elements)
    least = semigroup.least_element
    top = elements[0] + least + 1
    window = _window(semigroup.membership, 0, top)
    out = []
    for i, w in enumerate(elements):
        shift = least - w
        for v in elements[:i]:
            if window[v + shift]:
                break
        else:
            out.append(w - a)
    return out[::-1]


def valuation_lengths(semigroup: PSemigroup) -> tuple[int, int, int]:
    """Chain-length counts (d1, d2, d3) for the associated valuation picture.

    d3 counts members in [1, frobenius + least]; d1 = d3 + 1 and
    d2 = frobenius + least + 1.  The members of class r in that window run
    from its least positive member up in steps of a1, so each class is
    counted in one step.
    """
    if semigroup.p < 1:
        raise ValidationError("valuation lengths are defined for p >= 1")
    a1 = semigroup.gens.least
    total = semigroup.frobenius + semigroup.least_element
    d3 = sum((total - m) // a1 + 1 for m in _positive_apery(semigroup) if m <= total)
    return (d3 + 1, total + 1, d3)


def valuation_lengths_scan(semigroup: PSemigroup) -> tuple[int, int, int]:
    """Oracle for ``valuation_lengths``: counts the member bytes in [1, total].

    It reads only the membership bytes, padded with members past the table,
    so it stays independent of the Apery tuple.
    """
    if semigroup.p < 1:
        raise ValidationError("valuation lengths are defined for p >= 1")
    total = semigroup.frobenius + semigroup.least_element
    d3 = _window(semigroup.membership, 1, total + 1).count(1)
    return (d3 + 1, total + 1, d3)


def classify(semigroup: PSemigroup) -> dict:
    """The symmetry flags and the midpoint they turn on, from one pairing pass.

    ``midpoint`` and ``midpoint_is_member`` are None when total is odd.
    """
    pairing, total, mid_member = _pairing(semigroup)
    symmetric = pairing and total % 2 == 1
    return {
        "symmetric": symmetric,
        "pseudo_symmetric": pairing and total % 2 == 0,
        "completely_symmetric": symmetric
        and semigroup.least_element == semigroup.frobenius + 1,
        "irreducible": pairing,
        "midpoint": None if mid_member is None else total // 2,
        "midpoint_is_member": mid_member,
    }
