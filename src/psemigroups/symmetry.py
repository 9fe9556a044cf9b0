"""Symmetry classification, pseudo-Frobenius sets and valuation lengths.

Symmetry and pseudo-symmetry are one pairing: members and non-members pair
off exactly under x <-> total - x, with total = least member + Frobenius,
and an integral midpoint is exempt.  The parity of total decides which of
the two it is: symmetric when total is odd, pseudo-symmetric when it is
even.  ``_pairing`` decides it once per call from the membership window and
from the Apery tuple (classes r and total - r sum to total + a1) and
refuses to answer if they disagree.  The genus identity implied by the
pairing is asserted in the forward direction only: its converse fails for
some non-minimal generator tuples, where the gap count matches by accident.

The window pairing and ``pseudo_frobenius`` read only ``membership``,
``frobenius`` and ``least_element``, so the ordinary semigroups of the
decomposition (``FiniteSemigroup``, least element 0) run on them too.
"""

from __future__ import annotations

from .core import _FLIP, InternalConsistencyError, PSemigroup, ValidationError, _bits, _window
from .apery import apery_set
from .enumeration import _positive_apery, gaps


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
    When the pairing holds, the gap count must be one per pair plus one for
    a non-member midpoint.
    """
    total = semigroup.frobenius + semigroup.least_element
    mid_member = semigroup.contains(total // 2) if total % 2 == 0 else None
    pairing = _pairs_exactly_one(semigroup.membership, total)
    ap = apery_set(semigroup)
    a = len(ap)
    expected = [total + a] * a
    if mid_member is not None:
        expected[total // 2 % a] = total + (0 if mid_member else 2 * a)
    apery_pairing = [ap[r] + ap[(total - r) % a] for r in range(a)] == expected
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
    pairing, total, _ = _pairing(semigroup)
    return pairing and total % 2 == 1


def is_p_pseudo_symmetric(semigroup: PSemigroup) -> bool:
    """Same pairing with total even and its midpoint exempt."""
    pairing, total, _ = _pairing(semigroup)
    return pairing and total % 2 == 0


def is_p_completely_symmetric(semigroup: PSemigroup) -> bool:
    """Symmetric with no gaps above the least member."""
    return classify(semigroup)["completely_symmetric"]


def pseudo_frobenius(semigroup: PSemigroup) -> list[int]:
    """Non-members x with x + t inside for every positive shifted member t.

    Only shifts t <= frobenius - x matter; larger ones land past the
    Frobenius number automatically.
    """
    g = semigroup.frobenius
    if g < 0:
        return []
    table = semigroup.membership
    least = semigroup.least_element
    # least + t for 1 <= t <= g; the members past the table are padded in
    above_least = _window(table, least + 1, least + g + 1)
    shifts = [t for t, member in enumerate(above_least, 1) if member]
    out = []
    for x in range(g + 1):
        if table[x]:
            continue
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


def pf_via_gap_maximals(semigroup: PSemigroup) -> list[int]:
    """Maximal gaps under x <= y iff y - x is 0 or a positive shifted member.

    One shift-AND per gap on bit-per-integer words: x is dominated iff some
    gap x + t, t >= 1, has least + t a member, i.e. the gap word shifted
    down by x meets the word of those shifts t.  That is genus shift-ANDs of
    F-bit integers, run in C, against genus^2 ``contains`` calls for the
    pairwise definition.  The words come from ``_bits``, the builder that
    every word of the decomposition shares.  ``pseudo_frobenius`` (the
    per-integer definition) and ``pf_via_apery_maximals`` (the Apery tuple)
    share no kernel with it, so the three-way ``--verify`` check keeps two
    witnesses independent of the word form.  All three read the bytes and
    tuple of one bit-plane build (``enumeration._member_word``), whose own
    witness is the count table of ``membership_oracle``.
    """
    g = semigroup.frobenius
    table = semigroup.membership
    least = semigroup.least_element
    gap_word = _bits(table.translate(_FLIP))
    # bit t is set iff t >= 1 and least + t is a member; t > g never matters
    shifts = _bits(_window(table, least + 1, least + g + 1)) << 1
    return [x for x in gaps(semigroup) if (gap_word >> x) & shifts == 0]


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
        if not any(window[v + shift] for v in elements[:i]):
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
