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

from .core import InternalConsistencyError, PSemigroup, ValidationError
from .apery import apery_set
from .enumeration import _positive_apery, gaps

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _pairs_exactly_one(membership: bytes, total: int) -> bool:
    """Exactly one of x and total - x is a member, for 0 <= x <= total.

    ``membership`` tabulates 0..len - 1; every integer past it is a member.
    An integral midpoint pairs with itself and is exempt.
    """
    window = membership[: total + 1].ljust(total + 1, b"\x01")
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
    above_least = table[least + 1 : least + g + 1].ljust(g, b"\x01")
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
    """Maximal gaps under x <= y iff y - x is 0 or a positive shifted member."""
    least = semigroup.least_element
    gap_list = gaps(semigroup)
    out = []
    for x in gap_list:
        dominated = any(
            y > x and semigroup.contains(y - x + least) for y in gap_list
        )
        if not dominated:
            out.append(x)
    return out


def pf_via_apery_maximals(semigroup: PSemigroup) -> list[int]:
    """Maximal Apery elements (same order), each shifted down by the modulus."""
    if semigroup.frobenius < 0:
        return []
    elements = apery_set(semigroup)
    least = semigroup.least_element
    out = []
    for w in elements:
        dominated = any(
            v > w and semigroup.contains(v - w + least) for v in elements
        )
        if not dominated:
            out.append(w - len(elements))
    return sorted(out)


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
    """Oracle for ``valuation_lengths``: counts the members one by one."""
    if semigroup.p < 1:
        raise ValidationError("valuation lengths are defined for p >= 1")
    total = semigroup.frobenius + semigroup.least_element
    d3 = sum(1 for n in range(1, total + 1) if semigroup.contains(n))
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
