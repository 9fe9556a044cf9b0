"""Symmetry classification, pseudo-Frobenius sets and valuation lengths.

A semigroup is symmetric here when members and non-members pair off exactly
under x <-> (least member + Frobenius) - x, and pseudo-symmetric when the
same holds with the midpoint exempt.  Each classifier computes the window
pairing and the equivalent Apery-set pairing and refuses to answer if they
disagree.  The genus identity implied by the pairing is asserted in the
forward direction only: its converse fails for some non-minimal generator
tuples, where the gap count matches by accident.

The window pairing and ``pseudo_frobenius`` read only ``membership``,
``frobenius`` and ``least_element``, so the ordinary semigroups of the
decomposition (``FiniteSemigroup``, least element 0) run on them too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalConsistencyError, PSemigroup, ValidationError
from .apery import apery_set
from .enumeration import _positive_apery, gaps


@dataclass(frozen=True)
class ClassificationReport:
    """Symmetry flags plus the data they are decided from."""

    symmetric: bool
    pseudo_symmetric: bool
    completely_symmetric: bool
    irreducible: bool
    pseudo_frobenius_numbers: tuple[int, ...]
    type_number: int
    midpoint: int | None
    midpoint_is_member: bool | None
    valuation: tuple[int, int, int] | None


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _pairs_exactly_one(membership: bytes, total: int, skip_mid: bool) -> bool:
    """Exactly one of x and total - x is a member, for 0 <= x <= total.

    ``membership`` tabulates 0..len - 1; every integer past it is a member.
    A self-paired midpoint always fails unless ``skip_mid`` exempts it.
    """
    if total % 2 == 0 and not skip_mid:
        return False
    window = membership[: total + 1].ljust(total + 1, b"\x01")
    half = (total + 1) // 2
    return window[:half].translate(_FLIP) == window[::-1][:half]


def is_p_symmetric(semigroup: PSemigroup) -> bool:
    """Members and non-members pair off exactly under x -> total - x."""
    total = semigroup.frobenius + semigroup.least_element
    pairing = _pairs_exactly_one(semigroup.membership, total, skip_mid=False)
    ordered = sorted(apery_set(semigroup))
    a = len(ordered)
    apery_pairing = all(
        ordered[i] + ordered[a - 1 - i] == total + a for i in range(a)
    )
    if pairing != apery_pairing:
        raise InternalConsistencyError(
            f"symmetry window pairing ({pairing}) and Apery pairing "
            f"({apery_pairing}) disagree for gens={semigroup.gens.elements} "
            f"p={semigroup.p}"
        )
    if pairing and 2 * semigroup.gap_count != total + 1:
        raise InternalConsistencyError(
            f"symmetric pairing holds but gap count {semigroup.gap_count} != "
            f"({total}+1)/2 for gens={semigroup.gens.elements} p={semigroup.p}"
        )
    return pairing


def is_p_pseudo_symmetric(semigroup: PSemigroup) -> bool:
    """Same pairing with the (integral) midpoint exempt."""
    total = semigroup.frobenius + semigroup.least_element
    if total % 2 != 0:
        return False
    mid = total // 2
    mid_member = semigroup.contains(mid)
    pairing = _pairs_exactly_one(semigroup.membership, total, skip_mid=True)
    by = apery_set(semigroup)
    a = len(by)
    expected_mid = total + (0 if mid_member else 2 * a)
    apery_pairing = 2 * by[mid % a] == expected_mid and all(
        by[(mid + j) % a] + by[(mid - j) % a] == total + a for j in range(1, a)
    )
    if pairing != apery_pairing:
        raise InternalConsistencyError(
            f"pseudo-symmetry window pairing ({pairing}) and Apery pairing "
            f"({apery_pairing}) disagree for gens={semigroup.gens.elements} "
            f"p={semigroup.p}"
        )
    if pairing:
        expected_genus = mid + (0 if mid_member else 1)
        if semigroup.gap_count != expected_genus:
            raise InternalConsistencyError(
                f"pseudo-symmetric pairing holds but gap count "
                f"{semigroup.gap_count} != {expected_genus} for "
                f"gens={semigroup.gens.elements} p={semigroup.p}"
            )
    return pairing


def is_p_completely_symmetric(semigroup: PSemigroup) -> bool:
    """Symmetric with no gaps above the least member."""
    return (
        is_p_symmetric(semigroup)
        and semigroup.least_element == semigroup.frobenius + 1
    )


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


def classify(semigroup: PSemigroup) -> ClassificationReport:
    """Full symmetry classification with cross-validated ingredients.

    Pseudo-Frobenius numbers come from the Apery maximals, which only scan
    min(gens) elements; the quadratic definitional search stays available as
    ``pseudo_frobenius`` and is cross-checked in the verification paths.
    """
    symmetric = is_p_symmetric(semigroup)
    pseudo = is_p_pseudo_symmetric(semigroup)
    if symmetric and pseudo:
        raise InternalConsistencyError(
            "classified as both symmetric and pseudo-symmetric "
            f"(gens={semigroup.gens.elements} p={semigroup.p})"
        )
    total = semigroup.frobenius + semigroup.least_element
    midpoint = total // 2 if total % 2 == 0 else None
    midpoint_is_member = (
        semigroup.contains(midpoint) if midpoint is not None else None
    )
    pf = tuple(pf_via_apery_maximals(semigroup))
    valuation = valuation_lengths(semigroup) if semigroup.p >= 1 else None
    return ClassificationReport(
        symmetric=symmetric,
        pseudo_symmetric=pseudo,
        completely_symmetric=symmetric
        and semigroup.least_element == semigroup.frobenius + 1,
        irreducible=symmetric or pseudo,
        pseudo_frobenius_numbers=pf,
        type_number=len(pf),
        midpoint=midpoint,
        midpoint_is_member=midpoint_is_member,
        valuation=valuation,
    )
