import re
from dataclasses import replace
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psemigroups import (
    InternalConsistencyError,
    ValidationError,
    apery_set,
    classify,
    is_p_completely_symmetric,
    is_p_pseudo_symmetric,
    is_p_symmetric,
    minimal_generators,
    pf_via_apery_maximals,
    pf_via_gap_maximals,
    pseudo_frobenius,
    valuation_lengths,
)
from psemigroups.decompose import (
    FiniteSemigroup,
    is_irreducible_classic,
    is_irreducible_shifted,
)
from psemigroups.symmetry import _pairs_exactly_one

CORPUS = [
    ((3, 10, 17), range(0, 8)),
    ((4, 5, 6), range(0, 10)),
    ((6, 17, 28), range(0, 7)),
    ((3, 7, 11), range(0, 7)),
    ((5, 9, 16), range(0, 5)),
    ((2, 3), range(0, 5)),
    ((6, 7, 17, 28), range(0, 18)),
]

# Classification of {3, 10, 17} over p = 0..40, frozen from enumeration;
# matches the published lists including the gap at 37, 38 for complete symmetry.
SYM_31017 = [1, 2] + list(range(7, 12)) + list(range(19, 41))
PSEUDO_31017 = [0] + list(range(3, 7)) + list(range(12, 19))
COMPLETE_31017 = list(range(19, 37)) + [39, 40]


def test_symmetric_examples(build):
    assert is_p_symmetric(build((4, 5, 6), 8))
    assert is_p_symmetric(build((3, 10, 17), 1))
    assert not is_p_symmetric(build((5, 9, 16), 2))


def test_pseudo_symmetric_examples(build):
    S = build((3, 7, 11), 4)
    assert is_p_pseudo_symmetric(S)
    assert S.contains(36)  # midpoint of 72 is a member
    S17 = build((6, 7, 17, 28), 17)
    assert is_p_pseudo_symmetric(S17)
    assert not S17.contains(99)  # midpoint of 198 is a gap
    assert S17.gap_count == 100
    assert not is_p_pseudo_symmetric(build((6, 17, 28), 5))  # odd total


def _pairs_by_loop(membership, total):
    """The window pairing by definition, one integer at a time, midpoint exempt."""

    def member(n):
        return n >= len(membership) or bool(membership[n])

    return all(
        member(x) != member(total - x)
        for x in range(total // 2 + 1)
        if 2 * x != total
    )


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=12).map(lambda raw: bytes(b & 1 for b in raw)),
    st.integers(min_value=-1, max_value=20),
)
def test_pairing_window_matches_definition(membership, total):
    assert _pairs_exactly_one(membership, total) == _pairs_by_loop(membership, total)


def test_pairing_window_of_full_monoid(build):
    assert _pairs_exactly_one(b"", -1)
    S = build((1, 2), 0)
    assert S.frobenius == -1 and is_p_symmetric(S)
    full = FiniteSemigroup.from_table(b"")
    assert full.frobenius == -1
    assert is_irreducible_classic(full) and is_irreducible_shifted(full)


@pytest.mark.parametrize(
    "gens, p, total, frontier", [((3, 5), 1, 37, 26), ((4, 5, 6), 3, 43, 28)]
)
def test_pairing_window_longer_than_table(build, gens, p, total, frontier):
    S = build(gens, p)
    assert S.frobenius + S.least_element == total
    assert len(S.membership) == S.frontier == frontier
    assert _pairs_exactly_one(S.membership, total)
    assert is_p_symmetric(S)


@pytest.mark.parametrize(
    "gens, p, mid_member", [((3, 7, 11), 4, True), ((6, 7, 17, 28), 17, False)]
)
def test_pairing_even_total_needs_exempt_midpoint(build, gens, p, mid_member):
    S = build(gens, p)
    total = S.frobenius + S.least_element
    assert total % 2 == 0 and S.contains(total // 2) == mid_member
    assert _pairs_exactly_one(S.membership, total)
    assert is_p_pseudo_symmetric(S) and not is_p_symmetric(S)


def test_completely_symmetric_examples(build):
    assert is_p_completely_symmetric(build((3, 10, 17), 19))
    assert not is_p_completely_symmetric(build((3, 10, 17), 1))
    assert not is_p_completely_symmetric(build((2, 3), 0))


def test_pf_examples(build):
    assert pseudo_frobenius(build((6, 17, 28), 5)) == [163, 179]
    assert pseudo_frobenius(build((4, 5, 6), 8)) == [39]
    assert pseudo_frobenius(build((2, 3), 0)) == [1]


def test_pf_maximals_examples(build):
    assert pf_via_gap_maximals(build((6, 17, 28), 5)) == [163, 179]
    assert pf_via_gap_maximals(build((3, 7, 11), 5)) == [40, 41]
    assert pf_via_gap_maximals(build((2, 3), 0)) == [1]
    assert pf_via_apery_maximals(build((6, 17, 28), 5)) == [163, 179]
    assert pf_via_apery_maximals(build((4, 5, 6), 8)) == [39]
    assert pf_via_apery_maximals(build((2, 3), 0)) == [1]


def test_pf_three_way_agreement(build):
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            expected = pseudo_frobenius(S)
            assert pf_via_gap_maximals(S) == expected
            assert pf_via_apery_maximals(S) == expected
            assert expected[-1] == S.frobenius


def test_symmetric_implies_type_one(build):
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            if is_p_symmetric(S):
                assert pseudo_frobenius(S) == [S.frobenius]
                assert (S.frobenius - S.least_element) % 2 == 1


def test_type_one_not_sufficient(build):
    # Type 1 with the right parity does not force symmetry: here 90 and 91
    # are both members (8 representations each) and pair to g + least.
    S = build((5, 9, 16), 7)
    assert pseudo_frobenius(S) == [92]
    assert (S.frobenius - S.least_element) % 2 == 1
    assert S.contains(90) and S.contains(91)
    assert not is_p_symmetric(S)
    assert S.gap_count == 90  # one short of the symmetric count 91


def test_pseudo_pf_shape_on_minimal_tuples(build):
    # pseudo-symmetric <=> PF is {frobenius, midpoint} with a gap midpoint,
    # or {frobenius} with a member midpoint; reliable for minimal tuples
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            if not S.gens.minimal:
                continue
            total = S.frobenius + S.least_element
            pf = pseudo_frobenius(S)
            if total % 2 != 0:
                assert not is_p_pseudo_symmetric(S)
                continue
            mid = total // 2
            if S.contains(mid):
                expected = pf == [S.frobenius]
            else:
                expected = pf == sorted({mid, S.frobenius})
            assert is_p_pseudo_symmetric(S) == expected


def test_pseudo_pf_shape_breaks_without_minimality(build):
    # the redundant generator 28 = 4 * 7 spoils the PF shape in both
    # directions: p = 17 is pseudo-symmetric with a gap midpoint yet has
    # type 1, and p = 2 has the member-midpoint shape without the pairing
    S17 = build((6, 7, 17, 28), 17)
    assert not S17.gens.minimal
    assert is_p_pseudo_symmetric(S17)
    assert not S17.contains(99)
    assert pseudo_frobenius(S17) == [101]
    S2 = build((6, 7, 17, 28), 2)
    total = S2.frobenius + S2.least_element
    assert S2.contains(total // 2)
    assert pseudo_frobenius(S2) == [S2.frobenius]
    assert not is_p_pseudo_symmetric(S2)


def test_never_both(build):
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            assert not (is_p_symmetric(S) and is_p_pseudo_symmetric(S))


def test_valuation_examples(build):
    assert valuation_lengths(build((4, 5, 6), 8)) == (39, 76, 38)
    d1, d2, d3 = valuation_lengths(build((3, 7, 11), 4))
    assert (d3, d2) == (37, 73)
    d1, d2, d3 = valuation_lengths(build((3, 7, 11), 5))
    assert (d3, d2) == (40, 81)
    with pytest.raises(ValidationError):
        valuation_lengths(build((2, 3), 0))


def test_valuation_identities(build):
    for tup, ps in CORPUS:
        for p in ps:
            if p < 1:
                continue
            S = build(tup, p)
            d1, d2, d3 = valuation_lengths(S)
            total = S.frobenius + S.least_element
            assert d1 == d3 + 1
            assert d2 == total + 1
            assert d3 == total + 1 - S.gap_count
            if is_p_symmetric(S):
                assert 2 * d3 == total + 1
            if is_p_pseudo_symmetric(S):
                mid = total // 2
                if S.contains(mid):
                    assert 2 * d3 == total + 2
                else:
                    assert 2 * d3 == total


def test_symmetric_apery_translation_pairing(build):
    # with m extended periodically by residue, indices mirrored around the
    # half-integer midpoint pair to total + modulus
    for tup, p in [((4, 5, 6), 8), ((3, 10, 17), 1), ((2, 3), 2), ((3, 7, 11), 2)]:
        S = build(tup, p)
        assert is_p_symmetric(S)
        ap = apery_set(S)
        a = len(ap)
        total = S.frobenius + S.least_element
        up, down = (total + 1) // 2, (total - 1) // 2
        for j in range(a):
            assert ap[(up + j) % a] + ap[(down - j) % a] == total + a


def test_sweep_3_10_17(build):
    symmetric, pseudo, complete = [], [], []
    for p in range(41):
        S = build((3, 10, 17), p)
        if is_p_symmetric(S):
            symmetric.append(p)
        if is_p_pseudo_symmetric(S):
            pseudo.append(p)
        if is_p_completely_symmetric(S):
            complete.append(p)
    assert symmetric == SYM_31017
    assert pseudo == PSEUDO_31017
    assert complete == COMPLETE_31017


def test_gap_free_degenerate_case(build):
    # with generator 1 and p = 0 there are no gaps at all
    S = build((1, 5), 0)
    assert S.frobenius == -1
    assert pseudo_frobenius(S) == []
    assert pf_via_gap_maximals(S) == []
    assert pf_via_apery_maximals(S) == []
    report = classify(S)
    assert report["symmetric"] and report["completely_symmetric"]


def test_classify_report(build):
    S = build((6, 17, 28), 5)
    report = classify(S)
    assert list(report) == [
        "symmetric",
        "pseudo_symmetric",
        "completely_symmetric",
        "irreducible",
        "midpoint",
        "midpoint_is_member",
    ]
    assert pf_via_apery_maximals(S) == [163, 179]
    assert not report["irreducible"]
    assert report["midpoint"] is None and report["midpoint_is_member"] is None
    report = classify(build((6, 7, 17, 28), 12))
    assert report["pseudo_symmetric"]
    assert report["midpoint"] == 87 and report["midpoint_is_member"]
    assert classify(build((2, 3), 0))["symmetric"]


def _where(S):
    return re.escape(f"gens={S.gens.elements} p={S.p}")


# odd total; even total with a member midpoint; even total with a gap midpoint
@pytest.mark.parametrize("gens, p", [((4, 5, 6), 8), ((3, 7, 11), 4), ((6, 7, 17, 28), 17)])
def test_corrupted_apery_disagrees_with_window(build, gens, p):
    S = build(gens, p)
    assert classify(S)["irreducible"]
    ap = list(S.apery)
    a = len(ap)
    # one class off by the modulus breaks the sum with its partner class
    ap[(S.frobenius + S.least_element) // 2 % a] += a
    bad = replace(S, apery=tuple(ap))
    for check in (classify, is_p_symmetric, is_p_pseudo_symmetric):
        with pytest.raises(InternalConsistencyError, match=_where(S)):
            check(bad)


# odd total; even total with a gap midpoint.  A corrupted byte reaches the
# genus check only past the pairing window, which only p = 0 tables have
# (for p >= 1 the least member is at least a1); at p = 0 a member midpoint m
# would make the Frobenius number 2m a member, so that case cannot arise.
@pytest.mark.parametrize("gens", [(2, 3), (3, 4, 5)])
def test_corrupted_membership_fails_genus_identity(build, gens):
    S = build(gens, 0)
    assert classify(S)["irreducible"]
    assert S.frontier > S.frobenius + S.least_element + 1
    bad = replace(S, membership=S.membership[:-1] + b"\x00")
    for check in (classify, is_p_symmetric, is_p_pseudo_symmetric):
        with pytest.raises(InternalConsistencyError, match="gap count.*" + _where(S)):
            check(bad)


gen_lists = (
    st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1)
)


@settings(max_examples=25, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=5))
def test_random_classification_consistency(raw, p):
    from psemigroups import build_psemigroup, validate_generators

    S = build_psemigroup(validate_generators(raw), p)
    sym = is_p_symmetric(S)
    pseudo = is_p_pseudo_symmetric(S)
    assert not (sym and pseudo)
    pf = pseudo_frobenius(S)
    assert pf == pf_via_gap_maximals(S) == pf_via_apery_maximals(S)
    if pf:
        assert pf[-1] == S.frobenius
    if sym:
        assert 2 * S.gap_count == S.frobenius + S.least_element + 1
        assert pf == [S.frobenius]
    flags = classify(S)
    total = S.frobenius + S.least_element
    pairing = _pairs_by_loop(S.membership, total)
    assert flags["irreducible"] == pairing
    assert flags["symmetric"] == sym == (pairing and total % 2 == 1)
    assert flags["pseudo_symmetric"] == pseudo == (pairing and total % 2 == 0)


def test_embedding_dimension_and_type_bounds(build):
    # for p >= 1 the adjoined-zero semigroup has embedding dimension at most
    # the least member and type at most one less
    for tup, ps in CORPUS:
        for p in ps:
            if p < 1:
                continue
            S = build(tup, p)
            least = S.least_element
            assert len(minimal_generators(S)) <= least
            classic = FiniteSemigroup.from_psemigroup(S)
            assert len(pseudo_frobenius(classic)) <= least - 1
