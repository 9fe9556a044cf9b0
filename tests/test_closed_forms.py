from math import gcd

import pytest

from psemigroups import (
    GcdNotOneError,
    OutOfValidityRangeError,
    ValidationError,
    arith_invariants,
    gaps,
    gcd_reduce,
    is_p_symmetric,
    lift_invariants,
    two_var_invariants,
    two_var_membership,
    validate_generators,
)


def test_two_var_examples():
    assert two_var_invariants(2, 3, 0) == (1, 1, 1)
    assert two_var_invariants(3, 5, 1) == (22, 19, 179)
    frob, genus, _ = two_var_invariants(2, 7, 4)
    assert (frob, genus) == (61, 59)


def test_two_var_validation():
    with pytest.raises(GcdNotOneError):
        two_var_invariants(4, 6, 0)
    with pytest.raises(ValidationError):
        two_var_invariants(3, 2, 0)
    with pytest.raises(ValidationError):
        two_var_invariants(1, 5, 0)


def test_two_var_against_enumeration(build):
    for a in range(2, 9):
        for b in range(a + 1, 9):
            if gcd(a, b) != 1:
                continue
            for p in range(4):
                S = build((a, b), p)
                gap_list = gaps(S)
                assert two_var_invariants(a, b, p) == (
                    S.frobenius,
                    len(gap_list),
                    sum(gap_list),
                )
                assert S.least_element == p * a * b


def test_two_var_membership_anchors():
    for a, b in [(2, 3), (3, 5), (4, 7), (5, 9)]:
        for p in range(4):
            assert two_var_membership(p * a * b, a, b, p)
            assert not two_var_membership((p + 1) * a * b - a - b, a, b, p)
    assert two_var_membership(43, 3, 5, 1)
    assert not two_var_membership(-4, 3, 5, 0)


def test_two_var_membership_matches_enumeration(build):
    for a, b, p in [(3, 5, 1), (2, 7, 3), (5, 8, 2)]:
        S = build((a, b), p)
        for n in range(S.frontier + 10):
            assert two_var_membership(n, a, b, p) == S.contains(n)


def test_gcd_reduce_examples():
    red = gcd_reduce(validate_generators([17, 20, 30]))
    assert (red.a1, red.d) == (17, 10)
    assert red.reduced.elements == (2, 3, 17)
    identity = gcd_reduce(validate_generators([3, 10, 17]))
    assert (identity.a1, identity.d) == (3, 1)
    assert identity.reduced.elements == (3, 10, 17)


def test_gcd_reduce_two_generators():
    red = gcd_reduce(validate_generators([5, 7]))
    assert (red.a1, red.d) == (5, 7)
    assert red.reduced.elements == (1, 5)


def test_gcd_reduce_skips_colliding_candidate():
    # reducing at 3 would give the multiset {3, 3, 5}; the next generator is
    # used instead (identity reduction, d = 1)
    red = gcd_reduce(validate_generators([3, 6, 10]))
    assert (red.a1, red.d) == (6, 1)
    assert red.reduced.elements == (3, 6, 10)


def test_lift_paper_example(build):
    red = gcd_reduce(validate_generators([17, 20, 30]))
    reduced_S = build((2, 3, 17), 3)
    reduced_gaps = gaps(reduced_S)
    assert (len(reduced_gaps), sum(reduced_gaps)) == (17, 136)
    lifted = lift_invariants(
        red, reduced_S.frobenius, len(reduced_gaps), sum(reduced_gaps)
    )
    direct = build((17, 20, 30), 3)
    direct_gaps = gaps(direct)
    assert lifted == (direct.frobenius, len(direct_gaps), sum(direct_gaps))
    assert lifted[2] == 30349


def test_lift_two_generator_family(build):
    # reducing (a, b) at a leaves threshold runs over {1, a}: frobenius
    # a*p - 1 and genus a*p
    for a, b in [(3, 5), (4, 7), (5, 9)]:
        red = gcd_reduce(validate_generators([a, b]))
        assert (red.a1, red.d) == (a, b)
        for p in range(4):
            S = build((1, a), p)
            assert S.frobenius == a * p - 1
            assert S.gap_count == a * p
            lifted = lift_invariants(red, S.frobenius, S.gap_count, sum(gaps(S)))
            assert lifted == two_var_invariants(a, b, p)


def test_arith_examples(build):
    frob, genus, least = arith_invariants(4, 1, 1)
    assert frob == 13
    S = build((4, 5, 6), 1)
    assert (frob, genus, least) == (S.frobenius, S.gap_count, S.least_element)
    frob0, genus0, least0 = arith_invariants(3, 1, 0)
    S0 = build((3, 4, 5), 0)
    assert (frob0, genus0, least0) == (S0.frobenius, S0.gap_count, S0.least_element)


def test_arith_validation():
    with pytest.raises(OutOfValidityRangeError):
        arith_invariants(5, 2, 3)
    with pytest.raises(GcdNotOneError):
        arith_invariants(4, 2, 1)
    with pytest.raises(ValidationError):
        arith_invariants(2, 1, 0)


def test_arith_least_element_second_family():
    # even a: the second Apery family can undercut 2p(a+d)
    assert arith_invariants(6, 1, 3)[2] == 36
    assert arith_invariants(12, 7, 6)[2] == 216


def test_arith_grid_small(build):
    for a in range(3, 9):
        for d in range(1, 5):
            if gcd(a, d) != 1:
                continue
            for p in range(a // 2 + 1):
                S = build((a, a + d, a + 2 * d), p)
                assert arith_invariants(a, d, p) == (
                    S.frobenius,
                    S.gap_count,
                    S.least_element,
                )


def test_theorem2_symmetry_at_half(build):
    for a in (4, 6, 8, 10, 12):
        for d in (1, 3, 5, 7):
            if gcd(a, d) != 1:
                continue
            assert is_p_symmetric(build((a, a + d, a + 2 * d), a // 2 - 1))
