import random
from fractions import Fraction
from math import gcd

import pytest

from psemigroups import (
    GcdNotOneError,
    OutOfValidityRangeError,
    ValidationError,
    apery_set,
    arith_invariants,
    gaps,
    gcd_reduce,
    is_p_symmetric,
    two_var_invariants,
    two_var_membership,
    validate_generators,
)
from psemigroups.closed_forms import _two_var_apery
from psemigroups.core import _least_per_class

TWO_VAR_GRID = [
    (a, b, p)
    for a in range(2, 20)
    for b in range(a + 1, 45)
    if gcd(a, b) == 1
    for p in range(7)
]
# the grid on which ``test_hilbert`` checks ``_arith_apery`` against the build
ARITH_GRID = [
    (a, d, p)
    for a in range(3, 20)
    for d in range(1, 15)
    if gcd(a, d) == 1
    for p in range(a // 2 + 1)
]


def _lift_tuples(per_size: int) -> list[tuple[int, ...]]:
    """``per_size`` tuples each of 2, 3 and 4 generators below 60 whose gcd
    reduction is not the identity, (17, 20, 30) among them."""
    rng = random.Random(1960)
    found = {(17, 20, 30)}
    for size in (2, 3, 4):
        while sum(len(gens) == size for gens in found) < per_size:
            gens = tuple(sorted(rng.sample(range(2, 60), size)))
            if gcd(*gens) == 1 and gcd_reduce(validate_generators(gens)).d > 1:
                found.add(gens)
    return sorted(found)


LIFT_GRID = [(gens, p) for gens in _lift_tuples(300) for p in range(5)]


def _integral(value: Fraction) -> int:
    assert value.denominator == 1
    return int(value)


def _paper_two_var(a: int, b: int, p: int) -> tuple[int, int, int]:
    """The paper's (frobenius, genus, sylvester_sum) for two coprime generators."""
    frob = (p + 1) * a * b - a - b
    genus = p * a * b + _integral(Fraction((a - 1) * (b - 1), 2))
    sylvester = _integral(
        Fraction(p * p * a * a * b * b, 2)
        + Fraction(p * (a * b - a - b) * a * b, 2)
        + Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12)
    )
    return frob, genus, sylvester


def _paper_arith(a: int, d: int, p: int) -> tuple[int, int]:
    """The paper's (frobenius, genus) for (a, a+d, a+2d), 0 <= p <= a // 2; the
    genus numerator gains 1 for even a."""
    frob = (a + 2 * d) * p + ((a - 2) // 2) * a + (a - 1) * d
    genus = (2 * a + 2 * d - 1 - p) * p + _integral(
        Fraction((a - 1) * (a + 2 * d - 1) + 1 - a % 2, 4)
    )
    return frob, genus


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
    gens = validate_generators([3, 10, 17])
    identity = gcd_reduce(gens)
    assert (identity.a1, identity.d) == (3, 1)
    assert identity.reduced is gens
    # d = 1 keeps the input tuple, its minimal flag included
    redundant = validate_generators([3, 5, 8])
    assert not redundant.minimal
    assert gcd_reduce(redundant) == (3, 1, redundant)
    assert gcd_reduce(redundant).reduced is redundant
    # at a1 = 3 the quotient 6 / gcd(6, 8) is 3 itself, so d = 1 comes at a1 = 6
    later = validate_generators([3, 6, 8])
    assert gcd_reduce(later) == (6, 1, later)
    assert gcd_reduce(later).reduced is later


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


def test_lift_paper_example(build, lift_invariants):
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


def test_lift_two_generator_family(build, lift_invariants):
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


def test_two_var_apery_is_the_built_tuple(build):
    assert len(TWO_VAR_GRID) == 2618
    for a, b, p in TWO_VAR_GRID:
        assert _two_var_apery(a, b, p) == apery_set(build((a, b), p))


def test_lift_scales_the_reduced_apery_set(build, lift_invariants):
    """Ap(S, a1) = d * Ap(T, a1) against both builds, and the paper's scalar
    lift of (F, genus, Sylvester sum) with it."""
    assert len(LIFT_GRID) == 4500
    reductions = {gens: gcd_reduce(validate_generators(gens)) for gens, _ in LIFT_GRID}
    # a1 is not always the least generator of either tuple: (17, 20, 30) -> (2, 3, 17)
    assert any(r.a1 != r.reduced.least for r in reductions.values())
    assert any(r.a1 != gens[0] for gens, r in reductions.items())
    for gens, p in LIFT_GRID:
        red = reductions[gens]
        S, T = build(gens, p), build(red.reduced.elements, p)
        lifted = sorted(red.d * w for w in _least_per_class(T.membership, red.a1))
        assert lifted == sorted(_least_per_class(S.membership, red.a1))
        scalars = [(R.frobenius, R.gap_count, sum(gaps(R))) for R in (S, T)]
        assert lift_invariants(red, *scalars[1]) == scalars[0]


def test_paper_formulas_pin_two_var_invariants():
    for a, b, p in TWO_VAR_GRID:
        assert two_var_invariants(a, b, p) == _paper_two_var(a, b, p)


def test_paper_formulas_pin_arith_invariants():
    for a, d, p in ARITH_GRID:
        assert arith_invariants(a, d, p)[:2] == _paper_arith(a, d, p)
