from fractions import Fraction
from functools import reduce
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psemigroups import (
    NonIntegerResultError,
    ValidationError,
    apery_set,
    bernoulli,
    build_psemigroup,
    frobenius_from_apery,
    gap_power_sums,
    gaps,
    hilbert_direct,
    hilbert_from_apery,
    power_sum,
    validate_generators,
)
from psemigroups.cli import MU_LIMIT
from psemigroups.core import _least_per_class

CORPUS = [
    ((3, 10, 17), (0, 1, 2, 4)),
    ((4, 5, 6), (0, 3, 8)),
    ((6, 17, 28), (0, 2, 5)),
    ((3, 7, 11), (0, 4, 5)),
    ((17, 20, 30), (3,)),
    ((2, 3), (0, 1, 4)),
    ((6, 7, 17, 28), (12, 17)),
]


def test_apery_paper_examples(build):
    assert apery_set(build((4, 5, 6), 8)) == (36, 41, 38, 43)
    assert apery_set(build((6, 17, 28), 5)) == (168, 169, 152, 147, 130, 185)
    assert apery_set(build((2, 3), 0)) == (0, 3)
    assert apery_set(build((6, 7, 17, 28), 12)) == (90, 91, 86, 87, 94, 89)
    assert apery_set(build((6, 7, 17, 28), 17)) == (102, 97, 98, 105, 106, 107)


def test_apery_defining_conditions(build):
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            assert apery_set(S) == _least_per_class(S.membership, tup[0])
            for a in tup:
                ap = _least_per_class(S.membership, a)
                assert len(set(m % a for m in ap)) == a
                for j, m in enumerate(ap):
                    assert m % a == j
                    assert S.contains(m)
                    assert not S.contains(m - a)


def test_apery_formulas_hold_for_every_generator_modulus(build):
    # Each residue class modulo any generator a is its Apery element plus the
    # multiples of a, so every formula reads the tuple modulo a as well.
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            gap_list = gaps(S)
            n = 2 * (S.frobenius + 1) + tup[-1]  # past every Apery element
            for a in tup:
                ap = _least_per_class(S.membership, a)
                assert frobenius_from_apery(ap) == S.frobenius
                assert gap_power_sums(ap, 1) == [len(gap_list), sum(gap_list)]
                assert hilbert_from_apery(ap, n) == hilbert_direct(S, n)
                assert gap_power_sums(ap, 3) == [sum(g**mu for g in gap_list) for mu in range(4)]


def test_frobenius_examples(build):
    assert frobenius_from_apery(apery_set(build((4, 5, 6), 8))) == 39
    assert frobenius_from_apery(apery_set(build((3, 10, 17), 1))) == 31
    assert frobenius_from_apery(apery_set(build((2, 3), 0))) == 1


def test_genus_examples(build):
    assert gap_power_sums(apery_set(build((4, 5, 6), 8)), 0) == [38]
    assert gap_power_sums(apery_set(build((6, 17, 28), 5)), 0) == [156]
    assert gap_power_sums(apery_set(build((6, 7, 17, 28), 17)), 0) == [100]


def test_sylvester_examples(build):
    assert gap_power_sums(apery_set(build((17, 20, 30), 3)), 1)[1] == 30349
    assert gap_power_sums(apery_set(build((2, 3, 17), 3)), 1)[1] == 136
    assert gap_power_sums(apery_set(build((2, 3), 0)), 1)[1] == 1


def test_power_sum_examples(build):
    assert power_sum(build((17, 20, 30), 3), 1) == 30349
    S = build((3, 10, 17), 2)
    assert power_sum(S, 2) == sum(n * n for n in gaps(S))


def test_power_sum_rejects_bad_mu(build):
    with pytest.raises(ValidationError):
        power_sum(build((2, 3), 0), 0)


def test_apery_formulas_match_gaps_everywhere(build):
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            ap = apery_set(S)
            gap_list = gaps(S)
            assert frobenius_from_apery(ap) == (gap_list[-1] if gap_list else -1)
            assert gap_power_sums(ap, 1) == [len(gap_list), sum(gap_list)]
            for mu in (1, 2, 3):
                assert power_sum(S, mu) == sum(n**mu for n in gap_list)


def test_gap_power_sums_reject_a_tuple_that_is_no_apery_set():
    # (0, 2) modulo 2 would give genus 2/2 - 1/2 = 1/2
    with pytest.raises(NonIntegerResultError, match="mu=0"):
        gap_power_sums((0, 2), 1)


def test_power_sum_mu1_is_sylvester(build):
    for tup, ps in CORPUS:
        for p in ps:
            S = build(tup, p)
            assert power_sum(S, 1) == gap_power_sums(apery_set(S), 1)[1]


def test_bernoulli_values():
    bernoulli.cache_clear()
    top = bernoulli(120)  # the highest index first, on an empty memo
    numbers = [bernoulli(j) for j in range(120)] + [top]
    for m in range(1, 121):
        assert sum(comb(m + 1, j) * numbers[j] for j in range(m + 1)) == 0
    assert all(numbers[n] == 0 for n in range(3, 121, 2))
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    for _ in range(2):
        with pytest.raises(ValidationError):
            bernoulli(-1)


gen_lists = (
    st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=4)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1)
)


@settings(max_examples=25, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=5))
def test_apery_random_consistency(raw, p):
    gens = validate_generators(raw)
    S = build_psemigroup(gens, p)
    ap = apery_set(S)
    a = len(ap)
    assert sorted(m % a for m in ap) == list(range(a))
    for j, m in enumerate(ap):
        assert m % a == j and S.contains(m) and not S.contains(m - a)
    gap_list = gaps(S)
    assert frobenius_from_apery(ap) == (gap_list[-1] if gap_list else -1)
    assert gap_power_sums(ap, 1) == [len(gap_list), sum(gap_list)]
    assert power_sum(S, 2) == sum(n * n for n in gap_list)


@settings(max_examples=25, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=8))
@example([90, 150, 211, 269], 2, MU_LIMIT)
@example([1, 2], 0, MU_LIMIT)  # no gap: every sum is 0
@example([2, 3], 0, 0)
def test_gap_power_sums_match_the_gap_powers(raw, p, mu):
    """Every entry of the running-product expansion, up to the CLI's largest mu."""
    S = build_psemigroup(validate_generators(raw), p)
    gap_list = gaps(S)
    assert gap_power_sums(apery_set(S), mu) == [sum(n**m for n in gap_list) for m in range(mu + 1)]


def test_apery_gcd_scaling(build):
    # With every non-distinguished generator divisible by d, the Apery set
    # is d times the Apery set of the reduced alphabet.
    for original, reduced, a1, d, ps in [
        ((17, 20, 30), (2, 3, 17), 17, 10, (0, 1, 3)),
        ((6, 10, 15), (2, 3, 6), 6, 5, (0, 1, 2)),
    ]:
        for p in ps:
            big = apery_set(build(original, p))
            small = _least_per_class(build(reduced, p).membership, a1)
            assert tuple(sorted(big)) == tuple(d * m for m in sorted(small))
