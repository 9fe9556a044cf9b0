"""Acceptance suite: every criterion is exact; one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; each criterion is a separate test so the verbose listing doubles as
the pass/fail report.
"""

import random
from math import gcd
from operator import add

from psemigroups import (
    FiniteSemigroup,
    apery_set,
    arith_hilbert_closed,
    arith_invariants,
    bernoulli,
    denumerant_oracle,
    denumerant_table,
    frobenius_from_apery,
    gap_power_sums,
    gaps,
    gaps_series,
    gcd_reduce,
    hilbert_direct,
    hilbert_from_apery,
    intersect,
    irreducible_decomposition,
    is_irreducible_classic,
    is_p_completely_symmetric,
    is_p_pseudo_symmetric,
    is_p_symmetric,
    minimal_generators,
    pf_via_apery_maximals,
    pf_via_gap_maximals,
    power_sum,
    pseudo_frobenius,
    two_var_invariants,
    two_var_membership,
    valuation_lengths,
    validate_generators,
    verify_decomposition,
)

REGRESSION_TUPLES = [
    ((3, 10, 17), (0, 1, 2, 3, 4, 19)),
    ((4, 5, 6), (0, 8)),
    ((6, 17, 28), (0, 5)),
    ((3, 7, 11), (0, 1, 2, 3, 4, 5)),
    ((6, 7, 17, 28), (12, 15, 17)),
    ((17, 20, 30), (3,)),
    ((5, 9, 16), (2,)),
    ((2, 3), (0, 1, 2)),
    ((2, 5, 7), (0, 3)),
]


def _coprime_pairs(limit):
    return [
        (a, b)
        for a in range(2, limit + 1)
        for b in range(a + 1, limit + 1)
        if gcd(a, b) == 1
    ]


def _members_upto(S, n):
    return [k for k in range(n + 1) if S.contains(k)]


def test_criterion_1_paper_example_regression(build, lift_invariants):
    # S_p listings for {3, 10, 17}, p = 0..4
    listings = {
        0: ([3, 6, 9, 10, 12, 13], 15),
        1: ([20, 23, 26, 27, 29, 30], 32),
        2: ([30, 33, 36, 37, 39, 40], 42),
        3: ([40, 43, 46, 47], 49),
        4: ([50, 53, 54, 56, 57], 59),
    }
    for p, (head, arrow) in listings.items():
        S = build((3, 10, 17), p)
        assert [n for n in range(1, arrow) if S.contains(n)] == head
        assert all(S.contains(n) for n in range(arrow, arrow + 200))
        assert S.contains(0) == (p == 0)
    S19 = build((3, 10, 17), 19)
    assert gaps(S19) == list(range(127))
    assert is_p_completely_symmetric(S19)

    # canonical minimal generating set of the p = 4 semigroup
    assert minimal_generators(build((3, 10, 17), 4)) == (
        [50, 53, 54, 56, 57] + list(range(59, 100)) + [101, 102, 105]
    )

    # {4, 5, 6} at p = 8
    S8 = build((4, 5, 6), 8)
    ap8 = apery_set(S8)
    assert tuple(sorted(ap8)) == (36, 38, 41, 43)
    assert frobenius_from_apery(ap8) == 39
    assert is_p_symmetric(S8)
    low = tuple(sorted(ap8))
    assert low[0] + low[3] == low[1] + low[2] == 79

    # {6, 17, 28} at p = 5
    S5 = build((6, 17, 28), 5)
    assert pseudo_frobenius(S5) == [163, 179]
    assert len(pseudo_frobenius(S5)) == 2
    assert tuple(sorted(apery_set(S5))) == (130, 147, 152, 168, 169, 185)
    assert not is_p_symmetric(S5) and not is_p_pseudo_symmetric(S5)

    # {17, 20, 30} at p = 3: gcd reduction and direct enumeration agree
    reduction = gcd_reduce(validate_generators([17, 20, 30]))
    assert (reduction.a1, reduction.d) == (17, 10)
    reduced = build(tuple(reduction.reduced.elements), 3)
    reduced_gaps = gaps(reduced)
    assert (len(reduced_gaps), sum(reduced_gaps)) == (17, 136)
    lifted = lift_invariants(
        reduction, reduced.frobenius, len(reduced_gaps), sum(reduced_gaps)
    )
    direct = build((17, 20, 30), 3)
    assert lifted[2] == sum(gaps(direct)) == 30349

    # {3, 7, 11}: pseudo-symmetric exactly at 0, 3, 4, 5; symmetric at 1, 2
    flags = {
        p: (
            is_p_symmetric(build((3, 7, 11), p)),
            is_p_pseudo_symmetric(build((3, 7, 11), p)),
        )
        for p in range(6)
    }
    assert [p for p, (s, _) in flags.items() if s] == [1, 2]
    assert [p for p, (_, q) in flags.items() if q] == [0, 3, 4, 5]

    # {6, 7, 17, 28}: symmetric at 15, pseudo-symmetric at 12 and 17
    assert is_p_symmetric(build((6, 7, 17, 28), 15))
    S12 = build((6, 7, 17, 28), 12)
    S17 = build((6, 7, 17, 28), 17)
    assert is_p_pseudo_symmetric(S12) and S12.gap_count == 87
    assert is_p_pseudo_symmetric(S17) and S17.gap_count == 100
    assert apery_set(S12) == (90, 91, 86, 87, 94, 89)
    assert apery_set(S17) == (102, 97, 98, 105, 106, 107)

    # {5, 9, 16} at p = 2: listing, decomposition, and the printed pair
    S2 = build((5, 9, 16), 2)
    assert _members_upto(S2, 49) == [41, 45, 46, 48]
    assert all(S2.contains(n) for n in range(50, 200))
    T = FiniteSemigroup.from_psemigroup(S2)
    components = irreducible_decomposition(T)
    assert len(components) >= 2
    assert all(is_irreducible_classic(C) for C in components)
    assert all(intersect([T, C]) == T for C in components)
    assert intersect(components) == T
    printed_pair = [
        FiniteSemigroup.from_table(
            bytes(
                1 if (n == 0 or n in members) else 0 for n in range(120)
            )
        )
        for members in (
            set([41, 43, 45, 46, 48]) | set(range(50, 120)),
            set([41, 45, 46, 47, 48]) | set(range(50, 120)),
        )
    ]
    assert verify_decomposition(T, printed_pair)
    print("ACCEPTANCE 1 paper-example regression: PASS")


def test_criterion_2_closed_forms_vs_enumeration(build):
    pairs = _coprime_pairs(12)
    for a, b in pairs:
        for p in range(6):
            S = build((a, b), p)
            gap_list = gaps(S)
            assert two_var_invariants(a, b, p) == (
                S.frobenius,
                len(gap_list),
                sum(gap_list),
            )
            for n in range(S.frontier + 1):
                assert two_var_membership(n, a, b, p) == S.contains(n)
            # two-generator semigroups are symmetric at every threshold
            assert is_p_symmetric(S)
    for a in range(3, 13):
        for d in range(1, 8):
            if gcd(a, d) != 1:
                continue
            for p in range(a // 2 + 1):
                S = build((a, a + d, a + 2 * d), p)
                assert arith_invariants(a, d, p) == (
                    S.frobenius,
                    S.gap_count,
                    S.least_element,
                )
    for a in (4, 6, 8, 10, 12):
        for d in range(1, 8):
            if gcd(a, d) != 1:
                continue
            assert is_p_symmetric(build((a, a + d, a + 2 * d), a // 2 - 1))
    print("ACCEPTANCE 2 closed forms vs enumeration: PASS")


def test_criterion_3_oracle_equivalence():
    corpus = [
        (2, 5, 7),
        (3, 10, 17),
        (4, 5, 6),
        (6, 17, 28),
        (3, 7, 11),
        (5, 9, 16),
        (17, 20, 30),
        (2, 3),
        (9, 11, 13),
        (5, 11, 13),
    ]
    assert len(corpus) == 10
    for tup in corpus:
        gens = validate_generators(list(tup))
        table = denumerant_table(gens, 500)
        for n in range(501):
            assert table[n] == denumerant_oracle(gens, n)
    special = denumerant_table(validate_generators([2, 5, 7]), 43)
    assert special[42] == 18
    assert special[43] == 17
    print("ACCEPTANCE 3 oracle equivalence: PASS")


def test_criterion_4_apery_formula_consistency(build):
    from fractions import Fraction

    assert bernoulli(1) == Fraction(-1, 2)
    for tup, ps in REGRESSION_TUPLES:
        for p in ps:
            S = build(tup, p)
            ap = apery_set(S)
            gap_list = gaps(S)
            assert frobenius_from_apery(ap) == (gap_list[-1] if gap_list else -1)
            assert gap_power_sums(ap, 1) == [len(gap_list), sum(gap_list)]
            for mu in (1, 2, 3):
                assert power_sum(S, mu) == sum(n**mu for n in gap_list)
            # mu = 1 reduction pins the Bernoulli convention
            assert power_sum(S, 1) == gap_power_sums(ap, 1)[1]
    print("ACCEPTANCE 4 Apery formula consistency: PASS")


def test_criterion_5_hilbert(build):
    for tup, ps in REGRESSION_TUPLES:
        for p in ps:
            S = build(tup, p)
            n = 3 * (S.frobenius + 1)
            direct = hilbert_direct(S, n)
            assert hilbert_from_apery(apery_set(S), n) == direct
            psi = gaps_series(S, n)
            assert list(map(add, direct.coefficients, psi.coefficients)) == [1] * (n + 1)
    for a in range(3, 10):
        for d in range(1, 6):
            if gcd(a, d) != 1:
                continue
            for p in range(a // 2 + 1):
                S = build((a, a + d, a + 2 * d), p)
                assert arith_hilbert_closed(a, d, p, 250) == hilbert_direct(S, 250)
    print("ACCEPTANCE 5 Hilbert series: PASS")


def test_criterion_6_structural_invariants(build):
    rng = random.Random(5)
    for tup, ps in REGRESSION_TUPLES:
        gens = validate_generators(list(tup))
        table = denumerant_table(gens, 300)
        for a in gens.elements:
            for n in range(300 - a + 1):
                assert table[n + a] >= table[n]
        previous = None
        for p in range(6):
            S = build(tup, p)
            gap_set = set(gaps(S))
            if previous is not None:
                assert previous <= gap_set
            previous = gap_set
            assert 2 * S.gap_count >= S.frobenius + 1
        for p in ps:
            S = build(tup, p)

            def in_monoid(n):
                return n == 0 or S.contains(n)

            hi = S.frontier + 2 * S.gens.least
            members = [n for n in range(hi + 1) if in_monoid(n)]
            for _ in range(100):
                assert in_monoid(rng.choice(members) + rng.choice(members))
            expected_pf = pseudo_frobenius(S)
            assert pf_via_gap_maximals(S) == expected_pf
            assert pf_via_apery_maximals(S) == expected_pf
            if p >= 1:
                d1, d2, d3 = valuation_lengths(S)
                total = S.frobenius + S.least_element
                assert d3 == total + 1 - S.gap_count
                assert d1 == d3 + 1 and d2 == total + 1
                if is_p_symmetric(S):
                    assert 2 * d3 == total + 1
                if is_p_pseudo_symmetric(S):
                    if S.contains(total // 2):
                        assert 2 * d3 == total + 2
                    else:
                        assert 2 * d3 == total
    print("ACCEPTANCE 6 structural invariants: PASS")
