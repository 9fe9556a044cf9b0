from math import gcd
from operator import add

import pytest

from psemigroups import (
    OutOfValidityRangeError,
    apery_set,
    arith_hilbert_closed,
    gaps,
    gaps_series,
    hilbert_direct,
    hilbert_from_apery,
    power_sum,
)
from psemigroups.closed_forms import _arith_apery

REGRESSION = [
    ((3, 10, 17), (0, 1, 4)),
    ((4, 5, 6), (0, 8)),
    ((6, 17, 28), (0, 5)),
    ((3, 7, 11), (4, 5)),
    ((17, 20, 30), (3,)),
    ((2, 3), (0, 2)),
]

ARITH_GRID = [
    (a, d, p)
    for a in range(3, 20)
    for d in range(1, 15)
    if gcd(a, d) == 1
    for p in range(a // 2 + 1)
]


def test_hilbert_direct_examples(build):
    assert hilbert_direct(build((2, 3), 0), 4).coefficients == bytes((1, 0, 1, 1, 1))
    series = hilbert_direct(build((3, 10, 17), 1), 32)
    assert [n for n, c in enumerate(series.coefficients) if c] == [
        20, 23, 26, 27, 29, 30, 32,
    ]
    series = hilbert_direct(build((4, 5, 6), 8), 41)
    assert [n for n, c in enumerate(series.coefficients) if c] == [36, 38, 40, 41]


def test_hilbert_from_apery_examples(build):
    S = build((2, 3), 0)
    assert hilbert_from_apery(apery_set(S), 4).coefficients == bytes((1, 0, 1, 1, 1))
    S = build((6, 17, 28), 5)
    assert hilbert_from_apery(apery_set(S), 400) == hilbert_direct(S, 400)


def test_gaps_series_examples(build):
    series = gaps_series(build((3, 7, 11), 4), 37)
    assert [n for n, c in enumerate(series.coefficients) if c] == list(range(35)) + [37]
    assert gaps_series(build((3, 10, 17), 19), 126).coefficients == bytes((1,) * 127)


def test_partition_identity(build):
    for tup, ps in REGRESSION:
        for p in ps:
            S = build(tup, p)
            n = 2 * (S.frobenius + 2)
            member = hilbert_direct(S, n)
            gap = gaps_series(S, n)
            assert list(map(add, member.coefficients, gap.coefficients)) == [1] * (n + 1)


def test_apery_factorization_full_regression(build):
    for tup, ps in REGRESSION:
        for p in ps:
            S = build(tup, p)
            n = 3 * (S.frobenius + 1)
            assert hilbert_from_apery(apery_set(S), n) == hilbert_direct(S, n)


def test_series_sums_match_invariants(build):
    for tup, ps in REGRESSION:
        for p in ps:
            S = build(tup, p)
            n = S.frobenius + 1
            gap = gaps_series(S, n)
            weighted = sum(e * c for e, c in enumerate(gap.coefficients))
            assert sum(gap.coefficients) == S.gap_count
            assert weighted == sum(gaps(S))
            assert weighted == power_sum(S, 1)


def test_arith_hilbert_examples(build):
    cases = [(3, 1, 0, 50), (4, 3, 2, 200), (5, 2, 2, 200)]
    for a, d, p, n in cases:
        S = build((a, a + d, a + 2 * d), p)
        assert arith_hilbert_closed(a, d, p, n) == hilbert_direct(S, n)


def test_arith_hilbert_grid_small(build):
    for a in range(3, 8):
        for d in range(1, 4):
            if gcd(a, d) != 1:
                continue
            for p in range(a // 2 + 1):
                S = build((a, a + d, a + 2 * d), p)
                assert arith_hilbert_closed(a, d, p, 160) == hilbert_direct(S, 160)


def test_arith_hilbert_validation():
    with pytest.raises(OutOfValidityRangeError):
        arith_hilbert_closed(5, 2, 3, 100)


def test_arith_apery_families_are_the_enumerated_apery_set(build):
    assert len(ARITH_GRID) == 961
    for a, d, p in ARITH_GRID:
        assert _arith_apery(a, d, p) == apery_set(build((a, a + d, a + 2 * d), p))
