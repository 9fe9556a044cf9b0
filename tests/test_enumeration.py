import tracemalloc
from functools import reduce
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psemigroups import (
    TableLimitError,
    ValidationError,
    apery_set,
    build_psemigroup,
    denumerant_oracle,
    denumerant_table,
    frobenius_from_apery,
    gaps,
    genus_from_apery,
    membership_oracle,
    minimal_generators,
    minimal_generators_scan,
    validate_generators,
    valuation_lengths,
    valuation_lengths_scan,
)
from psemigroups.decompose import FiniteSemigroup, irreducible_decomposition
from psemigroups.enumeration import _count_table

T31017 = (3, 10, 17)

# Listed members before each arrow point, per threshold, for {3, 10, 17}.
LISTINGS_31017 = {
    0: ([3, 6, 9, 10, 12, 13], 15),
    1: ([20, 23, 26, 27, 29, 30], 32),
    2: ([30, 33, 36, 37, 39, 40], 42),
    3: ([40, 43, 46, 47], 49),
    4: ([50, 53, 54, 56, 57], 59),
}

MINGENS_31017_P1 = [20, 23, 26, 27, 29, 30] + list(range(32, 40)) + [
    41, 42, 44, 45, 48, 51,
]
MINGENS_31017_P4 = [50, 53, 54, 56, 57] + list(range(59, 100)) + [101, 102, 105]


def test_denumerant_counts_2_5_7():
    table = denumerant_table(validate_generators([2, 5, 7]), 60)
    assert table[0] == 1
    assert table[42] == 18
    assert table[43] == 17


def test_denumerant_3_10_17():
    table = denumerant_table(validate_generators(list(T31017)), 41)
    assert table[41] == 2


def test_oracle_values():
    gens = validate_generators([2, 5, 7])
    assert denumerant_oracle(gens, 42) == 18
    assert denumerant_oracle(gens, 43) == 17
    assert denumerant_oracle(validate_generators([4, 5, 6]), 3) == 0
    assert denumerant_oracle(gens, 0) == 1


def test_oracle_matches_table_spot():
    for tup in [(2, 5, 7), (3, 10, 17), (5, 9, 16)]:
        gens = validate_generators(list(tup))
        table = denumerant_table(gens, 200)
        for n in range(0, 201, 7):
            assert table[n] == denumerant_oracle(gens, n)


@pytest.mark.parametrize("p", list(LISTINGS_31017))
def test_listings_3_10_17(build, p):
    head, arrow = LISTINGS_31017[p]
    S = build(T31017, p)
    assert [n for n in range(1, arrow) if S.contains(n)] == head
    assert all(S.contains(n) for n in range(arrow, arrow + 150))
    assert S.contains(0) == (p == 0)


def test_membership_is_threshold_comparison(build):
    S = build(T31017, 2)
    table = denumerant_table(S.gens, S.frontier - 1)
    for n in range(S.frontier):
        assert S.contains(n) == (table[n] > 2)


def test_certified_frontier_run(build):
    for tup, p in [((3, 10, 17), 3), ((4, 5, 6), 8), ((6, 17, 28), 5)]:
        S = build(tup, p)
        a1 = S.gens.least
        assert all(S.membership[n] for n in range(S.frontier - a1, S.frontier))


def test_extremes(build):
    S19 = build(T31017, 19)
    assert gaps(S19) == list(range(127))
    assert S19.least_element == 127
    assert S19.frobenius == 126


def test_gaps_examples(build):
    assert gaps(build((4, 5, 6), 8)) == list(range(36)) + [37, 39]
    assert gaps(build((3, 7, 11), 4)) == list(range(35)) + [37]
    assert gaps(build((2, 3), 0)) == [1]


def test_minimal_generators_examples(build):
    assert minimal_generators(build(T31017, 4)) == MINGENS_31017_P4
    assert minimal_generators(build(T31017, 1)) == MINGENS_31017_P1
    assert minimal_generators(build((2, 3), 0)) == [2, 3]


def test_minimal_generators_regenerate(build):
    for tup, p in [((3, 10, 17), 2), ((4, 5, 6), 3), ((6, 17, 28), 2)]:
        S = build(tup, p)
        regenerated = FiniteSemigroup.from_generators(minimal_generators(S))
        assert regenerated == FiniteSemigroup.from_psemigroup(S)


def test_gap_monotonicity_in_p(build):
    # gaps only grow with the threshold; on this corpus the growth is strict
    # (tuples exist where some representation count is never attained, so
    # strictness is a corpus property, not a theorem)
    for tup in [(3, 10, 17), (4, 5, 6), (3, 7, 11), (2, 5, 7)]:
        previous = None
        for p in range(7):
            S = build(tup, p)
            gap_set = set(gaps(S))
            if previous is not None:
                assert previous[0] <= gap_set
                assert previous[1] <= S.frobenius
                assert len(previous[0]) < len(gap_set)
            previous = (gap_set, S.frobenius)


def test_genus_lower_bound(build):
    # gap count is at least (frobenius + 1) / 2
    for tup in [(3, 10, 17), (4, 5, 6), (6, 17, 28), (3, 7, 11), (5, 9, 16)]:
        for p in range(6):
            S = build(tup, p)
            assert 2 * S.gap_count >= S.frobenius + 1


def test_additive_closure_sampling(build):
    import random

    rng = random.Random(11)
    for tup, p in [((3, 10, 17), 3), ((6, 17, 28), 5), ((5, 9, 16), 2)]:
        S = build(tup, p)

        def in_monoid(n):
            return n == 0 or S.contains(n)

        hi = S.frontier + 2 * S.gens.least
        members = [n for n in range(hi + 1) if in_monoid(n)]
        for _ in range(200):
            x, y = rng.choice(members), rng.choice(members)
            assert in_monoid(x + y)


def test_table_limit_env(monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "50")
    with pytest.raises(TableLimitError):
        build_psemigroup(validate_generators([3, 10, 17]), 5)
    monkeypatch.setenv("PSG_MAX_TABLE", "junk")
    with pytest.raises(Exception):
        build_psemigroup(validate_generators([2, 3]), 0)


def test_table_limit_bounds_apery_search(monkeypatch):
    # the search for (3, 10, 17) at p = 5 pops at most 3 * 2 * 6 = 36 states
    monkeypatch.setenv("PSG_MAX_TABLE", "35")
    with pytest.raises(TableLimitError, match="Apery search"):
        build_psemigroup(validate_generators([3, 10, 17]), 5)


def test_denumerant_table_limit(monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    gens = validate_generators([2, 3])
    assert denumerant_table(gens, 999)[999] == denumerant_oracle(gens, 999)
    with pytest.raises(TableLimitError):
        denumerant_table(gens, 1000)


def test_membership_oracle_limit(monkeypatch):
    # the oracle's count table has one entry per integer below the limit
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    gens = validate_generators([3, 5])
    with pytest.raises(TableLimitError, match="membership oracle"):
        membership_oracle(gens, 1, 200000)
    with pytest.raises(TableLimitError):
        membership_oracle(gens, 1, 1001)
    S = build_psemigroup(gens, 1)
    table = membership_oracle(gens, 1, 1000)
    assert len(table) == 1000
    assert table == S.membership.ljust(1000, b"\x01")


SCALE_CASE = ((1009, 1201, 1499), 50)


def test_scale_case_invariants_agree():
    raw, p = SCALE_CASE
    start = perf_counter()
    S = build_psemigroup(validate_generators(list(raw)), p)
    ap = apery_set(S)
    assert frobenius_from_apery(ap) == S.frobenius == S.membership.rindex(0) == 441384
    assert genus_from_apery(ap) == S.gap_count
    assert S.frontier == S.frobenius + 1 + raw[0]
    assert perf_counter() - start < 2.0


def test_scale_case_table_limit(monkeypatch):
    raw, p = SCALE_CASE
    gens = validate_generators(list(raw))
    frontier = 441384 + 1 + raw[0]
    monkeypatch.setenv("PSG_MAX_TABLE", str(frontier - 1))
    with pytest.raises(TableLimitError, match="membership table"):
        build_psemigroup(gens, p)
    monkeypatch.setenv("PSG_MAX_TABLE", str(frontier))
    assert build_psemigroup(gens, p).frontier == frontier


def test_apery_search_memory_stays_near_its_states():
    """Two heap pushes per pop, not one per later generator index.

    163 generators at p = 1 give 162 * 162 * 2 states; one push per index
    j >= i would hold ~a1 * k**2 / 8 heap entries, over 20 MB here.
    """
    gens = validate_generators(list(range(162, 325)))
    tracemalloc.start()
    try:
        S = build_psemigroup(gens, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6
    assert S.membership == membership_oracle(gens, 1, S.frontier)


gen_lists = (
    st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1)
)


@settings(max_examples=30, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=4))
def test_count_monotone_under_generator_shift(raw, p):
    gens = validate_generators(raw)
    table = denumerant_table(gens, 120)
    for a in gens.elements:
        for n in range(0, 120 - a + 1):
            assert table[n + a] >= table[n]


@settings(max_examples=30, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=3))
def test_random_semigroup_consistency(raw, p):
    gens = validate_generators(raw)
    S = build_psemigroup(gens, p)
    gap_list = gaps(S)
    assert S.gap_count == len(gap_list)
    assert S.frobenius == (gap_list[-1] if gap_list else -1)
    assert S.contains(S.least_element)
    assert not S.contains(S.least_element - 1) or S.least_element == 0


@pytest.mark.parametrize(
    "raw, p",
    # a1 = 1, no gaps at all, non-coprime pairs, a generator that is 2 * a1
    [((1, 2), 0), ((1, 2), 3), ((2, 3), 0), ((4, 6, 9), 2), ((3, 5, 6), 4)],
)
def test_apery_build_edge_cases(raw, p):
    gens = validate_generators(list(raw))
    S = build_psemigroup(gens, p)
    assert S.membership == membership_oracle(gens, p, S.frontier)
    assert S.frontier == S.frobenius + 1 + gens.least
    assert minimal_generators(S) == minimal_generators_scan(S)


def test_membership_oracle_short_limits():
    gens = validate_generators([3, 5])
    assert membership_oracle(gens, 1, 0) == b""
    assert membership_oracle(gens, 1, 1) == b"\x00"
    with pytest.raises(ValidationError):
        membership_oracle(gens, 1, -1)


@settings(max_examples=60, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=8))
def test_apery_build_matches_count_table(raw, p):
    gens = validate_generators(raw)
    S = build_psemigroup(gens, p)
    counts = _count_table(gens.elements, S.frontier - 1)
    assert S.membership == bytes(1 if c > p else 0 for c in counts)
    # the last a1 entries are members, which certifies every larger integer
    assert all(c > p for c in counts[-gens.least :])
    assert S.least_element == S.membership.index(1)
    assert S.frobenius == (S.membership.rindex(0) if 0 in S.membership else -1)


@settings(max_examples=60, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=8))
def test_apery_derived_invariants_match_scans(raw, p):
    S = build_psemigroup(validate_generators(raw), p)
    assert minimal_generators(S) == minimal_generators_scan(S)
    if p >= 1:
        assert valuation_lengths(S) == valuation_lengths_scan(S)


def _minimal_generators_oracle(semigroup):
    """The definitional scan with one ``contains`` call per probe."""
    mu = semigroup.least_element
    if mu == 0:
        mu = 1
        while not semigroup.contains(mu):
            mu += 1
    top = max(semigroup.frobenius + mu, mu)
    members = [n for n in range(mu, top + 1) if semigroup.contains(n)]
    out = []
    for m in members:
        if m > mu and semigroup.contains(m - mu):
            continue
        decomposable = False
        for s in members:
            if 2 * s > m:
                break
            if semigroup.contains(m - s):
                decomposable = True
                break
        if not decomposable:
            out.append(m)
    return out


@settings(max_examples=60, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=3))
def test_generator_scan_matches_the_per_integer_oracle(raw, p):
    S = build_psemigroup(validate_generators(raw), p)
    T = FiniteSemigroup.from_psemigroup(S)
    for U in [S, T, *irreducible_decomposition(T)]:
        assert minimal_generators_scan(U) == _minimal_generators_oracle(U)


# (3, 5) p=1: least element 15 > a1, and the members below F + 15 run past
# the table, so the scan reads its member padding
MINGENS_35_P1 = [15, 18, 20, 21, 23, 24, 25, 26, 27, 28, 29, 31, 32, 34, 37]


@pytest.mark.parametrize(
    "semigroup, expected",
    [
        (FiniteSemigroup(b""), [1]),  # the full monoid
        (FiniteSemigroup(b"\x01\x00\x00\x00\x00"), [5, 6, 7, 8, 9]),  # {0} and [5, oo)
        (FiniteSemigroup.from_generators([2, 3]), [2, 3]),
        (build_psemigroup(validate_generators([3, 5]), 1), MINGENS_35_P1),
        (FiniteSemigroup.from_generators(MINGENS_35_P1), MINGENS_35_P1),
    ],
    ids=["full-monoid", "ordinary-5", "2-3", "3-5-p1", "3-5-p1-finite"],
)
def test_generator_scan_edge_cases(semigroup, expected):
    assert minimal_generators_scan(semigroup) == expected
    assert _minimal_generators_oracle(semigroup) == expected
