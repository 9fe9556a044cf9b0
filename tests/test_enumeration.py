import tracemalloc
from functools import reduce
from itertools import chain, repeat
from math import gcd
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psemigroups import (
    TableLimitError,
    ValidationError,
    apery_set,
    build_psemigroup,
    denumerant,
    denumerant_oracle,
    denumerant_table,
    frobenius_from_apery,
    gap_power_sums,
    gaps,
    membership_oracle,
    minimal_generators,
    minimal_generators_lower_half,
    validate_generators,
    valuation_lengths,
    valuation_lengths_scan,
)
from psemigroups import enumeration
from psemigroups.cli import main
from psemigroups.decompose import FiniteSemigroup, irreducible_decomposition
from psemigroups.enumeration import (
    _count_bound, _generator_count, _packed_counts, _positive_apery, embedding_dimension,
)
from psemigroups.core import _bits, _table_of
from psemigroups.report import build_invariant_report


def _count_table(elements: tuple[int, ...], limit: int) -> list[int]:
    """Reference coin-counting recurrence: entry n counts the x with sum a_i x_i = n.

    One addition per entry and generator, with no packing and no shifts.
    """
    counts = [0] * (limit + 1)
    counts[0] = 1
    for a in elements:
        for n in range(a, limit + 1):
            counts[n] += counts[n - a]
    return counts


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


def _kernel_limits(monkeypatch) -> list[int]:
    """The limits each later build passes to the membership kernel, in order."""
    limits = []
    real = enumeration._member_word

    def spy(elements, p, limit):
        limits.append(limit)
        return real(elements, p, limit)

    monkeypatch.setattr(enumeration, "_member_word", spy)
    return limits


# (3, 10, 17) at p = 5 certifies at its first limit, 128 > frontier 69;
# (2, 4, 9) at p = 0 falls short at 8 < frontier 10 and doubles.
@pytest.mark.parametrize(
    "raw, p",
    [
        pytest.param(T31017, 5, id="first-limit-certifies"),
        pytest.param((2, 4, 9), 0, id="first-limit-doubles"),
    ],
)
def test_table_cap_rejects_exactly_the_frontiers_above_it(capsys, monkeypatch, raw, p):
    gens = validate_generators(list(raw))
    S = build_psemigroup(gens, p)
    argv = ["invariants", "--gens", ",".join(map(str, raw)), "-p", str(p)]
    monkeypatch.setenv("PSG_MAX_TABLE", str(S.frontier - 1))
    assert main(argv) == 2
    assert "the membership table" in capsys.readouterr().err
    monkeypatch.setenv("PSG_MAX_TABLE", str(S.frontier))
    assert build_psemigroup(gens, p) == S


def test_each_kernel_limit_is_clamped_to_the_cap(monkeypatch):
    limits = _kernel_limits(monkeypatch)
    gens = validate_generators(list(T31017))
    S = build_psemigroup(gens, 5)
    first = limits[0]
    assert limits == [first] and first > S.frontier
    # a first limit over the cap is cut to it, and the frontier still fits
    cap = (S.frontier + first) // 2
    monkeypatch.setenv("PSG_MAX_TABLE", str(cap))
    limits.clear()
    assert build_psemigroup(gens, 5) == S
    assert limits == [cap]
    # a doubling past the cap stops at it: 8, then 16 cut to 10
    monkeypatch.setenv("PSG_MAX_TABLE", "10")
    limits.clear()
    assert build_psemigroup(validate_generators([2, 4, 9]), 0).frontier == 10
    assert limits == [8, 10]


@pytest.mark.parametrize(
    "raw, p",
    [
        pytest.param("2,3", 10**9, id="two-generators"),
        pytest.param("2,3,5,7,11,13,17,19,23,29", 10**60, id="ten-generators"),
    ],
)
def test_a_frontier_far_past_the_cap_is_rejected_before_any_word(capsys, monkeypatch, raw, p):
    # the default cap rejects these too; a small one keeps a build that
    # slipped through at ~200 planes of cap bits down to a few MB
    monkeypatch.setenv("PSG_MAX_TABLE", str(10**6))
    limits = _kernel_limits(monkeypatch)
    assert main(["invariants", "--gens", raw, "-p", str(p), "--quiet"]) == 2
    assert "the membership table" in capsys.readouterr().err
    assert limits == []


def test_bit_planes_over_their_budget_are_rejected_before_any_word(capsys, monkeypatch):
    # p = 10**12 takes 40 planes; the first limit is 2,048 bits and the
    # frontier is 1,038, well inside either cap below
    argv = ["invariants", "--gens", "2,3,5,7,11,13,17,19,23,29", "-p", str(10**12), "--quiet"]
    limits = _kernel_limits(monkeypatch)
    monkeypatch.setenv("PSG_MAX_TABLE", str(40 * 2048 // 8 - 1))
    assert main(argv) == 2
    assert "the 40 membership bit-planes need 81920 bits" in capsys.readouterr().err
    assert limits == []
    monkeypatch.setenv("PSG_MAX_TABLE", str(40 * 2048 // 8))
    assert main(argv) == 0
    assert limits == [2048]


# At cap = frontier the integer cap - 1 is a member, so d(cap - 1) > p: the
# bound that rejects before building must not fire there.
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=6)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1),
    st.integers(min_value=0, max_value=40),
)
@example([6, 7, 8, 9, 10, 11], 20)
@example([2, 3], 0)
def test_the_early_rejection_never_refuses_a_frontier_at_the_cap(raw, p):
    gens = validate_generators(raw)
    S = build_psemigroup(gens, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PSG_MAX_TABLE", str(S.frontier))
        assert build_psemigroup(gens, p) == S
        patch.setenv("PSG_MAX_TABLE", str(S.frontier - 1))
        with pytest.raises(TableLimitError, match="the membership table"):
            build_psemigroup(gens, p)


def test_denumerant_table_limit(monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    gens = validate_generators([2, 3])
    assert denumerant_table(gens, 999)[999] == denumerant_oracle(gens, 999)
    assert denumerant(gens, 999) == denumerant_oracle(gens, 999)
    with pytest.raises(TableLimitError):
        denumerant_table(gens, 1000)
    with pytest.raises(TableLimitError, match="the denumerant table"):
        denumerant(gens, 1000)
    with pytest.raises(ValidationError, match="n must be non-negative"):
        denumerant(gens, -1)


def test_membership_oracle_limit(monkeypatch):
    # the oracle's count table adds one entry per integer below the limit,
    # once per generator
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    gens = validate_generators([3, 5])
    with pytest.raises(TableLimitError, match="the count-table membership oracle needs 400000"):
        membership_oracle(gens, 1, 200000)
    with pytest.raises(TableLimitError):
        membership_oracle(gens, 1, 501)
    S = build_psemigroup(gens, 1)
    table = membership_oracle(gens, 1, 500)
    assert len(table) == 500
    assert table == S.membership.ljust(500, b"\x01")


def test_denumerant_oracle_bounds_its_own_loop(monkeypatch):
    """The loop count, prod(n // a + 1) over the generators <= n but the least,
    is checked against the cap by the oracle itself, not only by its callers."""
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    start = perf_counter()
    with pytest.raises(TableLimitError, match="the recursive denumerant oracle needs 2669334 "):
        denumerant_oracle(validate_generators([1, 2, 3]), 4000)
    assert perf_counter() - start < 0.5
    # (6, 17, 28) at n = 900 loops (900 // 28 + 1) * (900 // 17 + 1) = 1749 times
    gens = validate_generators([6, 17, 28])
    with pytest.raises(TableLimitError, match="needs 1749 "):
        denumerant_oracle(gens, 900)
    assert denumerant_oracle(gens, 500) == denumerant_table(gens, 500)[500]


SCALE_CASE = ((1009, 1201, 1499), 50)


def test_scale_case_invariants_agree():
    raw, p = SCALE_CASE
    start = perf_counter()
    S = build_psemigroup(validate_generators(list(raw)), p)
    ap = apery_set(S)
    assert frobenius_from_apery(ap) == S.frobenius == S.membership.rindex(0) == 441384
    assert gap_power_sums(ap, 0) == [S.gap_count]
    assert S.frontier == S.frobenius + 1 + raw[0]
    assert embedding_dimension(S) == 409567
    assert perf_counter() - start < 2.0


def test_embedding_dimension_memory_stays_below_the_table():
    """The sumset words hold a few bits per integer of the Apery spread.

    The count of 409,567 generators is one ``bit_count`` of the generator
    word, with no list of the generators and no byte per integer of the
    table: about 0.66x len(membership) under tracemalloc.
    """
    raw, p = SCALE_CASE
    S = build_psemigroup(validate_generators(list(raw)), p)
    tracemalloc.start()
    try:
        assert embedding_dimension(S) == 409567
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(S.membership)


def test_report_memory_stays_a_few_tables():
    """The report's gap-sum check reads the gaps as words, not as ints.

    ``core._gap_sum`` turns 4,096 table bytes at a time into one word and
    sums their indices with weighted popcounts, so it holds one digit copy
    of the table and no object per gap.  The report holds a few
    table-length byte strings at once (the window pairing, the padded Apery
    window, the bytes of the build): about 6.9x len(membership) under
    tracemalloc.  Summing the gap check through the list that ``gaps()``
    returns peaks near 41x, one int object per gap.
    """
    raw, p = SCALE_CASE
    gens = validate_generators(list(raw))
    S = build_psemigroup(gens, p)
    tracemalloc.start()
    try:
        build_invariant_report(gens, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(S.membership)


def test_scale_case_table_limit(monkeypatch):
    raw, p = SCALE_CASE
    gens = validate_generators(list(raw))
    frontier = 441384 + 1 + raw[0]
    monkeypatch.setenv("PSG_MAX_TABLE", str(frontier - 1))
    with pytest.raises(TableLimitError, match="membership table"):
        build_psemigroup(gens, p)
    monkeypatch.setenv("PSG_MAX_TABLE", str(frontier))
    assert build_psemigroup(gens, p).frontier == frontier


def test_build_memory_stays_near_its_planes():
    """The build holds a few limit-bit words, not one object per search state.

    163 generators at p = 1 take two planes of at most (p+1) * a1 * a2 =
    52,812 bits each.  A shortest-path search over the 162 * 162 * 2
    (residue, last generator, visit) states that pushed one move per later
    generator held ~a1 * k**2 / 8 heap entries, over 20 MB.
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


def test_scale_report_peak_rss_stays_near_its_planes(peak_rss_kib):
    """A whole scale ``invariants`` process grows by under 16 bytes per frontier entry.

    Its peak was 22.8 MB against 17.1 MB for ``--gens 3,5``, at a frontier
    of 1,151,339 (2-vCPU Xeon VM, CPython 3.11.7).  One Python int per
    entry, about 36 bytes each, would add over 40 MB.
    """
    raw, p = (5003, 6007, 7001, 8009), 20
    frontier = build_psemigroup(validate_generators(list(raw)), p).frontier
    job = ["invariants", "--gens", ",".join(map(str, raw)), "-p", str(p), "--json"]
    grown = peak_rss_kib(job) - peak_rss_kib(["invariants", "--gens", "3,5", "--json"])
    assert grown * 1024 < 16 * frontier


gen_lists = (
    st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1)
)


# p at both sides of every plane boundary up to five planes (p + 1 = 2**B - 1
# and 2**B); the listed tuples fail the certificate at their first limit
@settings(max_examples=80, deadline=None)
@given(
    gen_lists,
    st.sampled_from((0, 1, 2, 3, 6, 7, 14, 15)),
    st.integers(min_value=0, max_value=400),
)
@example([2, 4, 9], 0, 10)
@example([2, 4, 13], 1, 17)
@example([3, 4, 6], 6, 33)
@example([3, 6, 7], 3, 1)
def test_sliced_counts_match_the_count_table(raw, p, limit):
    gens = validate_generators(raw)
    word = enumeration._member_word(gens.elements, p, limit)
    assert word == _bits(membership_oracle(gens, p, limit))
    S = build_psemigroup(gens, p)
    assert S.membership == membership_oracle(gens, p, S.frontier)


def _threshold_cases(counts: list[int], c: int) -> list[int]:
    """p at 0, around the largest count, at the largest field value, far above it and below 0."""
    most, top = max(counts), (1 << 8 * c - 1) - 1
    return [0, most - 1, most, most + 1, top, top + 1, 10**40, -1, -5]


@settings(max_examples=80, deadline=None)
@given(gen_lists, st.integers(min_value=0, max_value=300))
@example([2, 3], 0)
@example([2, 3], 1)
@example([3, 10, 17], 1)
@example([2, 3], 1000)  # counts up to 167: a 1-byte field would have no free top bit
def test_packed_counts_match_the_recurrence_and_the_oracle(raw, limit):
    gens = validate_generators(raw)
    counts = _count_table(gens.elements, limit)
    assert denumerant_table(gens, limit) == counts
    for n in {0, limit // 3, limit // 2, limit}:
        assert counts[n] == denumerant_oracle(gens, n) == denumerant(gens, n)
    # the width bound holds at every entry and leaves each field's top bit free
    assert all(d <= _count_bound(gens.elements, n) for n, d in enumerate(counts))
    c = _packed_counts(gens.elements, limit + 1)[1]
    assert max(counts) < 1 << 8 * c - 1
    for p in _threshold_cases(counts, c):
        assert membership_oracle(gens, p, limit + 1) == bytes(map(p.__lt__, counts))


def test_wide_fields_read_whole():
    """Generators 2..12 at limit 3,000 need 11-byte fields, wider than any machine word."""
    gens = validate_generators(list(range(2, 13)))
    counts = _count_table(gens.elements, 3000)
    c = _packed_counts(gens.elements, 3001)[1]
    assert c == 11 and max(counts) >= 1 << 64
    assert denumerant_table(gens, 3000) == counts
    assert denumerant(gens, 3000) == counts[3000]
    for p in _threshold_cases(counts, c) + [counts[2999], counts[3000]]:
        assert membership_oracle(gens, p, 3001) == bytes(map(p.__lt__, counts))


def _peak_per_entry(call, entries: int) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / entries
    finally:
        tracemalloc.stop()


def test_count_oracle_memory_stays_a_few_packed_words():
    """The membership oracle and ``denumerant`` hold a few c-byte-per-entry
    words, no int per entry.

    (2, 3) to 2,000,000 takes 3-byte fields: the oracle and ``denumerant``
    each peak at 9.6 bytes per entry under tracemalloc (41 and 43 with one
    Python int per entry); (1009, 1201, 1499) at its frontier takes 2-byte
    fields and peaks at 6.4 (9.2 with one int per entry).
    """
    gens = validate_generators([2, 3])
    assert _peak_per_entry(lambda: membership_oracle(gens, 0, 2_000_000), 2_000_000) < 16
    assert _peak_per_entry(lambda: denumerant(gens, 2_000_000), 2_000_001) < 16
    raw, p = SCALE_CASE
    gens = validate_generators(list(raw))
    limit = 441384 + 1 + raw[0]
    assert _peak_per_entry(lambda: membership_oracle(gens, p, limit), limit) <= 9.2


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
def test_apery_build_edge_cases(generator_scan, raw, p):
    gens = validate_generators(list(raw))
    S = build_psemigroup(gens, p)
    assert S.membership == membership_oracle(gens, p, S.frontier)
    assert S.frontier == S.frobenius + 1 + gens.least
    assert minimal_generators(S) == generator_scan(S)


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
def test_apery_derived_invariants_match_scans(generator_scan, raw, p):
    S = build_psemigroup(validate_generators(raw), p)
    scanned = generator_scan(S)
    assert minimal_generators(S) == scanned
    assert embedding_dimension(S) == len(scanned)
    if p >= 1:
        assert valuation_lengths(S) == valuation_lengths_scan(S)


def _min_plus_ranges(semigroup):
    """The minimal generators of each class r, from pos[r] up to its least sum.

    The a1 x a1 min-plus square: it reads the Apery tuple, not the
    membership bytes.  The least sum of class r is the least pos[i] + pos[j]
    with i + j = r mod a1, pos the least positive member per class.  Entry
    s of ``least`` holds that min over the pairs i <= j with i + j = s,
    before the reduction mod a1; entry 2 * a1 - 1 has no pair and keeps the
    bound 2 * max(pos).
    """
    pos = _positive_apery(semigroup)
    a1 = len(pos)
    least = [2 * max(pos)] * (2 * a1)
    for i, m in enumerate(pos):
        for j, n in enumerate(pos[i:], 2 * i):
            least[j] = min(least[j], m + n)
    return list(map(range, pos, map(min, least[:a1], least[a1:]), repeat(a1)))


# The window of the sumset runs from 2l to max + l, l and max the least and
# largest positive Apery elements.  The class of 2l always has its least sum
# there; ``at_max`` marks the cases whose least sum of some class is max + l.
@pytest.mark.parametrize(
    "raw, p, at_max",
    [
        pytest.param((2, 3), 0, True, id="2-3"),
        pytest.param(T31017, 0, True, id="p0-class-0-is-a1"),
        pytest.param(T31017, 4, False, id="3-10-17-p4"),
        pytest.param((3, 5), 1, True, id="3-5-p1"),
        pytest.param((1, 2), 0, True, id="a1-is-1"),
        pytest.param((1, 2), 3, True, id="a1-is-1-p3"),
    ],
)
def test_sumset_bounds_match_the_min_plus_square(generator_scan, raw, p, at_max):
    S = build_psemigroup(validate_generators(list(raw)), p)
    word, low = enumeration._generator_word(S)
    ranges = _min_plus_ranges(S)
    a1 = len(ranges)
    # byte i tells whether low + i is a generator; class r's generators run
    # from pos[r] up to its least sum, so their count gives that sum
    listed = _table_of(word)
    bounds = [
        span.start + a1 * listed[(r - low) % a1 :: a1].count(1) for r, span in enumerate(ranges)
    ]
    least_sums = [span.stop for span in ranges]
    assert bounds == least_sums
    starts = [span.start for span in ranges]
    assert low == min(starts)
    assert 2 * low in least_sums
    assert (max(starts) + low in least_sums) == at_max
    assert embedding_dimension(S) == len(generator_scan(S))


# a1 = 1 as well as the usual generators
gen_lists_from_1 = (
    st.lists(st.integers(min_value=1, max_value=25), min_size=2, max_size=4)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1)
)


def minimal_generators_min_plus(semigroup):
    """The minimal generators from the min-plus square, ascending."""
    return sorted(chain.from_iterable(_min_plus_ranges(semigroup)))


@settings(max_examples=80, deadline=None)
@given(gen_lists_from_1, st.integers(min_value=0, max_value=6))
@example([3, 10, 17], 0)  # class 0 at p = 0: its least positive member is a1
@example([4, 5], 0)
@example([1, 3], 2)
def test_min_plus_matches_the_scan(generator_scan, raw, p):
    S = build_psemigroup(validate_generators(raw), p)
    assert minimal_generators_min_plus(S) == generator_scan(S)


@settings(max_examples=80, deadline=None)
@given(gen_lists_from_1, st.integers(min_value=0, max_value=8))
@example([1, 2], 0)  # N itself: F = -1, one generator
@example([1, 2], 3)
@example([2, 3], 1)
@example([3, 4, 5], 0)  # F = 2 < 2 * low = 6: every member up to top is a generator
def test_generator_count_matches_the_sumset_and_both_scans(generator_scan, raw, p):
    S = build_psemigroup(validate_generators(raw), p)
    count = _generator_count(S)
    assert count == embedding_dimension(S) == len(minimal_generators(S))
    assert count == len(generator_scan(S)) == len(minimal_generators_min_plus(S))


@settings(max_examples=80, deadline=None)
@given(gen_lists_from_1, st.integers(min_value=0, max_value=8))
@example([1, 2], 0)
@example([3, 10, 17], 0)
def test_generator_count_works_within_the_sumset(raw, p):
    """The oracle's shifts are the sumset's, on a narrower window: the cap
    that bounds the default path's sumset bounds the oracle too."""
    S = build_psemigroup(validate_generators(raw), p)
    pos = _positive_apery(S)
    a1, low, high = len(pos), min(pos), max(pos)
    top = max(S.frobenius + low, low)
    width = high - low + 1
    sumset_shifts = {m - low for m in pos if 2 * (m - low) < width}
    oracle_shifts = {m - low for m in pos if 2 * m <= top}
    assert oracle_shifts <= sumset_shifts
    assert top - 2 * low + 1 <= width - a1


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
def test_generator_scan_matches_the_per_integer_oracle(generator_scan, raw, p):
    S = build_psemigroup(validate_generators(raw), p)
    T = FiniteSemigroup.from_psemigroup(S)
    for U in [S, T, *irreducible_decomposition(T)]:
        expected = _minimal_generators_oracle(U)
        assert generator_scan(U) == expected
        assert minimal_generators_lower_half(U) == expected


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
def test_generator_scan_edge_cases(generator_scan, semigroup, expected):
    assert generator_scan(semigroup) == expected
    assert minimal_generators_lower_half(semigroup) == expected
    assert _minimal_generators_oracle(semigroup) == expected
