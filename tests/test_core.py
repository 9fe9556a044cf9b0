from functools import reduce
from itertools import count
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psemigroups import (
    EmptyInputError,
    GcdNotOneError,
    NonPositiveElementError,
    TableLimitError,
    ValidationError,
    validate_generators,
)
from psemigroups.core import (
    _bits, _gap_sum, _least_per_class, _least_positive, _table_of, _window,
)
from psemigroups.decompose import FiniteSemigroup
from psemigroups.enumeration import gaps


def test_validate_paper_triple():
    gt = validate_generators([3, 10, 17])
    assert gt.elements == (3, 10, 17)
    assert gt.minimal


def test_validate_sorts_and_dedupes():
    gt = validate_generators([17, 3, 10, 3])
    assert gt.elements == (3, 10, 17)


def test_gcd_not_one_rejected():
    with pytest.raises(GcdNotOneError):
        validate_generators([2, 4])


def test_empty_rejected():
    with pytest.raises(EmptyInputError):
        validate_generators([])


@pytest.mark.parametrize("bad", [[0, 3], [-2, 3], [3, "x"], [2.5, 3]])
def test_non_positive_or_non_integer_rejected(bad):
    with pytest.raises(NonPositiveElementError):
        validate_generators(bad)


def test_single_element_rejected():
    with pytest.raises(ValidationError):
        validate_generators([1])
    with pytest.raises(ValidationError):
        validate_generators([7, 7])


def _representable(target: int, gens) -> bool:
    """Is ``target`` a non-negative combination of ``gens``?

    Oracle for the minimality check in ``validate_generators``: it fills a
    table of ``target + 1`` entries, one step per entry and generator.
    """
    reachable = bytearray(target + 1)
    reachable[0] = 1
    for a in gens:
        for n in range(a, target + 1):
            if reachable[n - a]:
                reachable[n] = 1
    return bool(reachable[target])


def test_non_minimal_recorded_not_rejected():
    # 28 = 4 * 7 is redundant over {6, 7, 17}
    assert _representable(28, (6, 7, 17))
    gt = validate_generators([6, 7, 17, 28])
    assert gt.elements == (6, 7, 17, 28)
    assert not gt.minimal


def test_generator_one_allowed():
    gt = validate_generators([1, 5])
    assert gt.elements == (1, 5)
    assert not gt.minimal  # 5 = 5 * 1


def test_value_types_are_frozen_hashable_named_tuples():
    """The five value types are immutable, hashable tuples whose ``_replace``
    gives a changed copy; ``len`` of a ``GeneratorTuple`` counts generators."""
    from psemigroups import build_psemigroup
    from psemigroups.closed_forms import gcd_reduce
    from psemigroups.hilbert import PowerSeries

    gens = validate_generators([3, 5, 7])
    assert len(gens) == 3  # the generators, not the tuple's two fields
    semigroup = build_psemigroup(gens, 1)
    reduction = gcd_reduce(validate_generators([4, 6, 9]))
    cases = [
        (gens, "minimal", False),
        (semigroup, "p", 2),
        (FiniteSemigroup.from_psemigroup(semigroup), "membership", b"\x01\x00"),
        (PowerSeries(b"\x01\x00\x01"), "coefficients", b"\x01"),
        (reduction, "d", reduction.d + 1),
    ]
    for value, field, new in cases:
        for name in (field, "unknown"):
            with pytest.raises(AttributeError):
                setattr(value, name, new)
        assert hash(value) == hash(type(value)(*value))
        changed = value._replace(**{field: new})
        assert type(changed) is type(value) and getattr(changed, field) == new
        assert changed._replace(**{field: getattr(value, field)}) == value != changed
    assert len(gens._replace(minimal=False)) == 3
    assert FiniteSemigroup(b"").least_element == FiniteSemigroup.least_element == 0


def test_idempotent():
    first = validate_generators([6, 7, 17, 28])
    second = validate_generators(list(first.elements))
    assert second == first


valid_gen_lists = (
    st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=5)
    .map(lambda xs: sorted(set(xs)))
    .filter(lambda xs: len(xs) >= 2 and reduce(gcd, xs) == 1)
)


@settings(max_examples=50, deadline=None)
@given(valid_gen_lists)
def test_validate_properties(raw):
    gt = validate_generators(raw)
    assert list(gt.elements) == sorted(set(raw))
    acc = 0
    for v in gt.elements:
        acc = gcd(acc, v)
    assert acc == 1
    assert validate_generators(list(gt.elements)) == gt


@settings(max_examples=200, deadline=None)
@given(valid_gen_lists)
# every generator below 2 * a1 (the shortcut), and one just past it
@example([5, 6, 7, 8, 9])
@example([5, 6, 7, 8, 10])
def test_minimal_flag_matches_representable_oracle(raw):
    elements = tuple(sorted(set(raw)))
    redundant = any(
        _representable(a, elements[:i] + elements[i + 1 :]) for i, a in enumerate(elements)
    )
    assert validate_generators(raw).minimal == (not redundant)


def test_minimality_table_is_capped(monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    with pytest.raises(TableLimitError):
        validate_generators([1001, 1002])
    assert validate_generators([1000, 1001]).minimal


# Membership tables: byte n is 1 iff n is a member; every integer past the end is one.
tables = st.lists(st.integers(0, 1), max_size=40).map(bytes)


def _member(table: bytes, n: int) -> bool:
    """The format's definition, one integer at a time."""
    return n >= len(table) or table[n] == 1


@settings(max_examples=300, deadline=None)
@given(table=tables, start=st.integers(0, 45), stop=st.integers(0, 45))
@example(table=b"", start=0, stop=3)
@example(table=b"\x00\x00", start=5, stop=8)
@example(table=b"\x01\x00\x00", start=2, stop=1)
def test_window_pads_members_past_the_table(table, start, stop):
    assert _window(table, start, stop) == bytes(_member(table, n) for n in range(start, stop))


@settings(max_examples=300, deadline=None)
@given(table=tables)
@example(table=b"")
@example(table=b"\x00" * 7)
@example(table=b"\x01\x00\x00\x01")
def test_table_searches_match_a_per_integer_search(table):
    """Every modulus from 1 to len + 3, so some classes have no member in the table."""
    for a in range(1, len(table) + 4):
        expected = tuple(next(n for n in count(j, a) if _member(table, n)) for j in range(a))
        assert _least_per_class(table, a) == expected
    assert _least_positive(table) == next(n for n in count(1) if _member(table, n))
    assert gaps(FiniteSemigroup.from_table(table)) == [
        n for n in range(len(table)) if not _member(table, n)
    ]


@settings(max_examples=300, deadline=None)
@given(table=tables, high=st.integers(0, 5))
def test_words_round_trip_through_tables(table, high):
    """A word and a length make the canonical semigroup of the padded table."""
    word = _bits(table)
    assert _table_of(word | 1 << len(table))[: len(table)] == table
    # bits at or past the length are ignored: those integers are members anyway
    stray = (1 << high) - 1 << len(table)
    assert FiniteSemigroup.from_word(word | stray, len(table)) == FiniteSemigroup.from_table(table)


# Around the 4,096-byte chunks of ``_gap_sum``: empty, one byte, one chunk
# short, exact and one over, two chunks and one over; runs of leading gaps
# of 0, 1 and 4,095 to 4,097 bytes, which it sums in closed form, shift the
# chunks off zero.
@pytest.mark.parametrize("length", [0, 1, 4095, 4096, 4097, 8193])
@settings(max_examples=12, deadline=None)
@given(rng=st.randoms(use_true_random=True), density=st.sampled_from([0.001, 0.5, 0.999]))
def test_gap_sum_is_the_sum_of_the_gaps(length, rng, density):
    """Random tables behind each run of leading gaps, with and without a
    member right after it, tables of gaps only and tables with no gap at all."""
    random = bytes(rng.random() >= density for _ in range(length))
    for prefix in (0, 1, 4095, 4096, 4097):
        for table in (
            b"\x00" * prefix + random,
            b"\x00" * prefix + b"\x01" + random,
            b"\x00" * (prefix + length),
            b"\x01" * length,
        ):
            assert _gap_sum(table) == sum(gaps(FiniteSemigroup(table)))
