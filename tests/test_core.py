from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psemigroups import (
    EmptyInputError,
    GcdNotOneError,
    NonPositiveElementError,
    TableLimitError,
    ValidationError,
    validate_generators,
)
from psemigroups.core import _representable


def test_validate_paper_triple():
    gt = validate_generators([3, 10, 17])
    assert gt.elements == (3, 10, 17)
    assert gt.minimal and gt.minimality_checked


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


def test_non_minimal_recorded_not_rejected():
    # 28 = 4 * 7 is redundant over {6, 7, 17}
    assert _representable(28, (6, 7, 17))
    gt = validate_generators([6, 7, 17, 28])
    assert gt.elements == (6, 7, 17, 28)
    assert gt.minimality_checked and not gt.minimal


def test_generator_one_allowed():
    gt = validate_generators([1, 5])
    assert gt.elements == (1, 5)
    assert not gt.minimal  # 5 = 5 * 1


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
