from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psemigroups import (
    FiniteSemigroup,
    ValidationError,
    build_psemigroup,
    gaps,
    intersect,
    irreducible_decomposition,
    irreducible_oversemigroup_avoiding,
    is_irreducible_classic,
    is_irreducible_shifted,
    is_subsemigroup,
    minimal_generators_scan,
    pf_via_gap_maximals,
    pseudo_frobenius,
    validate_generators,
    verify_decomposition,
)

# the two components printed for the p = 2 semigroup over {5, 9, 16}
PAIR_A = sorted(set([41, 43, 45, 46, 48]) | set(range(50, 200)))
PAIR_B = sorted(set([41, 45, 46, 47, 48]) | set(range(50, 200)))


def _from_members(members, frontier):
    return FiniteSemigroup.from_table(
        bytes(1 if (n == 0 or n in set(members)) else 0 for n in range(frontier))
    )


def test_canonical_table():
    full = FiniteSemigroup.from_table(b"\x01\x01\x01")
    assert full.membership == b""
    assert full.frobenius == -1 and full.genus == 0
    assert full.contains(0) and full.contains(10**9)
    assert full.multiplicity == 1


def test_from_generators_round_trip():
    T = FiniteSemigroup.from_generators([2, 3])
    assert gaps(T) == [1]
    assert minimal_generators_scan(T) == [2, 3]
    assert is_irreducible_classic(T)


def test_irreducible_classic_examples(build):
    assert is_irreducible_classic(FiniteSemigroup.from_generators([2, 3]))
    # pseudo-symmetric ordinary semigroup
    assert is_irreducible_classic(FiniteSemigroup.from_generators([3, 7, 11]))
    T = FiniteSemigroup.from_psemigroup(build((5, 9, 16), 2))
    assert not is_irreducible_classic(T)


def test_shifted_irreducibility_of_printed_pair(build):
    C1 = _from_members(PAIR_A, 120)
    C2 = _from_members(PAIR_B, 120)
    # anchored at multiplicity + Frobenius both are pseudo-symmetric; the
    # ordinary pairing rejects them (Frobenius 49 is odd, type is large)
    assert is_irreducible_shifted(C1) and is_irreducible_shifted(C2)
    assert not is_irreducible_classic(C1)
    assert not is_irreducible_classic(C2)
    assert C1.frobenius == 49 and C2.frobenius == 49


def test_printed_pair_passes_validity_checker(build):
    T = FiniteSemigroup.from_psemigroup(build((5, 9, 16), 2))
    C1 = _from_members(PAIR_A, 120)
    C2 = _from_members(PAIR_B, 120)
    assert is_subsemigroup(T, C1) and is_subsemigroup(T, C2)
    assert intersect([C1, C2]) == T
    assert verify_decomposition(T, [C1, C2])
    # dropping either component breaks the intersection
    assert not verify_decomposition(T, [C1])
    assert not verify_decomposition(T, [C2])


def test_decomposition_5_9_16(build):
    T = FiniteSemigroup.from_psemigroup(build((5, 9, 16), 2))
    components = irreducible_decomposition(T)
    assert len(components) >= 2
    assert all(is_irreducible_classic(C) for C in components)
    assert all(is_subsemigroup(T, C) for C in components)
    assert intersect(components) == T
    assert verify_decomposition(T, components)
    for i in range(len(components)):
        rest = components[:i] + components[i + 1 :]
        assert intersect(rest) != T


def test_decomposition_irreducible_inputs(build):
    for gens in [(2, 3), (3, 10, 17)]:
        T = FiniteSemigroup.from_psemigroup(build(gens, 0))
        assert irreducible_decomposition(T) == [T]


def test_r_one_iff_irreducible(build):
    for tup, p in [((2, 3), 0), ((3, 10, 17), 0), ((3, 10, 17), 2), ((4, 5, 6), 3),
                   ((5, 9, 16), 2), ((3, 7, 11), 0)]:
        T = FiniteSemigroup.from_psemigroup(build(tup, p))
        components = irreducible_decomposition(T)
        assert (len(components) == 1) == is_irreducible_classic(T)
        assert intersect(components) == T
        assert all(is_subsemigroup(T, C) for C in components)
        assert all(is_irreducible_classic(C) for C in components)


def test_avoiding_completion(build):
    T = FiniteSemigroup.from_psemigroup(build((5, 9, 16), 2))
    C = irreducible_oversemigroup_avoiding(T, 49)
    assert is_irreducible_classic(C)
    assert C.frobenius == 49
    assert is_subsemigroup(T, C)
    with pytest.raises(ValidationError):
        irreducible_oversemigroup_avoiding(T, 41)


def test_verify_decomposition_rejects_bad_lists(build):
    T = FiniteSemigroup.from_psemigroup(build((5, 9, 16), 2))
    assert not verify_decomposition(T, [])
    # not an oversemigroup
    other = FiniteSemigroup.from_generators([2, 3])
    assert not verify_decomposition(T, [other])
    # reducible component: T itself
    assert not verify_decomposition(T, [T])


def _small_case(case):
    gens, p = case
    a1, a2 = sorted(gens)[:2]
    return reduce(gcd, gens) == 1 and (p + 1) * a1 * a2 <= 150


small_cases = st.tuples(
    st.lists(st.integers(min_value=3, max_value=12), min_size=2, max_size=3, unique=True),
    st.integers(min_value=0, max_value=3),
).filter(_small_case)


@settings(max_examples=40, deadline=None)
@given(small_cases)
def test_shared_functions_on_decomposition_semigroups(case):
    gens, p = case
    T = FiniteSemigroup.from_psemigroup(build_psemigroup(validate_generators(gens), p))
    for U in [T, *irreducible_decomposition(T)]:
        assert U.frobenius >= 0
        # irreducible iff the only special gap is the Frobenius number (Rosales-Branco)
        assert is_irreducible_classic(U) == (U.special_gaps() == [U.frobenius])
        assert pseudo_frobenius(U) == pf_via_gap_maximals(U)
        generators = minimal_generators_scan(U)
        assert U.multiplicity == generators[0]
        assert FiniteSemigroup.from_generators(generators) == U
