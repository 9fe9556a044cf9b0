import time
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings
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


def _member(table, n):
    return n >= len(table) or bool(table[n])


def _adjoin(semigroup, h):
    table = bytearray(semigroup.membership)
    table[h] = 1
    return FiniteSemigroup.from_table(table)


def _completion_oracle(semigroup, gap):
    """The greedy completion by definition: recompute the special gaps and
    adjoin the largest one other than ``gap`` until none remain."""
    current = semigroup
    while True:
        candidates = [h for h in current.special_gaps() if h != gap]
        if not candidates:
            return current
        current = _adjoin(current, max(candidates))


def _intersect_oracle(components):
    hi = max(len(c.membership) for c in components)
    return FiniteSemigroup.from_table(
        bytes(int(all(_member(c.membership, n) for c in components)) for n in range(hi))
    )


def _is_subsemigroup_oracle(inner, outer):
    hi = max(len(inner.membership), len(outer.membership))
    return all(
        _member(outer.membership, n) for n in range(hi) if _member(inner.membership, n)
    )


def _decomposition_oracle(semigroup):
    """The uncovered-gap walk with oracle completions, then the quadratic
    pruning: drop a component when all the others still intersect exactly."""
    if is_irreducible_classic(semigroup):
        return [semigroup]
    components = []
    uncovered = set(gaps(semigroup))
    while uncovered:
        component = _completion_oracle(semigroup, max(uncovered))
        components.append(component)
        uncovered = {y for y in uncovered if component.contains(y)}
    i = 0
    while i < len(components):
        rest = components[:i] + components[i + 1 :]
        if rest and _intersect_oracle(rest) == semigroup:
            components.pop(i)
        else:
            i += 1
    return components


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
    with pytest.raises(ValidationError):
        irreducible_oversemigroup_avoiding(T, -1)


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


@settings(max_examples=40, deadline=None)
@given(small_cases)
# 4 is pseudo-Frobenius in (4, 6, 9) p=1 but 8 is a gap, so 4 is not special
@example(((4, 6, 9), 1))
@example(((5, 9, 16), 2))
def test_completion_and_pruning_match_the_definitional_oracles(case):
    gens, p = case
    T = FiniteSemigroup.from_psemigroup(build_psemigroup(validate_generators(gens), p))
    for f in gaps(T):
        assert irreducible_oversemigroup_avoiding(T, f) == _completion_oracle(T, f)
    assert irreducible_decomposition(T) == _decomposition_oracle(T)


tables = st.lists(st.booleans(), max_size=40).map(
    lambda bits: FiniteSemigroup.from_table(bytes([1, *map(int, bits)]))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(tables, min_size=1, max_size=4))
def test_word_kernels_match_per_integer_definitions(components):
    assert intersect(components) == _intersect_oracle(components)
    for inner in components:
        for outer in components:
            assert is_subsemigroup(inner, outer) == _is_subsemigroup_oracle(inner, outer)


def test_word_kernels_on_unequal_lengths_and_the_full_monoid():
    full = FiniteSemigroup.from_table(b"")
    short = FiniteSemigroup.from_generators([2, 3])  # table 1 0
    long = FiniteSemigroup.from_generators([4, 5, 11])  # Frobenius 7
    for components in ([full], [full, full], [short, full], [long, short], [short, long, full]):
        assert intersect(components) == _intersect_oracle(components)
    assert intersect([full]) == full
    assert intersect([short, long]) == long
    assert intersect([short, full]) == short
    assert is_subsemigroup(long, short) and not is_subsemigroup(short, long)
    assert is_subsemigroup(short, full) and is_subsemigroup(full, full)
    assert not is_subsemigroup(full, short)


def test_scale_6_17_28_p5(build):
    T = FiniteSemigroup.from_psemigroup(build((6, 17, 28), 5))
    components = irreducible_decomposition(T)
    assert len(components) == 66
    assert verify_decomposition(T, components)


def test_scale_37_53_71_p20(build):
    start = time.perf_counter()
    T = FiniteSemigroup.from_psemigroup(build((37, 53, 71), 20))
    components = irreducible_decomposition(T)
    assert T.frobenius == 2367
    assert len(components) == 1124
    assert verify_decomposition(T, components)
    assert time.perf_counter() - start < 10
