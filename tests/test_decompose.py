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
    is_irreducible_classic,
    is_irreducible_shifted,
    pf_via_gap_maximals,
    pseudo_frobenius,
    validate_generators,
    verify_decomposition,
)
from psemigroups.core import _FLIP, _bits
from psemigroups.decompose import _completion, _is_semigroup

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


def irreducible_oversemigroup_avoiding(semigroup, gap):
    """The walk's completion of ``semigroup`` avoiding any one of its gaps."""
    if gap < 0:
        raise ValidationError(f"{gap} is negative, not a gap")
    if semigroup.contains(gap):
        raise ValidationError(f"{gap} is a member, cannot be avoided")
    table = semigroup.membership
    return _completion(_bits(table), _bits(table[::-1]), len(table), gap)[1]


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


def test_from_generators_round_trip(generator_scan):
    T = FiniteSemigroup.from_generators([2, 3])
    assert gaps(T) == [1]
    assert generator_scan(T) == [2, 3]
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
    assert intersect([T, C1]) == T and intersect([T, C2]) == T
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
    assert all(intersect([T, C]) == T for C in components)
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
        assert all(intersect([T, C]) == T for C in components)
        assert all(is_irreducible_classic(C) for C in components)


def test_avoiding_completion(build):
    T = FiniteSemigroup.from_psemigroup(build((5, 9, 16), 2))
    C = irreducible_oversemigroup_avoiding(T, 49)
    assert is_irreducible_classic(C)
    assert C.frobenius == 49
    assert intersect([T, C]) == T
    with pytest.raises(ValidationError):
        irreducible_oversemigroup_avoiding(T, 41)
    # targets below the multiplicity: the only completions are <2, 3> and <3, 4, 5>
    U = FiniteSemigroup.from_generators([3, 5])
    assert irreducible_oversemigroup_avoiding(U, 1) == FiniteSemigroup.from_generators([2, 3])
    assert irreducible_oversemigroup_avoiding(U, 2) == FiniteSemigroup.from_generators([3, 4, 5])
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


@pytest.mark.parametrize("table", [b"\x00", b"\x00\x00", b"\x00\x01\x00"])
def test_decomposition_rejects_a_table_without_zero(table):
    with pytest.raises(ValidationError):
        irreducible_decomposition(FiniteSemigroup(table))
    assert not verify_decomposition(FiniteSemigroup(table), [FiniteSemigroup(table)])


@pytest.mark.parametrize("table", [b"\x01\x01\x00", b"\x01\x00\x01\x00\x00"])
def test_verify_decomposition_rejects_a_table_not_closed(table):
    """The walk's components pair and meet in the input, so only closure fails."""
    S = FiniteSemigroup(table)
    components = irreducible_decomposition(S)
    assert intersect(components) == S
    assert all(map(is_irreducible_classic, components))
    assert not verify_decomposition(S, components)


def test_closure_check_matches_the_definition():
    """Every 0/1 table up to 11 bytes: holds 0 and closed under addition
    (sums past the table are members) iff ``_is_semigroup``."""
    for length in range(12):
        for bits in range(1 << length):
            table = bytes(bits >> n & 1 for n in range(length))
            members = [n for n in range(length) if table[n]]
            closed = all(_member(table, s + t) for s in members for t in members)
            expected = _member(table, 0) and closed
            assert _is_semigroup(FiniteSemigroup(table)) == expected, table


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
def test_shared_functions_on_decomposition_semigroups(generator_scan, case):
    gens, p = case
    T = FiniteSemigroup.from_psemigroup(build_psemigroup(validate_generators(gens), p))
    for U in [T, *irreducible_decomposition(T)]:
        assert U.frobenius >= 0
        # irreducible iff the only special gap is the Frobenius number (Rosales-Branco)
        assert is_irreducible_classic(U) == (U.special_gaps() == [U.frobenius])
        assert pseudo_frobenius(U) == pf_via_gap_maximals(U)
        generators = generator_scan(U)
        assert U.multiplicity == generators[0]
        assert FiniteSemigroup.from_generators(generators) == U


@settings(max_examples=40, deadline=None)
@given(small_cases)
# 4 is pseudo-Frobenius in (4, 6, 9) p=1 but 8 is a gap, so 4 is not special
@example(((4, 6, 9), 1))
@example(((5, 9, 16), 2))
# the target 1 is the smallest gap: the cut table covers 0 and 1, no gap lies below it
@example(((3, 5), 0))
# the multiplicity 15 exceeds every target from 1 to 14
@example(((3, 5), 1))
# the first target 22 is even and its midpoint 11 is a gap of the input
@example(((5, 7, 9), 1))
# the first target 9 is odd: no midpoint, every x below it has a distinct partner
@example(((5, 6, 8), 0))
# the full monoid has no gap to complete at: it is its own single component
@example(((1, 2), 0))
def test_completion_and_pruning_match_the_definitional_oracles(case):
    gens, p = case
    T = FiniteSemigroup.from_psemigroup(build_psemigroup(validate_generators(gens), p))
    for f in gaps(T):
        assert irreducible_oversemigroup_avoiding(T, f) == _completion_oracle(T, f)
    components = irreducible_decomposition(T)
    assert components == _decomposition_oracle(T)
    # each component's Frobenius number is a distinct gap of T that every
    # other component contains, so the component alone excludes it
    targets = [C.frobenius for C in components]
    assert len(set(targets)) == len(targets)
    assert set(targets) <= set(gaps(T)) or components == [FiniteSemigroup(b"")]
    for i, target in enumerate(targets):
        assert all(C.contains(target) for C in components[:i] + components[i + 1 :])


tables = st.lists(st.booleans(), max_size=40).map(
    lambda bits: FiniteSemigroup.from_table(bytes([1, *map(int, bits)]))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(tables, min_size=1, max_size=4))
@example([FiniteSemigroup(b"")])
def test_word_kernels_match_per_integer_definitions(components):
    for component in components:
        table = component.membership
        word = _bits(table)
        assert [word >> n & 1 for n in range(len(table))] == list(table)
        assert word >> len(table) == 0
        gap_word = _bits(table.translate(_FLIP))
        assert gap_word == ~word & ((1 << len(table)) - 1)
    assert intersect(components) == _intersect_oracle(components)
    for inner in components:
        for outer in components:
            assert (intersect([inner, outer]) == inner) == _is_subsemigroup_oracle(inner, outer)


def test_word_kernels_on_unequal_lengths_and_the_full_monoid():
    full = FiniteSemigroup.from_table(b"")
    assert _bits(b"") == 0 and _bits(b"\x00") == 0 and _bits(b"\x01") == 1
    assert _bits(bytes([1, 0, 1, 1])) == 0b1101
    assert pf_via_gap_maximals(full) == pseudo_frobenius(full) == []
    short = FiniteSemigroup.from_generators([2, 3])  # table 1 0
    long = FiniteSemigroup.from_generators([4, 5, 11])  # Frobenius 7
    for components in ([full], [full, full], [short, full], [long, short], [short, long, full]):
        assert intersect(components) == _intersect_oracle(components)
    assert intersect([full]) == full
    assert intersect([short, long]) == long
    assert intersect([short, full]) == short
    assert intersect([long, short]) == long and intersect([short, long]) != short
    assert intersect([short, full]) == short and intersect([full, full]) == full
    assert intersect([full, short]) != full


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
