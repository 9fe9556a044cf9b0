"""The invariant report that ``psg invariants`` prints, as a dict.

The report always cross-checks the Apery-formula Frobenius number, genus
and gap sum against the ones read off the membership bytes (cheap, and
provably equal); genus and gap sum are entries 0 and 1 of the expansion that
gives every power sum.  The bytes give the genus as a count of zero bytes
and the gap sum (``_gap_sum``) as s(s-1)/2 for the leading gaps below the
first member s, plus weighted popcounts of 4,096-bit words of the rest,
with no Python object per gap and no arithmetic shared with the expansion.
Tuple and bytes come from the same bit-plane build, so this checks the
formulas, not the build; ``verify=True`` adds the heavier re-derivations,
each sharing no kernel with the planes.
The ones whose work can outgrow the membership table, each estimated and
checked against the size cap before it runs (the two count oracles check
their own), run before the default path's sumset, the embedding
dimension, so a job over the cap is refused before that longest step:
three-way pseudo-Frobenius agreement (the two gap oracles share one
candidate list), with the symmetry flags against that PF set, then
membership from the count table (which shares only their shift schedule)
and the Hilbert factorization identity, which checks the Apery tuple.
After the sumset come the ones with no estimate of their own: the minimal
generators as the members that are not sums, shifted by that tuple
(counted against the embedding dimension, within the work of the sumset),
the scanned valuation lengths, brute-force power sums over the gaps (one
running product per exponent, streamed over chunks of the table), and the
closed forms as whole Apery tuples, each a witness for every membership bit
at O(a1) cost: the gcd-reduction lift of a separately built reduced tuple,
and the two-generator or arithmetic-triple tuple when the generators form
one.
``check_series`` and ``check_denumerant`` are the checks the ``hilbert``,
``membership`` and ``denumerant`` commands share with it, and
``check_components`` is the ``decompose`` one: this module holds every
``--verify`` check.
"""

from __future__ import annotations

from itertools import compress, count
from operator import mul

from .core import (
    _FLIP, GeneratorTuple, InternalConsistencyError, PSemigroup, ValidationError,
    _gap_sum, _least_per_class, validate_generators,
)
from .enumeration import (
    _generator_count,
    _member_word,
    build_psemigroup,
    denumerant_oracle,
    embedding_dimension,
    membership_oracle,
)
from .apery import apery_set, frobenius_from_apery, gap_power_sums
from .symmetry import (
    _pf_candidates,
    classify,
    pf_via_apery_maximals,
    pf_via_gap_maximals,
    pseudo_frobenius,
    valuation_lengths,
    valuation_lengths_scan,
)
from .decompose import FiniteSemigroup
from .hilbert import PowerSeries, gaps_series, hilbert_direct, hilbert_from_apery
from .closed_forms import _arith_apery, _two_var_apery, gcd_reduce, two_var_membership

_CHUNK = 1 << 16  # table bytes per step of the streamed power-sum oracle


def _mismatch(what: str, formula, enumerated, gens: GeneratorTuple, p: int | None) -> None:
    where = f"gens={gens.elements}" if p is None else f"gens={gens.elements} p={p}"
    raise InternalConsistencyError(
        f"{what}: formula value {formula} != enumerated {enumerated} for {where}"
    )


def check_series(semigroup: PSemigroup, direct: PowerSeries, psi: PowerSeries) -> None:
    """The ``--verify`` checks behind the series of ``semigroup``.

    The membership bytes must equal the count table's, the Hilbert series
    ``direct`` its Apery factorization up to its truncation, and ``direct``
    plus the gap series ``psi`` the all-ones series of that truncation.
    """
    gens, p = semigroup.gens, semigroup.p
    if membership_oracle(gens, p, semigroup.frontier) != semigroup.membership:
        _mismatch("membership", "Apery tuple", "count table", gens, p)
    if hilbert_from_apery(apery_set(semigroup), direct.truncation) != direct:
        _mismatch("Hilbert factorization", "apery series", "direct series", gens, p)
    # H + Psi = 1 at every coefficient iff H is all 0/1 bytes and Psi flips it
    h = direct.coefficients
    if h.translate(None, b"\x00\x01") or h.translate(_FLIP) != psi.coefficients:
        _mismatch("series partition", "H + Psi", "all-ones", gens, p)


def check_denumerant(gens: GeneratorTuple, n: int, count: int, p: int | None = None) -> None:
    """The ``--verify`` checks behind ``count``, the table's value of d(n).

    For n >= 0 the recursive oracle, which bounds its own work, must agree.
    Given a threshold ``p`` on two generators, the standard-form membership
    test must agree too.
    """
    if n >= 0:
        oracle = denumerant_oracle(gens, n)
        if oracle != count:
            _mismatch(f"denumerant d({n})", count, oracle, gens, p)
    if p is not None and len(gens) == 2:
        closed = two_var_membership(n, *gens.elements, p)
        if closed != (count > p):
            _mismatch(f"membership of {n}", closed, count > p, gens, p)


def _spans(generators: list[int], component: FiniteSemigroup) -> bool:
    """Are ``generators`` minimal, and do they span exactly ``component``?

    The span is the membership word at p = 0, one shift-OR per doubling of
    each generator, which shares nothing with the scan that listed the
    generators; the run of min(generators) members after the Frobenius
    number certifies every larger integer.  Validation needs two generators,
    so the full monoid's ``[1]`` is compared with the empty table directly.
    The kernel runs at the component's own limit: routed through
    ``FiniteSemigroup.from_generators`` (``build_psemigroup`` at p = 0, whose
    first limit guesses far past a small component's frontier), ``decompose
    --verify --gens 37,53,71 -p 20`` took 426 s instead of 2.07 s, with the
    same output.
    """
    if generators == [1]:
        return component == FiniteSemigroup(b"")
    try:
        checked = validate_generators(generators)
    except ValidationError:
        return False
    limit = component.frobenius + 1 + checked.least
    span = FiniteSemigroup.from_word(_member_word(checked.elements, 0, limit), limit)
    return checked.minimal and span == component


def check_components(
    gens: GeneratorTuple, p: int, listed: list[list[int]], components: list[FiniteSemigroup]
) -> None:
    """The ``--verify`` check of a decomposition of ``gens`` at ``p``.

    Entry i of ``listed`` must be a minimal generating set of
    ``components[i]`` whose span is that component exactly.
    """
    for generators, component in zip(listed, components):
        if not _spans(generators, component):
            raise InternalConsistencyError(
                f"generators {generators} do not span the component with Frobenius "
                f"number {component.frobenius} minimally for gens={gens.elements} p={p}"
            )


def _streamed_power_sums(table: bytes, exponents) -> dict:
    """Each exponent mu mapped to the sum of the mu-th powers of the gaps of ``table``.

    The exponents must be 1, 2, ... in order, as ``report["power_sums"]``
    gives them: each chunk's running product starts as its gap list, the
    first powers, and each later exponent multiplies it by the gaps once
    more.  Never a list of all the gaps.
    """
    sums = dict.fromkeys(exponents, 0)
    for start in range(0, len(table), _CHUNK):
        chunk = list(compress(count(start), table[start : start + _CHUNK].translate(_FLIP)))
        powers = chunk
        for mu in sums:
            if mu > 1:
                powers = list(map(mul, powers, chunk))
            sums[mu] += sum(powers)
    return sums


def _verify_estimated(semigroup: PSemigroup, report: dict) -> None:
    """The ``--verify`` oracles that check a work estimate, run before the sumset.

    A job over the cap is refused before the default path's longest step
    and before the unchecked oracles stream the table; the series check
    also checks the Apery tuple that the generator oracle shifts by.
    """
    gens, p = semigroup.gens, semigroup.p
    pf = report["pf"]  # the Apery-maximal reading, checked against two oracles
    candidates = _pf_candidates(semigroup)
    via_definition = pseudo_frobenius(semigroup, candidates=candidates)
    via_gaps = pf_via_gap_maximals(semigroup, candidates=candidates)
    if not (pf == via_definition == via_gaps):
        _mismatch("pseudo-Frobenius sets", pf, (via_definition, via_gaps), gens, p)
    # The pairing flags against the PF set, two kernels over one build: at
    # p = 0 symmetric iff PF = [F] (N, with no gap, is symmetric) and
    # pseudo-symmetric iff PF = [F/2, F]; at p >= 1 only the forward
    # directions hold (proved in the ``symmetry`` docstring).
    flags, frob = report["classification"], report["frobenius"]
    total = frob + report["ell0"]
    claimed = flags["symmetric"], flags["pseudo_symmetric"]
    symmetric = pf == [frob] or frob < 0
    halves = total % 2 == 0 and set(pf) <= {total // 2, frob}
    if p == 0:
        holds = claimed == (symmetric, halves and len(pf) == 2)
    else:
        holds = (symmetric or not claimed[0]) and (halves or not claimed[1])
    if not holds:
        _mismatch("symmetry flags against the PF set", claimed, pf, gens, p)
    trunc = 2 * (semigroup.frobenius + 1) + gens.least
    check_series(semigroup, hilbert_direct(semigroup, trunc), gaps_series(semigroup, trunc))


def _verify_unchecked(semigroup: PSemigroup, report: dict) -> None:
    """The ``--verify`` oracles with no work estimate of their own, run after the sumset."""
    gens, p = semigroup.gens, semigroup.p
    # the report's embedding dimension counts the sumset's generators; the
    # tests compare the sumset's list itself with the oracle's scans
    dimension, oracle = report["embedding_dimension"], _generator_count(semigroup)
    if dimension != oracle:
        _mismatch("embedding dimension", dimension, oracle, gens, p)
    if p >= 1:
        valuation = tuple(report["valuation"].values())
        scanned = valuation_lengths_scan(semigroup)
        if valuation != scanned:
            _mismatch("valuation lengths", valuation, scanned, gens, p)
    claimed = report["power_sums"]  # mu = 1, 2, ...
    brute = _streamed_power_sums(semigroup.membership, claimed)
    for mu in claimed:
        if claimed[mu] != brute[mu]:
            _mismatch(f"power sum mu={mu}", claimed[mu], brute[mu], gens, p)
    # The closed forms are whole Apery tuples mod a1, each a witness for
    # every membership bit.  A validated tuple has gcd 1 and ascends
    # strictly, so they need no coprimality or positive-step test.
    reduction = gcd_reduce(gens)
    a1, d = reduction.a1, reduction.d
    if d > 1:
        reduced = build_psemigroup(reduction.reduced, p).membership
        lifted = sorted(d * w for w in _least_per_class(reduced, a1))
        direct = sorted(_least_per_class(semigroup.membership, a1))
        if lifted != direct:
            _mismatch("gcd-reduction lift", lifted, direct, gens, p)
    a, b, *rest = gens.elements
    if not rest:
        closed, what = _two_var_apery(a, b, p), "two-generator"
    elif rest == [2 * b - a] and a >= 3 and p <= a // 2:
        closed, what = _arith_apery(a, b - a, p), "arithmetic-triple"
    else:
        return
    ap = apery_set(semigroup)
    if closed != ap:
        _mismatch(f"{what} Apery tuple", closed, ap, gens, p)


def build_invariant_report(
    gens: GeneratorTuple, p: int, mu_max: int = 3, verify: bool = False
) -> dict:
    """The ``invariants`` report: its fields in output order, every number an int.

    ``power_sums`` maps each mu in 1..mu_max to the power sum of the gaps.
    """
    semigroup = build_psemigroup(gens, p)
    ap = apery_set(semigroup)
    table = semigroup.membership
    frob = frobenius_from_apery(ap)
    sums = gap_power_sums(ap, max(mu_max, 1))
    genus, sylvester = sums[0], sums[1]
    enum_frob = table.rfind(0)
    if frob != semigroup.frobenius or frob != enum_frob:
        _mismatch("frobenius", frob, enum_frob, gens, p)
    enum_genus = table.count(0)
    if genus != enum_genus:
        _mismatch("genus", genus, enum_genus, gens, p)
    gap_sum = _gap_sum(table)
    if sylvester != gap_sum:
        _mismatch("sylvester sum", sylvester, gap_sum, gens, p)
    power_sums = {mu: sums[mu] for mu in range(1, mu_max + 1)}
    pf = pf_via_apery_maximals(semigroup)
    valuation = (
        dict(zip(("d1", "d2", "d3"), valuation_lengths(semigroup))) if p >= 1 else None
    )
    report = {
        "gens": list(gens.elements),
        "gens_minimal": gens.minimal,
        "p": p,
        "ell0": semigroup.least_element,
        "frobenius": frob,
        "genus": genus,
        "sylvester_sum": sylvester,
        "power_sums": power_sums,
        "apery": list(ap),
        "pf": pf,
        "type": len(pf),
        "classification": classify(semigroup),
        "valuation": valuation,
    }
    if verify:
        _verify_estimated(semigroup, report)
    report["embedding_dimension"] = embedding_dimension(semigroup)
    if verify:
        _verify_unchecked(semigroup, report)
    return report
