"""The invariant report that ``psg invariants`` prints, as a dict.

The report always cross-checks the Apery-formula Frobenius number, genus
and gap sum against the ones read off the membership bytes (cheap, and
provably equal); ``verify=True`` adds the heavier re-derivations:
membership from the count table, the scanned minimal generators and
valuation lengths, brute-force power sums over the gap list, three-way
pseudo-Frobenius agreement, the Hilbert factorization identity, and the
matching closed forms when the generator tuple has one.  ``check_series``
and ``check_denumerant`` are the checks the ``hilbert``, ``membership``
and ``denumerant`` commands share with it.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import add

from .core import GeneratorTuple, InternalConsistencyError, PSemigroup
from .enumeration import (
    build_psemigroup,
    denumerant_oracle,
    gaps,
    membership_oracle,
    minimal_generators,
    minimal_generators_scan,
)
from .apery import (
    apery_set,
    frobenius_from_apery,
    genus_from_apery,
    power_sum,
    sylvester_sum_from_apery,
)
from .symmetry import (
    _FLIP,
    classify,
    pf_via_apery_maximals,
    pf_via_gap_maximals,
    pseudo_frobenius,
    valuation_lengths,
    valuation_lengths_scan,
)
from .hilbert import PowerSeries, gaps_series, hilbert_direct, hilbert_from_apery
from .closed_forms import arith_invariants, two_var_invariants, two_var_membership


def _mismatch(what: str, formula, enumerated, gens: GeneratorTuple, p: int | None) -> None:
    where = f"gens={gens.elements}" if p is None else f"gens={gens.elements} p={p}"
    raise InternalConsistencyError(
        f"{what}: formula value {formula} != enumerated {enumerated} for {where}"
    )


def check_series(semigroup: PSemigroup, direct: PowerSeries, psi: PowerSeries) -> None:
    """The ``--verify`` checks behind the series of ``semigroup``.

    The membership bytes must equal the count table's, the Hilbert series
    ``direct`` its Apery factorization, and ``direct`` plus the gap series
    ``psi`` the all-ones series, all up to the truncation of ``direct``.
    """
    gens, p = semigroup.gens, semigroup.p
    if membership_oracle(gens, p, semigroup.frontier) != semigroup.membership:
        _mismatch("membership", "Apery tuple", "count table", gens, p)
    if hilbert_from_apery(apery_set(semigroup), direct.truncation) != direct:
        _mismatch("Hilbert factorization", "apery series", "direct series", gens, p)
    if list(map(add, direct.coefficients, psi.coefficients)) != [1] * len(direct.coefficients):
        _mismatch("series partition", "H + Psi", "all-ones", gens, p)


def check_denumerant(gens: GeneratorTuple, n: int, count: int, p: int | None = None) -> None:
    """The ``--verify`` checks behind ``count``, the table's value of d(n).

    For n >= 0 the recursive oracle must agree; given a threshold ``p`` on
    two generators, so must the standard-form membership test.
    """
    if n >= 0:
        oracle = denumerant_oracle(gens, n)
        if oracle != count:
            _mismatch(f"denumerant d({n})", count, oracle, gens, p)
    if p is not None and len(gens) == 2:
        closed = two_var_membership(n, *gens.elements, p)
        if closed != (count > p):
            _mismatch(f"membership of {n}", closed, count > p, gens, p)


def _verify_extras(semigroup: PSemigroup, report: dict) -> None:
    gens, p = semigroup.gens, semigroup.p
    fast, scanned = minimal_generators(semigroup), minimal_generators_scan(semigroup)
    if fast != scanned:
        _mismatch("minimal generators", fast, scanned, gens, p)
    if p >= 1:
        valuation = tuple(report["valuation"].values())
        scanned = valuation_lengths_scan(semigroup)
        if valuation != scanned:
            _mismatch("valuation lengths", valuation, scanned, gens, p)
    gap_list = gaps(semigroup)
    for mu, value in report["power_sums"].items():
        brute = sum(n**mu for n in gap_list)
        if value != brute:
            _mismatch(f"power sum mu={mu}", value, brute, gens, p)
    pf = report["pf"]
    via_definition = pseudo_frobenius(semigroup)
    via_gaps = pf_via_gap_maximals(semigroup)
    via_apery = pf_via_apery_maximals(semigroup)
    if not (pf == via_definition == via_gaps == via_apery):
        _mismatch(
            "pseudo-Frobenius sets",
            pf,
            (via_definition, via_gaps, via_apery),
            gens,
            p,
        )
    trunc = 2 * (semigroup.frobenius + 1) + gens.least
    check_series(semigroup, hilbert_direct(semigroup, trunc), gaps_series(semigroup, trunc))
    elements = gens.elements
    if len(elements) == 2:
        a, b = elements
        if a >= 2 and gcd(a, b) == 1:
            closed = two_var_invariants(a, b, p)
            got = (report["frobenius"], report["genus"], report["sylvester_sum"])
            if closed != got:
                _mismatch("two-generator closed forms", closed, got, gens, p)
    if len(elements) == 3:
        a = elements[0]
        d = elements[1] - a
        if (
            d >= 1
            and elements[2] - elements[1] == d
            and a >= 3
            and gcd(a, d) == 1
            and p <= a // 2
        ):
            frob, genus, least = arith_invariants(a, d, p)
            got = (report["frobenius"], report["genus"], report["ell0"])
            if (frob, genus, least) != got:
                _mismatch("arithmetic-triple closed forms", (frob, genus, least), got, gens, p)


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
    genus = genus_from_apery(ap)
    sylvester = sylvester_sum_from_apery(ap)
    enum_frob = table.rfind(0)
    if frob != semigroup.frobenius or frob != enum_frob:
        _mismatch("frobenius", frob, enum_frob, gens, p)
    enum_genus = table.count(0)
    if genus != enum_genus:
        _mismatch("genus", genus, enum_genus, gens, p)
    gap_sum = sum(compress(range(len(table)), table.translate(_FLIP)))
    if sylvester != gap_sum:
        _mismatch("sylvester sum", sylvester, gap_sum, gens, p)
    power_sums = {mu: power_sum(semigroup, mu) for mu in range(1, mu_max + 1)}
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
        "embedding_dimension": len(minimal_generators(semigroup)),
    }
    if verify:
        _verify_extras(semigroup, report)
    return report
