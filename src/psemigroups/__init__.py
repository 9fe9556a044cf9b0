"""Exact arithmetic for numerical semigroups filtered by representation count.

Given an ascending generator tuple with gcd 1 and a non-negative threshold
p, the integers having more than p representations form a numerical
semigroup once 0 is adjoined.  This package computes its invariants
(Frobenius number, genus, Sylvester power sums, Apery sets,
pseudo-Frobenius numbers, Hilbert series), classifies the symmetry type,
and cross-validates every closed form against brute-force enumeration.
"""

from .core import (
    EmptyInputError,
    GcdNotOneError,
    GeneratorTuple,
    InternalConsistencyError,
    ModulusNotGeneratorError,
    NoCoprimeElementError,
    NonIntegerResultError,
    NonPositiveElementError,
    OutOfValidityRangeError,
    PSemigroup,
    TableLimitError,
    ValidationError,
    validate_generators,
)
from .enumeration import (
    build_psemigroup,
    denumerant_oracle,
    denumerant_table,
    gaps,
    membership_oracle,
    minimal_generators,
    minimal_generators_scan,
)
from .apery import (
    apery_set,
    bernoulli,
    frobenius_from_apery,
    genus_from_apery,
    power_sum,
    sylvester_sum_from_apery,
)
from .symmetry import (
    classify,
    is_p_completely_symmetric,
    is_p_pseudo_symmetric,
    is_p_symmetric,
    pf_via_apery_maximals,
    pf_via_gap_maximals,
    pseudo_frobenius,
    valuation_lengths,
    valuation_lengths_scan,
)
from .closed_forms import (
    GcdReduction,
    arith_invariants,
    gcd_reduce,
    lift_invariants,
    two_var_invariants,
    two_var_membership,
)
from .hilbert import (
    PowerSeries,
    arith_hilbert_closed,
    gaps_series,
    hilbert_direct,
    hilbert_from_apery,
)
from .decompose import (
    FiniteSemigroup,
    intersect,
    irreducible_decomposition,
    irreducible_oversemigroup_avoiding,
    is_irreducible_classic,
    is_irreducible_shifted,
    is_subsemigroup,
    verify_decomposition,
)
from .report import build_invariant_report

__version__ = "0.1.0"

__all__ = [
    "EmptyInputError",
    "FiniteSemigroup",
    "GcdNotOneError",
    "GcdReduction",
    "GeneratorTuple",
    "InternalConsistencyError",
    "ModulusNotGeneratorError",
    "NoCoprimeElementError",
    "NonIntegerResultError",
    "NonPositiveElementError",
    "OutOfValidityRangeError",
    "PSemigroup",
    "PowerSeries",
    "TableLimitError",
    "ValidationError",
    "apery_set",
    "arith_hilbert_closed",
    "arith_invariants",
    "bernoulli",
    "build_invariant_report",
    "build_psemigroup",
    "classify",
    "denumerant_oracle",
    "denumerant_table",
    "frobenius_from_apery",
    "gaps",
    "gaps_series",
    "gcd_reduce",
    "genus_from_apery",
    "hilbert_direct",
    "hilbert_from_apery",
    "intersect",
    "irreducible_decomposition",
    "irreducible_oversemigroup_avoiding",
    "is_irreducible_classic",
    "is_irreducible_shifted",
    "is_p_completely_symmetric",
    "is_p_pseudo_symmetric",
    "is_p_symmetric",
    "is_subsemigroup",
    "lift_invariants",
    "membership_oracle",
    "minimal_generators",
    "minimal_generators_scan",
    "pf_via_apery_maximals",
    "pf_via_gap_maximals",
    "power_sum",
    "pseudo_frobenius",
    "sylvester_sum_from_apery",
    "two_var_invariants",
    "two_var_membership",
    "valuation_lengths",
    "valuation_lengths_scan",
    "validate_generators",
    "verify_decomposition",
    "__version__",
]
