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
    denumerant,
    denumerant_oracle,
    denumerant_table,
    gaps,
    membership_oracle,
    minimal_generators,
    minimal_generators_lower_half,
)
from .apery import (
    apery_set,
    bernoulli,
    frobenius_from_apery,
    gap_power_sums,
    power_sum,
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
    is_irreducible_classic,
    is_irreducible_shifted,
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
    "denumerant",
    "denumerant_oracle",
    "denumerant_table",
    "frobenius_from_apery",
    "gap_power_sums",
    "gaps",
    "gaps_series",
    "gcd_reduce",
    "hilbert_direct",
    "hilbert_from_apery",
    "intersect",
    "irreducible_decomposition",
    "is_irreducible_classic",
    "is_irreducible_shifted",
    "is_p_completely_symmetric",
    "is_p_pseudo_symmetric",
    "is_p_symmetric",
    "membership_oracle",
    "minimal_generators",
    "minimal_generators_lower_half",
    "pf_via_apery_maximals",
    "pf_via_gap_maximals",
    "power_sum",
    "pseudo_frobenius",
    "two_var_invariants",
    "two_var_membership",
    "valuation_lengths",
    "valuation_lengths_scan",
    "validate_generators",
    "verify_decomposition",
    "__version__",
]
