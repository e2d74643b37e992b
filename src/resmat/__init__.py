"""Quadratic, cubic, and quartic residue matrices.

Membership criteria, constructive prime witnesses, permutation-equivalence
class counts, and splitting-configuration frequencies for matrices built
from power residue symbols.
"""

from .cyclotomic import (
    EisensteinInt,
    GaussianInt,
    check_quartic_reciprocity,
    cubic_symbol,
    is_primary,
    is_prime_element,
    parse_element,
    primary_generator,
    quartic_symbol,
)
from .errors import (
    NotAResidueMatrixError,
    RamifiedPrimeError,
    SearchExhaustedError,
    UnsupportedDimensionError,
)
from .frequencies import (
    ConfigClass,
    FrequencyReport,
    configuration_class,
    empirical_scan,
    exact_frequencies,
)
from .higher import (
    cubic_matrix,
    cubic_witness,
    is_cubic_residue_matrix,
    is_quartic_residue_matrix,
    quartic_matrix,
    quartic_witness,
)
from .matrices import (
    SignMatrix,
    canonical_form,
    conjugate,
    count_skew_classes,
    count_symmetric_classes,
    equivalence_classes,
)
from .qr import (
    ConfigGraph,
    Decision,
    block_form,
    count_qr_classes,
    count_qr_matrices,
    decide,
    from_config_graph,
    is_qr_matrix,
    jacobi_matrix,
    qr_matrix_from_primes,
    to_config_graph,
    witness_primes,
)
from .rational import is_prime, jacobi, legendre, sieve_primes

__all__ = [
    "ConfigClass",
    "ConfigGraph",
    "Decision",
    "EisensteinInt",
    "FrequencyReport",
    "GaussianInt",
    "NotAResidueMatrixError",
    "RamifiedPrimeError",
    "SearchExhaustedError",
    "SignMatrix",
    "UnsupportedDimensionError",
    "block_form",
    "canonical_form",
    "check_quartic_reciprocity",
    "configuration_class",
    "conjugate",
    "count_qr_classes",
    "count_qr_matrices",
    "count_skew_classes",
    "count_symmetric_classes",
    "cubic_matrix",
    "cubic_symbol",
    "cubic_witness",
    "decide",
    "empirical_scan",
    "equivalence_classes",
    "exact_frequencies",
    "from_config_graph",
    "is_cubic_residue_matrix",
    "is_primary",
    "is_prime",
    "is_prime_element",
    "is_qr_matrix",
    "is_quartic_residue_matrix",
    "jacobi",
    "jacobi_matrix",
    "legendre",
    "parse_element",
    "primary_generator",
    "qr_matrix_from_primes",
    "quartic_matrix",
    "quartic_symbol",
    "quartic_witness",
    "sieve_primes",
    "to_config_graph",
    "witness_primes",
]
