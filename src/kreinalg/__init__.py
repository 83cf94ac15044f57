"""Finite-dimensional Krein C*-algebras.

Rank-one model, function algebras over finite point sets, graded matrix
algebras with a fundamental symmetry, their spectrum of characters and the
Gelfand transform, plus a CLI that verifies the axioms numerically.
"""

from .kalgebra import (
    KElem,
    K_ONE,
    K_E,
    k_mul,
    k_star,
    k_gamma,
    k_epsilon,
    k_norm,
    k_close,
    KAutomorphism,
    k_automorphisms,
    DeformedAlgebra,
    DeformedVerdict,
    DeformedWitness,
    deformed_check,
)
from .finite_krein import (
    AlgebraValidationError,
    SpanError,
    NotOddElementError,
    NotAnIdealError,
    NotAlphaInvariantError,
    InstanceFormatError,
    CheckResult,
    KreinAlgebra,
    GradedElement,
    build_function_algebra,
    conjugate_algebra,
    random_unitary,
    dagger,
    decompose,
    inner_products,
    check_full,
    CommutativeSymmetricVerdict,
    check_commutative_symmetric,
    OddSymmetryVerdict,
    check_odd_symmetry,
    check_cstar_identity,
    check_krein_identity,
    check_decomposition,
    check_bimodule_axioms,
    check_imprimitivity,
    quotient_by_ideal,
    quotient_with_map,
    algebra_to_instance_dict,
    algebra_from_instance_dict,
    function_algebra_instance,
)
from .spectrum import (
    NotCommutativeError,
    ClusteringAmbiguityError,
    MissingOddGeneratorError,
    SpectralHypothesisError,
    EvenCharacter,
    Character,
    SpectrumClass,
    even_characters,
    extend_character,
    spectrum_classes,
    gelfand,
    gelfand_matrix,
    character_residuals,
    evenness_residual,
    character_kernel_ideal,
    verify_spectral_theorem,
    kernel_lemma_checks,
    SpectralReport,
)

__version__ = "0.1.0"
