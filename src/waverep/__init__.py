"""Scale-N filter banks as isometry families on the circle.

The package verifies quadrature-mirror and modulation-matrix unitarity,
realizes the induced isometries and their exact adjoints on trigonometric
polynomials, computes scaling and mother functions by truncated infinite
products, classifies Wold decompositions, decomposes monomial families by
integer orbits, solves cocycle equivalence, dilates finite coisometry
families on a truncated Fock space, and computes a unit-circle spectral
index for scale-2 pairs.
"""

from .cascade import LineSamples, cascade_limit_residual, mother_hat, per_residual, scaling_hat
from .cuntz import (
    CuntzRep,
    ShiftCoefficients,
    apply_filter_adjoint,
    apply_filter_isometry,
    cuntz_residuals,
    endomorphism_residual,
    filter_window_adjoint,
    shift_realization,
)
from .dilation import (
    CoisometryFamily,
    Word,
    fock_embedding,
    gram_matrix,
    purity_diagnostics,
    random_coisometry,
    scaled_word_value,
    state_value,
)
from .filterbank import (
    AngleFunction,
    CheckReport,
    FilterBank,
    check_bank,
    check_lowpass,
    complete_filterbank,
    modulation_matrix,
    pairwise_residual,
    paraunitarity_residual,
    qmf_residual,
    require_verified,
    unitarity_residual,
)
from .index import (
    SpectralReport,
    combined_isometry_apply,
    pairing,
    spectral_solutions,
)
from .laurent import CircleGrid, GridFunction, LaurentPoly, inner, sample
from .permutative import (
    CharRep,
    ComponentReport,
    MonomialRep,
    check_partition,
    decompose_monomial,
    equivalence_check,
    solve_coboundary,
)
from .wold import WoldReport, range_projection_norms, wavelet_shift_check, wold_analysis

__version__ = "0.1.0"

__all__ = [
    "AngleFunction",
    "CharRep",
    "CheckReport",
    "CircleGrid",
    "CoisometryFamily",
    "ComponentReport",
    "CuntzRep",
    "FilterBank",
    "GridFunction",
    "LaurentPoly",
    "LineSamples",
    "MonomialRep",
    "ShiftCoefficients",
    "SpectralReport",
    "WoldReport",
    "Word",
    "apply_filter_adjoint",
    "apply_filter_isometry",
    "cascade_limit_residual",
    "check_bank",
    "check_lowpass",
    "check_partition",
    "combined_isometry_apply",
    "complete_filterbank",
    "cuntz_residuals",
    "decompose_monomial",
    "endomorphism_residual",
    "equivalence_check",
    "filter_window_adjoint",
    "fock_embedding",
    "gram_matrix",
    "inner",
    "modulation_matrix",
    "mother_hat",
    "pairing",
    "pairwise_residual",
    "paraunitarity_residual",
    "per_residual",
    "purity_diagnostics",
    "qmf_residual",
    "random_coisometry",
    "range_projection_norms",
    "require_verified",
    "sample",
    "scaled_word_value",
    "scaling_hat",
    "shift_realization",
    "solve_coboundary",
    "spectral_solutions",
    "state_value",
    "unitarity_residual",
    "wavelet_shift_check",
    "wold_analysis",
]
