"""Finite-dimensional PT-symmetric matrix Hamiltonians.

Construction of parity operators and PT-symmetric systems, spectral phase
classification, the C operator and CPT inner product, time evolution with
unitarity checks, parameter-count bookkeeping, and exact two-level closed
forms.
"""

__version__ = "0.1.0"

from .algebra import (
    build_c_operator, build_weight_matrix, c_operator, cpt_inner, pt_inner,
)
from .closedform import (
    ThreeByThreeParityParams,
    TwoByTwoParams,
    c2,
    eig2,
    h2,
    p2,
    p3,
    vec2,
)
from .construct import (
    BlockForm,
    MatrixClass,
    ParameterCounts,
    ParitySpec,
    PTSystem,
    check_pt_pairs,
    classify_matrix,
    count_parity_params,
    make_h0,
    make_p0,
    make_parity,
    make_pt_system,
    make_rotation,
    max_signature,
    parameter_table,
    pt_matrices,
    pt_system_from_matrices,
    random_pt_system,
)
from .dynamics import EvolutionTrace, NonunitarityResult, evolve, nonunitarity_demo, unitarity_trace
from .errors import BrokenPhaseError, ConvergenceError, ExceptionalPointError
from .linalg import DEFAULT_TOL, eig_arrays, max_abs
from .spectral import (
    Phase,
    PhaseStack,
    SpectralData,
    classify_phase,
    classify_stack,
    find_unbroken_seeds,
    pt_apply,
)

__all__ = [
    "__version__",
    "BlockForm",
    "BrokenPhaseError",
    "ConvergenceError",
    "DEFAULT_TOL",
    "EvolutionTrace",
    "ExceptionalPointError",
    "MatrixClass",
    "NonunitarityResult",
    "ParameterCounts",
    "ParitySpec",
    "PTSystem",
    "Phase",
    "PhaseStack",
    "SpectralData",
    "ThreeByThreeParityParams",
    "TwoByTwoParams",
    "build_c_operator",
    "build_weight_matrix",
    "c2",
    "c_operator",
    "check_pt_pairs",
    "classify_matrix",
    "classify_phase",
    "classify_stack",
    "count_parity_params",
    "cpt_inner",
    "eig2",
    "eig_arrays",
    "evolve",
    "find_unbroken_seeds",
    "h2",
    "make_h0",
    "make_p0",
    "make_parity",
    "make_pt_system",
    "make_rotation",
    "max_abs",
    "max_signature",
    "nonunitarity_demo",
    "p2",
    "p3",
    "parameter_table",
    "pt_apply",
    "pt_inner",
    "pt_matrices",
    "pt_system_from_matrices",
    "random_pt_system",
    "unitarity_trace",
    "vec2",
]
