"""Direct and inverse spectral analysis of band symmetric matrices.

The package handles real symmetric N x N matrices of half-bandwidth n
whose outer diagonals follow a nested positive-run / zero-tail pattern
(the degeneration structure).  The direct problem attaches to such a
matrix an n x n matrix-valued spectral step function; the inverse
problem recovers the matrix, its degeneration profile, and the
triangular matrix of recurrence initial values from a spectral
function alone, by Gram-Schmidt orthogonalization of vector
polynomials in a degenerate inner-product space.

Modules
-------
vecpoly
    Vector polynomials and the height grading.
bandmat
    The matrix class, membership validation, the polynomial recurrence.
spectral
    Eigendecomposition, spectral functions, their validation and
    transformation, the degenerate inner product.
reconstruct
    The inverse problem.
springchain
    Mass-spring chains with next-nearest couplings as a physical
    source of half-bandwidth-2 matrices.
sampling
    Random admissible instances for tests and experiments.
cli
    Command-line front end (also exposed as the bandspec script).
"""

from . import errors, sampling
from .vecpoly import (
    NEG_INF,
    VecPoly,
    basis_vector,
    evaluate,
    height,
    linear_combine,
    shift_mul,
    trim_small,
    vec_poly,
    zero_poly,
)
from .bandmat import (
    BandMatrix,
    DegenerationProfile,
    RecurrenceTable,
    TriangularInit,
    generator_matrix,
    rank_defect,
    shrink_band,
    solve_recurrence,
    to_dense,
    validate_band,
)
from .spectral import (
    EigenDecomposition,
    Jump,
    SpectralFunction,
    canonical_spectral_function,
    eig_symmetric,
    inner,
    jump_sum,
    merged_jump_matrices,
    transform_spectral_function,
    validate_sigma,
)
from .reconstruct import (
    Orthogonalization,
    Reconstruction,
    gram_schmidt,
    height_degeneration_indices,
    initial_conditions,
    matrix_from_basis,
    reconstruct,
)
from .springchain import (
    SpringChain,
    build_spring_matrix,
    continued_fraction_check,
    frequencies,
)

__version__ = "0.1.0"

__all__ = [
    "errors", "sampling",
    "NEG_INF", "VecPoly", "basis_vector", "evaluate", "height",
    "linear_combine", "shift_mul", "trim_small", "vec_poly", "zero_poly",
    "BandMatrix", "DegenerationProfile", "RecurrenceTable",
    "TriangularInit", "generator_matrix", "rank_defect", "shrink_band",
    "solve_recurrence", "to_dense", "validate_band",
    "EigenDecomposition", "Jump", "SpectralFunction",
    "canonical_spectral_function", "eig_symmetric", "inner", "jump_sum",
    "merged_jump_matrices", "transform_spectral_function", "validate_sigma",
    "Orthogonalization", "Reconstruction", "gram_schmidt",
    "height_degeneration_indices", "initial_conditions",
    "matrix_from_basis", "reconstruct",
    "SpringChain", "build_spring_matrix", "continued_fraction_check",
    "frequencies",
]
