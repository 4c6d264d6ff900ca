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
    Vector polynomials and the height grading, a view of results.
bandmat
    The matrix class and membership validation.
recurrence
    The band recurrence solved in one height-indexed coefficient array.
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
fileio
    The JSON file formats of the command line.

``import bandspec`` imports no submodule.  The first public name read
from the package imports the whole library and binds every public name
here; a submodule name imports that submodule only.  The command line
thus loads only the modules its subcommand runs.
"""

import sys
import types

__version__ = "0.1.0"

# the public names of each submodule, bound here on first use
_EXPORTS = {
    "vecpoly": ("NEG_INF", "VecPoly", "basis_vector", "evaluate", "height",
                "linear_combine", "trim_small", "vec_poly"),
    "bandmat": ("BandMatrix", "DegenerationProfile", "TriangularInit", "shrink_band",
                "to_dense", "validate_band"),
    "recurrence": ("RecurrenceTable", "generator_matrix", "rank_defect",
                   "solve_recurrence"),
    "spectral": ("EigenDecomposition", "Jump", "SpectralFunction",
                 "canonical_spectral_function", "eig_symmetric", "inner", "jump_sum",
                 "merged_jump_matrices", "transform_spectral_function", "validate_sigma"),
    "reconstruct": ("Orthogonalization", "Reconstruction", "gram_schmidt",
                    "height_degeneration_indices", "initial_conditions",
                    "matrix_from_basis", "reconstruct"),
    "springchain": ("SpringChain", "build_spring_matrix", "continued_fraction_check",
                    "frequencies"),
}
_LIBRARY = ("errors", "sampling") + tuple(_EXPORTS)
# each public name's home module, also read by the command line
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = ["errors", "sampling"] + list(_HOME)


def _submodule(name):
    # the import statement's own path, which -X importtime logs (it does
    # not log importlib.import_module)
    __import__(__name__ + "." + name)
    return sys.modules[__name__ + "." + name]


def _load():
    namespace = globals()
    for home in _LIBRARY:
        module = _submodule(home)
        for name in _EXPORTS.get(home, ()):
            namespace[name] = getattr(module, name)


def __getattr__(name):
    # a submodule that runs `from . import vecpoly` while it is half
    # imported asks for a submodule name here: that imports the
    # submodule alone, and never the rest of the library
    if name in _HOME:
        _load()
        return globals()[name]
    if name in _LIBRARY or name in ("cli", "fileio"):
        return _submodule(name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule bandspec.reconstruct binds it here;
        # the package's name `reconstruct` stays the function
        if name == "reconstruct" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
