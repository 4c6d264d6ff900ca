"""The band recurrence of a class member, solved in one coefficient array.

``solve_recurrence`` builds, for a member of the class (it validates
the matrix itself) and an upper triangular matrix of initial values,
the N recurrence solutions p_k (vector polynomials that are orthonormal
under the matrix's spectral function) together with the n zero-norm
generators q_i collected at the degeneration positions, as views of
the rows of one float64 array indexed by height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteEntry
from . import vecpoly
from .bandmat import validate_band

#: Relative singular-value threshold of rank_defect.
RANK_DEFECT_TOL = 1e-9


@dataclass(frozen=True)
class RecurrenceTable:
    """Solutions of the three-term-like band recurrence.

    basis holds p_1 .. p_N (each an n-component VecPoly); generators
    holds the n zero-norm combinations q_1 .. q_n read off at the
    degeneration positions.
    """

    basis: tuple
    generators: tuple

    @property
    def n(self):
        return len(self.generators)


def solve_recurrence(A, T):
    """Solve the band recurrence for all N positions.

    The defining equations are the rows of A r(z) = z r(z) read as
    constraints on vector polynomials: row k expresses the entry with
    the highest undetermined index through earlier ones, dividing by
    the positive in-run diagonal entry.  At a degeneration position the
    would-be pivot is zero, so the row instead yields a zero-norm
    combination; those n leftovers are the generators.

    The first n solutions are the constant vector polynomials given by
    the columns of T (solution j has constant component i equal to
    T[i][j]).

    Parameters
    ----------
    A : BandMatrix
        validate_band(A) supplies the profile; a matrix outside the
        class raises its error here.
    T : TriangularInit
        Initial values; T.n must equal A.n.

    Returns
    -------
    RecurrenceTable
    """
    profile = validate_band(A)
    n, N = A.n, A.N
    if T.n != n:
        raise DimensionMismatch(
            "initial values are %d x %d but the matrix has half-bandwidth %d"
            % (T.n, T.n, n)
        )
    cuts = set(profile.m)
    # row k - 1 is p_k by height; the height sum caps z p_k at Nn - (n-1)^2
    P = np.zeros((N, n * (N - n + 2)))
    P[:n, :n] = T.dense().T + 0.0  # the columns of T, every zero +0.0
    generators = []
    for k in range(1, N + 1):
        s = sum(1 for mj in profile.m if mj < k)
        # z p_k, then each coupling subtracted in turn: the diagonal,
        # backward, then forward strictly below the pivot diagonal; at
        # a degeneration position (s cuts already passed, this is cut
        # s + 1) the same bound n - s - 1 skips the vanished entries
        r = np.concatenate((np.zeros(n), P[k - 1, :-n]))
        r -= A.entry(0, k) * P[k - 1]
        for j in range(1, min(n, k - 1) + 1):
            r -= A.entry(j, k - j) * P[k - j - 1]
        for j in range(1, n - s):
            r -= A.entry(j, k) * P[k + j - 1]
        if k in cuts:
            generators.append(vecpoly._canonical(n, r))
        else:
            # m_s < k < m_{s+1}: validate_band found this pivot positive;
            # p_{k+n-s} is the next unsolved solution iff s generators exist
            assert s == len(generators), "recurrence lost contiguity"
            P[k + n - s - 1] = (1.0 / A.entry(n - s, k)) * r + 0.0
    assert len(generators) == n
    return RecurrenceTable(tuple(vecpoly._canonical(n, p) for p in P), tuple(generators))


def generator_matrix(table, z):
    """Evaluate the generators at z, stacked as rows of an n x n array.

    Entry (i, j) is component j of generator i.  The determinant of
    this matrix vanishes exactly at the eigenvalues of the underlying
    band matrix.
    """
    return np.array([vecpoly._values(q, z) for q in table.generators])


def rank_defect(table, z):
    """n minus the numerical rank of the generator matrix at z.

    Row i of the generator matrix is first divided by generator i's own
    coefficient mass at max(1, |z|), the largest l1 sum over its
    components of |coefficient| * max(1, |z|)^degree; a zero
    generator's row stays zero.  The generators grow with different
    powers of |z|, and unscaled their rows look nearly dependent far
    from the spectrum.  Rank is then decided by singular values against
    RANK_DEFECT_TOL times the larger of the top singular value and 1
    (when some generator is nonzero).  The second term matters when the
    whole matrix vanishes (an eigenvalue whose multiplicity equals n),
    where any purely relative rule would mistake rounding noise for
    rank.  At an eigenvalue the defect
    equals the eigenspace dimension; away from the spectrum it is zero.

    Raises
    ------
    NonFiniteEntry
        The generator matrix or a coefficient mass at z is not finite
        (z itself, or a power of |z| that overflows float64).
    """
    M = generator_matrix(table, z)
    base = max(1.0, abs(z))
    try:
        # sum adds left to right, in ascending degree
        mass = np.array([max(sum(abs(v) * base ** d for d, v in enumerate(c)) for c in q.comps)
                         for q in table.generators])
    except OverflowError:  # float ** int raises where numpy would give inf
        mass = np.array([math.inf])
    if not (np.isfinite(mass).all() and np.isfinite(M).all()):
        raise NonFiniteEntry(
            "the generators at z = %r are not finite in float64 (generator "
            "matrix or coefficient mass), so their rank is undefined" % z
        )
    svals = np.linalg.svd(M / np.where(mass > 0.0, mass, 1.0)[:, None], compute_uv=False)
    thresh = RANK_DEFECT_TOL * max(float(svals[0]), 1.0 if mass.any() else 0.0)
    return table.n - int(np.count_nonzero(svals > thresh))
