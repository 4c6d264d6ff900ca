"""Symmetric band matrices with a nested degeneration pattern.

The matrices handled here are real symmetric N x N with half-bandwidth
n, stored as one list per diagonal (main diagonal first).  Membership
in the admissible class requires each outer diagonal, scanned from the
outermost inward, to consist of a strictly positive run followed by
exact zeros; the position of the first zero on each level is a
degeneration index m_j.  ``validate_band`` infers those indices and
checks the sign pattern.

Validation needs no numpy: it is imported where a dense array is made.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    InnermostDegeneration,
    LeadingZero,
    NegativeConstrainedEntry,
    NonContiguousPositiveRun,
    NotTriangular,
    ValidationError,
)


@dataclass(frozen=True)
class BandMatrix:
    """Packed symmetric band matrix.

    diags[j] holds d^(j)_1 .. d^(j)_{N-j}, the entries at positions
    (k+j, k) and (k, k+j).  Only one triangle is stored, so instances
    are symmetric by construction.  n = 0 (diagonal matrix) is allowed
    at the storage level for tiny physical models; class validation
    requires n >= 1.
    """

    n: int
    N: int
    diags: tuple

    def __post_init__(self):
        if self.n < 0 or self.N <= self.n:
            raise DimensionMismatch(
                "need 0 <= n < N, got n=%d N=%d" % (self.n, self.N)
            )
        if len(self.diags) != self.n + 1:
            raise DimensionMismatch(
                "expected %d diagonals, got %d" % (self.n + 1, len(self.diags))
            )
        canon = []
        for j, d in enumerate(self.diags):
            d = tuple(map(float, d))
            if len(d) != self.N - j:
                raise DimensionMismatch(
                    "diagonal %d must have %d entries, got %d"
                    % (j, self.N - j, len(d))
                )
            canon.append(d)
        object.__setattr__(self, "diags", tuple(canon))

    def entry(self, j, k):
        """d^(j)_k with 1-based position k."""
        return self.diags[j][k - 1]


@dataclass(frozen=True)
class DegenerationProfile:
    """Degeneration indices m_1 < ... < m_n and the count j0 of genuine
    degenerations (the trailing n - j0 indices sit at their forced
    values m_j = N - n + j).

    empty_runs lists the levels j (1-based) where m_j = m_{j-1} + 1,
    i.e. the positive run between two consecutive degenerations is
    empty.  Such profiles are admissible but worth flagging: they only
    arise from back-to-back cuts.
    """

    m: tuple
    j0: int
    empty_runs: tuple = ()

    def __post_init__(self):
        prev = 0
        for v in self.m:
            if v <= prev:
                raise DimensionMismatch("degeneration indices must increase")
            prev = v


@dataclass(frozen=True)
class TriangularInit:
    """Upper triangular matrix of initial values for the recurrence.

    Stored as a full square tuple of rows; entries below the diagonal
    must be exactly zero, the diagonal positive (as reconstruct gives).
    """

    n: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise DimensionMismatch(
                "expected %d rows, got %d" % (self.n, len(self.rows))
            )
        canon = []
        for i, row in enumerate(self.rows):
            row = tuple(map(float, row))
            if len(row) != self.n:
                raise DimensionMismatch("row %d has wrong length" % i)
            if not row[i] > 0.0:
                raise NotTriangular("diagonal entry %d = %r is not positive"
                                    % (i + 1, row[i]))
            if any(v != 0.0 for v in row[:i]):
                raise NotTriangular(
                    "row %d has nonzero entries below the diagonal" % (i + 1)
                )
            canon.append(row)
        object.__setattr__(self, "rows", tuple(canon))

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(tuple(1.0 if i == j else 0.0 for j in range(n))
                            for i in range(n)))

    def dense(self):
        import numpy as np

        return np.array(self.rows, dtype=float)


def validate_band(A):
    """Check membership of A in the admissible band class and infer its
    degeneration profile.

    Scans the diagonals outermost-in.  On level j (diagonal n - j) the
    constrained positions are m_j + 1 .. N - n + j; the first exact
    zero there, if any, is the degeneration index m_{j+1}, entries
    before it must be strictly positive and entries after it through
    the end of the constrained range exactly zero.  With no zero the
    index takes its forced value N - n + j + 1 and every later level is
    forced as well.  Positions up to m_j, like the whole main diagonal,
    are unconstrained.

    Returns
    -------
    DegenerationProfile

    Raises
    ------
    LeadingZero
        d^(n)_1 is not positive (NaN included): the first degeneration
        would sit at position 1, in violation of 1 < m_1 <= N-n+1.
    NegativeConstrainedEntry, NonContiguousPositiveRun
        Sign-pattern violations inside a constrained range.
    InnermostDegeneration
        A genuine zero cut on the innermost off-diagonal, which would
        make all n levels degenerate; the class allows at most n - 1.
    """
    n, N = A.n, A.N
    if n < 1:
        raise ValidationError("class membership needs n >= 1")
    if not A.diags[n][0] > 0.0:
        raise LeadingZero(
            "d^(%d)_1 = %r violates 1 < m_1 < N-n+1: the outermost diagonal "
            "must start with a positive entry" % (n, A.diags[n][0])
        )
    m = []
    empty_runs = []
    prev = 0  # m_0
    for j in range(n):
        d = A.diags[n - j]
        lo, hi = prev + 1, N - n + j
        for cut in range(lo, hi + 1):
            if not d[cut - 1] > 0.0:
                break
        else:
            # no cut: this level and every later one, whose scan ranges
            # are empty, take their forced indices
            break
        for k in range(cut, hi + 1):
            v = d[k - 1]
            if v < 0.0:
                if k == cut:
                    raise NegativeConstrainedEntry(
                        "d^(%d)_%d = %r must be positive or zero"
                        % (n - j, k, v)
                    )
                raise NegativeConstrainedEntry(
                    "d^(%d)_%d = %r must be zero past the cut at %d"
                    % (n - j, k, v, cut)
                )
            if v > 0.0:
                raise NonContiguousPositiveRun(
                    "d^(%d)_%d = %r is positive after the zero cut at "
                    "position %d" % (n - j, k, v, cut)
                )
        if j == n - 1:
            raise InnermostDegeneration(
                "zero at position %d of the innermost off-diagonal: at "
                "most %d degeneration levels are allowed" % (cut, n - 1)
            )
        if cut == prev + 1:
            # no positive entry between consecutive cuts; legal but
            # unusual, so flag it (cannot happen at level 0, where the
            # leading entry is already known positive)
            empty_runs.append(j + 1)
        m.append(cut)
        prev = cut
    # a cut on the innermost level raised, so the loop broke at the
    # first forced level j = j0, and levels j..n-1 get hi + 1 .. N
    m.extend(range(hi + 1, N + 1))
    return DegenerationProfile(tuple(m), j, tuple(empty_runs))


def to_dense(A):
    """Unpack to a dense symmetric numpy array."""
    import numpy as np

    N = A.N
    M = np.zeros((N, N))
    flat = M.reshape(-1)
    # diagonal j runs through flat positions j*N + i*(N+1) below the main
    # diagonal and j + i*(N+1) above it, i < N - j
    for j, d in enumerate(map(np.array, A.diags)):  # converted once, for both slices
        flat[j * N::N + 1] = d
        flat[j:(N - j) * N:N + 1] = d
    return M


def shrink_band(A):
    """Drop outermost diagonals that are identically zero.

    Physics constructors may legitimately emit an all-zero outer
    diagonal (a chain without next-nearest springs).  Such a matrix is
    not admissible at its declared bandwidth, but is after shrinking.
    """
    n = A.n
    while n > 0 and all(v == 0.0 for v in A.diags[n]):
        n -= 1
    if n == A.n:
        return A
    return BandMatrix(n, A.N, A.diags[: n + 1])
