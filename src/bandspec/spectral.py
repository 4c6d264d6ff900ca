"""Spectral functions of band matrices and the eigensolver behind them.

A spectral function here is a finite nondecreasing n x n matrix step
function, stored as its jumps: nodes x_k (one ascending array) plus
coefficient vectors alpha(x_k) of length n (the rows of one array),
the jump matrix being the rank-one product alpha alpha^t.  For a band
matrix the canonical construction takes the eigenvalues as nodes and
the first n components of the orthonormal eigenvectors as coefficient
vectors.

The inner product carried by a spectral function,

    <r, s> = sum_k (alpha(x_k) . r(x_k)) * (alpha(x_k) . s(x_k)),

is positive semidefinite only (vector polynomials vanishing at all
nodes have norm zero), which is what makes the reconstruction module's
orthogonalization interesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DeadComponent,
    DimensionMismatch,
    MembershipViolation,
    NoConvergence,
    NonFiniteEntry,
    NotSymmetric,
    RankSumMismatch,
    ValidationError,
    WeightOverflow,
    WeightUnderflow,
    ZeroJump,
)
from .bandmat import to_dense, validate_band

#: Relative tolerance deciding when two nodes are the same eigenvalue.
NODE_MERGE_TOL = 1e-10

#: Symmetry threshold of eig_symmetric, relative to max(1, max |M|).
SYMMETRY_TOL = 1e-9

#: Relative eigenvalue threshold deciding the rank of a jump matrix.
RANK_TOL = 1e-9


class Jump(NamedTuple):
    """One jump of a spectral function: node x, coefficient tuple alpha."""

    x: float
    alpha: tuple


@dataclass(frozen=True, eq=False, init=False)
class SpectralFunction:
    """Jump representation of a matrix-valued spectral step function.

    x holds the N nodes and row k of the (N, n) array alpha the
    coefficient vector of jump k, both read-only float64.  The
    constructor takes Jump records or (x, alpha) pairs in any order and
    with any signs and stores their canonical form (see _own); jumps
    gives Jump records back.  Equality and hashing go by value.
    """

    n: int
    x: np.ndarray
    alpha: np.ndarray

    def __init__(self, n, jumps):
        if n < 1:
            raise DimensionMismatch("component count must be >= 1, got %d" % n)
        jumps = tuple(jumps)
        for x, alpha in jumps:
            if len(alpha) != n:
                raise DimensionMismatch(
                    "jump at x=%r carries %d coefficients, expected %d"
                    % (float(x), len(alpha), n)
                )
        _own(self, n, np.array([x for x, _ in jumps], dtype=float),
             np.array([a for _, a in jumps], dtype=float).reshape(len(jumps), n))

    @property
    def N(self):
        return len(self.x)

    @property
    def jumps(self):
        """The jumps as a tuple of Jump records, alpha a tuple."""
        return tuple(Jump(x, tuple(a))
                     for x, a in zip(self.x.tolist(), self.alpha.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SpectralFunction):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.x, other.x)
                and np.array_equal(self.alpha, other.alpha))

    def __hash__(self):
        return hash((self.n, self.jumps))


def _own(sigma, n, x, alpha):
    """Fill a bare SpectralFunction with new read-only arrays holding the
    canonical form of the jumps (x, alpha): sorted by node, exact ties by
    alpha entry by entry, each alpha's first nonzero entry positive and,
    by adding 0.0, no zero negative.  Strictly ascending nodes are
    already in that order, and skip the sort."""
    lead = alpha[np.arange(len(x)), (alpha != 0.0).argmax(1)]
    alpha = alpha * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    if not (x[1:] > x[:-1]).all():
        order = np.lexsort((*alpha.T[::-1], x))
        x, alpha = x[order], alpha[order]
    x, alpha = x + 0.0, alpha + 0.0
    x.flags.writeable = alpha.flags.writeable = False
    sigma.__dict__.update(n=n, x=x, alpha=alpha)
    return sigma


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending and orthonormal eigenvectors (columns).

    Equality is identity, as for the arrays it holds.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_symmetric(M):
    """Diagonalize a dense real symmetric matrix.

    Parameters
    ----------
    M : (N, N) array_like
        Must be symmetric within SYMMETRY_TOL relative to its largest
        entry.

    Raises
    ------
    NotSymmetric
        If max |M - M^t| exceeds SYMMETRY_TOL * max(1, max |M|).
    NoConvergence
        If the underlying eigensolver fails.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("expected a square matrix, got %r" % (M.shape,))
    if not (M == M.T).all():  # exactly symmetric needs no skew
        scale = max(1.0, float(np.max(np.abs(M))))
        skew = float(np.max(np.abs(M - M.T)))
        if skew > SYMMETRY_TOL * scale:
            raise NotSymmetric(
                "matrix is not symmetric: max |M - M^t| = %r" % skew
            )
    try:
        values, vectors = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigensolver did not converge: %s" % exc) from exc
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenDecomposition(values, vectors)


def canonical_spectral_function(A):
    """Spectral function of a band matrix under identity initial values.

    Jump k is (lambda_k, first n components of the k-th eigenvector), in
    SpectralFunction's canonical order and signs.  The result always
    carries exactly N jumps whose merged ranks sum to N; a failure of
    those properties is reported as MembershipViolation since it
    signals either an inadmissible matrix or numerical breakdown.

    Raises
    ------
    WeightUnderflow
        An eigenvector's first n entries all came out as exactly 0.0.
        Admissible matrices have no zero jump, so this is a numerical
        limit (typically a strongly localized eigenvector at large N).
    NonFiniteEntry
        An eigenvalue or its coefficient vector came out as no finite
        float: the eigenvalues of a matrix with entries near the float64
        limit overflow (1e308 entries at n = 1, N = 2 give 2e308).
    """
    validate_band(A)
    dec = eig_symmetric(to_dense(A))
    sigma = _own(object.__new__(SpectralFunction), A.n, dec.values,
                 dec.vectors[: A.n].T)
    try:
        validate_sigma(sigma)
    except ZeroJump as exc:
        k = int(np.flatnonzero(np.all(sigma.alpha == 0.0, axis=1))[0])
        raise WeightUnderflow(
            "jump %d at x=%r: its coefficient vector (the first n=%d "
            "eigenvector entries) underflowed to exactly 0.0"
            % (k + 1, float(sigma.x[k]), A.n)
        ) from exc
    except ValidationError as exc:
        bad = ~(np.isfinite(sigma.x) & np.isfinite(sigma.alpha).all(1))
        if bad.any():
            k = int(bad.argmax())
            raise NonFiniteEntry(
                "eigenvalue %d of %d is %r with coefficient vector %r: the "
                "eigensolver overflowed float64"
                % (k + 1, A.N, float(sigma.x[k]), sigma.alpha[k].tolist())
            ) from exc
        raise MembershipViolation(
            "constructed spectral function fails validation: %s" % exc
        ) from exc
    return sigma


def transform_spectral_function(sigma, T):
    """Map the canonical spectral function to the one for initial
    values T: each coefficient vector becomes (T^t)^{-1} alpha, nodes
    unchanged.  Applying T^t (.) T to the transformed jumps recovers
    the originals.  Raises WeightOverflow when some (T^t)^{-1} alpha
    is not finite (T nearly singular, a diagonal entry 1e-320, say),
    or when T^t is singular in float64, where it overflows as well."""
    if T.n != sigma.n:
        raise DimensionMismatch(
            "initial values have size %d, spectral function has %d"
            % (T.n, sigma.n)
        )
    # one single-vector solve per jump, stacked; a multi-column solve
    # would round differently
    try:
        alpha = np.linalg.solve(T.dense().T, sigma.alpha[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise WeightOverflow("initial values are singular in float64: "
                             "(T^t)^-1 alpha overflows") from exc
    if not np.isfinite(alpha).all():
        k = int(np.isfinite(alpha).all(1).argmin())
        raise WeightOverflow("jump %d at x=%r: (T^t)^-1 alpha is not finite"
                             % (k + 1, float(sigma.x[k])))
    return _own(object.__new__(SpectralFunction), sigma.n, sigma.x, alpha)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed sum holds inf or nan
def merged_jump_matrices(sigma):
    """Group jumps at numerically equal nodes and sum their matrices.

    Consecutive nodes closer than NODE_MERGE_TOL * (1 + |x|) to the
    first node x of their group fall into it.  Returns a list of
    (representative node, n x n jump matrix) in ascending node order.

    All consecutive gaps are tested at once first; only when some node
    lies that close to its predecessor does a loop over the jumps
    build the groups.  Otherwise every jump is its own group.
    """
    x, alpha = sigma.x, sigma.alpha
    M = alpha[:, :, None] * alpha[:, None, :]
    if not (x[1:] - x[:-1] <= NODE_MERGE_TOL * (1.0 + np.abs(x[:-1]))).any():
        return list(zip(x.tolist(), M))
    groups = []
    for xk, Mk in zip(x.tolist(), M):
        if groups and xk - groups[-1][0] <= NODE_MERGE_TOL * (1.0 + abs(groups[-1][0])):
            groups[-1][1] += Mk
        else:
            groups.append([xk, Mk])
    return [(xk, Mk) for xk, Mk in groups]


def validate_sigma(sigma):
    """Check the admissibility of a spectral function.

    A pass is recorded on sigma (its arrays are read-only), and later
    calls on it return at once; a failure records nothing.

    Raises
    ------
    ZeroJump
        Some jump has an identically zero coefficient vector.
    DeadComponent
        Some component index never receives a nonzero coefficient.
    RankSumMismatch
        Some node or coefficient is NaN or infinite, or the ranks of the
        merged per-node jump matrices do not sum to the number of jumps
        (rank decided by eigenvalues above RANK_TOL * largest).

    A nonzero, finite jump alone at its node is the rank-one matrix
    alpha alpha^t, so eigenvalues are computed only when nodes merge.
    Then each group's matrix is summed again from its vectors scaled
    by 2^-e, 2^e just above the group's largest |entry|: a power of
    two changes no rank, and the scaled sum cannot overflow.
    """
    if sigma.__dict__.get("_admissible"):
        return
    x, alpha = sigma.x, sigma.alpha
    zero = alpha == 0.0
    if zero.all(1).any():
        raise ZeroJump("jump at x=%r has a zero coefficient vector"
                       % float(x[zero.all(1).argmax()]))
    if zero.all(0).any():
        raise DeadComponent("component %d has zero coefficient at every node"
                            % (zero.all(0).argmax() + 1))
    if not np.isfinite(alpha).all():
        raise RankSumMismatch("jump at x=%r has a non-finite coefficient vector"
                              % float(x[~np.isfinite(alpha).all(1)][0]))
    if not np.isfinite(x).all():
        raise RankSumMismatch("jump at x=%r has a non-finite node"
                              % float(x[~np.isfinite(x)][0]))
    groups = merged_jump_matrices(sigma)
    total = sigma.N
    if len(groups) < sigma.N:
        # equal finite nodes always merge: each group starts at its node
        start = np.searchsorted(x, [g for g, _ in groups])
        e = np.frexp(np.maximum.reduceat(np.abs(alpha).max(1), start))[1]
        alpha = np.ldexp(alpha, -np.repeat(e, np.diff(start, append=sigma.N))[:, None])
        evals = np.linalg.eigvalsh(
            np.add.reduceat(alpha[:, :, None] * alpha[:, None, :], start))
        total = int(np.count_nonzero(evals > RANK_TOL * evals[:, -1:]))
    if total != sigma.N:
        raise RankSumMismatch(
            "merged jump ranks sum to %d, expected %d" % (total, sigma.N)
        )
    sigma.__dict__["_admissible"] = True


def jump_sum(sigma):
    """Sum of all jump matrices (the identity for canonical spectral
    functions of admissible matrices)."""
    alpha = sigma.alpha
    # jump by jump in storage order; alpha^t alpha would round differently
    return sum(alpha[:, :, None] * alpha[:, None, :], np.zeros((sigma.n, sigma.n)))


@np.errstate(over="ignore", invalid="ignore")  # Python floats overflow silently too
def inner(sigma, r, s):
    """The degenerate inner product attached to a spectral function.

    Sums (alpha . r(x_k)) * (alpha . s(x_k)) over jumps in storage
    order with exactly rounded accumulation, so inner(sigma, r, s) and
    inner(sigma, s, r) are equal bit for bit.
    """
    from .vecpoly import _values

    if r.n != sigma.n or s.n != sigma.n:
        raise DimensionMismatch(
            "polynomials with %d and %d components against a spectral "
            "function with %d" % (r.n, s.n, sigma.n)
        )
    vr, vs = ([math.fsum(row) for row in (sigma.alpha * _values(p, sigma.x)).tolist()]
              for p in (r, s))
    return math.fsum(np.multiply(vr, vs).tolist())
