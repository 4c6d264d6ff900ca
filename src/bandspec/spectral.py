"""Spectral functions of band matrices and the eigensolver behind them.

A spectral function here is a finite nondecreasing n x n matrix step
function, stored as its list of jumps: node x_k plus a coefficient
vector alpha(x_k) of length n, the jump matrix being the rank-one
product alpha alpha^t.  For a band matrix the canonical construction
takes the eigenvalues as nodes and the first n components of the
orthonormal eigenvectors as coefficient vectors.

The inner product carried by a spectral function,

    <r, s> = sum_k (alpha(x_k) . r(x_k)) * (alpha(x_k) . s(x_k)),

is positive semidefinite only (vector polynomials vanishing at all
nodes have norm zero), which is what makes the reconstruction module's
orthogonalization interesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DeadComponent,
    DimensionMismatch,
    MembershipViolation,
    NoConvergence,
    NotSymmetric,
    RankSumMismatch,
    ValidationError,
    WeightUnderflow,
    ZeroJump,
)
from . import vecpoly
from .bandmat import to_dense, validate_band

#: Relative tolerance deciding when two nodes are the same eigenvalue.
NODE_MERGE_TOL = 1e-10


@dataclass(frozen=True)
class Jump:
    x: float
    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))


@dataclass(frozen=True)
class SpectralFunction:
    """Jump representation of a matrix-valued spectral step function.

    jumps are sorted by node ascending; ties keep their construction
    order.  N is the number of jumps, which for spectral functions of
    N x N matrices equals the matrix dimension.
    """

    n: int
    jumps: tuple

    def __post_init__(self):
        for jump in self.jumps:
            if len(jump.alpha) != self.n:
                raise DimensionMismatch(
                    "jump at x=%r carries %d coefficients, expected %d"
                    % (jump.x, len(jump.alpha), self.n)
                )
        xs = [jump.x for jump in self.jumps]
        if any(a > b for a, b in zip(xs, xs[1:])):
            raise DimensionMismatch("jumps must be sorted by node ascending")

    @property
    def N(self):
        return len(self.jumps)


def spectral_function(n, pairs):
    """Build a SpectralFunction from (node, alpha) pairs, sorting by
    node ascending with stable order on ties."""
    jumps = [Jump(x, tuple(alpha)) for x, alpha in pairs]
    jumps.sort(key=lambda jump: jump.x)
    return SpectralFunction(n, tuple(jumps))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues ascending and orthonormal eigenvectors (columns).

    Vector signs are fixed so the largest-magnitude component of each
    eigenvector (lowest index on ties) is positive, making the output
    deterministic.  Equality is identity, as for the arrays it holds.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_symmetric(M, tol=1e-9):
    """Diagonalize a dense real symmetric matrix.

    Parameters
    ----------
    M : (N, N) array_like
        Must be symmetric within tol relative to its largest entry.
    tol : float
        Symmetry acceptance threshold.

    Raises
    ------
    NotSymmetric
        If max |M - M^t| exceeds tol * max(1, max |M|).
    NoConvergence
        If the underlying eigensolver fails.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("expected a square matrix, got %r" % (M.shape,))
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    skew = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if skew > tol * scale:
        raise NotSymmetric(
            "matrix is not symmetric: max |M - M^t| = %r" % skew
        )
    try:
        values, vectors = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigensolver did not converge: %s" % exc) from exc
    vectors = vectors.copy()
    for k in range(vectors.shape[1]):
        lead = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[lead, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenDecomposition(values, vectors)


def canonical_spectral_function(A):
    """Spectral function of a band matrix under identity initial values.

    Jump k is (lambda_k, first n components of the k-th sign-fixed
    eigenvector).  The result always carries exactly N jumps whose
    merged ranks sum to N; a failure of those properties is reported as
    MembershipViolation since it signals either an inadmissible matrix
    or numerical breakdown.

    Raises
    ------
    WeightUnderflow
        An eigenvector's first n entries all came out as exactly 0.0.
        Admissible matrices have no zero jump, so this is a numerical
        limit (typically a strongly localized eigenvector at large N).
    """
    validate_band(A)
    dec = eig_symmetric(to_dense(A))
    jumps = tuple(
        Jump(float(dec.values[k]), tuple(dec.vectors[: A.n, k]))
        for k in range(A.N)
    )
    sigma = SpectralFunction(A.n, jumps)
    try:
        validate_sigma(sigma)
    except ZeroJump as exc:
        k = next(k for k, jump in enumerate(jumps) if not any(jump.alpha))
        raise WeightUnderflow(
            "jump %d at x=%r: its coefficient vector (the first n=%d "
            "eigenvector entries) underflowed to exactly 0.0"
            % (k + 1, jumps[k].x, A.n)
        ) from exc
    except ValidationError as exc:
        raise MembershipViolation(
            "constructed spectral function fails validation: %s" % exc
        ) from exc
    return sigma


def transform_spectral_function(sigma, T):
    """Map the canonical spectral function to the one for initial
    values T: each coefficient vector becomes (T^t)^{-1} alpha, nodes
    unchanged.  Applying T^t (.) T to the transformed jumps recovers
    the originals."""
    if T.n != sigma.n:
        raise DimensionMismatch(
            "initial values have size %d, spectral function has %d"
            % (T.n, sigma.n)
        )
    Tt = T.dense().T
    jumps = []
    for jump in sigma.jumps:
        alpha = np.linalg.solve(Tt, np.array(jump.alpha))
        jumps.append(Jump(jump.x, tuple(alpha)))
    return SpectralFunction(sigma.n, tuple(jumps))


def merged_jump_matrices(sigma, node_tol=NODE_MERGE_TOL):
    """Group jumps at numerically equal nodes and sum their matrices.

    Consecutive nodes closer than node_tol * (1 + |x|) fall into one
    group.  Returns a list of (representative node, n x n jump matrix)
    in ascending node order.
    """
    groups = []
    for jump in sigma.jumps:
        a = np.array(jump.alpha)
        if groups and jump.x - groups[-1][0] <= node_tol * (1.0 + abs(groups[-1][0])):
            groups[-1][1] += np.outer(a, a)
        else:
            groups.append([jump.x, np.outer(a, a)])
    return [(x, M) for x, M in groups]


def validate_sigma(sigma, tol=1e-9):
    """Check the admissibility of a spectral function.

    Raises
    ------
    ZeroJump
        Some jump has an identically zero coefficient vector.
    DeadComponent
        Some component index never receives a nonzero coefficient.
    RankSumMismatch
        The ranks of the merged per-node jump matrices do not sum to
        the number of jumps (rank decided by eigenvalues above
        tol * largest).
    """
    for jump in sigma.jumps:
        if all(a == 0.0 for a in jump.alpha):
            raise ZeroJump("jump at x=%r has a zero coefficient vector" % jump.x)
    for j in range(sigma.n):
        if all(jump.alpha[j] == 0.0 for jump in sigma.jumps):
            raise DeadComponent(
                "component %d has zero coefficient at every node" % (j + 1)
            )
    total = 0
    for x, M in merged_jump_matrices(sigma):
        evals = np.linalg.eigvalsh(M)
        top = float(evals[-1])
        if top > 0.0:
            total += int(np.count_nonzero(evals > tol * top))
    if total != sigma.N:
        raise RankSumMismatch(
            "merged jump ranks sum to %d, expected %d" % (total, sigma.N)
        )


def jump_sum(sigma):
    """Sum of all jump matrices (the identity for canonical spectral
    functions of admissible matrices)."""
    S = np.zeros((sigma.n, sigma.n))
    for jump in sigma.jumps:
        a = np.array(jump.alpha)
        S += np.outer(a, a)
    return S


def inner(sigma, r, s):
    """The degenerate inner product attached to a spectral function.

    Sums (alpha . r(x_k)) * (alpha . s(x_k)) over jumps in storage
    order with exactly rounded accumulation, so inner(sigma, r, s) and
    inner(sigma, s, r) are equal bit for bit.
    """
    if r.n != sigma.n or s.n != sigma.n:
        raise DimensionMismatch(
            "polynomials with %d and %d components against a spectral "
            "function with %d" % (r.n, s.n, sigma.n)
        )
    products = []
    for jump in sigma.jumps:
        rv = vecpoly.evaluate(r, jump.x)
        sv = vecpoly.evaluate(s, jump.x)
        vr = math.fsum(a * v for a, v in zip(jump.alpha, rv))
        vs = math.fsum(a * v for a, v in zip(jump.alpha, sv))
        products.append(vr * vs)
    return math.fsum(products)
