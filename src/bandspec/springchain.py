"""Mass-spring chains with nearest and next-nearest couplings.

A chain of N bodies hangs between two walls; body j has mass m_j,
spring k_j couples bodies j-1 and j (indices 0 and N+1 are the walls),
and spring kp_j couples bodies j-1 and j+1, skipping one body.  In
mass-weighted coordinates the equations of motion read x'' = L x with
L symmetric and pentadiagonal, so the chain is the natural physical
source of half-bandwidth-2 matrices for this package.

Sign convention: L's main diagonal is negative (restoring forces), the
off-diagonals are nonnegative, and the oscillation frequencies are the
square roots of |eigenvalue|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    IndexOutOfRange,
    NegativeSpring,
    NoConvergence,
    NonFiniteEntry,
    NonPositiveMass,
)
from .bandmat import BandMatrix, to_dense


@dataclass(frozen=True)
class SpringChain:
    """Chain data: N masses, N+1 nearest springs, N next-nearest springs.

    k[0] and k[-1] are the wall springs.  kp[j-1] (1-based kp_j) couples
    body j-1 to body j+1; kp_1 therefore ties body 2 to the left wall
    and kp_N ties body N-1 to the right wall.  The virtual constants
    kp_0 = kp_{N+1} = 0 used by the formulas are not stored.  A mass
    must be a positive finite number, a spring a nonnegative finite one.
    """

    masses: tuple
    k: tuple
    kp: tuple

    def __post_init__(self):
        masses = tuple(map(float, self.masses))
        k = tuple(map(float, self.k))
        kp = tuple(map(float, self.kp))
        N = len(masses)
        if N < 1:
            raise DimensionMismatch("a chain needs at least one body")
        if len(k) != N + 1:
            raise DimensionMismatch(
                "expected %d nearest-neighbor springs, got %d" % (N + 1, len(k))
            )
        if len(kp) != N:
            raise DimensionMismatch(
                "expected %d next-nearest springs, got %d" % (N, len(kp))
            )
        for j, m in enumerate(masses, start=1):
            if not 0.0 < m < math.inf:
                raise NonPositiveMass("mass %d is %r" % (j, m))
        for name, vals in (("k", k), ("kp", kp)):
            for j, v in enumerate(vals, start=1):
                if not 0.0 <= v < math.inf:
                    raise NegativeSpring("%s_%d is %r" % (name, j, v))
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kp", kp)

    @property
    def N(self):
        return len(self.masses)

    def _kp(self, j):
        """kp_j with the virtual walls kp_0 = kp_{N+1} = 0."""
        if j < 1 or j > self.N:
            return 0.0
        return self.kp[j - 1]


def _root(p):
    """sqrt(p) of a mass product p, or NaN if p underflowed to 0.0 or
    overflowed to inf, so that the entry divided by it is refused."""
    return math.sqrt(p) if 0.0 < p < math.inf else math.nan


def _non_finite(g, j, v):
    return NonFiniteEntry(
        "entry d%d_%d of the mass-weighted matrix is %r: a mass product under "
        "a root underflowed to 0.0 or overflowed, or a quotient overflowed"
        % (g, j, v)
    )


def build_spring_matrix(chain):
    """The mass-weighted stiffness matrix of a chain as a BandMatrix.

    Entries (1-based positions):

        d0_j = -(k_{j+1} + kp_{j+1} + k_j + kp_{j-1}) / m_j
        d1_j = k_{j+1} / sqrt(m_j m_{j+1})
        d2_j = kp_{j+1} / sqrt(m_j m_{j+2})

    The declared half-bandwidth is min(2, N - 1); chains too short for
    next-nearest couplings simply store fewer diagonals.  A chain with
    all kp = 0 still reports bandwidth 2 (with a zero outer diagonal);
    shrink_band recovers the tridiagonal form when needed.  An entry
    that is no finite float raises NonFiniteEntry naming it.
    """
    m, k = chain.masses, chain.k
    N = chain.N
    d0 = tuple(
        -(k[j] + chain._kp(j + 1) + k[j - 1] + chain._kp(j - 1)) / m[j - 1]
        for j in range(1, N + 1)
    )
    d1 = tuple(k[j] / _root(m[j - 1] * m[j]) for j in range(1, N))
    d2 = tuple(chain._kp(j + 1) / _root(m[j - 1] * m[j + 1]) for j in range(1, N - 1))
    if not all(map(math.isfinite, d0 + d1 + d2)):
        raise _non_finite(*next((g, j, v) for g, d in enumerate((d0, d1, d2))
                                for j, v in enumerate(d, start=1) if not math.isfinite(v)))
    n = min(2, N - 1)
    return BandMatrix(n, N, (d0, d1, d2)[: n + 1])


def frequencies(A):
    """Oscillation frequencies sqrt(|eigenvalue|), ascending, from the
    eigenvalues alone (no eigenvectors are computed).

    Raises
    ------
    NoConvergence
        If the eigensolver fails.
    NonFiniteEntry
        If an eigenvalue is no finite float: springs near the float64
        limit make the eigenvalues overflow, although every entry is
        finite.
    """
    import numpy as np

    try:
        values = np.linalg.eigvalsh(to_dense(A))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigensolver did not converge: %s" % exc) from exc
    finite = np.isfinite(values)
    if not finite.all():
        k = int(finite.argmin())
        raise NonFiniteEntry(
            "eigenvalue %d of %d of the mass-weighted matrix is %r: the "
            "eigensolver overflowed float64" % (k + 1, len(values), float(values[k]))
        )
    return tuple(sorted(math.sqrt(abs(float(v))) for v in values))


def continued_fraction_check(chain, j):
    """Residual of the stiffness-ratio identity at interior index j.

    The identity expresses (k_{j+1} + kp_j) / m_{j+1} as a quotient
    whose numerator combines the four products of matrix entries
    d1_j, d2_j, d2_{j-1} weighted by mass ratios and whose denominator
    is |d0_j| - (k_j + kp_{j-1}) / m_j.  Requires 2 <= j <= N-2 so all
    referenced entries exist.

    Returns |LHS - RHS|, always a finite float.  Raises DivisionByZero
    when the denominator vanishes (k_{j+1} = kp_{j+1} = 0 produces this
    exactly) instead of returning infinity, NonFiniteEntry, as
    build_spring_matrix does, when one of the four entries is no finite
    float, and NonFiniteEntry naming j when the entries are finite but
    the identity overflows while it is evaluated (the left side, a
    mass-ratio root or the quotient), so the residual would be inf or
    nan.
    """
    N = chain.N
    if j < 2 or j > N - 2:
        raise IndexOutOfRange(
            "need 2 <= j <= N-2, got j=%d with N=%d" % (j, N)
        )
    m, k, kp = chain.masses, chain.k, chain._kp
    # the four entries, by build_spring_matrix's expressions and guard
    d0 = -(k[j] + kp(j + 1) + k[j - 1] + kp(j - 1)) / m[j - 1]
    d1_j = k[j] / _root(m[j - 1] * m[j])
    d2_j = kp(j + 1) / _root(m[j - 1] * m[j + 1])
    d2_jm1 = kp(j) / _root(m[j - 2] * m[j])
    for g, i, v in ((0, j, d0), (1, j, d1_j), (2, j, d2_j), (2, j - 1, d2_jm1)):
        if not math.isfinite(v):
            raise _non_finite(g, i, v)
    lhs = (k[j] + kp(j)) / m[j]
    num = (
        d1_j * d1_j
        + math.sqrt(m[j + 1] / m[j]) * d1_j * d2_j
        + math.sqrt(m[j - 2] / m[j - 1]) * d2_jm1 * d1_j
        + math.sqrt(m[j - 2] * m[j + 1] / (m[j] * m[j - 1])) * d2_j * d2_jm1
    )
    den = abs(d0) - (k[j - 1] + kp(j - 1)) / m[j - 1]
    if den == 0.0:
        raise DivisionByZero(
            "denominator |d0_%d| - (k_%d + kp_%d)/m_%d vanishes" % (j, j, j - 1, j)
        )
    residual = abs(lhs - num / den)
    if not math.isfinite(residual):
        raise NonFiniteEntry(
            "stiffness identity at j=%d gives residual %r: a term overflowed "
            "while it was evaluated" % (j, residual)
        )
    return residual
