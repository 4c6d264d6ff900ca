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
    NonFiniteEntry,
    NonPositiveMass,
)
from .bandmat import BandMatrix, to_dense
from .spectral import eig_symmetric


@dataclass(frozen=True)
class SpringChain:
    """Chain data: N masses, N+1 nearest springs, N next-nearest springs.

    k[0] and k[-1] are the wall springs.  kp[j-1] (1-based kp_j) couples
    body j-1 to body j+1; kp_1 therefore ties body 2 to the left wall
    and kp_N ties body N-1 to the right wall.  The virtual constants
    kp_0 = kp_{N+1} = 0 used by the formulas are not stored.
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
            if m <= 0.0:
                raise NonPositiveMass("mass %d is %r" % (j, m))
        for name, vals in (("k", k), ("kp", kp)):
            for j, v in enumerate(vals, start=1):
                if v < 0.0:
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
    # a root that underflows to 0.0 makes its entry nan, refused below
    d1 = tuple(
        k[j] / (math.sqrt(m[j - 1] * m[j]) or math.nan) for j in range(1, N)
    )
    d2 = tuple(
        chain._kp(j + 1) / (math.sqrt(m[j - 1] * m[j + 1]) or math.nan)
        for j in range(1, N - 1)
    )
    if not all(map(math.isfinite, d0 + d1 + d2)):
        g, j, v = next((g, j, v) for g, d in enumerate((d0, d1, d2))
                       for j, v in enumerate(d, start=1) if not math.isfinite(v))
        raise NonFiniteEntry(
            "entry d%d_%d of the mass-weighted matrix is %r: a root of a mass "
            "product underflowed to 0.0, or a quotient overflowed" % (g, j, v)
        )
    n = min(2, N - 1)
    return BandMatrix(n, N, (d0, d1, d2)[: n + 1])


def frequencies(A):
    """Oscillation frequencies sqrt(|eigenvalue|), ascending."""
    dec = eig_symmetric(to_dense(A))
    return tuple(sorted(math.sqrt(abs(float(v))) for v in dec.values))


def continued_fraction_check(chain, j):
    """Residual of the stiffness-ratio identity at interior index j.

    The identity expresses (k_{j+1} + kp_j) / m_{j+1} as a quotient
    whose numerator combines the four products of matrix entries
    d1_j, d2_j, d2_{j-1} weighted by mass ratios and whose denominator
    is |d0_j| - (k_j + kp_{j-1}) / m_j.  Requires 2 <= j <= N-2 so all
    referenced entries exist.

    Returns |LHS - RHS|; raises DivisionByZero when the denominator
    vanishes (k_{j+1} = kp_{j+1} = 0 produces this exactly) instead of
    returning infinity.
    """
    N = chain.N
    if j < 2 or j > N - 2:
        raise IndexOutOfRange(
            "need 2 <= j <= N-2, got j=%d with N=%d" % (j, N)
        )
    m, k, kp = chain.masses, chain.k, chain._kp
    # the four entries, by build_spring_matrix's expressions
    d0 = -(k[j] + kp(j + 1) + k[j - 1] + kp(j - 1)) / m[j - 1]
    d1_j = k[j] / math.sqrt(m[j - 1] * m[j])
    d2_j = kp(j + 1) / math.sqrt(m[j - 1] * m[j + 1])
    d2_jm1 = kp(j) / math.sqrt(m[j - 2] * m[j])
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
    return abs(lhs - num / den)
