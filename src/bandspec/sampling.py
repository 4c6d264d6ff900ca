"""Random generation of admissible instances for tests and demos.

The generators take a numpy Generator so runs are reproducible from a
seed.  Band matrices are drawn profile-first: the degeneration indices
are sampled (or forced), then the diagonals are filled with positive
runs, exact zero tails, and unconstrained entries.  Entry ranges are
kept moderate on purpose; the admissible class itself puts no bound on
entry size, but sane scales keep the polynomial computations well away
from their conditioning limits.
"""

from __future__ import annotations

from .bandmat import BandMatrix, TriangularInit, validate_band
from .springchain import SpringChain


def random_profile(rng, n, N, j0=None):
    """Sample degeneration indices with exactly j0 genuine cuts.

    j0 defaults to a uniform choice over the feasible counts: 0 is
    always feasible, positive counts up to n - 1 need N >= n + 2.
    """
    if j0 is None:
        top = n - 1 if N >= n + 2 else 0
        j0 = int(rng.integers(0, top + 1))
    if j0 < 0 or j0 > n - 1:
        raise ValueError("j0 must lie in 0..n-1, got %d" % j0)
    if j0 > 0 and N < n + 2:
        raise ValueError("genuine cuts need N >= n + 2")
    m = []
    prev = 0
    for j in range(n):
        if j < j0:
            lo = max(prev + 1, 2)
            hi = N - n + j
            m.append(int(rng.integers(lo, hi + 1)))
        else:
            m.append(N - n + j + 1)
        prev = m[-1]
    return tuple(m)


def random_band_matrix(rng, n, N, j0=None):
    """Draw a random member of the admissible band class.

    Positive-run entries are uniform over [0.35, 1.6), unconstrained
    entries (the main diagonal and the positions before each level's
    degeneration index) are uniform over [-1, 1), and zero tails are
    exact zeros.  The result is checked against validate_band before
    being returned.
    """
    m = random_profile(rng, n, N, j0)

    def positive():
        return float(rng.uniform(0.35, 1.6))

    def free():
        return float(rng.uniform(-1.0, 1.0))

    diags = [tuple(free() for _ in range(N))]  # main diagonal
    levels = {}
    prev = 0
    for j in range(n):
        entries = []
        for k in range(1, N - (n - j) + 1):
            if k <= prev:
                entries.append(free())
            elif k < m[j]:
                entries.append(positive())
            else:
                entries.append(0.0)
        levels[n - j] = tuple(entries)
        prev = m[j]
    for g in range(1, n + 1):
        diags.append(levels[g])
    A = BandMatrix(n, N, tuple(diags))
    profile = validate_band(A)
    assert profile.m == m, "generator produced profile %r, wanted %r" % (
        profile.m, m)
    return A


def random_jacobi(rng, N):
    """Random tridiagonal member (half-bandwidth 1, never degenerate)."""
    return random_band_matrix(rng, 1, N, j0=0)


def random_tinit(rng, n):
    """Random upper triangular initial-value matrix: diagonal uniform
    over [0.5, 2), entries above it over [-1, 1)."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        row[i] = float(rng.uniform(0.5, 2.0))
        for j in range(i + 1, n):
            row[j] = float(rng.uniform(-1.0, 1.0))
        rows.append(tuple(row))
    return TriangularInit(n, tuple(rows))


def random_chain(rng, N, zero_kp_from=None):
    """Random positive spring chain, masses and spring constants
    uniform over [0.5, 2).

    zero_kp_from = i0 clamps kp_i to zero for all i >= i0, which is
    the standard way to manufacture a degenerate half-bandwidth-2
    matrix from a physical model.
    """
    masses = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(N))
    k = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(N + 1))
    kp = [float(rng.uniform(0.5, 2.0)) for _ in range(N)]
    if zero_kp_from is not None:
        for i in range(zero_kp_from, N + 1):
            kp[i - 1] = 0.0
    return SpringChain(masses, k, tuple(kp))
