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

import numpy as np

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


def _uniform(u, low, high):
    """Standard uniforms u mapped onto [low, high) by the formula of
    Generator.uniform, so one rng.random(count) call gives the values,
    and leaves the generator state, of count scalar rng.uniform calls."""
    return low + (high - low) * u


def random_band_matrix(rng, n, N, j0=None):
    """Draw a random member of the admissible band class.

    Positive-run entries are uniform over [0.35, 1.6), unconstrained
    entries (the main diagonal and the positions before each level's
    degeneration index) are uniform over [-1, 1), and zero tails are
    exact zeros.  The result is checked against validate_band before
    being returned.

    All entries come from one rng.random call after the profile's
    draws, in the order of one draw per entry: the main diagonal, then
    each level from the outermost in, by position, zero tails taking
    none.
    """
    m = random_profile(rng, n, N, j0)
    runs = []  # (length, free entries, positive entries) per level
    prev = 0
    for j in range(n):
        length = N - n + j
        runs.append((length, prev, min(m[j] - 1, length) - prev))
        prev = m[j]
    u = rng.random(N + sum(free + pos for _, free, pos in runs))
    main = _uniform(u[:N], -1.0, 1.0).tolist()
    levels = []  # outermost first
    at = N
    for length, free, pos in runs:
        d = np.zeros(length)
        d[:free] = _uniform(u[at:at + free], -1.0, 1.0)
        d[free:free + pos] = _uniform(u[at + free:at + free + pos], 0.35, 1.6)
        at += free + pos
        levels.append(d.tolist())
    A = BandMatrix(n, N, (main, *levels[::-1]))
    profile = validate_band(A)
    assert profile.m == m, "generator produced profile %r, wanted %r" % (
        profile.m, m)
    return A


def random_jacobi(rng, N):
    """Random tridiagonal member (half-bandwidth 1, never degenerate)."""
    return random_band_matrix(rng, 1, N, j0=0)


def random_tinit(rng, n):
    """Random upper triangular initial-value matrix: diagonal uniform
    over [0.5, 2), entries above it over [-1, 1), drawn in one call
    row by row."""
    i, j = np.triu_indices(n)
    u = rng.random(len(i))
    T = np.zeros((n, n))
    T[i, j] = np.where(i == j, _uniform(u, 0.5, 2.0), _uniform(u, -1.0, 1.0))
    return TriangularInit(n, T.tolist())


def random_chain(rng, N, zero_kp_from=None):
    """Random positive spring chain, masses and spring constants
    uniform over [0.5, 2), drawn in one call: masses, then k, then kp.

    zero_kp_from = i0 clamps kp_i to zero for all i >= i0, which is
    the standard way to manufacture a degenerate half-bandwidth-2
    matrix from a physical model.
    """
    u = _uniform(rng.random(3 * N + 1), 0.5, 2.0)
    kp = u[2 * N + 1:]
    if zero_kp_from is not None:
        kp[max(zero_kp_from, 1) - 1:] = 0.0
    return SpringChain(u[:N].tolist(), u[N:2 * N + 1].tolist(), kp.tolist())
