"""Cross-check the full pipeline against a scalar three-term recurrence.

For tridiagonal matrices the inverse problem has a classical solution
that needs nothing but scalar polynomials evaluated at the nodes.
helpers.stieltjes_jacobi implements it without touching the package
internals; the package must agree with it on random instances.
"""

import math

import numpy as np

import bandspec as bs
from helpers import stieltjes_jacobi


def test_pipeline_matches_scalar_recurrence():
    rng = np.random.default_rng(55)
    for _ in range(50):
        N = int(rng.integers(2, 13))
        A = bs.sampling.random_jacobi(rng, N)
        sig = bs.canonical_spectral_function(A)

        nodes = [j.x for j in sig.jumps]
        weights = [j.alpha[0] ** 2 for j in sig.jumps]
        diag, off, t11 = stieltjes_jacobi(nodes, weights)

        rec = bs.reconstruct(sig)
        got_diag = rec.matrix.diags[0]
        got_off = rec.matrix.diags[1]
        assert max(abs(a - b) for a, b in zip(got_diag, diag)) < 1e-8
        assert max(abs(a - b) for a, b in zip(got_off, off)) < 1e-8
        assert abs(rec.tinit.rows[0][0] - t11) < 1e-8

        # and both agree with the source matrix
        assert max(abs(a - b) for a, b in zip(diag, A.diags[0])) < 1e-8
        assert max(abs(a - b) for a, b in zip(off, A.diags[1])) < 1e-8


def test_scalar_recurrence_tracks_measure_mass():
    rng = np.random.default_rng(56)
    A = bs.sampling.random_jacobi(rng, 6)
    sig = bs.canonical_spectral_function(A)
    nodes = [j.x for j in sig.jumps]
    weights = [4.0 * j.alpha[0] ** 2 for j in sig.jumps]
    diag, off, t11 = stieltjes_jacobi(nodes, weights)
    # quadrupled mass halves the constant normalization but leaves the
    # recurrence coefficients alone
    base = stieltjes_jacobi(nodes, [w / 4.0 for w in weights])
    assert abs(t11 - 0.5 * base[2]) < 1e-14
    assert max(abs(a - b) for a, b in zip(diag, base[0])) < 1e-12
    assert max(abs(a - b) for a, b in zip(off, base[1])) < 1e-12

    scaled = bs.SpectralFunction(
        1, [(x, (math.sqrt(w),)) for x, w in zip(nodes, weights)]
    )
    rec = bs.reconstruct(scaled)
    assert abs(rec.tinit.rows[0][0] - t11) < 1e-8
