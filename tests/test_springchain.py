"""Mass-spring chains: matrix assembly, frequencies, stiffness identity."""

import math

import numpy as np
import pytest
import sympy as sp

import bandspec as bs
from bandspec.errors import (
    DivisionByZero,
    IndexOutOfRange,
    NegativeSpring,
    NonPositiveMass,
)


def uniform_chain(N):
    return bs.SpringChain((1.0,) * N, (1.0,) * (N + 1), (1.0,) * N)


def test_chain_field_validation():
    with pytest.raises(NonPositiveMass):
        bs.SpringChain((1.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0))
    with pytest.raises(NegativeSpring):
        bs.SpringChain((1.0, 1.0), (1.0, -0.5, 1.0), (0.0, 0.0))
    with pytest.raises(bs.errors.DimensionMismatch):
        bs.SpringChain((1.0, 1.0), (1.0, 1.0), (0.0, 0.0))


def test_uniform_three_mass_matrix_exact():
    A = bs.build_spring_matrix(uniform_chain(3))
    assert A.n == 2 and A.N == 3
    assert A.diags == ((-3.0, -4.0, -3.0), (1.0, 1.0), (1.0,))


def test_single_mass_frequency():
    chain = bs.SpringChain((1.0,), (1.0, 1.0), (0.0,))
    A = bs.build_spring_matrix(chain)
    assert bs.to_dense(A)[0, 0] == -2.0
    (w,) = bs.frequencies(A)
    assert abs(w - math.sqrt(2.0)) < 1e-15


def test_two_mass_frequencies():
    chain = bs.SpringChain((1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0))
    A = bs.build_spring_matrix(chain)
    assert np.array_equal(bs.to_dense(A), np.array([[-2.0, 1.0], [1.0, -2.0]]))
    ws = bs.frequencies(A)
    assert abs(ws[0] - 1.0) < 1e-12
    assert abs(ws[1] - math.sqrt(3.0)) < 1e-12


def test_no_skip_springs_reduce_to_tridiagonal():
    rng = np.random.default_rng(17)
    chain = bs.sampling.random_chain(rng, 6, zero_kp_from=1)
    A = bs.build_spring_matrix(chain)
    assert A.diags[2] == (0.0,) * 4
    B = bs.shrink_band(A)
    assert B.n == 1
    prof = bs.validate_band(B)
    assert prof.m == (6,) and prof.j0 == 0


def test_all_positive_chain_validates_without_degeneration():
    rng = np.random.default_rng(18)
    for N in (3, 5, 9):
        chain = bs.sampling.random_chain(rng, N)
        prof = bs.validate_band(bs.build_spring_matrix(chain))
        assert prof.j0 == 0
        assert prof.m == (N - 1, N)


def test_truncated_skip_springs_degenerate_the_band():
    rng = np.random.default_rng(19)
    for N, i0 in ((6, 3), (8, 5), (9, 4)):
        chain = bs.sampling.random_chain(rng, N, zero_kp_from=i0)
        prof = bs.validate_band(bs.build_spring_matrix(chain))
        assert prof.j0 == 1
        assert prof.m == (i0 - 1, N)


def test_frequencies_invariant_under_joint_scaling():
    rng = np.random.default_rng(20)
    chain = bs.sampling.random_chain(rng, 7)
    c = 3.7
    scaled = bs.SpringChain(
        tuple(c * m for m in chain.masses),
        tuple(c * k for k in chain.k),
        tuple(c * kp for kp in chain.kp),
    )
    w1 = bs.frequencies(bs.build_spring_matrix(chain))
    w2 = bs.frequencies(bs.build_spring_matrix(scaled))
    assert max(abs(a - b) for a, b in zip(w1, w2)) < 1e-12


def _symbolic_chain(N):
    m = sp.symbols("m1:%d" % (N + 1), positive=True)
    k = sp.symbols("k1:%d" % (N + 2), positive=True)
    kp = sp.symbols("kp1:%d" % (N + 1), positive=True)
    return m, k, kp


def _sym_kp(kp, j, N):
    if j < 1 or j > N:
        return sp.Integer(0)
    return kp[j - 1]


def test_stiffness_identity_symbolically():
    """The quotient identity holds as an algebraic fact.

    Mirrors the numeric formulas with exact symbols: the numerator
    factors as (k_{j+1} + kp_{j+1})(k_{j+1} + kp_j) / (m_j m_{j+1}),
    the denominator reduces to (k_{j+1} + kp_{j+1}) / m_j, and their
    quotient is the left-hand side (k_{j+1} + kp_j) / m_{j+1}.
    """
    N = 5
    m, k, kp = _symbolic_chain(N)

    def d0(j):
        return -(k[j] + _sym_kp(kp, j + 1, N) + k[j - 1] + _sym_kp(kp, j - 1, N)) / m[j - 1]

    def d1(j):
        return k[j] / sp.sqrt(m[j - 1] * m[j])

    def d2(j):
        return _sym_kp(kp, j + 1, N) / sp.sqrt(m[j - 1] * m[j + 1])

    for j in (2, 3):
        lhs = (k[j] + _sym_kp(kp, j, N)) / m[j]
        num = (
            d1(j) ** 2
            + sp.sqrt(m[j + 1] / m[j]) * d1(j) * d2(j)
            + sp.sqrt(m[j - 2] / m[j - 1]) * d2(j - 1) * d1(j)
            + sp.sqrt(m[j - 2] * m[j + 1] / (m[j] * m[j - 1])) * d2(j) * d2(j - 1)
        )
        den = -d0(j) - (k[j - 1] + _sym_kp(kp, j - 1, N)) / m[j - 1]

        num_target = (k[j] + _sym_kp(kp, j + 1, N)) * (k[j] + _sym_kp(kp, j, N)) / (
            m[j - 1] * m[j]
        )
        den_target = (k[j] + _sym_kp(kp, j + 1, N)) / m[j - 1]
        assert sp.simplify(num - num_target) == 0
        assert sp.simplify(den - den_target) == 0
        assert sp.simplify(num / den - lhs) == 0

        # without the sign correction the denominator flips and the
        # identity misses by exactly twice the left-hand side
        den_raw = d0(j) + (k[j - 1] + _sym_kp(kp, j - 1, N)) / m[j - 1]
        assert sp.simplify(num / den_raw + lhs) == 0


def test_stiffness_identity_uniform_chain():
    res = bs.continued_fraction_check(uniform_chain(5), 2)
    assert res <= 1e-12


def test_stiffness_identity_random_chains():
    rng = np.random.default_rng(22)
    for _ in range(50):
        N = int(rng.integers(4, 11))
        chain = bs.sampling.random_chain(rng, N)
        for j in range(2, N - 1):
            lhs = (chain.k[j] + chain.kp[j - 1]) / chain.masses[j]
            res = bs.continued_fraction_check(chain, j)
            assert res <= 1e-10 * (1.0 + abs(lhs))


def test_stiffness_identity_division_by_zero():
    # k_{j+1} = kp_{j+1} = 0 makes the denominator vanish exactly
    chain = bs.SpringChain(
        (1.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 0.0, 1.0, 1.0),
        (1.0, 1.0, 0.0, 0.0),
    )
    with pytest.raises(DivisionByZero):
        bs.continued_fraction_check(chain, 2)


def test_stiffness_identity_index_range():
    chain = uniform_chain(5)
    with pytest.raises(IndexOutOfRange):
        bs.continued_fraction_check(chain, 1)
    with pytest.raises(IndexOutOfRange):
        bs.continued_fraction_check(chain, 4)
    bs.continued_fraction_check(chain, 3)  # interior index is fine


def test_short_chain_has_no_interior_index():
    chain = uniform_chain(3)
    with pytest.raises(IndexOutOfRange):
        bs.continued_fraction_check(chain, 2)


def _residual_from_matrix(chain, j):
    """The identity's residual with the four entries read off the
    assembled matrix; raises DivisionByZero like the library does."""
    m, k = chain.masses, chain.k
    A = bs.build_spring_matrix(chain)
    d0, d1_j, d2_j, d2_jm1 = A.entry(0, j), A.entry(1, j), A.entry(2, j), A.entry(2, j - 1)
    lhs = (k[j] + chain._kp(j)) / m[j]
    num = (
        d1_j * d1_j
        + math.sqrt(m[j + 1] / m[j]) * d1_j * d2_j
        + math.sqrt(m[j - 2] / m[j - 1]) * d2_jm1 * d1_j
        + math.sqrt(m[j - 2] * m[j + 1] / (m[j] * m[j - 1])) * d2_j * d2_jm1
    )
    den = abs(d0) - (k[j - 1] + chain._kp(j - 1)) / m[j - 1]
    if den == 0.0:
        raise DivisionByZero("reference denominator vanishes at j=%d" % j)
    return abs(lhs - num / den)


def test_stiffness_identity_matches_matrix_entries():
    # the check computes its entries from the chain directly; they must
    # be bit for bit the entries of the assembled matrix
    rng = np.random.default_rng(23)
    chains = [bs.SpringChain((1.0,) * 4, (1.0, 1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 0.0, 0.0))]
    for N in (4, 5, 8, 13):
        for cut in (None, int(rng.integers(3, N + 1)), 1):
            chains.append(bs.sampling.random_chain(rng, N, zero_kp_from=cut))
    checked = raised = 0
    for chain in chains:
        for j in range(2, chain.N - 1):
            try:
                want = _residual_from_matrix(chain, j)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    bs.continued_fraction_check(chain, j)
                raised += 1
                continue
            assert bs.continued_fraction_check(chain, j) == want
            checked += 1
    assert raised >= 1 and checked >= 30
