"""Eigendecomposition, spectral functions, and the degenerate inner product."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bandspec as bs
from bandspec.errors import (
    DeadComponent,
    DimensionMismatch,
    NotSymmetric,
    NumericalDecisionError,
    RankSumMismatch,
    ValidationError,
    WeightUnderflow,
    ZeroJump,
)
from bandspec import spectral
from bandspec.spectral import NODE_MERGE_TOL

import helpers


def flip_matrix():
    return bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))


def test_eig_hand_example_with_sign_rule():
    dec = bs.eig_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.values, [-1.0, 1.0])
    r = 1.0 / math.sqrt(2.0)
    # an eigenvector is unique up to sign only
    for v, want in zip(dec.vectors.T, ([r, -r], [r, r])):
        assert np.allclose(v * np.sign(v @ want), want)
    # the spectral function makes each coefficient vector's first
    # nonzero entry positive, whatever sign the eigensolver chose
    sig = bs.canonical_spectral_function(flip_matrix())
    assert sig.alpha.tolist() == [[0.7071067811865475], [0.7071067811865475]]
    sig = bs.SpectralFunction(2, [(1.0, (-0.0, -0.5)), (0.0, (-0.3, 0.4))])
    assert helpers.bits(sig.jumps) == helpers.bits(
        ((0.0, (0.3, -0.4)), (1.0, (0.0, 0.5))))


def test_eig_identity_and_permuted_diagonal():
    dec = bs.eig_symmetric(np.eye(3))
    assert np.allclose(dec.values, [1.0, 1.0, 1.0])
    assert np.allclose(dec.vectors, np.eye(3))

    dec = bs.eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.values, [1.0, 2.0, 3.0])
    perm = np.zeros((3, 3))
    perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
    assert np.allclose(dec.vectors, perm)


def test_eig_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric, match=r"^matrix is not symmetric: max \|M - M\^t\| = 0\.5$"):
        bs.eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_eig_passes_nan_input_through():
    # NaN fails no symmetry test, and eigh reads the lower triangle only
    dec = bs.eig_symmetric(np.array([[0.0, np.nan], [1.0, 0.0]]))
    assert np.allclose(dec.values, [-1.0, 1.0])
    dec = bs.eig_symmetric(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    assert np.all(np.isnan(dec.values))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=64))
def test_eig_residual_bound(seed, N):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((N, N))
    M = (M + M.T) / 2.0
    dec = bs.eig_symmetric(M)
    norm = np.linalg.norm(M, 2)
    for k in range(N):
        res = np.linalg.norm(M @ dec.vectors[:, k] - dec.values[k] * dec.vectors[:, k])
        assert res <= 1e-9 * max(norm, 1.0)


def test_canonical_sigma_hand_example():
    sig = bs.canonical_spectral_function(flip_matrix())
    assert sig.n == 1
    assert [j.x for j in sig.jumps] == [-1.0, 1.0]
    for j in sig.jumps:
        assert abs(j.alpha[0] - 1.0 / math.sqrt(2.0)) < 1e-15
        assert abs(j.alpha[0] ** 2 - 0.5) < 1e-15


def test_canonical_sigma_ignores_eigenvector_signs():
    # the second matrix has two double eigenvalues, so ties are ordered too
    rng = np.random.default_rng(11)
    for A in (bs.sampling.random_band_matrix(rng, 3, 9, j0=1),
              bs.BandMatrix(2, 4, ((0.3, 0.3, -0.5, -0.5), (0.0,) * 3, (0.9, 0.9)))):
        sig = bs.canonical_spectral_function(A)
        dec = bs.eig_symmetric(bs.to_dense(A))
        for signs in (-np.ones(A.N), rng.choice([-1.0, 1.0], A.N)):
            flipped = bs.SpectralFunction(
                A.n, zip(dec.values, (dec.vectors * signs)[: A.n].T))
            assert flipped == sig
            assert helpers.bits(flipped.jumps) == helpers.bits(sig.jumps)


def test_canonical_sigma_sums_to_identity():
    rng = np.random.default_rng(5)
    for n, N in ((1, 6), (2, 7), (3, 9)):
        A = bs.sampling.random_band_matrix(rng, n, N)
        sig = bs.canonical_spectral_function(A)
        assert np.max(np.abs(bs.jump_sum(sig) - np.eye(n))) < 1e-12


def test_canonical_sigma_trace_law():
    """First-moment sums reproduce the leading corner of the matrix."""
    rng = np.random.default_rng(6)
    for n, N in ((1, 5), (2, 8), (3, 10)):
        A = bs.sampling.random_band_matrix(rng, n, N)
        sig = bs.canonical_spectral_function(A)
        moment = np.zeros((n, n))
        for j in sig.jumps:
            a = np.array(j.alpha)
            moment += j.x * np.outer(a, a)
        corner = bs.to_dense(A)[:n, :n]
        assert np.max(np.abs(moment - corner)) < 1e-9


def test_transform_identity_is_noop():
    sig = bs.canonical_spectral_function(flip_matrix())
    out = bs.transform_spectral_function(sig, bs.TriangularInit.identity(1))
    assert out == sig


def test_transform_scalar_quarter_weights():
    sig = bs.canonical_spectral_function(flip_matrix())
    out = bs.transform_spectral_function(sig, bs.TriangularInit(1, ((2.0,),)))
    for a, b in zip(out.jumps, sig.jumps):
        assert a.x == b.x
        assert abs(a.alpha[0] ** 2 - b.alpha[0] ** 2 / 4.0) < 1e-15


def test_transform_reassembles_to_identity_sigma():
    rng = np.random.default_rng(8)
    for n, N in ((2, 6), (3, 8)):
        A = bs.sampling.random_band_matrix(rng, n, N)
        T = bs.sampling.random_tinit(rng, n)
        sig = bs.canonical_spectral_function(A)
        out = bs.transform_spectral_function(sig, T)
        Td = T.dense()
        for a, b in zip(out.jumps, sig.jumps):
            assert a.x == b.x
            lhs = Td.T @ np.outer(a.alpha, a.alpha) @ Td
            rhs = np.outer(b.alpha, b.alpha)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transform_jump_sum_law():
    rng = np.random.default_rng(9)
    A = bs.sampling.random_band_matrix(rng, 2, 6)
    T = bs.sampling.random_tinit(rng, 2)
    out = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
    Ti = np.linalg.inv(T.dense())
    assert np.max(np.abs(bs.jump_sum(out) - Ti.T @ Ti)) < 1e-10


def test_validate_sigma_accepts_canonical():
    rng = np.random.default_rng(10)
    A = bs.sampling.random_band_matrix(rng, 2, 7, j0=1)
    bs.validate_sigma(bs.canonical_spectral_function(A))


def test_validate_sigma_rejects_dead_component():
    sig = bs.SpectralFunction(
        2, [(-1.0, (0.6, 0.0)), (0.5, (0.7, 0.0)), (2.0, (0.2, 0.0))]
    )
    with pytest.raises(DeadComponent):
        bs.validate_sigma(sig)


def test_validate_sigma_rejects_zero_jump():
    sig = bs.SpectralFunction(1, [(-1.0, (0.7,)), (1.0, (0.0,))])
    with pytest.raises(ZeroJump):
        bs.validate_sigma(sig)


def test_underflowed_weight_is_a_numerical_refusal():
    # an admissible Jacobi matrix whose localized eigenvector has a
    # first entry of exactly 0.0: exit 3, not a class violation
    A = bs.sampling.random_jacobi(np.random.default_rng(0), 128)
    with pytest.raises(WeightUnderflow, match=r"jump \d+ at x=") as info:
        bs.canonical_spectral_function(A)
    assert isinstance(info.value, NumericalDecisionError)
    assert not isinstance(info.value, ValidationError)


def test_validate_sigma_rejects_rank_mismatch():
    # two jumps at one node with parallel directions merge to rank one
    sig = bs.SpectralFunction(2, [(1.0, (0.6, 0.3)), (1.0, (1.2, 0.6))])
    with pytest.raises(RankSumMismatch):
        bs.validate_sigma(sig)


@pytest.mark.parametrize("alpha", [(1e-170, 0.0), (1e154, 1e154)])
def test_validate_sigma_decides_rank_of_extreme_jump(alpha):
    # the first jump is alone at its node, but its matrix underflows to
    # zero or its eigenvalue overflows, so eigvalsh gives it rank 0
    sig = bs.SpectralFunction(
        2, [(0.0, alpha), (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))])
    with pytest.raises(RankSumMismatch, match="sum to 2, expected 3"):
        bs.validate_sigma(sig)


def test_validate_sigma_decides_rank_of_overflowed_group():
    # the two 1e154 vectors at node 0 sum to an infinite entry, on which
    # eigvalsh fails; scaled down, that group has rank 1 (the 1e-14
    # vector is 1e-168 of the others), so the ranks sum to 3, not 5
    with pytest.raises(RankSumMismatch, match="sum to 3, expected 5"):
        bs.validate_sigma(helpers.overflowing_sigma())


def test_validate_sigma_checks_an_instance_once(monkeypatch):
    # a round trip validates its sigma in canonical_spectral_function
    # and again in reconstruct; the second call must not redo the work
    spectral = sys.modules["bandspec.spectral"]
    calls = []
    merged = spectral.merged_jump_matrices
    monkeypatch.setattr(spectral, "merged_jump_matrices",
                        lambda sigma: calls.append(sigma) or merged(sigma))
    rng = np.random.default_rng(12)
    A = bs.sampling.random_band_matrix(rng, 2, 7, j0=1)
    bs.reconstruct(bs.canonical_spectral_function(A))
    assert len(calls) == 1
    calls.clear()
    sig = bs.transform_spectral_function(
        bs.canonical_spectral_function(A), bs.sampling.random_tinit(rng, 2))
    bs.reconstruct(sig)
    assert len(calls) == 2
    # a failed check is not recorded
    calls.clear()
    bad = bs.SpectralFunction(2, [(1.0, (0.6, 0.3)), (1.0, (1.2, 0.6))])
    for _ in range(2):
        with pytest.raises(RankSumMismatch):
            bs.validate_sigma(bad)
    assert len(calls) == 2


def test_merged_jumps_node_tolerance():
    x = 1.0
    close = x + 5e-11  # inside the relative merge window
    sig = bs.SpectralFunction(1, [(x, (0.5,)), (close, (0.5,))])
    assert len(bs.merged_jump_matrices(sig)) == 1

    sig = bs.SpectralFunction(1, [(x, (0.5,)), (x + 1.0, (0.5,))])
    assert len(bs.merged_jump_matrices(sig)) == 2

    # a gap of exactly NODE_MERGE_TOL * (1 + |x|) still merges
    sig = bs.SpectralFunction(1, [(0.0, (0.6,)), (1e-10, (0.8,))])
    assert [x for x, _ in bs.merged_jump_matrices(sig)] == [0.0]
    # the window is measured from the lower node: this gap is inside
    # 1e-10 * (1 + |x|) at x = -gap but outside it at x = 0
    gap = 1e-10 + 5e-21
    sig = bs.SpectralFunction(1, [(-gap, (0.6,)), (0.0, (0.8,))])
    assert [x for x, _ in bs.merged_jump_matrices(sig)] == [-gap]


@pytest.mark.parametrize("jumps", [
    [(0.0, (1e160, 0.0)), (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))],
    [(0.0, (1e154, 1e154)), (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))],
    [(0.0, (1e154, 1e154)), (0.0, (1e154, 1e154)), (2.0, (0.8, -0.6))],
    [(0.0, (1e160, -1e160)), (0.0, (1e160, 1e160)), (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))],
])
def test_merged_jumps_overflow_without_warning(jumps):
    # an overflowed matrix is inf, or nan where inf meets -inf, for
    # validate_sigma to decide, whoever calls: a lone jump's outer
    # product (entries 1e160) or an exact tie's sum, bit for bit the
    # reference
    sig = bs.SpectralFunction(2, jumps)
    with np.errstate(over="ignore", invalid="ignore"):
        want = helpers.bits(helpers.ref_merged_jump_matrices(sig.jumps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bs.merged_jump_matrices(sig)
    assert helpers.bits(got) == want


def test_merged_jumps_invariant_under_eigenspace_rotation():
    """The per-node jump matrix does not depend on the eigenbasis split."""
    A = bs.BandMatrix(2, 4, ((0.3, 0.3, -0.5, -0.5), (0.0, 0.0, 0.0), (0.9, 0.9)))
    sig = bs.canonical_spectral_function(A)
    merged = bs.merged_jump_matrices(sig)
    assert len(merged) == 2

    dec = bs.eig_symmetric(bs.to_dense(A))
    rng = np.random.default_rng(13)
    pairs = []
    for block in (slice(0, 2), slice(2, 4)):
        V = dec.vectors[:, block]
        theta = rng.uniform(0.1, 1.4)
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        W = V @ R
        for col in range(2):
            pairs.append((float(np.mean(dec.values[block])), tuple(W[:2, col])))
    rotated = bs.SpectralFunction(2, pairs)
    merged2 = bs.merged_jump_matrices(rotated)
    assert len(merged2) == 2
    for (x1, M1), (x2, M2) in zip(merged, merged2):
        assert abs(x1 - x2) < 1e-12
        assert np.max(np.abs(M1 - M2)) < 1e-12

    # the inner product only sees merged jumps, so it is invariant too
    for i in (1, 2, 3, 4):
        p = bs.basis_vector(i, 2)
        for j in (1, 2, 3, 4):
            q = bs.basis_vector(j, 2)
            d = bs.inner(sig, p, q) - bs.inner(rotated, p, q)
            assert abs(d) < 1e-12


def test_inner_orthonormality_of_recurrence_output():
    rng = np.random.default_rng(14)
    for n, N, j0 in ((1, 6, None), (2, 7, 1), (3, 8, None)):
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        T = bs.sampling.random_tinit(rng, n)
        table = bs.solve_recurrence(A, T)
        sig = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
        for j in range(N):
            for k in range(N):
                want = 1.0 if j == k else 0.0
                got = bs.inner(sig, table.basis[j], table.basis[k])
                assert abs(got - want) < 1e-9
        for q in table.generators:
            assert abs(bs.inner(sig, q, q)) < 1e-12
            for p in table.basis:
                assert abs(bs.inner(sig, q, p)) < 1e-9


def test_inner_identity_sigma_basis_orthonormality():
    rng = np.random.default_rng(15)
    for n, N in ((2, 6), (3, 9)):
        A = bs.sampling.random_band_matrix(rng, n, N)
        sig = bs.canonical_spectral_function(A)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = 1.0 if i == j else 0.0
                got = bs.inner(sig, bs.basis_vector(i, n), bs.basis_vector(j, n))
                assert abs(got - want) < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_inner_is_bit_exact_symmetric(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=5))
    num = st.floats(min_value=-5, max_value=5, allow_nan=False, width=64)
    pairs = []
    for i in range(k):
        x = data.draw(num)
        alpha = tuple(data.draw(num) for _ in range(n))
        pairs.append((x + i, alpha))  # shift the nodes apart
    sig = bs.SpectralFunction(n, pairs)
    coeff = st.floats(min_value=-3, max_value=3, allow_nan=False, width=64)
    comps_r = [tuple(data.draw(coeff) for _ in range(3)) for _ in range(n)]
    comps_s = [tuple(data.draw(coeff) for _ in range(3)) for _ in range(n)]
    r = bs.vec_poly(comps_r)
    s = bs.vec_poly(comps_s)
    assert bs.inner(sig, r, s) == bs.inner(sig, s, r)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_own_matches_per_jump_canonical_form(data):
    """_own stores ref_canonical's form bit for bit, whether the nodes
    come in any order, ascending with ties, or strictly ascending (no
    sort), and copies its input arrays rather than changing them."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    num = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0]),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=64),
    )
    xs = data.draw(st.lists(num, max_size=10))
    xs = data.draw(st.sampled_from([xs, sorted(xs), sorted(set(xs))]))
    rows = data.draw(st.lists(st.tuples(*[num] * n), min_size=len(xs), max_size=len(xs)))
    x, alpha = np.array(xs, dtype=float), np.array(rows, dtype=float).reshape(len(xs), n)
    given_bits = helpers.bits((x, alpha))
    sig = spectral._own(object.__new__(bs.SpectralFunction), n, x, alpha)
    assert helpers.bits(sig.jumps) == helpers.bits(helpers.ref_canonical(zip(xs, rows)))
    assert helpers.bits((x, alpha)) == given_bits
    assert not (sig.x.flags.writeable or sig.alpha.flags.writeable)
    assert not (np.shares_memory(sig.x, x) or np.shares_memory(sig.alpha, alpha))


@settings(deadline=None, max_examples=150)
@given(st.data())
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_array_storage_matches_per_jump_reference(data):
    """The (x, alpha) arrays hold the canonical form of the jumps, in
    any order and with any signs, and give bit for bit what the
    per-jump loops in helpers give on it; they round-trip through
    jumps, compare and hash by value, and refuse wrong coefficient
    counts."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    N = data.draw(st.integers(min_value=0, max_value=8))
    num = st.one_of(
        st.sampled_from([0.0, -0.0, 1e-14, 5e-324, 1e-160, 1e-170]),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=64),
    )
    # rows whose jump matrix underflows in part or in whole, or whose
    # weight overflows
    extreme = st.sampled_from([0.0, 1e-160, -1e-160, 1e-170, -1e-170, 1e154, 1.5e154])
    # repeated and merge-close nodes exercise the grouping
    node = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 1.0 + 5e-11]), num)
    # near-tie chains: each node 0.5, 1 or 1.5 merge windows above the
    # last, so a node can be near its neighbour but not near the first
    # node of its group
    step = st.sampled_from([None, 0.5, 1.0, 1.5])
    xs = []
    for _ in range(N):
        f = data.draw(step) if xs else None
        xs.append(data.draw(node) if f is None
                  else xs[-1] + f * NODE_MERGE_TOL * (1.0 + abs(xs[-1])))
    jumps = []
    for x in xs:
        entry = data.draw(st.sampled_from((num, extreme)))
        jumps.append(bs.Jump(x, tuple(data.draw(entry) for _ in range(n))))
    jumps = tuple(jumps)
    sig = bs.SpectralFunction(n, jumps)

    assert sig.N == N and sig.x.shape == (N,) and sig.alpha.shape == (N, n)
    assert all(type(j.alpha) is tuple for j in sig.jumps)
    canon = helpers.ref_canonical(jumps)
    assert helpers.bits(sig.jumps) == helpers.bits(canon)
    again = bs.SpectralFunction(n, sig.jumps)
    assert again == sig and hash(again) == hash(sig)
    # a zero's sign is no part of the value
    def flip(v):
        return -v if v == 0.0 else v

    flipped = bs.SpectralFunction(
        n, [(flip(x), tuple(map(flip, a))) for x, a in jumps])
    assert flipped == sig and hash(flipped) == hash(sig)
    if N:
        # |alpha_1| grows, so the bumped vector is neither alpha nor -alpha
        bumped = bs.SpectralFunction(
            n, ((jumps[0].x, (2.0 * abs(jumps[0].alpha[0]) + 1.0,) + jumps[0].alpha[1:]),)
            + jumps[1:])
        assert bumped != sig

    rows = []
    for i in range(n):
        row = [0.0] * n
        row[i] = data.draw(st.floats(min_value=0.25, max_value=3.0))
        for j in range(i + 1, n):
            row[j] = data.draw(st.floats(min_value=-2.0, max_value=2.0))
        rows.append(tuple(row))
    T = bs.TriangularInit(n, tuple(rows))
    assert helpers.bits(bs.transform_spectral_function(sig, T).jumps) == \
        helpers.bits(helpers.ref_canonical(helpers.ref_transform(canon, T)))
    assert helpers.bits(bs.jump_sum(sig)) == \
        helpers.bits(helpers.ref_jump_sum(n, canon))
    assert helpers.bits(bs.merged_jump_matrices(sig)) == \
        helpers.bits(helpers.ref_merged_jump_matrices(canon))
    def verdict(check, *args):
        try:
            return check(*args)
        except ValidationError as exc:
            return type(exc)

    assert verdict(bs.validate_sigma, sig) is verdict(helpers.ref_validate_sigma, n, canon)

    if N:
        k = data.draw(st.integers(min_value=0, max_value=N - 1))
        wrong = jumps[k].alpha + (1.0,) if data.draw(st.booleans()) \
            else jumps[k].alpha[:-1]
        with pytest.raises(DimensionMismatch, match="coefficients"):
            bs.SpectralFunction(n, jumps[:k] + ((jumps[k].x, wrong),) + jumps[k + 1:])
    # neither the order of the jumps nor their signs is part of the value
    order = data.draw(st.permutations(range(N)))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=N, max_size=N))
    shuffled = bs.SpectralFunction(
        n, [(jumps[k].x, tuple(s * a for a in jumps[k].alpha))
            for k, s in zip(order, signs)])
    assert helpers.bits(shuffled.jumps) == helpers.bits(sig.jumps)
