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
    NonFiniteEntry,
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


def test_overflowed_eigenvalue_is_a_numerical_refusal():
    # the matrix is finite and admissible, but its eigenvalue 2e308 is
    # not a float64: exit 3 naming the eigenvalue, not a class violation
    A = bs.BandMatrix(1, 2, ((1e308, 1e308), (1e308,)))
    bs.validate_band(A)
    with pytest.raises(NonFiniteEntry, match=r"^eigenvalue 2 of 2 is inf with coefficient "
                                             r"vector \[0\.7071067811865475\]: the "
                                             r"eigensolver overflowed float64$"):
        bs.canonical_spectral_function(A)
    # nodes near the float limit that stay finite come through
    A = bs.BandMatrix(1, 3, ((1e308, -1e308, 1e308), (1e308, 1e308)))
    assert np.isfinite(bs.canonical_spectral_function(A).x).all()


def test_validate_sigma_rejects_rank_mismatch():
    # two jumps at one node with parallel directions merge to rank one
    sig = bs.SpectralFunction(2, [(1.0, (0.6, 0.3)), (1.0, (1.2, 0.6))])
    with pytest.raises(RankSumMismatch):
        bs.validate_sigma(sig)


@pytest.mark.parametrize("alpha", [(1e-170, 0.0), (1e154, 1e154)])
def test_validate_sigma_decides_rank_of_extreme_jump(alpha):
    # the first jump is alone at its node, so it has rank one although
    # its matrix underflows to zero or its weight overflows; merged
    # with an orthogonal vector of its size, the group has rank two
    sig = bs.SpectralFunction(
        2, [(0.0, alpha), (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))])
    bs.validate_sigma(sig)
    sig = bs.SpectralFunction(
        2, [(0.0, alpha), (0.0, (-alpha[1], alpha[0])), (2.0, (0.8, -0.6))])
    bs.validate_sigma(sig)


def test_validate_sigma_decides_rank_of_overflowed_group():
    # the two 1e154 vectors at node 0 sum to an infinite entry, on which
    # eigvalsh fails; scaled down, that group has rank 1 (the 1e-14
    # vector is 1e-168 of the others), so the ranks sum to 3, not 5
    with pytest.raises(RankSumMismatch, match="sum to 3, expected 5"):
        bs.validate_sigma(helpers.overflowing_sigma())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("merged", [False, True])
def test_validate_sigma_refuses_non_finite_coefficient(bad, merged):
    # a NaN or infinite coefficient has no rank, alone at its node or not
    sig = bs.SpectralFunction(2, [(0.0, (bad, 1.0)), (0.0 if merged else 0.5, (0.6, -0.8)),
                                  (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))])
    with pytest.raises(RankSumMismatch, match="non-finite"):
        bs.validate_sigma(sig)
    assert helpers.ref_validate_sigma(2, sig.jumps) is RankSumMismatch


def test_validate_sigma_keeps_equal_infinite_nodes_apart():
    # inf - inf is NaN, so equal infinite nodes never merge; but a node
    # at infinity is no point of the real line, and the ranks are not
    # weighed at all
    sig = bs.SpectralFunction(2, [(0.0, (1.0, 0.0)), (0.0, (0.0, 1.0)),
                                  (math.inf, (0.6, 0.8)), (math.inf, (0.8, -0.6))])
    assert len(bs.merged_jump_matrices(sig)) == 3
    with pytest.raises(RankSumMismatch, match=r"^jump at x=inf has a non-finite node$"):
        bs.validate_sigma(sig)
    assert "_admissible" not in sig.__dict__
    assert helpers.ref_validate_sigma(2, sig.jumps) is RankSumMismatch


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("merged", [False, True])
def test_validate_sigma_refuses_non_finite_node(bad, merged):
    # the jump at the bad node alone has rank 1, and the rest add up
    sig = bs.SpectralFunction(2, [(0.0, (1.0, 0.0)), (0.0 if merged else 0.5, (0.0, 1.0)),
                                  (bad, (0.6, 0.8))])
    with pytest.raises(RankSumMismatch, match=r"^jump at x=%r has a non-finite node$" % bad):
        bs.validate_sigma(sig)
    assert helpers.ref_validate_sigma(2, sig.jumps) is RankSumMismatch


def test_validate_sigma_message_order():
    """A sigma with a zero jump, a dead component, non-finite entries and
    a non-finite node at once is refused for the zero jump; mending each
    offender in turn brings out the next check, which names its first
    offender in storage order."""
    inf = math.inf
    rest = [(3.0, (-inf, 0.0)), (1.0, (inf, 0.0)), (inf, (1.0, 0.0)), (2.0, (1.0, 0.0))]
    alive = [(4.0, (0.0, 1.0))]
    finite = [(3.0, (0.5, 0.0)), (1.0, (1.0, 0.0))] + rest[2:]
    got = []
    for jumps in ([(0.0, (0.0, 0.0))] + rest, rest, rest + alive, finite + alive):
        with pytest.raises(ValidationError) as info:
            bs.validate_sigma(bs.SpectralFunction(2, jumps))
        got.append((type(info.value), str(info.value)))
    assert got == [
        (ZeroJump, "jump at x=0.0 has a zero coefficient vector"),
        (DeadComponent, "component 2 has zero coefficient at every node"),
        (RankSumMismatch, "jump at x=1.0 has a non-finite coefficient vector"),
        (RankSumMismatch, "jump at x=inf has a non-finite node"),
    ]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_validate_sigma_verdict_ignores_group_scale(data):
    """Scaling a merge group's vectors by a power of two changes no rank,
    so validate_sigma's verdict stays the same when each group gets its
    own 2**k, k in [-1000, 1000], however far its entries then are from
    1.  The entries are 0 or at least 2**-20 and at most 4 in size, so
    every scaled entry is exact."""
    n = data.draw(st.integers(min_value=1, max_value=3))
    N = data.draw(st.integers(min_value=1, max_value=8))
    size = st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                     st.floats(min_value=2.0**-20, max_value=4.0))
    entry = st.builds(lambda s, a: s * a, st.sampled_from([1.0, -1.0]), size)
    # a few vectors, reused with power-of-two factors, give parallel
    # members and so rank deficits
    pool = data.draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=3))
    # near-tie chains: each node 0, 0.5 or 1 merge windows above the
    # last, or a fresh node 1 above it
    xs = [data.draw(st.sampled_from([-1.0, 0.0, 2.5]))]
    for _ in range(N - 1):
        f = data.draw(st.sampled_from([0.0, 0.5, 1.0, None]))
        xs.append(xs[-1] + 1.0 if f is None
                  else xs[-1] + f * NODE_MERGE_TOL * (1.0 + abs(xs[-1])))
    jumps = []
    for x in xs:
        v = data.draw(st.sampled_from(pool))
        p = data.draw(st.sampled_from([1.0, 0.5, 4.0]))
        jumps.append((x, tuple(p * a for a in v)))
    sig = bs.SpectralFunction(n, jumps)
    group = []  # the merge group of each stored jump
    first = None
    for x in sig.x.tolist():
        if first is None or x - first > NODE_MERGE_TOL * (1.0 + abs(first)):
            first = x
            group.append(len(set(group)))
        else:
            group.append(group[-1])
    k = data.draw(st.lists(st.integers(min_value=-1000, max_value=1000),
                           min_size=len(set(group)), max_size=len(set(group))))
    scaled = bs.SpectralFunction(
        n, [(x, tuple(math.ldexp(a, k[g]) for a in alpha))
            for (x, alpha), g in zip(sig.jumps, group)])
    assert len(bs.merged_jump_matrices(scaled)) == len(set(group))

    def verdict(s):
        try:
            bs.validate_sigma(s)
        except ValidationError as exc:
            return type(exc)

    assert verdict(scaled) is verdict(sig) is helpers.ref_validate_sigma(n, sig.jumps)


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


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_inner_and_generator_matrix_match_per_jump_reference(data):
    """inner and generator_matrix, which evaluate on coefficient arrays,
    agree bit for bit with the per-component, per-jump references on
    recurrence output under random initial values, and warn of no
    overflow at finite points however large."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    N = data.draw(st.integers(min_value=n + 1, max_value=19))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = bs.sampling.random_band_matrix(rng, n, N)
    T = bs.sampling.random_tinit(rng, n)
    table = bs.solve_recurrence(A, T)
    sig = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
    polys = table.basis[:6] + table.generators
    z = data.draw(st.one_of(
        st.sampled_from([0.0, -0.0, -1.7, 2.3, float(sig.x[0]), 1e150, -1e200]),
        st.floats(min_value=-10.0, max_value=10.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in polys:
            for s in polys:
                assert (helpers.bits(bs.inner(sig, r, s))
                        == helpers.bits(helpers.ref_inner(sig, r, s)))
        M = bs.generator_matrix(table, z)
    want = [helpers.ref_evaluate(q.comps, z) for q in table.generators]
    assert M.tobytes() == np.array(want).tobytes()


def test_inner_overflows_silently_like_reference():
    # at the node 1e200, the product of the two dot products of z e_2
    # overflows, and so does the value of z^2 e_1, which alpha's zero
    # entry then multiplies to nan
    sig = bs.SpectralFunction(2, [(1.0, (1.0, 0.5)), (1e200, (0.0, 1.0))])
    polys = [bs.basis_vector(4, 2), bs.basis_vector(5, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [bs.inner(sig, p, p) for p in polys]
    assert helpers.bits(got) == helpers.bits([helpers.ref_inner(sig, p, p) for p in polys])
    assert math.isinf(got[0]) and math.isnan(got[1])


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


def _eig_outcome(eig, M):
    got = helpers.outcome(eig, M)
    if isinstance(got, tuple):
        return got
    return got.values.tobytes(), got.vectors.tobytes(), got.values.flags.writeable


def _sigma_outcome(run, *args):
    got = helpers.outcome(run, *args)
    if isinstance(got, tuple):
        return got
    return got.n, got.x.tobytes(), got.alpha.tobytes(), got.alpha.shape


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_direct_stages_match_references(data):
    """eig_symmetric, _own and transform_spectral_function give, as
    bytes, what their earlier bodies in helpers give, or the same
    refusal class and message: on band matrices with n <= 8, N <= 64,
    made asymmetric within or beyond the tolerance or given a NaN or
    infinite entry; on their eigenpairs with rows negated, zeroed or
    reordered; and, on half the draws, on random initial values with
    one diagonal entry small enough to overflow at one jump or all."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    j0 = data.draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
    M = bs.to_dense(A)
    i, j = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    M[i, j] += data.draw(st.sampled_from([0.0, 1e-12, 1e-3, math.nan, math.inf]))
    assert _eig_outcome(bs.eig_symmetric, M) == _eig_outcome(helpers.ref_eig_symmetric, M)

    dec = np.linalg.eigh(bs.to_dense(A))
    x, alpha = dec.eigenvalues.copy(), dec.eigenvectors[:n].T.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, N - 1))
        alpha[k] *= data.draw(st.sampled_from([-1.0, 0.0, -0.0]))
    if data.draw(st.booleans()):
        order = data.draw(st.permutations(range(N)))
        x, alpha = x[order], alpha[order]
        x[data.draw(st.integers(0, N - 1))] = x[0]  # an exact tie
    sig = _sigma_outcome(spectral._own, object.__new__(bs.SpectralFunction), n, x, alpha)
    assert sig == _sigma_outcome(helpers.ref_own, object.__new__(bs.SpectralFunction),
                                 n, x, alpha)

    if data.draw(st.booleans()):
        sigma = bs.canonical_spectral_function(A)
        T = bs.sampling.random_tinit(rng, n)
        if data.draw(st.booleans()):
            # one jump scaled up and one diagonal entry down, so that
            # (T^t)^-1 alpha overflows at that jump, or at every jump
            k, i = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, n - 1))
            sigma = bs.SpectralFunction(n, [(x, tuple(a * (1e300 if l == k else 1.0) for a in v))
                                            for l, (x, v) in enumerate(sigma.jumps)])
            rows = [list(r) for r in T.rows]
            rows[i][i] = data.draw(st.sampled_from([1e-10, 1e-320]))
            T = bs.TriangularInit(n, rows)
        assert (_sigma_outcome(bs.transform_spectral_function, sigma, T)
                == _sigma_outcome(helpers.ref_transform_spectral_function, sigma, T))


@pytest.mark.parametrize("entries", [
    [(0, 0, math.nan)], [(0, 1, math.nan)], [(0, 1, math.nan), (1, 0, math.nan)],
    [(2, 1, math.inf)], [(1, 1, -math.inf)], [(0, 2, math.nan), (2, 2, math.inf)],
])
def test_eig_symmetric_non_finite_entries_match_reference(entries):
    # NaN and inf entries, on the diagonal or off it, on one side or
    # both, take the same path through the symmetry test as before
    M = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    for i, j, v in entries:
        M[i, j] = v
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _eig_outcome(bs.eig_symmetric, M) == _eig_outcome(helpers.ref_eig_symmetric, M)


def _small_admissible(case):
    if case == "rng0 n=2 N=12 times 2^-40":
        A = bs.sampling.random_band_matrix(np.random.default_rng(0), 2, 12)
        return bs.BandMatrix(2, 12, tuple(tuple(v * 2.0**-40 for v in d) for d in A.diags))
    return bs.BandMatrix(1, 3, ((1e-300,) * 3, (1e-300,) * 2))


# The class is closed under A -> c A, c > 0, so a small matrix that
# validate_band accepts must not be refused as a class violation.  The
# merge window's absolute floor joins distinct eigenvalues of these two
# ("merged jump ranks sum to 2, expected 12" and "sum to 1, expected
# 3"); a scale-free window makes them pass.
@pytest.mark.xfail(strict=True, raises=bs.errors.MembershipViolation,
                   reason="the node merge window has an absolute floor")
@pytest.mark.parametrize("case", ["rng0 n=2 N=12 times 2^-40", "n=1 N=3 entries 1e-300"])
def test_small_admissible_matrix_is_no_class_violation(case):
    A = _small_admissible(case)
    bs.validate_band(A)
    try:
        bs.canonical_spectral_function(A)
    except NumericalDecisionError:
        pass
