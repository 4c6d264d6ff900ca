"""Gram-Schmidt inverse problem: basis building, matrix and T recovery."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bandspec as bs
from bandspec.errors import (
    AmbiguousNorm,
    BandViolation,
    DimensionMismatch,
    IllConditioned,
    IterationCapExceeded,
    NotTriangular,
    NumericalDecisionError,
    ProfileMismatch,
)
from bandspec.reconstruct import BAND_TOL, GATE_BOUND
from bandspec.spectral import RANK_TOL

import helpers


def flip_sigma():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    return bs.canonical_spectral_function(A)


def test_gram_schmidt_hand_example():
    gs = bs.gram_schmidt(flip_sigma())
    assert gs.node_scale == 1.0 and gs.node_center == 0.0
    assert gs.iterations == 3
    assert gs.basis_heights == (0, 1)
    assert gs.generator_heights == (2,)

    # the polynomials come from the recurrence on the result
    rec = bs.reconstruct(flip_sigma())
    table = bs.solve_recurrence(rec.matrix, rec.tinit)
    p1, p2 = table.basis
    assert len(p1.comps[0]) == 1 and abs(p1.comps[0][0] - 1.0) < 1e-14
    assert abs(p2.comps[0][1] - 1.0) < 1e-14
    assert abs(p2.comps[0][0]) < 1e-14

    (q,) = table.generators
    c = q.comps[0]
    assert len(c) == 3
    assert abs(c[0] + 1.0) < 1e-14 and abs(c[1]) < 1e-14 and abs(c[2] - 1.0) < 1e-14


def test_matrix_from_basis_hand_example():
    sig = flip_sigma()
    gs = bs.gram_schmidt(sig)
    A = bs.matrix_from_basis(sig, gs)
    assert A.n == 1 and A.N == 2
    assert abs(A.diags[0][0]) < 1e-14 and abs(A.diags[0][1]) < 1e-14
    assert abs(A.diags[1][0] - 1.0) < 1e-14


def test_initial_conditions_hand_examples():
    sig = flip_sigma()
    gs = bs.gram_schmidt(sig)
    T = bs.initial_conditions(gs)
    assert abs(T.rows[0][0] - 1.0) < 1e-14

    # scaling every jump by 4 scales the constant normalization by 1/2
    scaled = bs.SpectralFunction(
        1, [(j.x, (2.0 * j.alpha[0],)) for j in sig.jumps]
    )
    T4 = bs.initial_conditions(bs.gram_schmidt(scaled))
    assert abs(T4.rows[0][0] - 0.5 * T.rows[0][0]) < 1e-14


def test_reconstruct_roundtrip_small_default_tol():
    rng = np.random.default_rng(31)
    for n, N, j0 in ((1, 4, None), (1, 8, None), (2, 5, None), (2, 8, 1),
                     (3, 6, None), (3, 8, 2)):
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        sig = bs.canonical_spectral_function(A)
        rec = bs.reconstruct(sig)
        dev = np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A)))
        tdev = np.max(np.abs(np.array(rec.tinit.rows) - np.eye(n)))
        assert dev < 1e-8
        assert tdev < 1e-8
        assert rec.profile == bs.validate_band(A)


def test_reconstruct_roundtrip_to_twelve():
    rng = np.random.default_rng(32)
    for n, N, j0 in ((1, 12, None), (2, 12, 1), (3, 12, 2), (3, 12, None)):
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        sig = bs.canonical_spectral_function(A)
        rec = bs.reconstruct(sig)
        dev = np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A)))
        assert dev < 1e-8
        assert np.max(np.abs(np.array(rec.tinit.rows) - np.eye(n))) < 1e-8


def test_reconstruct_pinned_degenerate_instance():
    A = bs.BandMatrix(
        2,
        6,
        (
            (0.2, -0.7, 0.5, -0.1, 0.3, -0.4),
            (-0.3, 0.4, 0.0, 0.9, 1.2),
            (0.8, 1.1, 0.0, 0.0),
        ),
    )
    prof = bs.validate_band(A)
    assert prof.m == (3, 6) and prof.j0 == 1
    rec = bs.reconstruct(bs.canonical_spectral_function(A))
    assert np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))) < 1e-10
    assert rec.profile.m == (3, 6)
    # the exact zeros of the degenerate range are snapped, not approximated
    assert rec.matrix.diags[2][2] == 0.0 and rec.matrix.diags[2][3] == 0.0


def test_reconstruct_recovers_transform_matrix():
    rng = np.random.default_rng(33)
    for n, N in ((1, 6), (2, 7), (3, 9)):
        A = bs.sampling.random_band_matrix(rng, n, N)
        T = bs.sampling.random_tinit(rng, n)
        sig = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
        rec = bs.reconstruct(sig)
        assert np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))) < 1e-8
        assert np.max(np.abs(np.array(rec.tinit.rows) - T.dense())) < 1e-8


def _basis_changed(gs, M):
    """gs with its coefficients those of the basis M V: the lower
    triangle of M C M^t, C the symmetric matrix that gs.coefficients
    holds the lower triangle of."""
    L = gs.coefficients
    C = np.where(np.tri(len(L), dtype=bool), L, L.T)
    return dataclasses.replace(gs, coefficients=np.tril(M @ C @ M.T))


def test_band_leak_past_first_outside_diagonal():
    # rotating basis rows 1 and 5 of a Jacobi basis keeps them
    # orthonormal and moves band entries to offsets 3 and 4 only, so a
    # check of the first outside diagonal alone would miss the leak
    sig = bs.canonical_spectral_function(
        bs.sampling.random_jacobi(np.random.default_rng(3), 5))
    gs = bs.gram_schmidt(sig)
    c, s = math.cos(0.1), math.sin(0.1)
    R = np.eye(5)
    R[0, 0], R[0, 4], R[4, 0], R[4, 4] = c, -s, s, c
    with pytest.raises(BandViolation, match="offset [34]"):
        bs.matrix_from_basis(sig, _basis_changed(gs, R))


def test_results_compare_and_hash_without_raising():
    A = bs.sampling.random_band_matrix(np.random.default_rng(34), 2, 7, j0=1)
    sig = bs.canonical_spectral_function(A)
    r1, r2 = bs.reconstruct(sig), bs.reconstruct(sig)
    assert np.max(np.abs(bs.to_dense(r1.matrix) - bs.to_dense(A))) < 1e-8
    assert r1 == r1 and r1 != r2
    assert r1.matrix == r2.matrix
    assert len({r1, r2, r1.diagnostics}) == 3
    dec = bs.eig_symmetric(np.diag([1.0, 2.0]))
    assert dec == dec and dec != bs.eig_symmetric(np.diag([1.0, 2.0]))
    assert hash(dec) == hash(dec)


def test_orthonormality_and_heights_at_scale():
    """Completed runs stay orthonormal to 1e-9 up to N = 32.

    The zero/nonzero residual decision narrows as the candidate degree
    grows; a run that cannot decide raises AmbiguousNorm and is skipped
    here (that refusal has its own tests below).  Completion must be
    the common case, and every completed run must satisfy the bound.
    """
    for n, N in ((1, 16), (1, 24), (2, 24), (2, 32), (3, 24), (3, 32)):
        completed = 0
        ambiguous = 0
        for rep in range(6):
            rng = np.random.default_rng(1000 * n + 10 * N + rep)
            A = bs.sampling.random_band_matrix(rng, n, N)
            sig = bs.canonical_spectral_function(A)
            try:
                gs = bs.gram_schmidt(sig)
            except AmbiguousNorm:
                ambiguous += 1
                continue
            completed += 1
            V = gs.values
            err = np.max(np.abs(V @ V.T - np.eye(N)))
            assert err < 1e-9, (n, N, rep, err)
            assert gs.basis_heights == tuple(sorted(gs.basis_heights))
        assert completed >= 3, (n, N, completed, ambiguous)


def test_height_laws_on_mixed_instances():
    rng = np.random.default_rng(36)
    cases = ((1, 7, None), (2, 8, 1), (3, 10, 2), (3, 9, None), (2, 12, 1))
    for n, N, j0 in cases:
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        m1 = bs.validate_band(A).m[0]
        sig = bs.canonical_spectral_function(A)
        gs = bs.gram_schmidt(sig)
        ph = gs.basis_heights
        qh = gs.generator_heights

        # generator heights: pairwise distinct residues and the exact sum
        assert len({h % n for h in qh}) == n
        assert sum(qh) == N * n + n * (n - 1) // 2

        # basis heights strictly increase, run consecutively up to the
        # first cut, and afterwards equal k-1 plus the number of
        # generator shift-multiples passed so far
        assert all(a < b for a, b in zip(ph, ph[1:]))
        assert ph[:m1] == tuple(range(m1))
        multiples = set()
        for h in qh:
            l = h
            while l <= ph[-1] + n:
                multiples.add(l)
                l += n
        for k in range(1, N + 1):
            b = sum(1 for u in multiples if u < ph[k - 1])
            assert ph[k - 1] == k - 1 + b

        # an n-wide index window gains at least n in height, strictly
        # more exactly when a generator multiple falls inside it
        for k in range(N - n):
            gained = ph[n + k] - ph[k]
            crossed = sum(1 for u in multiples if ph[k] < u < ph[n + k])
            assert gained == n + crossed
            assert gained >= n

        # the heights of the basis and of all z-shifts of the generators
        # tile an initial integer segment with no collisions
        top = ph[-1]
        seen = set(ph)
        for h in qh:
            l = h
            while l <= top:
                assert l not in seen
                seen.add(l)
                l += n
        assert seen == set(range(top + 1))


def test_positive_entry_pattern_follows_heights():
    """Entries of the recovered band are positive exactly between cuts."""
    rng = np.random.default_rng(37)
    for n, N, j0 in ((2, 8, 1), (3, 9, 2), (2, 6, None)):
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        sig = bs.canonical_spectral_function(A)
        rec = bs.reconstruct(sig)
        gs = rec.diagnostics
        qh = gs.generator_heights
        for k in range(1, N + 1):
            hz = gs.basis_heights[k - 1] + n
            if hz in qh:
                continue  # k is a cut index, no positivity claim
            j = sum(1 for h in qh if h < hz)
            if j >= n:
                continue
            level = n - j
            assert k <= N - level
            assert rec.matrix.entry(level, k) > 0.0


def test_jump_recovery():
    rng = np.random.default_rng(38)
    for n, N, j0 in ((1, 9, None), (2, 8, 1), (3, 11, 2)):
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        sig = bs.canonical_spectral_function(A)
        rec = bs.reconstruct(sig)
        back = bs.canonical_spectral_function(rec.matrix)
        m1 = bs.merged_jump_matrices(sig)
        m2 = bs.merged_jump_matrices(back)
        assert len(m1) == len(m2)
        for (x1, S1), (x2, S2) in zip(m1, m2):
            assert abs(x1 - x2) < 1e-7
            assert np.max(np.abs(S1 - S2)) < 1e-7


def test_profile_mismatch_on_corrupted_heights():
    sig = flip_sigma()
    gs = bs.gram_schmidt(sig)
    bad = dataclasses.replace(gs, generator_heights=(0,))
    with pytest.raises(ProfileMismatch):
        bs.height_degeneration_indices(bad)


def test_iteration_cap_on_inadmissible_sigma():
    # every jump direction identical: passes the pointwise checks but
    # is not realizable, so the candidate stream must be cut off
    pairs = [(x, (1.0, 1.0)) for x in (-1.5, -0.5, 0.5, 1.5)]
    sig = bs.SpectralFunction(2, pairs)
    bs.validate_sigma(sig)
    with pytest.raises(IterationCapExceeded):
        bs.gram_schmidt(sig)


@st.composite
def probe_sigmas(draw):
    """(n, N, sigma) from one of four families, most outside the class:
    the canonical sigma of a random_band_matrix, random coefficient
    vectors at distinct nodes, vectors in an (n-1)-dimensional subspace,
    and random vectors at repeated integer nodes."""
    family = draw(st.sampled_from(("band", "random", "subspace", "integer")))
    n = draw(st.integers(min_value=2 if family == "subspace" else 1, max_value=5))
    N = draw(st.integers(min_value=n + 1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if family == "band":
        try:
            return n, N, bs.canonical_spectral_function(
                bs.sampling.random_band_matrix(rng, n, N))
        except bs.errors.BandSpecError:
            return None
    if family == "integer":
        x = rng.integers(0, max(2, N // 2), N).astype(float)
    else:
        x = np.sort(rng.standard_normal(N))
    if family == "subspace":
        alpha = rng.standard_normal((N, n - 1)) @ rng.standard_normal((n - 1, n))
    else:
        alpha = rng.standard_normal((N, n))
    return n, N, bs.SpectralFunction(n, zip(x, alpha))


@settings(deadline=None, max_examples=200)
@given(case=probe_sigmas())
def test_gram_schmidt_returns_satisfy_the_height_sum(case):
    """Each residue class dies once, so a run that returns has N basis
    members and generator heights summing to N n + n(n-1)/2, in or out
    of the class; a cap refusal names the cap, the full basis or the
    class count."""
    if case is None:
        return
    n, N, sig = case
    try:
        gs = bs.gram_schmidt(sig)
    except IterationCapExceeded as exc:
        assert any(m in str(exc) for m in (
            "(cap %d)" % (n * (N - n + 1) + 1), "on a full basis",
            "every residue class died with")), str(exc)
        return
    except DimensionMismatch as exc:
        assert str(exc) == "all nodes coincide"
        return
    except AmbiguousNorm:
        return
    assert len(gs.basis_heights) == N
    assert sum(gs.generator_heights) == N * n + n * (n - 1) // 2


def test_ambiguous_norm_trigger():
    r = 1.0 / math.sqrt(2.0)
    sig = bs.SpectralFunction(1, [(-1.0, (r,)), (0.0, (1e-8,)), (1.0, (r,))])
    with pytest.raises(AmbiguousNorm):
        bs.gram_schmidt(sig)


def test_ambiguous_norm_at_conditioning_limit():
    # half-bandwidth 1 at N = 32 was beyond the monomial conditioning
    # cliff; band Lanczos returns it within the bound, exact profile
    rng = np.random.default_rng(39)
    A = bs.sampling.random_jacobi(rng, 32)
    rec = bs.reconstruct(bs.canonical_spectral_function(A))
    assert np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))) < 1e-8
    assert rec.profile == bs.validate_band(A)
    # where the data do not determine the matrix to the bound, the run
    # must refuse rather than guess: the draw of
    # scripts/completion_table.py at seed (32, 16, 1), n = 3, whose
    # smallest weight |alpha_k|^2 is 9e-11, came back 4.9e-8 off with
    # the right profile from the monomial engine
    rng = np.random.default_rng((32, 16, 1))
    A = bs.sampling.random_band_matrix(rng, int(rng.integers(1, 9)), 32)
    sig = bs.canonical_spectral_function(A)
    with pytest.raises(IllConditioned, match="exceeds the bound"):
        bs.reconstruct(sig)


def test_constant_of_norm_zero_names_the_singular_jump_sum():
    # a constant has norm zero, so a generator sits below height n and
    # no basis height matches it; the refusal names the cause instead
    sig = helpers.subspace_sigma()
    assert bs.gram_schmidt(sig).generator_heights[0] == 2
    with pytest.raises(ProfileMismatch) as info:
        bs.reconstruct(sig)
    assert str(info.value) == ("generator 1 at height 2 < n = 3 is a constant of norm "
                               "zero: the jump sum is singular")


def test_gate_returns_well_conditioned_half_bandwidth_one():
    # n = 1 at N = 24 came back 1.07e-8 off from the monomial engine
    # (zero-norm threshold 1e-12); its condition estimate passes the gate
    A = bs.sampling.random_band_matrix(np.random.default_rng((24, 1, 0)), 1, 24)
    rec = bs.reconstruct(bs.canonical_spectral_function(A))
    assert np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))) < 1e-8
    assert rec.profile == bs.validate_band(A)
    assert np.max(np.abs(rec.tinit.dense() - np.eye(1))) < 1e-8


def test_gate_refuses_before_band_checks(monkeypatch):
    # an unstable run is a numerical limit (exit 3), never a class
    # violation: on this input the band and profile checks alone would
    # raise ProfileMismatch (exit 2), and the gate must come first
    rng = np.random.default_rng((99, 2207))
    n, N = int(rng.integers(1, 4)), int(rng.choice([40, 48, 56, 64]))
    assert (n, N) == (2, 56)
    sig = bs.canonical_spectral_function(bs.sampling.random_band_matrix(rng, n, N))
    with pytest.raises(IllConditioned):
        bs.reconstruct(sig)
    monkeypatch.setattr(sys.modules["bandspec.reconstruct"], "GATE_BOUND", math.inf)
    with pytest.raises(ProfileMismatch):
        bs.reconstruct(sig)


def test_gate_weighs_the_initial_values():
    # a strongly sheared T: the matrix comes back within 1e-10, but the
    # initial values from this run are more than 1e-8 off, and only
    # their change under the replays carries the estimate over the bound
    A = bs.sampling.random_band_matrix(np.random.default_rng(7), 2, 10)
    T = bs.TriangularInit(2, ((1.0, 3e4), (0.0, 1.0)))
    sig = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
    gs = bs.gram_schmidt(sig)
    A_got = bs.matrix_from_basis(sig, gs)
    assert np.max(np.abs(bs.to_dense(A_got) - bs.to_dense(A))) < 1e-10
    assert np.max(np.abs(gs.first_block - T.dense())) > 1e-8
    with pytest.raises(IllConditioned):
        bs.reconstruct(sig)


def test_returns_input_with_nearly_singular_jump_sum():
    # a milder shear than above: the jump sum T^t T has an eigenvalue
    # ratio of 1e-12, below RANK_TOL, yet the input is admissible and
    # comes back right, so a singular-sum check must not refuse it
    A = bs.sampling.random_band_matrix(np.random.default_rng(7), 2, 10)
    T = bs.TriangularInit(2, ((1.0, 1e3), (0.0, 1.0)))
    sig = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
    evals = np.linalg.eigvalsh(bs.jump_sum(sig))
    assert evals[0] <= RANK_TOL * evals[-1]
    rec = bs.reconstruct(sig)
    assert np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))) < 1e-8
    assert np.max(np.abs(rec.tinit.dense() - T.dense())) < 1e-8
    assert rec.profile == bs.validate_band(A)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_inverse_contract(data):
    """Every return is right and every refusal is numerical.

    Over the CLI caps (n <= 8, N <= 64), any j0, with and without
    random initial values: a returned reconstruction gives back A and T within 1e-8 and the
    exact profile; anything else must be a NumericalDecisionError
    (exit 3), never a class violation.
    """
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    j0 = data.draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    with_t = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
    T = bs.sampling.random_tinit(rng, n) if with_t else None
    try:
        sig = bs.canonical_spectral_function(A)
        if T is not None:
            sig = bs.transform_spectral_function(sig, T)
        rec = bs.reconstruct(sig)
    except NumericalDecisionError:
        return
    assert np.max(np.abs(bs.to_dense(rec.matrix) - bs.to_dense(A))) <= 1e-8
    want_T = T.dense() if T is not None else np.eye(n)
    assert np.max(np.abs(rec.tinit.dense() - want_T)) <= 1e-8
    assert rec.profile == bs.validate_band(A)
    assert rec.diagnostics.cond * np.finfo(float).eps <= GATE_BOUND
    # the direct problem on the returned matrix and initial values gives
    # the input back
    back = bs.transform_spectral_function(bs.canonical_spectral_function(rec.matrix),
                                          rec.tinit)
    assert np.max(np.abs(back.x - sig.x)) <= 1e-8
    assert np.max(np.abs(back.alpha - sig.alpha)) <= 1e-6


def test_gate_copies_run_independently(monkeypatch):
    # with zero perturbation directions every copy is the input again:
    # the input's run must not change, and the copies must reproduce it
    # up to the rounding gap between linear_combine and the numpy first
    # block; a copy that misses its own stores or builds its first block
    # wrong changes cond by O(1)
    module = sys.modules["bandspec.reconstruct"]
    runs = []
    for n, N, j0, with_t in ((1, 12, 0, 0), (2, 9, 1, 1), (3, 20, 2, 1),
                             (4, 32, 0, 0), (8, 40, 3, 1)):
        rng = np.random.default_rng((n, N, j0))
        sig = bs.canonical_spectral_function(
            bs.sampling.random_band_matrix(rng, n, N, j0=j0))
        if with_t:
            sig = bs.transform_spectral_function(sig, bs.sampling.random_tinit(rng, n))
        runs.append((sig, bs.gram_schmidt(sig)))
    monkeypatch.setattr(module, "_perturbations", lambda N, n: (
        np.ones((module.GATE_REPLAYS + 1, N)), np.zeros((module.GATE_REPLAYS + 1, N, n))))
    for sig, want in runs:
        got = bs.gram_schmidt(sig)
        assert got.basis_heights == want.basis_heights
        assert got.generator_heights == want.generator_heights
        assert got.iterations == want.iterations
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.first_block, want.first_block)
        assert got.cond * module.GATE_STEP <= 1e-14


def test_gate_directions_are_prefixes_of_one_stream():
    # copy k reads its node factors, then its coefficient offsets, off
    # the start of one stream of normals for every (N, n), so the first
    # 64 + 64 * 8 normals of each stream cover the command-line caps
    module = sys.modules["bandspec.reconstruct"]
    step = module.GATE_STEP
    streams = [np.random.default_rng(k).standard_normal(64 * 9)
               for k in range(module.GATE_REPLAYS)]
    for n in range(1, 9):
        for N in range(n + 1, 65):
            factor, offset = module._perturbations(N, n)
            assert not np.any(factor[0] - 1.0) and not np.any(offset[0])
            for k, g in enumerate(streams, 1):
                assert factor[k].tobytes() == (1.0 + step * g[:N]).tobytes()
                assert offset[k].tobytes() == (step * g[N:N * (n + 1)]).reshape(N, n).tobytes()


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_gate_cond_matches_copies_run_alone(data):
    """cond equals, bit for bit, the estimate from each perturbed copy
    replayed on its own with the input's decisions and frame, so no copy
    reads the input's nodes, coefficients or first block."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    j0 = data.draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
    try:
        sig = bs.canonical_spectral_function(A)
        if data.draw(st.booleans()):
            sig = bs.transform_spectral_function(sig, bs.sampling.random_tinit(rng, n))
        gs = bs.gram_schmidt(sig)
    except NumericalDecisionError:
        return
    assert gs.cond.hex() == helpers.ref_gate_cond(sig, gs).hex()


#: an IllConditioned message: the estimate, the rows it read, and the margin
GATE_MESSAGE = (r"condition estimate (\S+) after (\d+) of (\d+) rows: cond \* eps = (\S+) "
                r"exceeds the bound 1e-08 by (\S+)x")


def _gate_message(exc):
    """The numbers of an IllConditioned message, checked against each
    other: (cond, rows, N)."""
    got = re.fullmatch(GATE_MESSAGE, str(exc))
    assert got, str(exc)
    cond, rows, N, scaled, margin = got.groups()
    eps = np.finfo(float).eps
    assert float(scaled) == pytest.approx(float(cond) * eps, rel=1e-2)
    assert float(margin) == pytest.approx(float(scaled) / GATE_BOUND, rel=1e-2)
    assert float(margin) > 1.0
    return float(cond), int(rows), int(N)


def test_gate_message_names_rows_and_margin():
    # an early refusal: the rows final after 40 of 64 already cross the
    # bound, and the full run's estimate is at least as large
    A = bs.sampling.random_band_matrix(np.random.default_rng((2, 3, 64)), 3, 64)
    sig = bs.canonical_spectral_function(A)
    with pytest.raises(IllConditioned) as early:
        bs.reconstruct(sig)
    cond, rows, N = _gate_message(early.value)
    assert (rows, N) == (40, 64)
    assert cond <= float("%.3g" % bs.gram_schmidt(sig).cond)
    # the full run of this draw stops at an undecidable norm; the gated
    # run refuses before it gets there
    A = bs.sampling.random_band_matrix(np.random.default_rng((1, 3, 64)), 3, 64)
    sig = bs.canonical_spectral_function(A)
    with pytest.raises(AmbiguousNorm):
        bs.gram_schmidt(sig)
    with pytest.raises(IllConditioned) as early:
        bs.reconstruct(sig)
    assert _gate_message(early.value)[1:] == (40, 64)
    # above the caps the first look still comes after 32 rows
    A = bs.sampling.random_band_matrix(np.random.default_rng((3, 1, 96)), 1, 96)
    with pytest.raises(IllConditioned) as early:
        bs.reconstruct(bs.canonical_spectral_function(A))
    assert _gate_message(early.value)[1:] == (32, 96)
    # a refusal at the last row: only the initial values cross the
    # bound (test_gate_weighs_the_initial_values), and N = 10 has no
    # earlier check
    A = bs.sampling.random_band_matrix(np.random.default_rng(7), 2, 10)
    T = bs.TriangularInit(2, ((1.0, 3e4), (0.0, 1.0)))
    sig = bs.transform_spectral_function(bs.canonical_spectral_function(A), T)
    with pytest.raises(IllConditioned) as last:
        bs.reconstruct(sig)
    cond, rows, N = _gate_message(last.value)
    assert (rows, N) == (10, 10)
    assert "%.3g" % cond == "%.3g" % bs.gram_schmidt(sig).cond


@pytest.mark.parametrize("broken", ["coefficient", "node"])
def test_gate_refuses_a_copy_that_breaks_down(monkeypatch, broken):
    # a NaN coefficient in one copy makes its initial values and its
    # matrix NaN, a NaN node its matrix alone: the run must refuse, at
    # the first check (32 of 48 rows) or at the end (N = 12), although
    # the input alone passes the gate
    module = sys.modules["bandspec.reconstruct"]
    sigs = {}
    for N in (12, 48):
        A = bs.sampling.random_band_matrix(np.random.default_rng((11, 2, N)), 2, N)
        sigs[N] = bs.canonical_spectral_function(A)
        bs.reconstruct(sigs[N])
    original = module._perturbations

    def with_nan(N, n):
        factor, offset = (a.copy() for a in original(N, n))
        (offset[2, 0] if broken == "coefficient" else factor[2])[0] = np.nan
        return factor, offset

    monkeypatch.setattr(module, "_perturbations", with_nan)
    for N, rows in ((12, 12), (48, 32)):
        assert math.isnan(bs.gram_schmidt(sigs[N]).cond)
        with pytest.raises(IllConditioned,
                           match="condition estimate nan after %d of %d rows: a "
                                 "perturbed copy of the input broke down$" % (rows, N)):
            bs.reconstruct(sigs[N])


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_reconstruct_gates_the_full_run(data):
    """reconstruct returns exactly when the gate accepts the estimate of
    the full run, gram_schmidt without a gate, and then returns, bit
    for bit, what matrix_from_basis and initial_conditions give on that
    run, with the same cond; otherwise it raises IllConditioned, before
    the last row or at it, or the loop's own refusal.  The gated run,
    gram_schmidt(sig, gate=True), raises what reconstruct raises or
    returns the same cond."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    j0 = data.draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    try:
        sig = bs.canonical_spectral_function(bs.sampling.random_band_matrix(rng, n, N, j0=j0))
        if data.draw(st.booleans()):
            sig = bs.transform_spectral_function(sig, bs.sampling.random_tinit(rng, n))
    except bs.errors.BandSpecError:
        return
    try:
        gated = bs.gram_schmidt(sig, gate=True).cond.hex()
    except NumericalDecisionError as exc:
        gated = (type(exc), str(exc))
    try:
        full = bs.gram_schmidt(sig)
    except NumericalDecisionError as exc:
        with pytest.raises(NumericalDecisionError) as got:
            bs.reconstruct(sig)
        assert gated == (type(got.value), str(got.value))
        if not isinstance(got.value, IllConditioned):
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    if not full.cond * np.finfo(float).eps <= GATE_BOUND:
        with pytest.raises(IllConditioned) as got:
            bs.reconstruct(sig)
        assert gated == (type(got.value), str(got.value))
        if not math.isnan(full.cond):
            assert _gate_message(got.value)[2] == N
        return
    rec = bs.reconstruct(sig)
    gs = rec.diagnostics
    assert gs.cond.hex() == full.cond.hex() == gated
    assert (gs.basis_heights, gs.generator_heights, gs.iterations) == (
        full.basis_heights, full.generator_heights, full.iterations)
    assert gs.values.tobytes() == full.values.tobytes()
    assert gs.first_block.tobytes() == full.first_block.tobytes()
    assert helpers.bits(rec.matrix.diags) == helpers.bits(bs.matrix_from_basis(sig, full).diags)
    assert helpers.bits(rec.tinit.rows) == helpers.bits(bs.initial_conditions(full).rows)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_returned_band_is_the_gates_coefficients(data):
    """Every entry (m, j) of a returned band that the cut does not snap
    is, as a hex float, coefficients[m, j] * node_scale, plus
    node_center on the diagonal: the first-pass coefficient the gate
    measured.  The coefficients are read-only, and each row has a
    nonzero entry on or below the diagonal, so the loop wrote it."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    j0 = data.draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    try:
        sig = bs.canonical_spectral_function(bs.sampling.random_band_matrix(rng, n, N, j0=j0))
        if data.draw(st.booleans()):
            sig = bs.transform_spectral_function(sig, bs.sampling.random_tinit(rng, n))
        rec = bs.reconstruct(sig)
    except bs.errors.BandSpecError:
        return
    gs = rec.diagnostics
    C = gs.coefficients
    assert C.shape == (N, N) and not C.flags.writeable
    assert np.all(np.tril(C).any(axis=1))
    for g, diag in enumerate(rec.matrix.diags):
        for j, got in enumerate(diag):
            c = float(C[j + g, j])
            want = c * gs.node_scale + gs.node_center if g == 0 else c * gs.node_scale
            assert got.hex() == want.hex() or (g and got == 0.0 and abs(c) <= BAND_TOL), (
                g, j, got, want)


#: hand-built (n, jumps) that gram_schmidt refuses
INADMISSIBLE = {
    "identical directions": (2, [(x, (1.0, 1.0)) for x in (-1.5, -0.5, 0.5, 1.5)]),
    "ambiguous norm": (1, [(-1.0, (1.0 / math.sqrt(2.0),)), (0.0, (1e-8,)),
                           (1.0, (1.0 / math.sqrt(2.0),))]),
    # a tied node and a dead component: every class dies early
    "classes die early": (2, [(0.0, (1.0, 0.0)), (0.0, (1.0, 0.0)), (1.0, (1.0, 0.0))]),
}


@st.composite
def lanczos_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    N = draw(st.integers(min_value=n + 1, max_value=64))
    j0 = draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    return n, N, j0, draw(st.booleans()), draw(st.integers(min_value=0, max_value=2**32 - 1))


def _lanczos_outcome(run, sig):
    try:
        gs = run(sig)
    except bs.errors.BandSpecError as exc:
        return type(exc), str(exc)
    return (gs.basis_heights, gs.generator_heights, gs.iterations,
            helpers.bits([gs.node_scale, gs.node_center]), gs.values.shape,
            gs.values.tobytes(), gs.coefficients.tobytes(), gs.first_block.tobytes(),
            np.float64(gs.cond).tobytes())


@settings(deadline=None, max_examples=120)
@given(case=lanczos_cases())
@example(case="identical directions")
@example(case="ambiguous norm")
@example(case="classes die early")
def test_gram_schmidt_matches_reference(case):
    """gram_schmidt and helpers.ref_gram_schmidt give the same heights,
    iterations, node frame, values, coefficients, first block and cond,
    as bytes, or the same refusal class and message."""
    if isinstance(case, str):
        sig = bs.SpectralFunction(*INADMISSIBLE[case])
    else:
        n, N, j0, with_t, seed = case
        rng = np.random.default_rng(seed)
        try:
            sig = bs.canonical_spectral_function(
                bs.sampling.random_band_matrix(rng, n, N, j0=j0))
            if with_t:
                sig = bs.transform_spectral_function(sig, bs.sampling.random_tinit(rng, n))
        except bs.errors.BandSpecError:
            return
    assert _lanczos_outcome(bs.gram_schmidt, sig) == _lanczos_outcome(helpers.ref_gram_schmidt, sig)


def test_rescaled_sigma_matches_stored_values():
    rng = np.random.default_rng(40)
    A = bs.sampling.random_band_matrix(rng, 2, 9, j0=1)
    sig = bs.canonical_spectral_function(A)
    rec = bs.reconstruct(sig)
    gs = rec.diagnostics
    # nodes mapped through y = (x - center) / scale, coefficients kept
    ssig = bs.SpectralFunction(sig.n, [
        ((j.x - gs.node_center) / gs.node_scale, j.alpha) for j in sig.jumps])
    ys = [j.x for j in ssig.jumps]
    assert min(ys) == -1.0 and max(ys) == 1.0
    # the recurrence polynomials live in x; their node values are the
    # ones stored for the scaled frame
    basis = bs.solve_recurrence(rec.matrix, rec.tinit).basis
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            via_inner = bs.inner(sig, basis[a], basis[b])
            via_values = float(gs.values[a] @ gs.values[b])
            assert abs(via_inner - via_values) < 1e-12


def test_recurrence_on_result_reproduces_orthogonalization():
    # the basis and generators are no output of gram_schmidt; the
    # recurrence run on the reconstruction must agree with what the
    # orthogonalization decided and stored
    for n in (1, 2, 3):
        for N in (4, 6, 9, 12):
            for j0 in range(n if N >= n + 2 else 1):
                for with_t in (0, 1):
                    rng = np.random.default_rng((n, N, j0, with_t))
                    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
                    sig = bs.canonical_spectral_function(A)
                    if with_t:
                        sig = bs.transform_spectral_function(
                            sig, bs.sampling.random_tinit(rng, n))
                    rec = bs.reconstruct(sig)
                    gs = rec.diagnostics
                    table = bs.solve_recurrence(rec.matrix, rec.tinit)
                    assert tuple(bs.height(p) for p in table.basis) == gs.basis_heights
                    assert ({bs.height(q) for q in table.generators}
                            == set(gs.generator_heights))
                    for k, p in enumerate(table.basis):
                        for l, (x, alpha) in enumerate(zip(sig.x, sig.alpha)):
                            got = float(alpha @ bs.evaluate(p, x))
                            assert abs(got - gs.values[k, l]) < 1e-10


def test_initial_conditions_refuses_nonconstant_first_block():
    rng = np.random.default_rng(41)
    A = bs.sampling.random_band_matrix(rng, 2, 6)
    gs = bs.gram_schmidt(bs.canonical_spectral_function(A))
    assert gs.basis_heights[:2] == (0, 1)
    bs.initial_conditions(gs)
    shifted = tuple(h + 1 if h else h for h in gs.basis_heights)
    with pytest.raises(NotTriangular, match="basis member 2 is not constant"):
        bs.initial_conditions(dataclasses.replace(gs, basis_heights=shifted))


def _stage_outcome(run, *args):
    got = helpers.outcome(run, *args)
    if isinstance(got, tuple):
        return got
    return helpers.bits(got.diags if isinstance(got, bs.BandMatrix) else got.rows)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_inverse_stages_match_references(data):
    """matrix_from_basis and initial_conditions give, bit for bit, what
    their earlier bodies in helpers give, or the same refusal class and
    message: on gram_schmidt's output for n <= 8, N <= 64 and random
    initial values on half the draws, with the coefficients sometimes
    those of the basis with one row mixed into another (an out-of-band
    leak, or one below BAND_TOL that the cut snaps) or the heights
    shifted (inconsistent heights)."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    j0 = data.draw(st.integers(min_value=0, max_value=n - 1 if N >= n + 2 else 0))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    try:
        sig = bs.canonical_spectral_function(bs.sampling.random_band_matrix(rng, n, N, j0=j0))
        if data.draw(st.booleans()):
            sig = bs.transform_spectral_function(sig, bs.sampling.random_tinit(rng, n))
        gs = bs.gram_schmidt(sig)
    except NumericalDecisionError:
        return
    change = data.draw(st.sampled_from([None, "mix", "heights"]))
    if change == "mix":
        M = np.eye(N)
        k, l = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
        M[k, l] += data.draw(st.sampled_from([1e-12, 1e-9, 1e-3]))
        gs = _basis_changed(gs, M)
    elif change == "heights":
        gs = dataclasses.replace(gs, basis_heights=tuple(h + 1 for h in gs.basis_heights))
    assert (_stage_outcome(bs.matrix_from_basis, sig, gs)
            == _stage_outcome(helpers.ref_matrix_from_basis, sig, gs))
    assert (_stage_outcome(bs.initial_conditions, gs)
            == _stage_outcome(helpers.ref_initial_conditions, gs))


def test_band_violation_names_first_of_tied_leaks():
    # rows built so that C = V V^t (all y = 1) has out-of-band entries
    # 0.5 at (0, 4), -0.5 at (1, 3) and 0.5 at (2, 4): the message names
    # the first largest |entry| in row-major order, (0, 4), where a
    # column-major scan would name (1, 3) and a last-maximum scan (2, 4);
    # the coefficients hold C's lower triangle
    V = np.eye(5)
    V[3, 1] = -0.5
    V[4, 0] = V[4, 2] = 0.5
    sig = bs.SpectralFunction(1, [(1.0, (1.0,))] * 5)
    gs = bs.Orthogonalization(
        basis_heights=tuple(range(5)), generator_heights=(5,), iterations=6,
        node_scale=1.0, node_center=0.0, values=V, coefficients=np.tril(V @ V.T),
        first_block=np.eye(1), cond=0.0)
    want = (BandViolation, "inner product at offset 4, position 1 is 0.5, beyond the "
            "declared bandwidth")
    assert helpers.outcome(bs.matrix_from_basis, sig, gs) == want
    assert helpers.outcome(helpers.ref_matrix_from_basis, sig, gs) == want
