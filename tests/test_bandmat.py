"""Band matrix validation, the recurrence, and generator diagnostics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bandspec as bs
from bandspec.errors import (
    InnermostDegeneration,
    LeadingZero,
    NegativeConstrainedEntry,
    NonContiguousPositiveRun,
    NonFiniteEntry,
    NotTriangular,
)

import helpers


def seven_by_seven():
    """n=3, N=7 with cuts at 3 and 5 and none on the innermost level."""
    return bs.BandMatrix(
        3,
        7,
        (
            (0.4, -1.1, 0.0, 2.0, -0.3, 0.9, 1.5),
            (0.1, -0.4, 0.0, 0.2, -0.9, 0.7),
            (-0.2, 0.5, 0.0, 0.8, 0.0),
            (1.0, 1.3, 0.0, 0.0),
        ),
    )


def test_profile_of_nested_degenerations():
    prof = bs.validate_band(seven_by_seven())
    assert prof.m == (3, 5, 7)
    assert prof.j0 == 2
    assert prof.empty_runs == ()


def test_profile_minimal_jacobi():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    prof = bs.validate_band(A)
    assert prof.m == (2,)
    assert prof.j0 == 0


def test_profile_rejects_noncontiguous_run():
    A = bs.BandMatrix(
        2, 5, ((0.0,) * 5, (0.5, 0.5, 0.5, 0.5), (1.0, 0.0, 1.0))
    )
    with pytest.raises(NonContiguousPositiveRun):
        bs.validate_band(A)


def test_profile_rejects_leading_zero():
    # a NaN fails the sign test too: NaN <= 0.0 is false, and a test of
    # that form let it through with m_1 = 1
    for outer in ((0.0, 1.0, 1.0), (float("nan"), 0.0, 0.0)):
        A = bs.BandMatrix(2, 5, ((0.0,) * 5, (0.5, 0.5, 0.5, 0.5), outer))
        with pytest.raises(LeadingZero) as info:
            bs.validate_band(A)
        assert "1 < m_1 < N-n+1" in str(info.value)


def test_profile_rejects_negative_constrained_entry():
    A = bs.BandMatrix(
        2, 5, ((0.0,) * 5, (0.5, 0.5, 0.5, 0.5), (1.0, -0.2, 1.0))
    )
    with pytest.raises(NegativeConstrainedEntry):
        bs.validate_band(A)


def test_profile_rejects_innermost_degeneration():
    # cut at the outer level, then a zero inside the scanned range of
    # the innermost diagonal: the class admits no cut at level n-1
    A = bs.BandMatrix(
        2, 5, ((0.0,) * 5, (0.5, 0.5, 0.0, 0.0), (1.0, 0.0, 0.0))
    )
    with pytest.raises(InnermostDegeneration):
        bs.validate_band(A)


def test_profile_flags_empty_run():
    A = bs.BandMatrix(
        3,
        8,
        (
            (0.0,) * 8,
            (0.3, -0.2, 0.1, 0.6, 0.6, 0.6, 0.6),
            (0.4, 0.2, 0.0, 0.0, 0.0, 0.0),
            (0.9, 0.0, 0.0, 0.0, 0.0),
        ),
    )
    prof = bs.validate_band(A)
    assert prof.m == (2, 3, 8)
    assert prof.j0 == 2
    assert prof.empty_runs == (2,)


def _verdict(validate, A):
    try:
        prof = validate(A)
    except bs.errors.ValidationError as exc:
        return type(exc).__name__, str(exc)
    return prof.m, prof.j0, prof.empty_runs


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_validate_band_matches_reference(data):
    """validate_band and the state-machine reference in helpers agree on
    the error class and message, or on m, j0 and empty_runs, for
    members with up to 4 entries overwritten by zeros, tiny or negative
    values, NaN or inf."""
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    top = n - 1 if N >= n + 2 else 0
    j0 = data.draw(st.sampled_from([None] + list(range(top + 1))))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    diags = [list(d) for d in bs.sampling.random_band_matrix(rng, n, N, j0).diags]
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        j = data.draw(st.integers(min_value=0, max_value=n))
        k = data.draw(st.integers(min_value=0, max_value=N - j - 1))
        diags[j][k] = data.draw(st.sampled_from(
            [0.0, -0.0, 1e-300, -1e-300, 0.7, -0.5, float("nan"), float("inf")]))
    A = bs.BandMatrix(n, N, tuple(diags))
    assert _verdict(bs.validate_band, A) == _verdict(helpers.ref_validate_band, A)


def test_band_matrix_shape_checks():
    with pytest.raises(bs.errors.DimensionMismatch):
        bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(bs.errors.DimensionMismatch):
        bs.BandMatrix(2, 2, ((0.0, 0.0), (1.0,), ()))


def test_entry_accessor():
    A = seven_by_seven()
    assert A.entry(0, 4) == 2.0
    assert A.entry(3, 2) == 1.3
    assert A.entry(2, 4) == 0.8


def test_to_dense_examples():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    assert np.array_equal(bs.to_dense(A), np.array([[0.0, 1.0], [1.0, 0.0]]))

    M = bs.to_dense(seven_by_seven())
    assert M.shape == (7, 7)
    assert np.array_equal(M, M.T)
    # stored zeros land where the profile says they must
    assert M[5, 2] == 0.0 and M[6, 3] == 0.0  # outermost, positions 3, 4
    assert M[6, 4] == 0.0  # middle diagonal, position 5
    assert M[0, 3] == 1.0 and M[1, 4] == 1.3


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_to_dense_matches_per_entry_reference(data):
    """to_dense gives bit for bit the array written entry by entry,
    signed zeros included."""
    n = data.draw(st.integers(min_value=0, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=128))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    special = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, -1e300]), min_size=1, max_size=4)))
    diags = []
    for j in range(n + 1):
        d = rng.standard_normal(N - j)
        hit = rng.random(N - j) < 0.3
        d[hit] = rng.choice(special, size=int(hit.sum()))
        diags.append(tuple(d.tolist()))
    A = bs.BandMatrix(n, N, tuple(diags))
    assert helpers.bits(bs.to_dense(A)) == helpers.bits(helpers.ref_to_dense(A))


def test_shrink_band_drops_zero_outer_diagonals():
    A = bs.BandMatrix(2, 4, ((0.1, 0.2, 0.3, 0.4), (1.0, 1.0, 1.0), (0.0, 0.0)))
    B = bs.shrink_band(A)
    assert B.n == 1
    assert B.diags == ((0.1, 0.2, 0.3, 0.4), (1.0, 1.0, 1.0))


def test_triangular_init_checks():
    T = bs.TriangularInit.identity(3)
    assert np.array_equal(T.dense(), np.eye(3))
    with pytest.raises(NotTriangular):
        bs.TriangularInit(2, ((1.0, 0.0), (0.5, 1.0)))
    with pytest.raises(NotTriangular):
        bs.TriangularInit(2, ((1.0, 2.0), (0.0, 0.0)))


@pytest.mark.parametrize("d", [-1.0, -0.0, float("nan"), -float("inf")])
def test_triangular_init_refuses_non_positive_diagonal(d):
    # the inverse returns initial values with a positive diagonal only,
    # so no other T could round-trip
    with pytest.raises(NotTriangular, match=r"^diagonal entry 1 = %r is not positive$" % d):
        bs.TriangularInit(2, ((d, 0.3), (0.0, 1.0)))
    with pytest.raises(NotTriangular, match=r"^diagonal entry 2 = %r is not positive$" % d):
        bs.TriangularInit(2, ((1.0, 0.3), (0.0, d)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_random_profile_roundtrip(data):
    """Sampled members report exactly the profile they were built from."""
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = data.draw(st.integers(min_value=1, max_value=3))
    N = data.draw(st.integers(min_value=n + 1, max_value=12))
    rng = np.random.default_rng(seed)
    j0 = None
    if n >= 2 and N >= n + 2 and data.draw(st.booleans()):
        j0 = data.draw(st.integers(min_value=1, max_value=n - 1))
    A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
    prof = bs.validate_band(A)
    if j0 is not None:
        assert prof.j0 == j0
    assert len(prof.m) == n
    assert prof.m[-1] if prof.j0 == 0 else True


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_samplers_match_per_entry_reference(data):
    """Each sampler gives, bit for bit, the values of its one-draw-per-
    entry reference in helpers and leaves the generator in the same
    state."""
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = data.draw(st.integers(min_value=1, max_value=8))
    N = data.draw(st.integers(min_value=n + 1, max_value=128))
    top = n - 1 if N >= n + 2 else 0
    j0 = data.draw(st.sampled_from([None] + list(range(top + 1))))
    cut = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=N + 2)))

    def check(draw, ref, fields, *args):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = draw(rng, *args), ref(ref_rng, *args)
        for field in fields:
            assert helpers.bits(getattr(got, field)) == helpers.bits(getattr(want, field))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    check(bs.sampling.random_band_matrix, helpers.ref_random_band_matrix, ("diags",),
          n, N, j0)
    check(bs.sampling.random_jacobi,
          lambda rng, N: helpers.ref_random_band_matrix(rng, 1, N, 0), ("diags",), N)
    check(bs.sampling.random_tinit, helpers.ref_random_tinit, ("rows",), n)
    check(bs.sampling.random_chain, helpers.ref_random_chain, ("masses", "k", "kp"),
          N, cut)


def test_recurrence_hand_example_identity_start():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(1))
    assert [p.comps for p in table.basis] == [((1.0,),), ((0.0, 1.0),)]
    assert [q.comps for q in table.generators] == [((-1.0, 0.0, 1.0),)]


def test_recurrence_hand_example_scaled_start():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    T = bs.TriangularInit(1, ((2.0,),))
    table = bs.solve_recurrence(A, T)
    assert [p.comps for p in table.basis] == [((2.0,),), ((0.0, 2.0),)]


def test_recurrence_structure_on_degenerate_instance():
    rng = np.random.default_rng(3)
    A = bs.sampling.random_band_matrix(rng, 2, 6, j0=1)
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(2))
    assert len(table.basis) == 6
    assert len(table.generators) == 2
    hs = [bs.height(q) for q in table.generators]
    assert hs[0] % 2 != hs[1] % 2


def _coef_bytes(table):
    return [p.coef.tobytes() for p in table.basis + table.generators]


@settings(deadline=None, max_examples=200)
@given(n=st.integers(min_value=1, max_value=8), data=st.data())
def test_solve_recurrence_matches_reference(n, data):
    """solve_recurrence agrees byte for byte with the VecPoly reference
    in helpers on random members (random j0, random initial values on
    half the draws): every coefficient of the basis and the generators,
    and the generator matrix and rank defect at an eigenvalue and at a
    drawn point."""
    N = data.draw(st.integers(min_value=n + 1, max_value=64))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = bs.sampling.random_band_matrix(rng, n, N)
    if data.draw(st.booleans()):
        T = bs.sampling.random_tinit(rng, n)
    else:
        T = bs.TriangularInit.identity(n)
    got, want = bs.solve_recurrence(A, T), helpers.ref_solve_recurrence(A, T)
    assert _coef_bytes(got) == _coef_bytes(want)
    lam = np.linalg.eigvalsh(bs.to_dense(A))[data.draw(st.integers(0, N - 1))]
    for z in (float(lam), data.draw(st.floats(min_value=-3.0, max_value=3.0))):
        assert bs.generator_matrix(got, z).tobytes() == bs.generator_matrix(want, z).tobytes()
        assert bs.rank_defect(got, z) == bs.rank_defect(want, z)


def test_solve_recurrence_non_finite_entry_fills_the_row():
    """+inf inside a positive run is refused by validate_band, before
    solve_recurrence computes a coefficient."""
    inf = float("inf")
    A = bs.BandMatrix(2, 6, ((0.0,) * 6, (0.5,) * 5, (1.0, inf, 0.0, 0.0)))
    with pytest.raises(bs.errors.ValidationError,
                       match=r"^d\^\(2\)_2 = inf is not a finite number$"):
        bs.solve_recurrence(A, bs.TriangularInit.identity(2))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_validate_band_refuses_a_non_finite_entry(bad):
    # a class violation (exit 2), refused before the direct problem
    # could misreport it as a numerical limit
    A = bs.BandMatrix(1, 3, ((1.0, bad, 1.0), (1.0, 1.0)))
    for run in (bs.validate_band, bs.canonical_spectral_function):
        with pytest.raises(bs.errors.ValidationError) as info:
            run(A)
        assert type(info.value) is bs.errors.ValidationError
        assert str(info.value) == "d^(0)_2 = %r is not a finite number" % bad


def test_validate_band_passes_finite_entries_whose_sum_overflows():
    A = bs.BandMatrix(1, 3, ((1e308, 1e308, 1e308), (1e308, 1e308)))
    assert bs.validate_band(A) == bs.DegenerationProfile((3,), 0)


def test_solve_recurrence_makes_negative_zero_initial_values_positive():
    # vec_poly trimmed a -0.0 above T's diagonal to an empty component
    T = bs.TriangularInit(2, ((1.0, -0.0), (0.0, 2.0)))
    A = bs.sampling.random_band_matrix(np.random.default_rng(1), 2, 9)
    got = bs.solve_recurrence(A, T)
    assert _coef_bytes(got) == _coef_bytes(helpers.ref_solve_recurrence(A, T))
    assert got.basis[1].coef.tobytes() == np.array([0.0, 2.0]).tobytes()


def test_solve_recurrence_refuses_matrix_outside_class():
    for outer, error in (((0.0, 1.0, 1.0), LeadingZero),
                         ((1.0, 0.0, 1.0), NonContiguousPositiveRun)):
        A = bs.BandMatrix(2, 5, ((0.0,) * 5, (0.5, 0.5, 0.5, 0.5), outer))
        with pytest.raises(error) as want:
            bs.validate_band(A)
        with pytest.raises(error) as got:
            bs.solve_recurrence(A, bs.TriangularInit.identity(2))
        assert str(got.value) == str(want.value)


def test_generator_matrix_hand_example():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(1))
    M = bs.generator_matrix(table, 1.0)
    assert M.shape == (1, 1)
    assert M[0, 0] == 0.0
    assert abs(np.linalg.det(bs.generator_matrix(table, 3.0))) > 0.0


def test_generator_matrix_determinant_tracks_spectrum():
    rng = np.random.default_rng(12)
    A = bs.sampling.random_band_matrix(rng, 2, 7)
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(2))
    evals = np.linalg.eigvalsh(bs.to_dense(A))
    for lam in evals:
        M = bs.generator_matrix(table, float(lam))
        assert abs(np.linalg.det(M)) < 1e-7
    far = float(evals[-1]) + 2.5
    assert abs(np.linalg.det(bs.generator_matrix(table, far))) > 1e-4


def test_rank_defect_simple_and_far():
    rng = np.random.default_rng(7)
    A = bs.sampling.random_band_matrix(rng, 2, 6)
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(2))
    evals = np.linalg.eigvalsh(bs.to_dense(A))
    assert all(bs.rank_defect(table, float(v)) == 1 for v in evals)
    assert bs.rank_defect(table, float(evals[-1]) + 3.0) == 0


def test_rank_defect_of_vanishing_generators():
    # every singular value and the coefficient mass are zero, so the
    # threshold is zero and no singular value exceeds it
    for n in (1, 2, 3):
        zero = bs.vec_poly([()] * n)
        table = bs.RecurrenceTable(basis=(), generators=(zero,) * n)
        assert bs.rank_defect(table, 0.0) == n
        assert bs.rank_defect(table, -2.5) == n


def test_rank_defect_refuses_non_finite_generators():
    # a power of |z| that overflows, an infinite z and a NaN z: a typed
    # numerical refusal naming z, not OverflowError or LinAlgError
    A = bs.sampling.random_band_matrix(np.random.default_rng(0), 2, 8)
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(2))
    for z in (1e100, -1e80, 1e200, math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteEntry, match=r"the generators at z = %s are not "
                           "finite" % re.escape(repr(z))):
            bs.rank_defect(table, z)
    evals = np.linalg.eigvalsh(bs.to_dense(A))
    assert all(bs.rank_defect(table, float(v)) == 1 for v in evals)
    assert bs.rank_defect(table, 0.5 * float(evals[0] + evals[1])) == 0


def test_rank_defect_is_zero_far_from_the_spectrum():
    # the generators grow with different powers of |z|, so far out the
    # unscaled rows look nearly dependent though they are not
    A = bs.sampling.random_band_matrix(np.random.default_rng(0), 2, 8)
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(2))
    for z in (1e3, 1e4, 1e5, 1e6, -1e6, 1e7, 1e12):
        assert bs.rank_defect(table, z) == 0, z
    # random tables: the multiplicity at every eigenvalue, 0 at every
    # far probe
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n + 1, 20))
        A = bs.sampling.random_band_matrix(rng, n, N)
        table = bs.solve_recurrence(A, bs.sampling.random_tinit(rng, n))
        evals = np.linalg.eigvalsh(bs.to_dense(A))
        for v in evals:
            size = int(np.count_nonzero(np.abs(evals - v) <= 1e-8))
            assert bs.rank_defect(table, float(v)) == size, (n, N, v)
        for z in (evals[0] - 3.0, evals[-1] + 3.0, 1e3, -1e4, 1e6, 1e9):
            assert bs.rank_defect(table, float(z)) == 0, (n, N, z)


def interleaved_double_jacobi():
    """Two identical 2x2 Jacobi blocks interleaved into one n=2 member.

    Odd and even index sets carry independent copies of the same
    tridiagonal block, so every eigenvalue has multiplicity two while
    the matrix stays inside the validated class (the skipped-neighbor
    diagonal is entirely unconstrained here).
    """
    return bs.BandMatrix(2, 4, ((0.3, 0.3, -0.5, -0.5), (0.0, 0.0, 0.0), (0.9, 0.9)))


def test_rank_defect_multiplicity_two():
    A = interleaved_double_jacobi()
    prof = bs.validate_band(A)
    assert prof.m == (3, 4)
    table = bs.solve_recurrence(A, bs.TriangularInit.identity(2))
    evals = np.linalg.eigvalsh(bs.to_dense(A))
    assert abs(evals[0] - evals[1]) < 1e-12 and abs(evals[2] - evals[3]) < 1e-12
    for lam in (evals[0], evals[2]):
        assert bs.rank_defect(table, float(lam)) == 2
    # a nearby value rounded to ten digits must give the same answer
    assert bs.rank_defect(table, float(round(evals[0], 10))) == 2
    assert bs.rank_defect(table, 0.0) == 0


def test_recurrence_boundary_generators_close_the_table():
    """Heights of generators are the profile heights shifted by n."""
    rng = np.random.default_rng(21)
    for n, N, j0 in ((1, 5, None), (2, 7, 1), (3, 9, 2)):
        A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
        prof = bs.validate_band(A)
        table = bs.solve_recurrence(A, bs.TriangularInit.identity(n))
        pheights = [bs.height(p) for p in table.basis]
        qheights = [bs.height(q) for q in table.generators]
        for mj, qh in zip(prof.m, sorted(qheights)):
            assert qh == pheights[mj - 1] + n
