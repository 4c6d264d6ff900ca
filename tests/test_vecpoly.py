"""Vector polynomial arithmetic and the height grading."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bandspec as bs
from bandspec.errors import MixedDimension
from bandspec.vecpoly import _canonical

import helpers


def test_basis_vector_examples():
    assert bs.basis_vector(1, 3).comps == ((1.0,), (), ())
    assert bs.basis_vector(4, 3).comps == ((0.0, 1.0), (), ())
    assert bs.basis_vector(6, 2).comps == ((), (0.0, 0.0, 1.0))


def test_height_examples():
    p = bs.vec_poly(((0.0, 0.0, 1.0), (0.0, 3.0)))
    assert bs.height(p) == 4
    assert bs.height(bs.vec_poly([()] * 4)) is bs.NEG_INF
    assert bs.height(bs.basis_vector(5, 2)) == 4


def test_height_of_zero_orders_below_everything():
    assert bs.NEG_INF < 0
    assert not (bs.NEG_INF >= 0)


def test_evaluate_examples():
    p = bs.vec_poly(((0.0, 0.0, 1.0), (0.0, 3.0)))
    assert bs.evaluate(p, 2.0) == (4.0, 6.0)
    assert bs.evaluate(bs.vec_poly([()] * 3), 17.5) == (0.0, 0.0, 0.0)
    assert bs.evaluate(bs.basis_vector(2, 2), 5.0) == (0.0, 1.0)


def test_linear_combine_examples():
    e1 = bs.basis_vector(1, 2)
    e2 = bs.basis_vector(2, 2)
    assert bs.linear_combine([(1.0, e1), (-1.0, e1)]).is_zero()
    assert bs.linear_combine([(2.0, e1), (3.0, e2)]).comps == ((2.0,), (3.0,))
    p = bs.vec_poly(((0.0, 1.0), ()))
    q = bs.vec_poly(((), (1.0,)))
    assert bs.linear_combine([(1.0, p), (1.0, q)]).comps == ((0.0, 1.0), (1.0,))


def test_linear_combine_rejects_mixed_dimension():
    with pytest.raises(MixedDimension):
        bs.linear_combine([(1.0, bs.basis_vector(1, 2)), (1.0, bs.basis_vector(1, 3))])


def test_trim_small_drops_relative_dust():
    p = bs.vec_poly(((1.0, 1e-15), (0.5,)))
    t = bs.trim_small(p)
    assert t.comps == ((1.0,), (0.5,))
    # the scale is the max coefficient, so small-but-dominant data survives
    q = bs.trim_small(bs.vec_poly(((1e-15,), (1e-16,))), rel=1e-12)
    assert q.comps == ((1e-15,), (1e-16,))
    r = bs.trim_small(bs.vec_poly(((1.0, 1e-13), ())), rel=1e-12)
    assert r.comps == ((1.0,), ())


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=5))
def test_basis_vector_height_law(i, n):
    assert bs.height(bs.basis_vector(i, n)) == i - 1


def _coeffs(bound):
    """Zero or a magnitude comfortably above underflow: products of two
    drawn values must not flush to 0.0, or height laws turn float-true
    instead of exactly true."""
    nonzero = st.floats(
        min_value=-bound, max_value=bound, allow_nan=False, width=64,
    ).filter(lambda x: abs(x) >= 1e-3)
    return st.one_of(st.just(0.0), nonzero)


@st.composite
def vec_polys(draw, n=None, max_deg=4):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    coeff = _coeffs(8.0)
    comps = []
    for _ in range(n):
        deg = draw(st.integers(min_value=-1, max_value=max_deg))
        comps.append(tuple(draw(coeff) for _ in range(deg + 1)))
    return bs.vec_poly(comps)


@given(st.data())
def test_linear_combine_height_law(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=4))
    coeff = _coeffs(4.0)
    terms = [
        (data.draw(coeff), data.draw(vec_polys(n=n)))
        for _ in range(k)
    ]
    cap = max(
        (bs.height(p) for c, p in terms if c != 0.0 and not p.is_zero()),
        default=bs.NEG_INF,
    )
    out = bs.linear_combine(terms)
    h = bs.height(out)
    assert h is bs.NEG_INF or h <= cap
    attaining = [
        (c, p) for c, p in terms
        if c != 0.0 and not p.is_zero() and bs.height(p) == cap
    ]
    if len(attaining) == 1 and cap is not bs.NEG_INF:
        assert h == cap


def _peel_over_family(family, target, m):
    """Expand the height-m target over the height-graded family top-down
    and check that the expansion reproduces it."""
    residual = target
    coeffs = [0.0] * (m + 1)
    for i in range(m, -1, -1):
        if residual.is_zero() or bs.height(residual) < i:
            continue
        # read by height: after an underflowed quotient the residual
        # keeps a higher entry, and its height-i entry can be a 0.0
        # that comps trims away
        c = residual.coef[i] / family[i].coef[i]
        coeffs[i] = c
        residual = bs.linear_combine([(1.0, residual), (-c, family[i])])
    assert coeffs[m] != 0.0
    rebuilt = bs.linear_combine(
        [(c, g) for c, g in zip(coeffs, family)]
    )
    diff = bs.linear_combine([(1.0, target), (-1.0, rebuilt)])
    scale = max(abs(v) for comp in target.comps for v in comp)
    err = max((abs(v) for comp in diff.comps for v in comp), default=0.0)
    assert err <= 1e-9 * max(scale, 1.0)


@given(st.data())
def test_height_basis_representation(data):
    """Any polynomial of height m expands over a height-graded family.

    Build g_1..g_{m+1} with heights 0..m by perturbing each basis
    vector with lower-height terms, then peel a random height-m
    polynomial off the family top-down.  The expansion must terminate
    with a nonzero top coefficient and reproduce the polynomial.
    """
    n = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=0, max_value=7))
    coeff = st.floats(min_value=-3, max_value=3, allow_nan=False, width=64)
    lead = st.floats(min_value=0.25, max_value=3, allow_nan=False, width=64)

    family = []
    for i in range(1, m + 2):
        terms = [(data.draw(lead), bs.basis_vector(i, n))]
        for lower in range(1, i):
            terms.append((data.draw(coeff), bs.basis_vector(lower, n)))
        family.append(bs.linear_combine(terms))
        assert bs.height(family[-1]) == i - 1

    target_terms = [(data.draw(lead), bs.basis_vector(m + 1, n))]
    for lower in range(1, m + 1):
        target_terms.append((data.draw(coeff), bs.basis_vector(lower, n)))
    target = bs.linear_combine(target_terms)
    assert bs.height(target) == m
    _peel_over_family(family, target, m)


def test_height_basis_representation_underflowing_quotient():
    # 5e-324 / 2.0 rounds to 0.0, so the height-1 peel leaves the
    # denormal in place and the height-0 entry it reads next is 0.0
    family = [bs.basis_vector(1, 2),
              bs.linear_combine([(2.0, bs.basis_vector(2, 2))]),
              bs.basis_vector(3, 2)]
    target = bs.linear_combine([(1.0, bs.basis_vector(3, 2)),
                                (5e-324, bs.basis_vector(2, 2))])
    _peel_over_family(family, target, 2)


@given(st.data())
def test_array_layout_matches_component_reference(data):
    """Every operation agrees bit for bit with the per-component
    reference in helpers, and equality and hashing go by value."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    coeff = st.one_of(
        st.sampled_from([0.0, -0.0, 1e-14, -1e-13]),
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, width=64),
    )
    raws = [
        [data.draw(st.lists(coeff, max_size=5)) for _ in range(n)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
    ]
    polys = [bs.vec_poly(raw) for raw in raws]
    refs = [tuple(helpers.ref_trim(c) for c in raw) for raw in raws]
    scales = [data.draw(coeff) for _ in polys]
    x = data.draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    rel = data.draw(st.sampled_from([1e-12, 1e-3, 0.5]))

    out = bs.linear_combine(zip(scales, polys))
    assert helpers.bits(out.comps) == helpers.bits(
        helpers.ref_linear_combine(list(zip(scales, refs))))
    for p, ref in zip(polys, refs):
        assert helpers.bits(p.comps) == helpers.bits(ref)
        assert bs.height(p) == helpers.ref_height(ref)
        assert (bs.height(p) is bs.NEG_INF) == p.is_zero()
        assert helpers.bits(bs.trim_small(p, rel).comps) == helpers.bits(
            helpers.ref_trim_small(ref, rel))
        assert helpers.bits(bs.evaluate(p, x)) == helpers.bits(
            helpers.ref_evaluate(ref, x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow gives inf or nan silently
            far = [bs.evaluate(p, big) for big in (1e200, -1e200)]
        assert helpers.bits(far) == helpers.bits(
            [helpers.ref_evaluate(ref, big) for big in (1e200, -1e200)])
        again = bs.vec_poly(p.comps)
        assert again == p and hash(again) == hash(p)
        # a zero's sign is no part of the value
        flipped = bs.vec_poly([[-v if v == 0.0 else v for v in c] for c in ref])
        assert flipped == p and hash(flipped) == hash(p)
    for p, ref in zip(polys, refs):
        for q, qref in zip(polys, refs):
            assert (p == q) == (ref == qref)
    assert bs.vec_poly([()] * n) != bs.vec_poly([()] * (n + 1))


def _two_node_sigma():
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    return bs.canonical_spectral_function(A)


def test_interpolation_solution_accepts_generator():
    sig = _two_node_sigma()
    rec = bs.reconstruct(sig)
    q = bs.solve_recurrence(rec.matrix, rec.tinit).generators[0]
    assert helpers.is_interpolation_solution(q, sig, 1e-9)


def test_interpolation_solution_rejects_live_basis_vector():
    sig = _two_node_sigma()
    assert not helpers.is_interpolation_solution(bs.basis_vector(1, 1), sig, 1e-9)


def test_interpolation_solution_accepts_node_annihilator():
    sig = _two_node_sigma()
    # (z - x_1)(z - x_2) e_1 vanishes at every node by construction
    prod = bs.vec_poly(((1.0,),))
    for jump in sig.jumps:
        z_prod = bs.vec_poly([(0.0,) + c for c in prod.comps])
        prod = bs.linear_combine([(1.0, z_prod), (-jump.x, prod)])
    assert helpers.is_interpolation_solution(prod, sig, 1e-9)


def test_interpolation_solution_dimension_check():
    sig = _two_node_sigma()
    with pytest.raises(bs.errors.DimensionMismatch):
        helpers.is_interpolation_solution(bs.basis_vector(1, 2), sig, 1e-9)


#: last entries that decide whether _canonical trims: exact zeros of
#: both signs, and nonzeros that compare oddly (NaN) or sit at the ends
#: of the range
TRIM_EDGES = (0.0, -0.0, math.nan, math.inf, 5e-324, 1.0)


@given(st.lists(st.one_of(st.sampled_from(TRIM_EDGES), st.floats(allow_nan=False)),
                max_size=11),
       st.lists(st.sampled_from(TRIM_EDGES), max_size=1))
def test_canonical_trims_like_reference(body, last):
    """_canonical keeps exactly the coefficients of helpers.ref_trim,
    byte for byte, on arrays of length 0 to 12, read-only."""
    coef = np.array(body + last, dtype=float)
    got = _canonical(3, coef.copy()).coef
    assert got.tobytes() == np.array(helpers.ref_trim(coef), dtype=float).tobytes()
    assert not got.flags.writeable
