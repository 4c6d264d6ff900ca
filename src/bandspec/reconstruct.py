"""Reconstruction of a band matrix from a spectral function.

The inverse route is band Lanczos with deflation over node values.  A
vector polynomial p is carried by its values alpha(x_l) . p(x_l) at
the N jumps, so the degenerate inner product is a dot product of
length-N vectors and multiplication by the variable is a pointwise
product with the nodes.  The candidate at height h < n is the constant
e_{h+1}, with node values alpha[:, h]; above that it is the variable
times the basis member at height h - n, the Krylov form of the
recurrence A r(z) = z r(z).  Each candidate is orthogonalized against
every accepted member by two block classical Gram-Schmidt passes.
Exactly N candidates survive with positive norm (the orthonormal
basis).  A candidate that collapses to norm zero is a generator of the
zero class; its height residue class mod n is then dead and yields no
further candidates, so the n generators have distinct residues.  The
band matrix is the representation of multiplication by the variable
in the basis, and the initial value matrix holds the constants of the
first n members.

Internally all nodes are mapped affinely onto [-1, 1].  The scaled
variable

    y = (x - node_center) / node_scale

is recorded in the result, and the matrix is mapped back exactly through
A = node_scale * A_scaled + node_center * I.  Inner products and every
zero-norm decision come from the basis node values alone, and the band
from the recurrence coefficients: entry (m, j), j <= m, of A_scaled is
the first-pass coefficient <p_j, y p_m> of the candidate y p_m, which
the loop computes once.  Only the first n members are polynomials,
built for the initial values.  The basis and generators, in x, come
from solve_recurrence.

A run that decides every norm may still amplify rounding past the
accuracy bound, so reconstruct gates its answer.  gram_schmidt runs
GATE_REPLAYS seeded perturbations of the input in the same loop, with
every decision taken on the input and pinned for the copies: the nodes
by a relative GATE_STEP, the coefficient vectors by an absolute
GATE_STEP (eigh gives eigenvector entries an absolute error).  The
node frame is a choice of the run, not data: every copy runs in the
input's frame.  The largest change of the matrix or of the initial
values, divided by GATE_STEP, estimates the condition number
(small-sample statistical condition estimation, Kenney & Laub, SIAM J.
Sci. Comput. 15, 1994).  The matrix entries are the same first-pass
coefficients, of each slot, final once computed, so the answer
returned is the one the gate measured.  An estimate times the machine
epsilon above GATE_BOUND is refused: gram_schmidt(sigma, gate=True),
the run reconstruct makes, raises IllConditioned itself, mid-run once
the rows final so far cross the bound, which the estimate over all
rows would then cross too, or at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousNorm,
    BandViolation,
    DimensionMismatch,
    IllConditioned,
    IterationCapExceeded,
    NotTriangular,
    ProfileMismatch,
    ValidationError,
)
from . import vecpoly
from .vecpoly import linear_combine
from .bandmat import BandMatrix, TriangularInit, validate_band
from .spectral import validate_sigma

#: Largest inner product, in the scaled frame, that still counts as zero
#: outside the band or in a degenerate range of the recovered matrix.
BAND_TOL = 1e-9

#: Relative zero-norm threshold of band Lanczos (see gram_schmidt).
DEFLATION_TOL = 1e-8

#: The conditioning gate: number of perturbed replays, the perturbation
#: size, and the largest condition estimate times eps that may return.
GATE_REPLAYS = 5
GATE_STEP = 1e-10
GATE_BOUND = 1e-8

#: Final rows of the matrix at a run's first look at its partial
#: estimate, and between later looks.
_CHECK_FROM = 32
_CHECK_EVERY = 8


@dataclass(frozen=True, eq=False)
class Orthogonalization:
    """Result of the band-Lanczos run.

    Equality is identity: the arrays have no single truth value.

    p_k is the basis member at height basis_heights[k].  coefficients
    entry (m, j), j <= m, is <p_j, y p_m> in the scaled frame, the
    first-pass coefficient of the candidate y p_m: matrix_from_basis
    reads the band from it (the entries above the diagonal are not
    read).  values row k holds alpha(x_l) . p_k(x_l) for all jumps l
    (row_j . row_k is exactly <p_j, p_k>), for diagnostics and tests:
    no later stage reads it.  Column h of first_block holds the
    constants of the member at height h < n (zeros if that height fell
    into the zero class).  iterations counts the heights consumed,
    including those skipped in dead residue classes.  node_scale and
    node_center give the input's node frame, which every slot of the
    gate ran in.  cond is the gate's condition estimate of the run, over
    every row of the matrix (NaN if a perturbed copy broke down).
    """

    basis_heights: tuple
    generator_heights: tuple
    iterations: int
    node_scale: float
    node_center: float
    values: np.ndarray
    coefficients: np.ndarray
    first_block: np.ndarray
    cond: float


@dataclass(frozen=True)
class Reconstruction:
    """Band matrix recovered from a spectral function, with the
    degeneration profile, the initial-value matrix, and the full
    orthogonalization diagnostics."""

    matrix: BandMatrix
    profile: object
    tinit: TriangularInit
    diagnostics: Orthogonalization


def height_degeneration_indices(gs):
    """Degeneration indices implied by the heights alone.

    Index m_j is the position k whose basis member satisfies
    h(basis_k) = h(generator_j) - n; a missing position means the
    orthogonalization output is internally inconsistent.  A generator
    below height n is a constant of norm zero: the jump sum, the Gram
    matrix of the constants, is singular, which no class member gives.
    """
    n = len(gs.generator_heights)
    m = []
    for j, gh in enumerate(gs.generator_heights):
        if gh < n:
            raise ProfileMismatch(
                "generator %d at height %d < n = %d is a constant of norm zero: "
                "the jump sum is singular" % (j + 1, gh, n)
            )
        target = gh - n
        try:
            k = gs.basis_heights.index(target)
        except ValueError:
            raise ProfileMismatch(
                "no basis height equals %d, required by generator %d at "
                "height %d" % (target, j + 1, gh)
            ) from None
        m.append(k + 1)
    return tuple(m)


def gram_schmidt(sigma, gate=False):
    """Orthonormalize the candidates of band Lanczos against sigma, and
    estimate the condition of the run.

    Walks the heights 0, 1, 2, ...: the candidate at height h < n is
    the constant e_{h+1}, above that it is y times the basis member at
    height h - n, and a height whose class has died is skipped.  Each
    candidate gets two block Gram-Schmidt passes on the node values;
    only the first n members become polynomials, for their constants,
    each when its height is accepted.  Each residual norm is compared
    against tau = DEFLATION_TOL * sqrt(|candidate|^2 + 1): above 10 tau
    it joins the basis (normalized), below tau / 10 it is a generator
    of the zero class and its residue mod n dies, and anything in
    between stops the computation rather than guess.

    The gate's perturbed copies (see the module docstring) are slots
    stacked behind the input's, slot 0, which alone decides for all of
    them and alone sets their node frame; the initial values are
    stacked with slot 0 first too.  cond is the largest change over the
    copies of first_block or of an entry (m, j), j <= m, of the matrix,
    out-of-band entries included, divided by GATE_STEP; NaN if a copy
    broke down.  Entry (m, j) is the first-pass coefficient
    <p_j, y p_m>, whose change in x is node_scale times its change.

    Parameters
    ----------
    sigma : SpectralFunction
        Must satisfy validate_sigma; callers that skip validation get
        undefined error types.
    gate : bool
        Refuse the run once cond times the machine epsilon exceeds
        GATE_BOUND.  cond is estimated over the initial values and the
        first rows of the matrix once 32 rows are final, every 8 rows
        after, and at the end; without gate the estimates are computed
        all the same and never refuse.

    Returns
    -------
    Orthogonalization

    Raises
    ------
    IllConditioned
        Only with gate: an estimate times eps exceeds GATE_BOUND, or a
        perturbed copy broke down (NaN); the message names the rows read
        and the margin.
    AmbiguousNorm
        A residual norm fell within a factor 10 of tau, or a candidate's
        squared norm overflowed float64, which makes tau inf.
    IterationCapExceeded
        More heights were consumed than any admissible spectral
        function allows (cap n(N-n+1)+1, from the height-sum identity),
        a candidate survived projection on a full basis, or the classes
        died with fewer than N basis members.  Each class dies once, so
        N members make the generator heights sum to N n + n(n-1)/2.
    """
    n, N = sigma.n, sigma.N
    if N <= n:
        raise DimensionMismatch(
            "need more jumps than components, got N=%d n=%d" % (N, n)
        )
    factor, offset = _perturbations(N, n)
    # slot 0 is the input, slot k > 0 its k-th copy, all in the input's frame
    lo, hi = sigma.x.min(), sigma.x.max()
    center, scale = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo  # halves cannot overflow
    if scale == 0.0:
        # a single node carries rank at most n < N, so validated input
        # cannot land here
        raise DimensionMismatch("all nodes coincide")
    y = ((sigma.x * factor - center) / scale)[:, None, :]
    alpha = sigma.alpha + offset
    consts_of = alpha.transpose(2, 0, 1)[:, :, None, :]  # values of e_{h+1}

    cap = n * (N - n + 1) + 1
    # row m of P: the first-pass coefficients <Q_j, y Q_m>, j < r, of the
    # candidate y Q_m, entries (m, j) of every slot's scaled matrix; one
    # allocation for both (two page-faulted on every call at N = 64)
    Q, P = np.zeros((2, GATE_REPLAYS + 1, N, N))
    Qt = Q.swapaxes(1, 2)  # a view: it sees every row stored later
    F = np.zeros((GATE_REPLAYS + 1, n, n))  # every slot's initial values
    row = {}  # accepted height -> its row of Q
    gheights, first = [], []
    h = -1
    check = _CHECK_FROM  # rows of P at the next look
    done, worst = 0, 0.0  # rows of P in worst, and their largest change

    def estimate(rows):
        """cond over the initial values and rows 0 .. rows - 1 of P;
        with gate, refuse it when it crosses the bound."""
        nonlocal done, worst
        if not done:
            worst = np.abs(F[1:] - F[0]).max()
        A = P[1:, done:rows] - P[0, done:rows]  # each copy's change
        np.abs(A, out=A)
        A *= _lower(N)[done:rows]  # each pair once
        worst, done = np.maximum(worst, scale * A.max()), rows
        cond = float(worst) / GATE_STEP
        if gate:
            eps = float(np.finfo(float).eps)
            if cond != cond:
                raise IllConditioned(
                    "condition estimate nan after %d of %d rows: a perturbed copy "
                    "of the input broke down" % (rows, N)
                )
            if not cond * eps <= GATE_BOUND:
                raise IllConditioned(
                    "condition estimate %.3g after %d of %d rows: cond * eps = %.3g "
                    "exceeds the bound %g by %.3gx"
                    % (cond, rows, N, cond * eps, GATE_BOUND, cond * eps / GATE_BOUND)
                )
        return cond

    # a copy that breaks down shows as NaN in cond; the input's slot
    # never divides by a norm below 10 tau
    with np.errstate(all="ignore"):
        while len(gheights) < n:
            h += 1
            if h >= cap:
                raise IterationCapExceeded(
                    "consumed %d heights (cap %d) with %d basis members and "
                    "%d generators" % (h + 1, cap, len(row), len(gheights))
                )
            if h < n:
                v = consts_of[h]
            else:
                m = row.get(h - n)
                if m is None:
                    continue  # the residue class of h is dead
                if m == check:  # rows 0 .. m - 1 of P are final
                    estimate(m)
                    check += _CHECK_EVERY
                v = y * Q[:, m, None]
            tau = DEFLATION_TOL * math.sqrt(float(np.vdot(v[0], v[0])) + 1.0)
            if tau == math.inf:
                raise AmbiguousNorm(
                    "candidate at height %d has a squared norm that overflows "
                    "float64, so its zero threshold is inf" % h
                )
            r = len(row)
            Qr, Qtr = Q[:, :r], Qt[:, :, :r]
            p = v @ Qtr if h < n else np.matmul(v, Qtr, out=P[:, m, None, :r])
            # two block CGS passes, then every slot's squared residual norm
            v = v - p @ Qr
            q = v @ Qtr
            v -= q @ Qr
            nrms = v @ v.swapaxes(1, 2)
            nrm = math.sqrt(nrms.item(0))
            if nrm > 10.0 * tau:
                if r == N:
                    raise IterationCapExceeded(
                        "candidate at height %d has norm %g after projection "
                        "on a full basis" % (h, nrm)
                    )
                np.sqrt(nrms, out=nrms)
                np.divide(v, nrms, out=Q[:, r, None])
                if h < n:
                    c = p + q
                    # column h of the copies' initial values: every
                    # member so far is a constant at a lower height
                    col = -(F[1:, :, list(row)] @ c[1:].swapaxes(1, 2))[:, :, 0]
                    col[:, h] += 1.0
                    F[1:, :, h] = col / nrms[1:, 0]
                    # the input's member: e_{h+1} minus its projections
                    terms = zip(c[0, 0].tolist(), first)
                    cand = linear_combine([(1.0, vecpoly.basis_vector(h + 1, n))]
                                          + [(-ck, f) for ck, f in terms])
                    # the one-term linear_combine, whose + 0.0 turns -0.0 into 0.0
                    first.append(vecpoly._canonical(n, (1.0 / nrm) * cand.coef + 0.0))
                    F[0, :h + 1, h] = first[-1].coef
                row[h] = r
            elif nrm < 0.1 * tau:
                gheights.append(h)
            else:
                raise AmbiguousNorm(
                    "candidate at height %d has residual norm %r within a "
                    "factor 10 of the zero threshold %r" % (h, nrm, tau)
                )
        if len(row) != N:
            raise IterationCapExceeded(
                "every residue class died with %d of %d basis members"
                % (len(row), N)
            )
        cond = estimate(N)
    values, coefficients, consts = Q[0].copy(), P[0].copy(), F[0].copy()
    values.flags.writeable = coefficients.flags.writeable = consts.flags.writeable = False
    return Orthogonalization(
        basis_heights=tuple(row),
        generator_heights=tuple(gheights),
        iterations=h + 1,
        node_scale=float(scale),
        node_center=float(center),
        values=values,
        coefficients=coefficients,
        first_block=consts,
        cond=cond,
    )


@functools.lru_cache(maxsize=64)
def _perturbations(N, n):
    """The gate's node factors and coefficient offsets for every slot:
    1.0 and 0.0 for the input in slot 0, then 1 + GATE_STEP g[:N] and
    GATE_STEP g[N:] (as N x n) for replay k in slot k + 1, g the first
    N (n + 1) normals of default_rng(k)."""
    factor, offset = np.ones((GATE_REPLAYS + 1, N)), np.zeros((GATE_REPLAYS + 1, N, n))
    for k in range(GATE_REPLAYS):
        g = np.random.default_rng(k).standard_normal(N * (n + 1))
        factor[k + 1] += GATE_STEP * g[:N]
        offset[k + 1] = GATE_STEP * g[N:].reshape(N, n)
    factor.flags.writeable = offset.flags.writeable = False
    return factor, offset


@functools.lru_cache(maxsize=64)
def _lower(N):
    """Ones on and below the diagonal of an N x N array, zeros above."""
    tri = np.tri(N)
    tri.flags.writeable = False
    return tri


def matrix_from_basis(sigma, gs):
    """Matrix of multiplication by the variable in the orthonormal basis.

    Reads every c_mj = <basis_j, y * basis_m>, j <= m, from
    gs.coefficients, the recurrence coefficients of the band-Lanczos
    run, each pair once.  Every pair with m - j > n must be below
    BAND_TOL.  Entries that the height-derived degeneration profile
    constrains to zero are snapped when they are below BAND_TOL in the
    scaled frame, and the band is mapped back to the original variable,
    so every entry not snapped is the one the gate measured.

    Raises
    ------
    BandViolation
        An inner product outside the band exceeds BAND_TOL; the
        message names the largest one.
    ProfileMismatch
        The basis and generator heights are mutually inconsistent.
    """
    n, N = sigma.n, len(gs.coefficients)
    C = gs.coefficients.ravel()
    outside, band, ends = _band_layout(N, n)

    leak = np.abs(C[outside])
    if leak.max(initial=0.0) > BAND_TOL:
        at = int(outside[leak.argmax()])
        l, k = divmod(at, N)
        raise BandViolation(
            "inner product at offset %d, position %d is %r, beyond the "
            "declared bandwidth" % (l - k, k + 1, float(C[at]))
        )

    m = height_degeneration_indices(gs)
    b = C[band]
    # zero-constrained ranges per diagonal: offset g is cut from the
    # degeneration index of level n - g + 1 through position N - g;
    # an entry left above BAND_TOL is for band validation to reject
    cut = np.abs(b) <= BAND_TOL
    for g in range(n + 1):  # the main diagonal; offset g before m_{n-g+1}
        cut[ends[g]:ends[g] + (m[n - g] - 1 if g else N)] = False
    b[cut] = 0.0
    b *= gs.node_scale
    b[:N] += gs.node_center
    b = b.tolist()
    return BandMatrix(n, N, tuple(b[lo:hi] for lo, hi in zip(ends, ends[1:])))


@functools.lru_cache(maxsize=64)
def _band_layout(N, n):
    """Flat indices into the lower triangle of an N x N array: of the
    entries (j, i) with j > i + n, ordered as (i, j) in the upper
    triangle row by row, and of the diagonals 0 .. n on and below the
    main one, one after the other; then where each diagonal starts in
    that list, and its end."""
    i, j = np.triu_indices(N, n + 1)
    band = [np.arange(g * N, N * N, N + 1) for g in range(n + 1)]
    outside, flat = j * N + i, np.concatenate(band)
    outside.flags.writeable = flat.flags.writeable = False
    return outside, flat, tuple(np.cumsum([0] + [len(d) for d in band]).tolist())


def initial_conditions(gs):
    """Initial-value matrix: the constants of the first n basis members.

    Member j (j <= n) must have height j - 1, that is be a constant
    vector polynomial; its component i is the entry t_ij.  The
    orthogonalization order makes the result upper triangular with
    positive diagonal whenever the input really was a spectral function.
    """
    n = len(gs.first_block)
    for j, h in enumerate(gs.basis_heights[:n]):
        # heights 0 .. n-1 are exactly the constant terms
        if h >= n:
            raise NotTriangular(
                "basis member %d is not constant (height %d); the "
                "input cannot come from an admissible matrix" % (j + 1, h)
            )
    return TriangularInit(n, gs.first_block.tolist())


def reconstruct(sigma):
    """Full inverse problem: spectral function to band matrix.

    Validates sigma, orthogonalizes with the conditioning gate on
    (gram_schmidt(sigma, gate=True)), extracts the matrix and the
    initial-value matrix, and cross-checks the degeneration profile
    found in the matrix's zero pattern against the one implied by the
    generator heights.

    Returns
    -------
    Reconstruction

    Raises
    ------
    IllConditioned
        The conditioning gate estimates that the input does not
        determine the matrix or the initial values to the accuracy
        bound; raised by gram_schmidt, so before any band or profile
        check, mid-run once the matrix rows final so far cross the
        bound.
    ProfileMismatch
        The reconstructed matrix's zero pattern disagrees with the
        height-derived degeneration indices (or fails band validation
        outright).
    """
    validate_sigma(sigma)
    gs = gram_schmidt(sigma, gate=True)
    A = matrix_from_basis(sigma, gs)
    try:
        profile = validate_band(A)
    except ValidationError as exc:
        raise ProfileMismatch(
            "reconstructed matrix fails band validation: %s" % exc
        ) from exc
    m = height_degeneration_indices(gs)
    if profile.m != m:
        raise ProfileMismatch(
            "zero-pattern degeneration indices %r disagree with the "
            "height-derived indices %r" % (profile.m, m)
        )
    tinit = initial_conditions(gs)
    return Reconstruction(A, profile, tinit, gs)
