"""Reconstruction of a band matrix from a spectral function.

The inverse route orthogonalizes the graded monomial sequence e_1,
e_2, ... against the degenerate inner product carried by the spectral
function.  Exactly N members survive with positive norm (the
orthonormal basis); the candidates that collapse to norm zero reveal,
one per height residue class mod n, the n generators of the zero
class.  The band matrix is then read off as the representation of
multiplication by the variable in the surviving basis, and the initial
value matrix as the constant coefficients of the first n members.

Internally all nodes are mapped affinely onto [-1, 1] before
orthogonalization; monomial coefficient growth on wide node ranges
would otherwise swamp the zero-norm decisions.  The scaled variable

    y = (x - node_center) / node_scale

is recorded in the result, and the matrix is mapped back exactly through
A = node_scale * A_scaled + node_center * I.  Inner products, every
zero-norm decision and the band come from the basis node values alone;
only the first n members are built as polynomials, for the initial
values.  The basis and generators, in x, come from solve_recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousNorm,
    BandViolation,
    DimensionMismatch,
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


@dataclass(frozen=True, eq=False)
class Orthogonalization:
    """Result of the degenerate Gram-Schmidt run.

    Equality is identity: the arrays have no single truth value.

    values row k holds alpha(x_l) . p_k(x_l) for all jumps l, p_k the
    basis member at height basis_heights[k]: all later stages need to
    form inner products (row_j . row_k is exactly <p_j, p_k>).  Column h
    of first_block holds the constants of the member at height h < n
    (zeros if that height fell into the zero class).
    """

    basis_heights: tuple
    generator_heights: tuple
    iterations: int
    node_scale: float
    node_center: float
    values: np.ndarray
    first_block: np.ndarray


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
    orthogonalization output is internally inconsistent.
    """
    n = len(gs.generator_heights)
    m = []
    for j, gh in enumerate(gs.generator_heights):
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


def gram_schmidt(sigma, tol_zero=1e-8):
    """Orthonormalize the graded monomial sequence against sigma.

    Runs modified Gram-Schmidt with one full re-orthogonalization pass
    per candidate on the node values; only the first n members become
    polynomials, for their constants.  Each residual norm is compared against
    tau = tol_zero * sqrt(<e_i, e_i> + 1): above 10 tau it joins the
    basis (normalized), below tau / 10 it is a zero-class event whose
    height residue mod n either contributes a new generator or repeats
    a known one, and anything in between stops the computation rather
    than guess.

    Parameters
    ----------
    sigma : SpectralFunction
        Must satisfy validate_sigma; callers that skip validation get
        undefined error types.
    tol_zero : float
        Relative zero-norm threshold, default 1e-8.

    Returns
    -------
    Orthogonalization

    Raises
    ------
    AmbiguousNorm
        A residual norm fell within a factor 10 of tau.
    IterationCapExceeded
        More candidates were consumed than any admissible spectral
        function allows (cap n(N-n+1)+1, from the height-sum identity),
        or the generator heights ended up violating that identity.
    """
    n, N = sigma.n, sigma.N
    if N <= n:
        raise DimensionMismatch(
            "need more jumps than components, got N=%d n=%d" % (N, n)
        )
    xmin, xmax = float(sigma.x.min()), float(sigma.x.max())
    center = 0.5 * (xmin + xmax)
    scale = 0.5 * (xmax - xmin)
    if scale == 0.0:
        # a single node carries rank at most n < N, so validated input
        # cannot land here
        raise DimensionMismatch("all nodes coincide")
    y = (sigma.x - center) / scale

    total_height = N * n + n * (n - 1) // 2
    cap = n * (N - n + 1) + 1
    bheights, gheights = [], []
    vrows, first = [], []
    consts = np.zeros((n, n))
    i = 0
    while len(vrows) < N or len(gheights) < n:
        i += 1
        if i > cap:
            raise IterationCapExceeded(
                "consumed %d candidates (cap %d) with %d basis members and "
                "%d generators; the input is not the spectral function of "
                "any admissible band matrix, or tol_zero=%g is ill-chosen"
                % (i, cap, len(vrows), len(gheights), tol_zero)
            )
        if len(vrows) == N and len(gheights) == n - 1:
            # only one generator height remains possible
            forced = total_height - sum(gheights)
            if i - 1 > forced:
                raise IterationCapExceeded(
                    "no zero-class event at height %d, where the height-sum "
                    "identity forces the last generator" % forced
                )
        slot = (i - 1) % n
        deg = (i - 1) // n
        v = sigma.alpha[:, slot] * y ** deg
        tau = tol_zero * math.sqrt(float(v @ v) + 1.0)
        proj = []
        for _ in range(2):
            for k in range(len(vrows)):
                h = float(vrows[k] @ v)
                if h != 0.0:
                    v = v - h * vrows[k]
                    proj.append((-h, k))
        nrm = math.sqrt(float(v @ v))
        if nrm > 10.0 * tau:
            if len(vrows) == N:
                raise IterationCapExceeded(
                    "candidate %d has norm %g after projection on a full "
                    "basis; the input is not an admissible spectral function"
                    % (i, nrm)
                )
            if i <= n:
                # a constant: summed in projection order, so it rounds as
                # if updated after every projection; lower heights never
                # touch its leading slot, entry i - 1
                cand = linear_combine([(1.0, vecpoly.basis_vector(i, n))]
                                      + [(c, first[k]) for c, k in proj])
                first.append(linear_combine([(1.0 / nrm, cand)]))
                consts[:i, i - 1] = first[-1].coef
            bheights.append(i - 1)
            vrows.append(v / nrm)
        elif nrm < 0.1 * tau:
            if all(g % n != slot for g in gheights):
                gheights.append(i - 1)
            # a repeated residue lies in the module generated by the
            # known generators; nothing new to record
        else:
            raise AmbiguousNorm(
                "candidate %d has residual norm %r within a factor 10 of "
                "the zero threshold %r; tighten or loosen tol_zero to "
                "decide" % (i, nrm, tau)
            )
    if sum(gheights) != total_height:
        raise IterationCapExceeded(
            "generator heights %r sum to %d, but admissible spectral "
            "functions require %d"
            % (tuple(gheights), sum(gheights), total_height)
        )
    values = np.array(vrows)
    values.flags.writeable = consts.flags.writeable = False
    return Orthogonalization(
        basis_heights=tuple(bheights),
        generator_heights=tuple(gheights),
        iterations=i,
        node_scale=scale,
        node_center=center,
        values=values,
        first_block=consts,
    )


def matrix_from_basis(sigma, gs):
    """Matrix of multiplication by the variable in the orthonormal basis.

    Computes every c_lk = <basis_l, y * basis_k> from the stored node
    values as one matrix product, symmetrized by averaging each pair.
    Every pair with |l - k| > n must be below BAND_TOL.  Entries that
    the height-derived degeneration profile constrains to zero are
    snapped when they are below BAND_TOL in the scaled frame, and the
    band is mapped back to the original variable.

    Raises
    ------
    BandViolation
        An inner product outside the band exceeds BAND_TOL; the
        message names the largest one.
    ProfileMismatch
        The basis and generator heights are mutually inconsistent.
    """
    n, N = sigma.n, len(gs.values)
    y = (sigma.x - gs.node_center) / gs.node_scale
    V = gs.values
    C = (V * y) @ V.T
    C = 0.5 * (C + C.T)

    leak = np.abs(np.triu(C, n + 1))  # C is exactly symmetric
    k, l = np.unravel_index(np.argmax(leak), leak.shape)
    if leak[k, l] > BAND_TOL:
        raise BandViolation(
            "inner product at offset %d, position %d is %r, beyond the "
            "declared bandwidth" % (l - k, k + 1, float(C[k, l]))
        )

    m = height_degeneration_indices(gs)
    diags = [np.diagonal(C, g).copy() for g in range(n + 1)]
    # zero-constrained ranges per diagonal: offset g is cut from the
    # degeneration index of level n - g + 1 through position N - g;
    # an entry left above BAND_TOL is for band validation to reject
    for g in range(1, n + 1):
        cut = diags[g][m[n - g] - 1:]  # from m_{n-g+1}, 1-based
        cut[np.abs(cut) <= BAND_TOL] = 0.0
    s, c = gs.node_scale, gs.node_center
    diags = [s * diags[0] + c] + [s * d for d in diags[1:]]
    return BandMatrix(n, N, tuple(tuple(d.tolist()) for d in diags))


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
    return TriangularInit(n, tuple(map(tuple, gs.first_block)))


def reconstruct(sigma, tol_zero=1e-8):
    """Full inverse problem: spectral function to band matrix.

    Validates sigma, orthogonalizes, extracts the matrix and the
    initial-value matrix, and cross-checks the degeneration profile
    found in the matrix's zero pattern against the one implied by the
    generator heights.

    Returns
    -------
    Reconstruction

    Raises
    ------
    ProfileMismatch
        The reconstructed matrix's zero pattern disagrees with the
        height-derived degeneration indices (or fails band validation
        outright).
    """
    validate_sigma(sigma)
    gs = gram_schmidt(sigma, tol_zero)
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
