"""Shared test utilities.

stieltjes_jacobi is an independent cross-check for the tridiagonal
case: it rebuilds the recurrence coefficients of a Jacobi matrix
straight from a discrete measure by the classical three-term
recurrence, representing polynomials by their values at the nodes.
It never touches the package's vector-polynomial machinery, so
agreement between the two routes is meaningful evidence.

The ref_* functions are a pure-Python reference for the vector
polynomial operations on per-component coefficient tuples (ascending
degree, trailing zeros trimmed, a zero component empty).  They use the
same floating-point operations in the same order as the package, so the
two must agree bit for bit.  The ref_* functions on spectral functions
do the same for the direct problem, one jump at a time on (x, alpha)
records, and ref_to_dense unpacks a band matrix entry by entry.
ref_inner is the inner product evaluated that way, polynomial by
polynomial and jump by jump.

ref_validate_band decides class membership and the degeneration
profile with one state machine per level; validate_band must raise the
same error with the same message, or return the same profile.

ref_gram_schmidt is gram_schmidt written with one _project call per
height; gram_schmidt must agree with it bit for bit, refusals included.

ref_eig_symmetric, ref_own, ref_transform_spectral_function,
ref_matrix_from_basis and ref_initial_conditions are the earlier
bodies of the round trip's stages outside the band-Lanczos loop and
eigh, before their numpy calls were cut: np.array_equal, np.triu and
one array per diagonal, among others.  The stages must agree with them
bit for bit, refusals included, class and message.

ref_replay runs the input or one of the conditioning gate's perturbed
copies on its own, through every height the input consumed, with every
decision and the node frame pinned to the input's, and returns its
first-pass coefficients in the scaled frame; ref_gate_cond takes the
gate's condition estimate over those lone runs.  gram_schmidt runs all
copies in one stacked loop and must agree bit for bit.

ref_random_band_matrix, ref_random_tinit and ref_random_chain draw
an instance with one scalar rng.uniform call per entry; the samplers
draw all of it with one rng.random call and must give the same values
and leave the generator in the same state.

is_interpolation_solution tests zero-class membership of a vector
polynomial directly at the jumps of a spectral function.
"""

import math

import numpy as np

import bandspec as bs
from bandspec.errors import (
    AmbiguousNorm,
    BandViolation,
    DeadComponent,
    DimensionMismatch,
    InnermostDegeneration,
    IterationCapExceeded,
    LeadingZero,
    NegativeConstrainedEntry,
    NoConvergence,
    NonContiguousPositiveRun,
    NotSymmetric,
    NotTriangular,
    RankSumMismatch,
    ValidationError,
    WeightOverflow,
    ZeroJump,
)
from bandspec.reconstruct import (
    BAND_TOL,
    DEFLATION_TOL,
    GATE_REPLAYS,
    GATE_STEP,
    Orthogonalization,
    _perturbations,
    height_degeneration_indices,
)
from bandspec import vecpoly
from bandspec.vecpoly import linear_combine
from bandspec.spectral import NODE_MERGE_TOL, RANK_TOL, SYMMETRY_TOL


def stieltjes_jacobi(nodes, weights):
    """Recurrence coefficients of the measure sum_l w_l delta(x - x_l).

    Orthonormalizes 1, x, x^2, ... under <f, g> = sum_l w_l f(x_l) g(x_l)
    and reads off the three-term recurrence

        x p_k = b_k p_{k+1} + a_{k+1} p_k + b_{k-1} p_{k-1}.

    Returns (diag, offdiag, t11): the N diagonal entries a_1..a_N, the
    N-1 positive off-diagonal entries b_1..b_{N-1}, and the scalar
    t11 = 1/||1||, the normalization of the constant polynomial.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    N = len(x)
    mass = float(np.sum(w))
    p_prev = np.zeros(N)
    p_cur = np.full(N, 1.0 / np.sqrt(mass))
    diag = []
    off = []
    for k in range(N):
        a = float(np.sum(w * x * p_cur * p_cur))
        diag.append(a)
        if k == N - 1:
            break
        t = (x - a) * p_cur - (off[-1] if off else 0.0) * p_prev
        b = float(np.sqrt(np.sum(w * t * t)))
        off.append(b)
        p_prev, p_cur = p_cur, t / b
    return diag, off, 1.0 / np.sqrt(mass)


def ref_trim(coeffs):
    """Drop trailing exact zeros, returning an ascending tuple."""
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def ref_height(comps):
    """max_j (n * deg(R_j) + j) over nonzero components, -inf if none."""
    n = len(comps)
    return max((n * (len(c) - 1) + j for j, c in enumerate(comps) if c),
               default=-math.inf)


def ref_evaluate(comps, x):
    """Componentwise Horner evaluation."""
    out = []
    for c in comps:
        acc = 0.0
        for v in reversed(c):
            acc = acc * x + v
        out.append(acc)
    return tuple(out)


def ref_inner(sigma, r, s):
    """inner with one ref_evaluate per polynomial and jump, and the same
    exactly rounded sums."""
    products = []
    for jump in sigma.jumps:
        rv = ref_evaluate(r.comps, jump.x)
        sv = ref_evaluate(s.comps, jump.x)
        vr = math.fsum(a * v for a, v in zip(jump.alpha, rv))
        vs = math.fsum(a * v for a, v in zip(jump.alpha, sv))
        products.append(vr * vs)
    return math.fsum(products)


def ref_linear_combine(terms):
    """sum_k c_k * comps_k, accumulated term by term per coefficient."""
    n = len(terms[0][1])
    out = []
    for j in range(n):
        acc = [0.0] * max(len(comps[j]) for _, comps in terms)
        for c, comps in terms:
            for d, v in enumerate(comps[j]):
                acc[d] += c * v
        out.append(ref_trim(acc))
    return tuple(out)


def ref_solve_recurrence(A, T):
    """solve_recurrence with one VecPoly per solution: z p_k by its own
    shift of the coefficient array, then each coupling term combined by
    linear_combine in the same order."""
    def shift(p):
        return vecpoly._canonical(p.n, np.concatenate([np.zeros(p.n), p.coef]))

    profile = bs.validate_band(A)
    n, N = A.n, A.N
    cuts = set(profile.m)
    basis = [vecpoly.vec_poly([(T.rows[i][j],) for i in range(n)]) for j in range(n)]
    generators = []
    for k in range(1, N + 1):
        s = sum(1 for mj in profile.m if mj < k)
        terms = [(1.0, shift(basis[k - 1])), (-A.entry(0, k), basis[k - 1])]
        for j in range(1, n + 1):
            if k - j >= 1:
                terms.append((-A.entry(j, k - j), basis[k - j - 1]))
        for j in range(1, n - s):
            terms.append((-A.entry(j, k), basis[k + j - 1]))
        r = linear_combine(terms)
        if k in cuts:
            generators.append(r)
        else:
            assert k + n - s == len(basis) + 1
            basis.append(linear_combine([(1.0 / A.entry(n - s, k), r)]))
    return bs.RecurrenceTable(tuple(basis), tuple(generators))


def ref_trim_small(comps, rel=1e-12):
    """Zero every coefficient at or below rel * (largest magnitude)."""
    top = max((abs(v) for c in comps for v in c), default=0.0)
    if top == 0.0:
        return comps
    cut = rel * top
    return tuple(ref_trim(0.0 if abs(v) <= cut else v for v in c)
                 for c in comps)


def bits(values):
    """Floats, arrays and nested sequences of them as nested tuples of
    hex strings, so that 0.0 and -0.0 differ."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if isinstance(values, (tuple, list)):
        return tuple(bits(v) for v in values)
    return float(values).hex()


def ref_canonical(jumps):
    """(x, alpha) records in SpectralFunction's canonical form, one jump
    at a time: alpha negated when its first nonzero entry is negative,
    -0.0 made 0.0, then sorted by node and alpha entry by entry."""
    out = []
    for x, alpha in jumps:
        if next((a for a in alpha if a != 0.0), 0.0) < 0.0:
            alpha = tuple(-a for a in alpha)
        out.append((x + 0.0, tuple(a + 0.0 for a in alpha)))
    return tuple(sorted(out))


def ref_transform(jumps, T):
    """(x, (T^t)^{-1} alpha) per jump, one solve each."""
    Tt = T.dense().T
    return tuple((x, tuple(np.linalg.solve(Tt, np.array(alpha))))
                 for x, alpha in jumps)


def ref_jump_sum(n, jumps):
    """Sum of the jump matrices, accumulated jump by jump."""
    S = np.zeros((n, n))
    for _, alpha in jumps:
        a = np.array(alpha)
        S += np.outer(a, a)
    return S


def ref_merged_jump_matrices(jumps):
    """Jump matrices summed over runs of nodes within NODE_MERGE_TOL of
    their run's first node, as (first node, matrix) pairs."""
    groups = []
    for x, alpha in jumps:
        a = np.array(alpha)
        if groups and x - groups[-1][0] <= NODE_MERGE_TOL * (1.0 + abs(groups[-1][0])):
            groups[-1][1] += np.outer(a, a)
        else:
            groups.append([x, np.outer(a, a)])
    return [(x, M) for x, M in groups]


def ref_validate_sigma(n, jumps):
    """The error class validate_sigma raises on these jumps, or None:
    one jump, one component and one group at a time.  Each run of
    merged nodes is decided by one eigvalsh call on the sum of its
    vectors scaled by 2**-e, 2**e being just above their largest
    entry; a NaN or infinite coefficient has no rank, and a NaN or
    infinite node is no point of the real line."""
    for _, alpha in jumps:
        if all(a == 0.0 for a in alpha):
            return ZeroJump
    for j in range(n):
        if all(alpha[j] == 0.0 for _, alpha in jumps):
            return DeadComponent
    for _, alpha in jumps:
        if not all(math.isfinite(a) for a in alpha):
            return RankSumMismatch
    if not all(math.isfinite(x) for x, _ in jumps):
        return RankSumMismatch
    groups = []  # the vectors of each run of merged nodes
    for x, alpha in jumps:
        if groups and x - groups[-1][0] <= NODE_MERGE_TOL * (1.0 + abs(groups[-1][0])):
            groups[-1][1].append(alpha)
        else:
            groups.append((x, [alpha]))
    total = 0
    for x, vectors in groups:
        e = math.frexp(max(abs(a) for v in vectors for a in v))[1]
        evals = np.linalg.eigvalsh(ref_jump_sum(
            n, [(x, [math.ldexp(a, -e) for a in v]) for v in vectors]))
        total += int(np.count_nonzero(evals > RANK_TOL * evals[-1]))
    return None if total == len(jumps) else RankSumMismatch


def ref_own(sigma, n, x, alpha):
    """spectral._own before its numpy calls were cut."""
    lead = alpha[np.arange(len(x)), np.argmax(alpha != 0.0, axis=1)]
    alpha = alpha * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    if not np.all(x[1:] > x[:-1]):
        order = np.lexsort((*alpha.T[::-1], x))
        x, alpha = x[order], alpha[order]
    x, alpha = x + 0.0, alpha + 0.0
    x.flags.writeable = alpha.flags.writeable = False
    sigma.__dict__.update(n=n, x=x, alpha=alpha)
    return sigma


def ref_eig_symmetric(M):
    """eig_symmetric before its numpy calls were cut."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("expected a square matrix, got %r" % (M.shape,))
    if not np.array_equal(M, M.T):  # exactly symmetric needs no skew
        scale = max(1.0, float(np.max(np.abs(M))))
        skew = float(np.max(np.abs(M - M.T)))
        if skew > SYMMETRY_TOL * scale:
            raise NotSymmetric(
                "matrix is not symmetric: max |M - M^t| = %r" % skew
            )
    try:
        values, vectors = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigensolver did not converge: %s" % exc) from exc
    values.flags.writeable = False
    vectors.flags.writeable = False
    return bs.EigenDecomposition(values, vectors)


def ref_transform_spectral_function(sigma, T):
    """transform_spectral_function before its numpy calls were cut,
    storing through ref_own."""
    if T.n != sigma.n:
        raise DimensionMismatch(
            "initial values have size %d, spectral function has %d"
            % (T.n, sigma.n)
        )
    try:
        alpha = np.linalg.solve(T.dense().T, sigma.alpha[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise WeightOverflow("initial values are singular in float64: "
                             "(T^t)^-1 alpha overflows") from exc
    bad = np.flatnonzero(~np.all(np.isfinite(alpha), axis=1))
    if len(bad):
        raise WeightOverflow("jump %d at x=%r: (T^t)^-1 alpha is not finite"
                             % (bad[0] + 1, float(sigma.x[bad[0]])))
    return ref_own(object.__new__(bs.SpectralFunction), sigma.n, sigma.x, alpha)


def ref_matrix_from_basis(sigma, gs):
    """matrix_from_basis before its numpy calls were cut: np.triu for
    the leak, one array per diagonal, on the symmetric matrix whose
    lower triangle is gs.coefficients' (copied, not added, so a -0.0
    stays -0.0)."""
    n, N = sigma.n, len(gs.coefficients)
    L = gs.coefficients
    C = np.where(np.tri(N, dtype=bool), L, L.T)

    leak = np.abs(np.triu(C, n + 1))  # C is exactly symmetric
    k, l = np.unravel_index(np.argmax(leak), leak.shape)
    if leak[k, l] > BAND_TOL:
        raise BandViolation(
            "inner product at offset %d, position %d is %r, beyond the "
            "declared bandwidth" % (l - k, k + 1, float(C[k, l]))
        )

    m = height_degeneration_indices(gs)
    diags = [np.diagonal(C, g).copy() for g in range(n + 1)]
    for g in range(1, n + 1):
        cut = diags[g][m[n - g] - 1:]  # from m_{n-g+1}, 1-based
        cut[np.abs(cut) <= BAND_TOL] = 0.0
    s, c = gs.node_scale, gs.node_center
    diags = [s * diags[0] + c] + [s * d for d in diags[1:]]
    return bs.BandMatrix(n, N, tuple(tuple(d.tolist()) for d in diags))


def ref_initial_conditions(gs):
    """initial_conditions before its numpy calls were cut."""
    n = len(gs.first_block)
    for j, h in enumerate(gs.basis_heights[:n]):
        if h >= n:
            raise NotTriangular(
                "basis member %d is not constant (height %d); the "
                "input cannot come from an admissible matrix" % (j + 1, h)
            )
    return bs.TriangularInit(n, tuple(map(tuple, gs.first_block)))


def outcome(run, *args):
    """What run(*args) returns, or the class and message it raises."""
    try:
        return run(*args)
    except bs.errors.BandSpecError as exc:
        return type(exc), str(exc)


def overflowing_sigma():
    """A sigma whose jump matrices at node 0 sum to an infinite entry."""
    return bs.SpectralFunction(3, [
        (0.0, (0.0, 0.0, 1e-14)), (0.0, (0.0, 1e154, 0.0)), (0.0, (0.0, 1e154, 0.0)),
        (1.0, (1.0, 0.0, 0.0)), (2.0, (0.0, 1.0, 1.0))])


def subspace_sigma():
    """The fingerprint's "vectors in a subspace n=3 N=8": coefficient
    vectors in a 2-dimensional subspace, so the jump sum is singular."""
    rng = np.random.default_rng((0, 5, 3, 8))
    x = np.sort(rng.standard_normal(8))
    rng.standard_normal((8, 3))  # the fingerprint's random vectors
    alpha = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 3))
    return bs.SpectralFunction(3, zip(x, alpha))


def ref_to_dense(A):
    """Dense symmetric array of a band matrix, written entry by entry."""
    M = np.zeros((A.N, A.N))
    for j, d in enumerate(A.diags):
        for i, v in enumerate(d):
            M[i + j, i] = v
            M[i, i + j] = v
    return M


def ref_validate_band(A):
    """validate_band as a state machine over each level's scan range:
    before the cut an entry must be positive, the first one that is not
    is the cut, and after it every entry must be zero.  Every entry must
    be finite."""
    n, N = A.n, A.N
    if n < 1:
        raise ValidationError("class membership needs n >= 1")
    if not A.diags[n][0] > 0.0:
        raise LeadingZero(
            "d^(%d)_1 = %r violates 1 < m_1 < N-n+1: the outermost diagonal "
            "must start with a positive entry" % (n, A.diags[n][0])
        )
    bad = [(j, k, v) for j, d in enumerate(A.diags)
           for k, v in enumerate(d, 1) if not abs(v) < math.inf]
    if bad:
        raise ValidationError("d^(%d)_%d = %r is not a finite number" % bad[0])
    m = []
    empty_runs = []
    j0 = None
    prev = 0  # m_0
    for j in range(n):
        d = A.diags[n - j]
        lo, hi = prev + 1, N - n + j
        cut = None
        for k in range(lo, hi + 1):
            v = d[k - 1]
            if cut is None:
                if v > 0.0:
                    continue
                if v < 0.0:
                    raise NegativeConstrainedEntry(
                        "d^(%d)_%d = %r must be positive or zero"
                        % (n - j, k, v)
                    )
                cut = k
            else:
                if v > 0.0:
                    raise NonContiguousPositiveRun(
                        "d^(%d)_%d = %r is positive after the zero cut at "
                        "position %d" % (n - j, k, v, cut)
                    )
                if v < 0.0:
                    raise NegativeConstrainedEntry(
                        "d^(%d)_%d = %r must be zero past the cut at %d"
                        % (n - j, k, v, cut)
                    )
        if cut is None:
            if j0 is None:
                j0 = j
            m.append(hi + 1)
        else:
            # once a level has no cut, later scan ranges are empty and
            # cannot produce one, so cuts always precede forced levels
            assert j0 is None
            if j == n - 1:
                raise InnermostDegeneration(
                    "zero at position %d of the innermost off-diagonal: at "
                    "most %d degeneration levels are allowed" % (cut, n - 1)
                )
            if cut == prev + 1:
                # no positive entry between consecutive cuts; legal but
                # unusual, so flag it (cannot happen at level 0, where
                # the leading entry is already known positive)
                empty_runs.append(j + 1)
            m.append(cut)
        prev = m[-1]
    return bs.DegenerationProfile(tuple(m), n if j0 is None else j0,
                                  tuple(empty_runs))


def _project(Q, v):
    """Two block classical Gram-Schmidt passes of the rows v against the
    rows of Q (both with the same leading axes); returns the residual,
    the summed coefficients of both passes and those of the first."""
    Qt = Q.swapaxes(-1, -2)
    p = v @ Qt
    v = v - p @ Q
    q = v @ Qt
    return v - q @ Q, p + q, p


def _ref_change(A, A0):
    """Largest |A - A0| on and below the diagonal of the last two axes;
    the entries above it count zero, their pairs are counted below."""
    return np.max(np.tri(A.shape[-1]) * np.abs(A - A0))


def ref_gram_schmidt(sigma):
    """gram_schmidt with one _project call per height, a separate vdot
    for the input's residual norm and a one-term linear_combine for each
    normalized first-block member."""
    n, N = sigma.n, sigma.N
    if N <= n:
        raise DimensionMismatch(
            "need more jumps than components, got N=%d n=%d" % (N, n)
        )
    factor, offset = _perturbations(N, n)
    # one node frame, the input's; slot 0 is the input, slot k > 0 its
    # k-th perturbed copy
    lo, hi = np.min(sigma.x), np.max(sigma.x)
    center, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if scale == 0.0:
        # a single node carries rank at most n < N, so validated input
        # cannot land here
        raise DimensionMismatch("all nodes coincide")
    y = ((sigma.x * factor - center) / scale)[:, None, :]
    consts_of = np.moveaxis(sigma.alpha + offset, 2, 0)[:, :, None, :]  # values of e_{h+1}

    total_height = N * n + n * (n - 1) // 2
    cap = n * (N - n + 1) + 1
    Q = np.zeros((GATE_REPLAYS + 1, N, N))
    P = np.zeros_like(Q)  # row m: first-pass coefficients of y Q_m
    F = np.zeros((GATE_REPLAYS + 1, n, n))
    row = {}  # accepted height -> its row of Q
    gheights, block = [], []
    h = -1
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
            if h >= n and h - n not in row:
                continue  # the residue class of h is dead
            v = consts_of[h] if h < n else y * Q[:, row[h - n], None]
            tau = DEFLATION_TOL * math.sqrt(float(np.vdot(v[0], v[0])) + 1.0)
            if tau == math.inf:
                raise AmbiguousNorm(
                    "candidate at height %d has a squared norm that overflows "
                    "float64, so its zero threshold is inf" % h
                )
            r = len(row)
            v, c, p = _project(Q[:, :r], v)
            if h >= n:
                P[:, row[h - n], :r] = p[:, 0]
            nrm = math.sqrt(float(np.vdot(v[0], v[0])))
            if nrm > 10.0 * tau:
                if r == N:
                    raise IterationCapExceeded(
                        "candidate at height %d has norm %g after projection "
                        "on a full basis" % (h, nrm)
                    )
                nrms = np.sqrt(v @ v.swapaxes(1, 2))
                nrms[0] = nrm
                Q[:, r] = (v / nrms)[:, 0]
                if h < n:
                    block.append((h, c[0, 0], nrm))
                    # column h of the initial values: every member so
                    # far is a constant at a lower height
                    col = -(F[:, :, list(row)] @ c.swapaxes(1, 2))[:, :, 0]
                    col[:, h] += 1.0
                    F[:, :, h] = col / nrms[:, 0]
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
    if sum(gheights) != total_height:
        raise IterationCapExceeded(
            "generator heights %r sum to %d, but admissible spectral "
            "functions require %d"
            % (tuple(gheights), sum(gheights), total_height)
        )
    first, consts = [], np.zeros((n, n))
    for b, c, nrm in block:
        # the member at height b < n is e_{b+1} minus its projections on
        # the lower members, all constants
        cand = linear_combine([(1.0, vecpoly.basis_vector(b + 1, n))]
                              + [(-ck, p) for ck, p in zip(c, first)])
        first.append(linear_combine([(1.0 / nrm, cand)]))
        consts[:b + 1, b] = first[-1].coef
    with np.errstate(all="ignore"):
        # in one frame, a copy's change in x is scale times its change
        # in the scaled frame
        change = np.max((scale * _ref_change(P[1:], P[0]), np.max(np.abs(F[1:] - consts))))
    values, coefficients = Q[0].copy(), P[0].copy()
    values.flags.writeable = coefficients.flags.writeable = False
    consts.flags.writeable = False
    return Orthogonalization(
        basis_heights=tuple(row),
        generator_heights=tuple(gheights),
        iterations=h + 1,
        node_scale=float(scale),
        node_center=float(center),
        values=values,
        coefficients=coefficients,
        first_block=consts,
        cond=float(change) / GATE_STEP,
    )


def ref_replay(sigma, gs, k):
    """Slot k + 1 of the gate's stack run alone (k = -1 is the input,
    k >= 0 its perturbed copy k), as a stack of one, through every
    height the run gs consumed, generator candidates included, with
    each decision and the node frame taken from gs.  Returns the
    first-pass coefficients <Q_j, y Q_m> of each candidate y Q_m, in
    row m of the scaled frame, and the initial-value block."""
    n, N = sigma.n, sigma.N
    factor, offset = _perturbations(N, n)
    x = sigma.x * factor[k + 1:k + 2]
    y = ((x - gs.node_center) / gs.node_scale)[:, None, :]
    consts_of = np.moveaxis(sigma.alpha + offset[k + 1:k + 2], 2, 0)[:, :, None, :]
    Q = np.zeros((1, N, N))
    P = np.zeros((1, N, N))
    F = np.zeros((1, n, n))
    row = {}
    accepted = set(gs.basis_heights)
    for h in sorted(accepted | set(gs.generator_heights)):
        r = len(row)
        v = consts_of[h] if h < n else y * Q[:, row[h - n], None]
        v, c, p = _project(Q[:, :r], v)
        if h >= n:
            P[:, row[h - n], :r] = p[:, 0]
        if h not in accepted:
            continue
        nrm = np.sqrt(v @ v.swapaxes(1, 2))
        Q[:, r] = (v / nrm)[:, 0]
        if h < n:
            # every member so far is a constant at a lower height
            col = -(F[:, :, list(row)] @ c.swapaxes(1, 2))[:, :, 0]
            col[:, h] += 1.0
            F[:, :, h] = col / nrm[:, 0]
        row[h] = r
    return P[0], F[0]


def ref_gate_cond(sigma, gs):
    """The gate's condition estimate of the run gs on sigma, the input
    and each copy replayed alone in the input's frame: the largest
    change, over the copies, of an entry on or below the diagonal of
    the matrix read off the first-pass coefficients (node_scale times
    the change in the scaled frame), or of the initial values against
    gs.first_block, divided by GATE_STEP."""
    changes = []
    with np.errstate(all="ignore"):
        P0, _ = ref_replay(sigma, gs, -1)
        for k in range(GATE_REPLAYS):
            P, F = ref_replay(sigma, gs, k)
            changes += [gs.node_scale * _ref_change(P, P0),
                        np.max(np.abs(F - gs.first_block))]
    return float(np.max(changes)) / GATE_STEP


def ref_random_band_matrix(rng, n, N, j0=None):
    """random_band_matrix one entry at a time: the profile's draws,
    the main diagonal, then each level from the outermost in, free
    entries over [-1, 1) up to the previous level's index, positive
    ones over [0.35, 1.6) up to this level's, zero tails undrawn."""
    m = bs.sampling.random_profile(rng, n, N, j0)

    def positive():
        return float(rng.uniform(0.35, 1.6))

    def free():
        return float(rng.uniform(-1.0, 1.0))

    diags = [tuple(free() for _ in range(N))]
    levels = {}
    prev = 0
    for j in range(n):
        entries = []
        for k in range(1, N - (n - j) + 1):
            if k <= prev:
                entries.append(free())
            elif k < m[j]:
                entries.append(positive())
            else:
                entries.append(0.0)
        levels[n - j] = tuple(entries)
        prev = m[j]
    for g in range(1, n + 1):
        diags.append(levels[g])
    return bs.BandMatrix(n, N, tuple(diags))


def ref_random_tinit(rng, n):
    """random_tinit one entry at a time, row by row."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        row[i] = float(rng.uniform(0.5, 2.0))
        for j in range(i + 1, n):
            row[j] = float(rng.uniform(-1.0, 1.0))
        rows.append(tuple(row))
    return bs.TriangularInit(n, tuple(rows))


def ref_random_chain(rng, N, zero_kp_from=None):
    """random_chain one value at a time: masses, then k, then kp."""
    masses = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(N))
    k = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(N + 1))
    kp = [float(rng.uniform(0.5, 2.0)) for _ in range(N)]
    if zero_kp_from is not None:
        for i in range(zero_kp_from, N + 1):
            kp[i - 1] = 0.0
    return bs.SpringChain(masses, k, tuple(kp))


def degree(coeffs):
    """Degree of one trimmed coefficient tuple (-inf when empty)."""
    return len(coeffs) - 1 if coeffs else bs.NEG_INF


def is_interpolation_solution(p, sigma, tol):
    """Whether p lies in the zero class of sigma's inner product.

    True iff the jump-wise quadratic form (alpha(x_k) . p(x_k))**2 is
    below tol * scale at every jump, where the scale accounts for the
    node magnitudes and the coefficient mass of p, so the answer is
    invariant under rescaling p.

    ``sigma`` may be any object with attributes ``n`` and ``jumps``,
    each jump carrying a node ``x`` and a coefficient vector ``alpha``
    of length n.
    """
    if p.n != sigma.n:
        raise DimensionMismatch(
            "polynomial has %d components, spectral function expects %d"
            % (p.n, sigma.n)
        )
    maxdeg = max(degree(c) for c in p.comps)
    if maxdeg == bs.NEG_INF:
        return True
    coeff_sq = sum(v * v for c in p.comps for v in c)
    xtop = max(abs(jump.x) for jump in sigma.jumps)
    scale = (1.0 + xtop) ** (2 * maxdeg) * coeff_sq
    for jump in sigma.jumps:
        vals = bs.evaluate(p, jump.x)
        form = sum(a * v for a, v in zip(jump.alpha, vals))
        if form * form > tol * scale:
            return False
    return True
