"""Reference answers and the verdict on every operation.

Every attempted operation ends in exactly one outcome kind:

verified
    an answer came back and matches the reference;
wrong
    an answer came back without error but fails the check (the silent
    wrong answer the library must never give);
refused
    a typed numerical refusal (``NumericalDecisionError``, CLI exit 3),
    which is an allowed outcome for an admissible input;
misclassified
    an admissible input refused as a class violation
    (``ValidationError``, exit 2), as malformed (``InputError``, exit 1)
    or by an untyped crash.

The references are computed here with numpy alone from the generated
data, so the library is never its own oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TOL = 1e-8      # max abs deviation of matrices, triangles, nodes, jump sums
CF_TOL = 1e-9   # continued-fraction residual bound on spring chains

VERIFIED, WRONG, REFUSED, MISCLASSIFIED = "verified", "wrong", "refused", "misclassified"


class Outcome(NamedTuple):
    kind: str
    cls: str = ""          # exception class name, if any
    family: str = "0"      # exit-code family: 0, 1, 2, 3 or "crash"
    dev: float = math.nan   # max deviation of the matrix, or of the nodes
    tdev: float = math.nan  # of the initial-value triangle, the jump sum,
    #                         or the largest continued-fraction residual


def dense(n, N, diags):
    """Dense symmetric matrix from per-diagonal lists (main first)."""
    M = np.zeros((N, N))
    for j, d in enumerate(diags[: n + 1]):
        d = np.asarray(d, dtype=float)
        idx = np.arange(N - j)
        M[idx + j, idx] = d
        M[idx, idx + j] = d
    return M


def chain_matrix(masses, k, kp):
    """Mass-weighted stiffness matrix of a spring chain, built from the
    springs themselves: k_i joins bodies i-1 and i, kp_i joins bodies
    i-1 and i+1, and bodies 0 and N+1 are the walls."""
    N = len(masses)
    K = np.zeros((N, N))
    springs = [(i - 1, i, c) for i, c in enumerate(k, start=1)]
    springs += [(i - 1, i + 1, c) for i, c in enumerate(kp, start=1)]
    for a, b, c in springs:
        inside = [v - 1 for v in (a, b) if 1 <= v <= N]
        for v in inside:
            K[v, v] += c
        if len(inside) == 2:
            K[inside[0], inside[1]] -= c
            K[inside[1], inside[0]] -= c
    s = 1.0 / np.sqrt(np.asarray(masses))
    return -K * np.outer(s, s)


def jump_sum_reference(T):
    """(T^t)^{-1} T^{-1} for an upper triangular T (identity for T = I)."""
    Tinv = np.linalg.inv(np.asarray(T, dtype=float))
    return Tinv.T @ Tinv


def band_deviation(n, want, got):
    """Max abs entry difference of two band matrices with n + 1 diagonals."""
    if len(got) != n + 1:
        return math.inf
    dev = 0.0
    for a, b in zip(want, got):
        if len(a) != len(b):
            return math.inf
        if len(a):
            dev = max(dev, float(np.max(np.abs(np.subtract(a, b)))))
    return dev


def judge_inverse(want_diags, want_T, want_m, n, got_diags, got_T, got_m):
    """Matrix and triangle within TOL, profile equal."""
    dev = band_deviation(n, want_diags, got_diags)
    got_T = np.asarray(got_T, dtype=float)
    if got_T.shape != want_T.shape:
        return Outcome(WRONG, dev=dev, tdev=math.inf)
    tdev = float(np.max(np.abs(got_T - want_T)))
    ok = dev <= TOL and tdev <= TOL and tuple(got_m) == tuple(want_m)
    return Outcome(VERIFIED if ok else WRONG, dev=dev, tdev=tdev)


def judge_direct(ref_eigs, ref_S, xs, alphas):
    """N sorted jumps whose nodes match the eigenvalues and whose jump
    matrices sum to the reference."""
    xs = np.asarray(xs, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if xs.shape != ref_eigs.shape or alphas.shape != (len(ref_eigs), len(ref_S)):
        return Outcome(WRONG, dev=math.inf)
    if np.any(np.diff(xs) < 0.0):
        return Outcome(WRONG, dev=math.inf)
    dev = float(np.max(np.abs(xs - ref_eigs)))
    sdev = float(np.max(np.abs(alphas.T @ alphas - ref_S)))
    ok = dev <= TOL and sdev <= TOL
    return Outcome(VERIFIED if ok else WRONG, dev=dev, tdev=sdev)


def judge_chain(ref_eigs, n_interior, freqs, residuals):
    """Frequencies against sqrt|eigenvalue| and one continued-fraction
    residual per interior index, each within its bound."""
    want = np.sort(np.sqrt(np.abs(ref_eigs)))
    got = np.asarray(freqs, dtype=float)
    fdev = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    rmax = max(residuals, default=0.0)
    ok = len(residuals) == n_interior and fdev <= TOL and rmax <= CF_TOL
    return Outcome(VERIFIED if ok else WRONG, dev=fdev, tdev=rmax)


def exception_outcome(exc, errors):
    """Outcome of an operation that raised, by exception family."""
    name = type(exc).__name__
    if isinstance(exc, errors.NumericalDecisionError):
        return Outcome(REFUSED, name, "3")
    if isinstance(exc, errors.ValidationError):
        return Outcome(MISCLASSIFIED, name, "2")
    if isinstance(exc, errors.InputError):
        return Outcome(MISCLASSIFIED, name, "1")
    return Outcome(MISCLASSIFIED, name, "crash")


def exit_outcome(code, stderr):
    """Outcome of a CLI call that exited nonzero.  The error class is the
    name the CLI prints as 'error: <Class>: ...'."""
    cls = ""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            cls = line[len("error: "):].split(":", 1)[0]
    if code == 3:
        return Outcome(REFUSED, cls, "3")
    if code in (1, 2):
        return Outcome(MISCLASSIFIED, cls, str(code))
    return Outcome(MISCLASSIFIED, cls or "exit%d" % code, "crash")
