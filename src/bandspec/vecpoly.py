"""Vector polynomials with n components and their height grading.

A vector polynomial bundles n scalar polynomials into a single column
vector.  The grading used throughout this package is the *height*

    h(r) = max_j (n * deg(R_j) + j - 1),        h(0) = -infinity,

which totally orders the monomial slots (component j, degree d) and is
compatible with multiplication by the variable: multiplying a nonzero
vector polynomial by z raises its height by exactly n.

Coefficients are stored in one read-only float64 array indexed by
height: entry h is the coefficient of z**(h // n) in component
(h mod n) + 1.  The array is kept in canonical trimmed form, its last
entry nonzero, so its length is the height plus one and the zero
polynomial stores no coefficients at all.  Trimming compares against
exact zero only; construction never introduces spurious tiny
coefficients by itself.

A VecPoly is a view of results, not engine arithmetic: ``recurrence``
solves in one height-indexed array and hands its rows out as VecPolys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MixedDimension

#: Height of the zero vector polynomial.  A float so that it compares
#: below every integer height and propagates through sums.
NEG_INF = float("-inf")


def _trim(coeffs):
    """Drop trailing exact zeros, returning an ascending tuple."""
    c = list(coeffs)
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(float(v) for v in c)


@dataclass(frozen=True, eq=False)
class VecPoly:
    """Immutable vector polynomial.

    coef[h] holds the coefficient at height h; see the module
    docstring.  Instances are created through :func:`vec_poly` (or the
    other constructors below), which normalize to canonical trimmed
    form.  Equality and hashing go by value.
    """

    n: int
    coef: np.ndarray

    @property
    def comps(self):
        """Per-component ascending coefficient tuples; a zero component
        is the empty tuple."""
        return tuple(_trim(self.coef[j::self.n]) for j in range(self.n))

    def is_zero(self):
        return len(self.coef) == 0

    def __eq__(self, other):
        if not isinstance(other, VecPoly):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coef, other.coef)

    def __hash__(self):
        return hash((self.n, tuple(self.coef.tolist())))


def _canonical(n, coef):
    """VecPoly owning coef, trimmed to its last nonzero entry."""
    if not (len(coef) and coef[-1] != 0.0):
        nonzero = np.flatnonzero(coef)
        coef = coef[: nonzero[-1] + 1] if len(nonzero) else coef[:0]
    coef.flags.writeable = False
    return VecPoly(n, coef)


def vec_poly(components):
    """Build a VecPoly from n coefficient iterables (ascending degree).

    Parameters
    ----------
    components : iterable of iterables of float
        One coefficient sequence per component.  Trailing exact zeros
        are trimmed; an empty sequence is the zero component.
    """
    comps = [_trim(c) for c in components]
    if not comps:
        raise DimensionMismatch("a vector polynomial needs at least one component")
    n = len(comps)
    coef = np.zeros(n * max(len(c) for c in comps))
    for j, c in enumerate(comps):
        coef[j : j + n * len(c) : n] = c
    return _canonical(n, coef)


def basis_vector(i, n):
    """The i-th member (i >= 1) of the graded monomial sequence.

    Component ((i-1) mod n) + 1 is z**((i-1) // n), every other
    component is zero; its height is exactly i - 1.  Consecutive
    members sweep the components cyclically before the degree steps up,
    so the sequence realizes every height 0, 1, 2, ... exactly once.
    """
    if i < 1 or n < 1:
        raise DimensionMismatch("need i >= 1 and n >= 1, got i=%d n=%d" % (i, n))
    coef = np.zeros(i)
    coef[i - 1] = 1.0
    return _canonical(n, coef)


def height(p):
    """Height of a vector polynomial.

    Returns an int for nonzero input and NEG_INF for the zero
    polynomial.
    """
    return len(p.coef) - 1 if len(p.coef) else NEG_INF


def evaluate(p, x):
    """Evaluate componentwise at a scalar, Horner form.

    Returns a tuple of p.n floats.
    """
    out = []
    for c in p.comps:
        acc = 0.0
        for v in reversed(c):
            acc = acc * x + v
        out.append(acc)
    return tuple(out)


def linear_combine(terms):
    """Exact coefficientwise sum of scaled vector polynomials.

    Parameters
    ----------
    terms : iterable of (float, VecPoly)
        Scale factors and operands; all operands must share the same
        component count.

    Returns
    -------
    VecPoly
        sum_k c_k * p_k in canonical trimmed form, accumulated term by
        term in the order given.

    Raises
    ------
    MixedDimension
        If the operands disagree on the component count.
    """
    terms = list(terms)
    if not terms:
        raise DimensionMismatch("linear_combine needs at least one term")
    n = terms[0][1].n
    for _, p in terms:
        if p.n != n:
            raise MixedDimension(
                "cannot combine vector polynomials with %d and %d components"
                % (n, p.n)
            )
    acc = np.zeros(max(len(p.coef) for _, p in terms))
    for c, p in terms:
        acc[: len(p.coef)] += c * p.coef
    return _canonical(n, acc)


def trim_small(p, rel=1e-12):
    """Zero out coefficients below rel * (largest absolute coefficient).

    The zero polynomial passes through unchanged.  Nothing in the
    library calls it; it stays only because perfbench's span list
    (perfbench/spans.py) traces it by name.
    """
    if p.is_zero():
        return p
    mag = np.abs(p.coef)
    return _canonical(p.n, np.where(mag <= rel * mag.max(), 0.0, p.coef))
