"""Refusals that the other tests do not reach: argument checks of the
library's entry points, and two guards of reconstruct that no input
reaches, forced here by patching the module.  Each test pins the error
class and its message."""

import importlib
import re

import numpy as np
import pytest

import bandspec as bs
from bandspec import bandmat, recurrence, sampling, spectral, springchain, vecpoly
from bandspec.errors import (
    DimensionMismatch,
    IterationCapExceeded,
    NoConvergence,
    ProfileMismatch,
)

# the module, not the function the package binds to the same name
RECONSTRUCT = importlib.import_module("bandspec.reconstruct")


def small_matrix():
    return sampling.random_band_matrix(np.random.default_rng(5), 2, 8)


def test_full_basis_guard(monkeypatch):
    # with a zero threshold every candidate joins the basis, so the one
    # after the N-th meets a full basis with a rounding-sized residual
    sig = bs.canonical_spectral_function(small_matrix())
    monkeypatch.setattr(RECONSTRUCT, "DEFLATION_TOL", 0.0)
    with pytest.raises(IterationCapExceeded) as info:
        bs.reconstruct(sig)
    assert re.fullmatch(r"candidate at height 8 has norm \S+ after projection on a "
                        r"full basis", str(info.value)), str(info.value)


def test_reconstructed_band_that_fails_validation(monkeypatch):
    sig = bs.canonical_spectral_function(small_matrix())
    original = RECONSTRUCT.matrix_from_basis

    def negative_run_entry(sigma, gs):
        A = original(sigma, gs)
        outer = A.diags[A.n]
        return bs.BandMatrix(A.n, A.N, A.diags[:A.n] + ((outer[0], -outer[1]) + outer[2:],))

    monkeypatch.setattr(RECONSTRUCT, "matrix_from_basis", negative_run_entry)
    with pytest.raises(ProfileMismatch, match=r"^reconstructed matrix fails band "
                       r"validation: d\^\(2\)_2 = -\S+ must be positive or zero$"):
        bs.reconstruct(sig)


def test_eig_symmetric_needs_a_square_matrix():
    with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got \(2, 3\)$"):
        spectral.eig_symmetric(np.zeros((2, 3)))


def test_transform_needs_initial_values_of_the_same_size():
    sig = bs.canonical_spectral_function(small_matrix())
    with pytest.raises(DimensionMismatch, match="^initial values have size 3, spectral "
                                                "function has 2$"):
        bs.transform_spectral_function(sig, bs.TriangularInit.identity(3))


def test_inner_needs_polynomials_with_n_components():
    sig = bs.canonical_spectral_function(small_matrix())
    p, q = vecpoly.basis_vector(1, 2), vecpoly.basis_vector(1, 3)
    with pytest.raises(DimensionMismatch, match="^polynomials with 2 and 3 components "
                                                "against a spectral function with 2$"):
        spectral.inner(sig, p, q)


def test_recurrence_needs_initial_values_of_the_same_size():
    with pytest.raises(DimensionMismatch, match="^initial values are 3 x 3 but the matrix "
                                                "has half-bandwidth 2$"):
        recurrence.solve_recurrence(small_matrix(), bs.TriangularInit.identity(3))


def test_degeneration_indices_must_increase():
    with pytest.raises(DimensionMismatch, match="^degeneration indices must increase$"):
        bandmat.DegenerationProfile((3, 3), 0)


@pytest.mark.parametrize("masses, k, kp, message", [
    ((), (0.0,), (), "a chain needs at least one body"),
    ((1.0, 1.0), (1.0, 1.0, 1.0), (0.0,), "expected 2 next-nearest springs, got 1"),
], ids=["no body", "next-nearest count"])
def test_chain_shape_checks(masses, k, kp, message):
    with pytest.raises(DimensionMismatch, match="^%s$" % message):
        springchain.SpringChain(masses, k, kp)


def test_frequencies_reports_eigensolver_failure(monkeypatch):
    chain = sampling.random_chain(np.random.default_rng(2), 6)
    A = springchain.build_spring_matrix(chain)

    def fails(M):
        raise np.linalg.LinAlgError("no luck")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    with pytest.raises(NoConvergence, match="^eigensolver did not converge: no luck$"):
        springchain.frequencies(A)


@pytest.mark.parametrize("call, message", [
    (lambda: vecpoly.vec_poly([]), "a vector polynomial needs at least one component"),
    (lambda: vecpoly.basis_vector(0, 2), r"need i >= 1 and n >= 1, got i=0 n=2"),
    (lambda: vecpoly.linear_combine([]), "linear_combine needs at least one term"),
], ids=["vec_poly", "basis_vector", "linear_combine"])
def test_vector_polynomial_arguments(call, message):
    with pytest.raises(DimensionMismatch, match="^%s$" % message):
        call()


@pytest.mark.parametrize("n, N, j0, message", [
    (2, 8, 2, r"j0 must lie in 0\.\.n-1, got 2"),
    (3, 4, 1, r"genuine cuts need N >= n \+ 2"),
], ids=["j0 range", "room for cuts"])
def test_random_profile_arguments(n, N, j0, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        sampling.random_profile(np.random.default_rng(0), n, N, j0=j0)
