"""Acceptance gate: one test per published criterion.

Each test prints a single PASS/FAIL line with the measured quantities
next to the bound it is held to, so a plain

    pytest tests/test_acceptance.py -v -s

doubles as the acceptance report.  The instance pool behind criteria
1 through 4 is built once: three half-bandwidths, every admissible
dimension up to 12, seven draws each, degeneration counts cycling
through everything feasible including zero.
"""

import json
import math
import time

import numpy as np
import pytest

import bandspec as bs
from bandspec import fileio
from bandspec.cli import main
from helpers import stieltjes_jacobi

MATRIX_TOL = 1e-8
ORTHO_TOL = 1e-9
ZERO_NORM_TOL = 1e-12
OUT_OF_BAND_TOL = 1e-9
TRANSFORM_TOL = 1e-10
SUM_TOL = 1e-9
ORACLE_TOL = 1e-8
FREQ_TOL = 1e-12
CF_REL_TOL = 1e-10
TIME_LIMIT = 30.0


def report(idx, name, ok, detail):
    line = "ACCEPTANCE %d %s: %s -- %s" % (
        idx, name, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


@pytest.fixture(scope="module")
def pool():
    """>= 200 reconstructed instances plus the wall time spent."""
    rng = np.random.default_rng(20260819)
    records = []
    start = time.perf_counter()
    for n in (1, 2, 3):
        for N in range(n + 1, 13):
            for rep in range(7):
                j0 = rep % n if N >= n + 2 else 0
                A = bs.sampling.random_band_matrix(rng, n, N, j0=j0)
                sig = bs.canonical_spectral_function(A)
                res = bs.reconstruct(sig, tol_zero=1e-10)
                records.append((A, sig, res))
    elapsed = time.perf_counter() - start
    assert len(records) >= 200
    j0s = {bs.validate_band(A).j0 for A, _, _ in records}
    assert 0 in j0s and max(j0s) >= 1
    return records, elapsed


def test_criterion_1_round_trip_identity(pool):
    records, elapsed = pool
    dev = 0.0
    tdev = 0.0
    for A, _, res in records:
        dev = max(dev, float(np.max(np.abs(
            bs.to_dense(res.matrix) - bs.to_dense(A)))))
        tdev = max(tdev, float(np.max(np.abs(
            res.tinit.dense() - np.eye(A.n)))))
    ok = dev <= MATRIX_TOL and tdev <= MATRIX_TOL and elapsed < TIME_LIMIT
    detail = ("%d instances in %.2f s (limit %.0f s); max matrix dev "
              "%.3e, max initial-value dev %.3e (bound %.0e)" % (
                  len(records), elapsed, TIME_LIMIT, dev, tdev, MATRIX_TOL))
    report(1, "round-trip identity", ok, detail)
    assert ok, detail


def test_criterion_2_orthonormality_and_zero_class(pool):
    records, _ = pool
    orth = 0.0
    cross = 0.0
    qnorm = 0.0
    for A, sig, _ in records:
        table = bs.solve_recurrence(
            A, bs.TriangularInit.identity(A.n), bs.validate_band(A))
        for j, pj in enumerate(table.basis):
            for k in range(j, len(table.basis)):
                g = bs.inner(sig, pj, table.basis[k])
                orth = max(orth, abs(g - (1.0 if j == k else 0.0)))
        for q in table.generators:
            qnorm = max(qnorm, abs(bs.inner(sig, q, q)))
            for pk in table.basis:
                cross = max(cross, abs(bs.inner(sig, q, pk)))
    ok = orth <= ORTHO_TOL and cross <= ORTHO_TOL and qnorm <= ZERO_NORM_TOL
    detail = ("max |<p_j,p_k> - delta| %.3e, max |<q_j,p_k>| %.3e "
              "(bound %.0e); max ||q_j||^2 %.3e (bound %.0e)" % (
                  orth, cross, ORTHO_TOL, qnorm, ZERO_NORM_TOL))
    report(2, "orthonormality and zero class", ok, detail)
    assert ok, detail


def test_criterion_3_height_laws(pool):
    records, _ = pool
    checked = 0
    for A, _, res in records:
        n, N = A.n, A.N
        gs = res.diagnostics
        qh = gs.generator_heights
        assert len({h % n for h in qh}) == n, (n, N, qh)
        assert sum(qh) == N * n + n * (n - 1) // 2, (n, N, qh)
        top = max(gs.basis_heights) + n
        cover = list(gs.basis_heights)
        for h in qh:
            cover.extend(range(h, top + 1, n))
        cover.sort()
        assert cover == list(range(top + 1)), (n, N, cover)
        checked += 1
    detail = ("generator height residues distinct mod n, height sum "
              "== N*n + n*(n-1)/2, combined heights tile 0..max with no "
              "repeats, all exact on %d instances" % checked)
    report(3, "height laws", True, detail)


def test_criterion_4_band_and_profile_emergence(pool):
    records, _ = pool
    leak = 0.0
    for A, sig, res in records:
        n, N = A.n, A.N
        gs = res.diagnostics
        nodes = np.array([
            (j.x - gs.node_center) / gs.node_scale for j in sig.jumps])
        V = gs.values
        C = V @ (nodes[None, :] * V).T
        frame = max(1.0, gs.node_scale)
        for l in range(N):
            for k in range(N):
                if abs(l - k) > n:
                    leak = max(leak, frame * abs(float(C[l, k])))
        assert res.profile == bs.validate_band(A), (n, N)
    ok = leak <= OUT_OF_BAND_TOL
    detail = ("max |<z p_k, p_l>| at |l-k| > n is %.3e (bound %.0e); "
              "degeneration profile reproduced exactly on %d instances" % (
                  leak, OUT_OF_BAND_TOL, len(records)))
    report(4, "band and degeneration emergence", ok, detail)
    assert ok, detail


def test_criterion_5_rank_matches_multiplicity():
    crafted = bs.BandMatrix(
        2, 4, ((0.3, 0.3, -0.5, -0.5), (0.0, 0.0, 0.0), (0.9, 0.9)))
    checked = 0
    worst_gap = None
    for A in _rank_instances(crafted):
        table = bs.solve_recurrence(
            A, bs.TriangularInit.identity(A.n), bs.validate_band(A))
        values = np.linalg.eigvalsh(bs.to_dense(A))
        clusters = _cluster(values, 1e-8)
        for center, size in clusters:
            defect = bs.rank_defect(table, center)
            assert defect == size, (A.n, A.N, center, defect, size)
            checked += 1
        for z in _between(clusters):
            assert bs.rank_defect(table, z) == 0, (A.n, A.N, z)
        gaps = [b[0] - a[0] for a, b in zip(clusters, clusters[1:])]
        if gaps:
            g = min(gaps)
            worst_gap = g if worst_gap is None else min(worst_gap, g)
    detail = ("rank defect equals eigenspace dimension at %d eigenvalues "
              "(multiplicity 2 crafted + simple random, min cluster gap "
              "%.2e), defect 0 between eigenvalues" % (checked, worst_gap))
    report(5, "rank defect vs multiplicity", True, detail)


def _rank_instances(crafted):
    yield crafted
    rng = np.random.default_rng(7)
    made = 0
    while made < 12:
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 1, 9))
        A = bs.sampling.random_band_matrix(rng, n, N)
        values = np.linalg.eigvalsh(bs.to_dense(A))
        if np.min(np.diff(values)) < 1e-5:
            continue
        made += 1
        yield A


def _cluster(values, tol):
    groups = [[values[0]]]
    for v in values[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(float(np.mean(g)), len(g)) for g in groups]


def _between(clusters):
    out = []
    for (a, _), (b, _) in zip(clusters, clusters[1:]):
        out.append(0.5 * (a + b))
    out.append(clusters[0][0] - 1.0)
    out.append(clusters[-1][0] + 1.0)
    return out


def test_criterion_6_initial_value_transform():
    rng = np.random.default_rng(11)
    jump_dev = 0.0
    sum_dev = 0.0
    cases = 0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 1, 13))
        A = bs.sampling.random_band_matrix(rng, n, N)
        T = bs.sampling.random_tinit(rng, n)
        sig_i = bs.canonical_spectral_function(A)
        sig_t = bs.transform_spectral_function(sig_i, T)
        Td = T.dense()
        for ji, jt in zip(sig_i.jumps, sig_t.jumps):
            assert ji.x == jt.x
            ai = np.array(ji.alpha)
            at = np.array(jt.alpha)
            back = Td.T @ np.outer(at, at) @ Td
            jump_dev = max(jump_dev, float(np.max(np.abs(
                back - np.outer(ai, ai)))))
        sum_dev = max(sum_dev, float(np.max(np.abs(
            bs.jump_sum(sig_i) - np.eye(n)))))
        cases += 1
    ok = jump_dev <= TRANSFORM_TOL and sum_dev <= SUM_TOL
    detail = ("max jumpwise |T^t sigma^T T - sigma^I| %.3e (bound %.0e), "
              "max |sum sigma^I - identity| %.3e (bound %.0e), "
              "%d random triangular cases" % (
                  jump_dev, TRANSFORM_TOL, sum_dev, SUM_TOL, cases))
    report(6, "initial-value transform", ok, detail)
    assert ok, detail


def test_criterion_7_scalar_recurrence_oracle():
    rng = np.random.default_rng(13)
    dev = 0.0
    for _ in range(50):
        N = int(rng.integers(2, 13))
        A = bs.sampling.random_jacobi(rng, N)
        sig = bs.canonical_spectral_function(A)
        nodes = np.array([j.x for j in sig.jumps])
        weights = np.array([j.alpha[0] ** 2 for j in sig.jumps])
        diag, off, t11 = stieltjes_jacobi(nodes, weights)
        res = bs.reconstruct(sig, tol_zero=1e-10)
        dev = max(dev, float(np.max(np.abs(
            np.array(res.matrix.diags[0]) - diag))))
        if N > 1:
            dev = max(dev, float(np.max(np.abs(
                np.array(res.matrix.diags[1]) - off))))
        dev = max(dev, abs(res.tinit.dense()[0, 0] - t11))
    ok = dev <= ORACLE_TOL
    detail = ("max deviation between pipeline and scalar three-term "
              "recurrence %.3e over 50 Jacobi matrices (bound %.0e)" % (
                  dev, ORACLE_TOL))
    report(7, "scalar recurrence oracle", ok, detail)
    assert ok, detail


def test_criterion_8_spring_chains():
    two = bs.SpringChain((1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0))
    freqs = bs.frequencies(bs.build_spring_matrix(two))
    fdev = max(abs(freqs[0] - 1.0), abs(freqs[1] - math.sqrt(3.0)))

    uniform = bs.SpringChain((1.0,) * 3, (1.0,) * 4, (1.0,) * 3)
    M = bs.build_spring_matrix(uniform)
    exact = M.diags == ((-3.0, -4.0, -3.0), (1.0, 1.0), (1.0,))

    rng = np.random.default_rng(17)
    rel = 0.0
    count = 0
    for _ in range(50):
        N = int(rng.integers(4, 11))
        chain = bs.sampling.random_chain(rng, N)
        for j in range(2, N - 1):
            lhs = (chain.k[j] + chain.kp[j - 1]) / chain.masses[j]
            rel = max(rel, bs.continued_fraction_check(chain, j)
                     / (1.0 + abs(lhs)))
            count += 1
    ok = fdev <= FREQ_TOL and exact and rel <= CF_REL_TOL
    detail = ("two-mass frequency dev %.3e (bound %.0e); uniform N=3 "
              "matrix exact: %s; max relative stiffness-identity residual "
              "%.3e over %d interior checks (bound %.0e)" % (
                  fdev, FREQ_TOL, exact, rel, count, CF_REL_TOL))
    report(8, "spring chains", ok, detail)
    assert ok, detail


def test_criterion_9_cli_contract(tmp_path):
    A37 = bs.BandMatrix(
        3, 7,
        ((0.4, -1.1, 0.0, 2.0, -0.3, 0.9, 1.5),
         (0.1, -0.4, 0.0, 0.2, -0.9, 0.7),
         (-0.2, 0.5, 0.0, 0.8, 0.0),
         (1.0, 1.3, 0.0, 0.0)))
    good = tmp_path / "m37.json"
    good.write_text(fileio.dump_matrix(A37), encoding="utf-8")

    bad = bs.BandMatrix(2, 5, ((0.0,) * 5, (0.5,) * 4, (0.0, 1.0, 1.0)))
    badfile = tmp_path / "bad.json"
    badfile.write_text(fileio.dump_matrix(bad), encoding="utf-8")

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")

    r = 1.0 / math.sqrt(2.0)
    fuzzy = bs.SpectralFunction(
        1, [(-1.0, (r,)), (0.0, (1e-8,)), (1.0, (r,))])
    fuzzyfile = tmp_path / "fuzzy.json"
    fuzzyfile.write_text(fileio.dump_sigma(fuzzy), encoding="utf-8")

    import io
    from contextlib import redirect_stdout, redirect_stderr

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    code, out, _ = run(["validate", str(good)])
    table_ok = (code == 0 and out == "m = [3, 5, 7], j0 = 2\n")
    code, _, err = run(["validate", str(badfile)])
    table_ok = table_ok and code == 2 and "LeadingZero" in err
    code, _, _ = run(["validate", str(broken)])
    table_ok = table_ok and code == 1
    code, _, err = run(["inverse", str(fuzzyfile)])
    table_ok = table_ok and code == 3 and "AmbiguousNorm" in err

    rng = np.random.default_rng(19)
    A = bs.sampling.random_band_matrix(rng, 3, 9, j0=1)
    sig = bs.canonical_spectral_function(A)
    chain = bs.sampling.random_chain(rng, 6)
    T = bs.sampling.random_tinit(rng, 3)
    bit_ok = True
    for text, load, dump in (
        (fileio.dump_matrix(A), fileio.load_matrix, fileio.dump_matrix),
        (fileio.dump_sigma(sig), fileio.load_sigma, fileio.dump_sigma),
        (fileio.dump_chain(chain), fileio.load_chain, fileio.dump_chain),
        (fileio.dump_tinit(T), fileio.load_tinit, fileio.dump_tinit),
    ):
        bit_ok = bit_ok and dump(load(text)) == text

    ok = table_ok and bit_ok
    detail = ("M(3,7) accepted with profile (3,5,7), LeadingZero exit 2, "
              "malformed input exit 1, undecidable residual exit 3: %s; "
              "write-read identity bit-exact on matrix/sigma/chain/tinit: "
              "%s" % (table_ok, bit_ok))
    report(9, "command-line contract", ok, detail)
    assert ok, detail
