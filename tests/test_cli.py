"""Command-line interface: formats, exit codes, and output contracts."""

import dataclasses
import gc
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandspec as bs
from bandspec import cli, fileio
from bandspec.cli import main

import helpers


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def seven_by_seven():
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


def flip_file(tmp_path):
    A = bs.BandMatrix(1, 2, ((0.0, 0.0), (1.0,)))
    return write(tmp_path, "flip.json", fileio.dump_matrix(A))


def test_validate_reports_profile(tmp_path, capsys):
    path = write(tmp_path, "m37.json", fileio.dump_matrix(seven_by_seven()))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "m = [3, 5, 7], j0 = 2\n"


def test_validate_rejects_leading_zero(tmp_path, capsys):
    A = bs.BandMatrix(2, 5, ((0.0,) * 5, (0.5,) * 4, (0.0, 1.0, 1.0)))
    path = write(tmp_path, "bad.json", fileio.dump_matrix(A))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "LeadingZero" in err
    assert "1 < m_1 < N-n+1" in err


def test_validate_rejects_malformed_document(tmp_path, capsys):
    path = write(tmp_path, "broken.json", '{"n": 1, "N": 2, "diags": [[0, 0],')
    assert main(["validate", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_nan_payload(tmp_path, capsys):
    path = write(
        tmp_path, "nan.json",
        '{"n": 1, "N": 2, "diags": [[0.0, 0.0], [NaN]]}'
    )
    assert main(["validate", path]) == 1


def test_validate_warns_on_empty_run(tmp_path, capsys):
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
    path = write(tmp_path, "empty.json", fileio.dump_matrix(A))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "m = [2, 3, 8], j0 = 2" in out
    assert "warning: empty positive run" in out


def test_validate_enforces_caps(tmp_path, capsys):
    n, N = 9, 10
    diags = [[0.0] * N] + [[1.0] * (N - j) for j in range(1, n + 1)]
    doc = json.dumps({"n": n, "N": N, "diags": diags})
    path = write(tmp_path, "wide.json", doc)
    assert main(["validate", path]) == 2
    assert "cap" in capsys.readouterr().err

    A = bs.sampling.random_jacobi(np.random.default_rng(1), 65)
    path = write(tmp_path, "long.json", fileio.dump_matrix(A))
    assert main(["validate", path]) == 2


def test_direct_hand_example(tmp_path, capsys):
    assert main(["direct", flip_file(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1 and doc["N"] == 2
    xs = [j["x"] for j in doc["jumps"]]
    assert xs == [-1.0, 1.0]
    for j in doc["jumps"]:
        a = j["alpha"][0]
        assert a == 0.7071067811865475  # one ulp below the ideal 1/sqrt(2)
        assert abs(a - 1.0 / math.sqrt(2.0)) < 1.2e-16


def test_direct_identity_tinit_is_noop(tmp_path, capsys):
    mfile = flip_file(tmp_path)
    assert main(["direct", mfile]) == 0
    plain = capsys.readouterr().out
    tfile = write(tmp_path, "t.json", fileio.dump_tinit(bs.TriangularInit.identity(1)))
    assert main(["direct", mfile, "--tinit", tfile]) == 0
    assert capsys.readouterr().out == plain


def test_direct_refuses_overflowing_transformed_weight(tmp_path, capsys):
    for seed, N, rows, err in [
            # T is admissible, but (T^t)^-1 alpha = alpha / 1e-320 overflows
            (2, 6, [[1e-320, 0.0], [0.0, 1.0]], "error: WeightOverflow: jump 1 at x="),
            # T is admissible, but T^t is singular in float64: the solve fails
            (0, 8, [[1e-300, 1e300], [0.0, 1e-300]],
             "error: WeightOverflow: initial values are singular in float64")]:
        A = bs.sampling.random_band_matrix(np.random.default_rng(seed), 2, N)
        mfile = write(tmp_path, "m.json", fileio.dump_matrix(A))
        tfile = write(tmp_path, "t.json", json.dumps({"n": 2, "rows": rows}))
        assert main(["direct", mfile, "--tinit", tfile]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)
        assert "Traceback" not in captured.err


def test_direct_refuses_negative_tinit_diagonal(tmp_path, capsys):
    # with T = [[-1, 0.3], [0, 1]] the inverse would answer with T's
    # first row negated and A's first off-diagonal sign flipped: a valid
    # pair for the same sigma, but not the user's
    A = bs.sampling.random_band_matrix(np.random.default_rng(4), 2, 8)
    mfile = write(tmp_path, "m.json", fileio.dump_matrix(A))
    tfile = write(tmp_path, "t.json", '{"n": 2, "rows": [[-1.0, 0.3], [0.0, 1.0]]}')
    assert main(["direct", mfile, "--tinit", tfile]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NotTriangular: diagonal entry 1 = -1.0 is not positive" in captured.err


@pytest.mark.parametrize("alpha", [(1e-170, 0.0), (1e-170, 1e-170), (1e154, 1e154),
                                   (1e160, 0.0)])
def test_inverse_refuses_extreme_admissible_jump_numerically(tmp_path, capsys, alpha):
    # each sigma is admissible (a lone jump has rank one however large or
    # small), so its refusal is a numerical limit, not a class violation
    sig = bs.SpectralFunction(2, [(0.0, alpha), (1.0, (0.6, 0.8)), (2.0, (0.8, -0.6))])
    bs.validate_sigma(sig)
    path = write(tmp_path, "extreme.json", fileio.dump_sigma(sig))
    assert main(["inverse", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not an admissible" not in err
    if alpha == (1e160, 0.0):  # |alpha|^2 overflows: no tau to be near
        assert "within a factor 10" not in err and "overflows float64" in err


def test_direct_summary_prints_identity_sum(tmp_path, capsys):
    rng = np.random.default_rng(2)
    A = bs.sampling.random_band_matrix(rng, 2, 6)
    mfile = write(tmp_path, "m.json", fileio.dump_matrix(A))
    sfile = str(tmp_path / "sigma.json")
    assert main(["direct", mfile, "-o", sfile, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "jump sum (n x n):" in out
    rows = [line for line in out.splitlines() if line.startswith("  [")]
    S = [json.loads(r) for r in rows]
    assert np.max(np.abs(np.array(S) - np.eye(2))) < 1e-9


def test_inverse_roundtrip_via_files(tmp_path, capsys):
    rng = np.random.default_rng(3)
    A = bs.sampling.random_band_matrix(rng, 2, 7, j0=1)
    mfile = write(tmp_path, "m.json", fileio.dump_matrix(A))
    sfile = str(tmp_path / "sigma.json")
    bfile = str(tmp_path / "back.json")
    tfile = str(tmp_path / "tinit.json")
    assert main(["direct", mfile, "-o", sfile]) == 0
    capsys.readouterr()
    assert main(["inverse", sfile, "-o", bfile, "--tinit-out", tfile]) == 0
    out = capsys.readouterr().out
    assert "profile: m = [" in out
    for line in out.splitlines():
        if line.startswith("height sum:"):
            got, expected = line.split(":")[1].split("(expected")
            assert int(got.strip()) == int(expected.strip(" )"))
    back = fileio.read_file(bfile, "matrix")
    assert np.max(np.abs(bs.to_dense(back) - bs.to_dense(A))) < 1e-8
    T = fileio.read_file(tfile, "tinit")
    assert np.max(np.abs(T.dense() - np.eye(2))) < 1e-8


def test_inverse_tinit_out_dash_writes_stdout(tmp_path, capsys, monkeypatch):
    # '-' means stdout for every output flag; no file named '-' appears
    A = bs.sampling.random_band_matrix(np.random.default_rng(3), 2, 7, j0=1)
    sig = bs.canonical_spectral_function(A)
    path = write(tmp_path, "sigma.json", fileio.dump_sigma(sig))
    monkeypatch.chdir(tmp_path)
    assert main(["inverse", path, "-o", "-", "--tinit-out", "-"]) == 0
    out = capsys.readouterr().out
    rec = bs.reconstruct(sig)
    matrix, tinit = fileio.dump_matrix(rec.matrix), fileio.dump_tinit(rec.tinit)
    assert out.startswith(matrix + tinit)
    assert "wrote" not in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sigma.json"]


def test_inverse_prints_condition_estimate(tmp_path, capsys):
    A = bs.sampling.random_band_matrix(np.random.default_rng(3), 2, 7, j0=1)
    sig = bs.canonical_spectral_function(A)
    path = write(tmp_path, "sigma.json", fileio.dump_sigma(sig))
    assert main(["inverse", path, "-o", str(tmp_path / "back.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    want = bs.reconstruct(sig).diagnostics.cond
    assert lines[-2].startswith("heights consumed:")
    assert lines[-1] == (
        "condition estimate: %.3g (cond * eps = %.3g, bound 1e-08)"
        % (want, want * np.finfo(float).eps))
    assert want * np.finfo(float).eps <= 1e-8


def test_inverse_rejects_dead_component(tmp_path, capsys):
    sig = bs.SpectralFunction(
        2, [(-1.0, (0.6, 0.0)), (0.5, (0.7, 0.0)), (2.0, (0.2, 0.0))]
    )
    path = write(tmp_path, "dead.json", fileio.dump_sigma(sig))
    assert main(["inverse", path]) == 2
    assert "DeadComponent" in capsys.readouterr().err


def test_inverse_refuses_overflowing_jump_sum(tmp_path):
    path = write(tmp_path, "overflow.json", fileio.dump_sigma(helpers.overflowing_sigma()))
    proc = subprocess.run([sys.executable, "-m", "bandspec", "inverse", path],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: RankSumMismatch")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_inverse_refuses_nodes_near_the_float_limit_as_numerical(tmp_path):
    # direct returns nodes near +-1.73e308; the node frame must not
    # overflow into a class refusal
    A = bs.BandMatrix(1, 3, ((1e308, -1e308, 1e308), (1e308, 1e308)))
    matrix = write(tmp_path, "big.json", fileio.dump_matrix(A))
    sigma = str(tmp_path / "sigma.json")
    assert main(["direct", matrix, "-o", sigma]) == 0
    proc = subprocess.run([sys.executable, "-m", "bandspec", "inverse", sigma],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: IllConditioned")
    assert "RuntimeWarning" not in proc.stderr and "not an admissible" not in proc.stderr


@pytest.mark.parametrize("command", ["direct", "roundtrip"])
def test_overflowed_eigenvalue_exits_three(tmp_path, command):
    # validate accepts the matrix; its eigenvalue 2e308 overflows
    matrix = write(tmp_path, "big.json",
                   '{"n": 1, "N": 2, "diags": [[1e308, 1e308], [1e308]]}')
    assert main(["validate", matrix]) == 0
    proc = subprocess.run([sys.executable, "-m", "bandspec", command, matrix],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: NonFiniteEntry: eigenvalue 2 of 2 is inf")
    assert "Traceback" not in proc.stderr


def test_spring_refuses_overflowed_frequency(tmp_path, capsys):
    # finite entries, but the eigenvalue of the third frequency, about
    # -2.7e308, overflows
    chain = write(tmp_path, "chain.json", '{"masses": [1.0, 1.0, 1.0], '
                  '"k": [8e307, 8e307, 8e307, 8e307], "kp": [0.0, 0.0, 0.0]}')
    assert main(["spring", chain]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: NonFiniteEntry: eigenvalue 1 of 3")
    assert "inf" not in captured.out


def test_inverse_reports_undecidable_residual(tmp_path, capsys):
    r = 1.0 / math.sqrt(2.0)
    sig = bs.SpectralFunction(1, [(-1.0, (r,)), (0.0, (1e-8,)), (1.0, (r,))])
    path = write(tmp_path, "ambiguous.json", fileio.dump_sigma(sig))
    assert main(["inverse", path]) == 3
    assert "AmbiguousNorm" in capsys.readouterr().err


def test_inverse_refuses_ill_conditioned_sigma(tmp_path, capsys):
    # seed (32, 16, 1) of scripts/completion_table.py, n = 3: the data do
    # not determine the matrix to the accuracy bound
    rng = np.random.default_rng((32, 16, 1))
    A = bs.sampling.random_band_matrix(rng, int(rng.integers(1, 9)), 32)
    sig = bs.canonical_spectral_function(A)
    path = write(tmp_path, "ill.json", fileio.dump_sigma(sig))
    out = str(tmp_path / "back.json")
    assert main(["inverse", path, "-o", out]) == 3
    assert "IllConditioned" in capsys.readouterr().err
    assert not (tmp_path / "back.json").exists()


def test_inverse_refusal_names_rows_and_margin(tmp_path, capsys):
    # the gate's message reaches stderr whole, with exit 3: this draw
    # crosses the bound on the rows final after 40 of 64
    A = bs.sampling.random_band_matrix(np.random.default_rng((2, 3, 64)), 3, 64)
    sig = bs.canonical_spectral_function(A)
    path = write(tmp_path, "ill.json", fileio.dump_sigma(sig))
    assert main(["inverse", path]) == 3
    captured = capsys.readouterr()
    with pytest.raises(bs.errors.IllConditioned) as want:
        bs.reconstruct(sig)
    assert captured.out == ""
    assert captured.err == "error: IllConditioned: %s\n" % want.value
    assert " after 40 of 64 rows: cond * eps = " in captured.err
    assert "exceeds the bound 1e-08 by " in captured.err


def test_usage_errors_exit_one(tmp_path, capsys):
    # exit 2 means input outside the class; a bad command line, such
    # as an unknown option, is malformed input
    sig = bs.canonical_spectral_function(seven_by_seven())
    path = write(tmp_path, "sigma.json", fileio.dump_sigma(sig))
    assert main(["inverse", path, "--tol-zero", "1e-10"]) == 1
    assert "unrecognized arguments: --tol-zero 1e-10" in capsys.readouterr().err
    assert main(["inverse"]) == 1
    assert "required: sigma_file" in capsys.readouterr().err


def test_help_exits_zero_without_threshold_flag(capsys):
    assert main(["inverse", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bandspec inverse")
    assert "--tol" not in out


def test_spring_frequencies_exact_output(tmp_path, capsys):
    chain = bs.SpringChain((1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0))
    path = write(tmp_path, "two.json", fileio.dump_chain(chain))
    assert main(["spring", path]) == 0
    assert capsys.readouterr().out == "1.0, 1.7320508075688772\n"
    assert main(["spring", path, "--frequencies"]) == 0
    assert capsys.readouterr().out == "1.0, 1.7320508075688772\n"


def test_spring_matrix_output(tmp_path, capsys):
    chain = bs.SpringChain((1.0,) * 3, (1.0,) * 4, (1.0,) * 3)
    path = write(tmp_path, "three.json", fileio.dump_chain(chain))
    assert main(["spring", path, "--matrix"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diags"][0] == [-3.0, -4.0, -3.0]
    assert doc["diags"][1] == [1.0, 1.0]
    assert doc["diags"][2] == [1.0]


def test_spring_cf_check(tmp_path, capsys):
    chain = bs.SpringChain((1.0,) * 5, (1.0,) * 6, (1.0,) * 5)
    path = write(tmp_path, "five.json", fileio.dump_chain(chain))
    assert main(["spring", path, "--cf-check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for j, line in zip((2, 3), lines):
        assert line.startswith("j = %d: residual = " % j)
        assert float(line.split("=")[-1]) <= 1e-10

    short = bs.SpringChain((1.0,) * 3, (1.0,) * 4, (1.0,) * 3)
    path = write(tmp_path, "short.json", fileio.dump_chain(short))
    assert main(["spring", path, "--cf-check"]) == 0
    assert "no interior indices" in capsys.readouterr().out


@pytest.mark.parametrize("chain, entry", [
    # sqrt(m_1 m_2) underflows to 0.0
    (((1e-200, 1e-200), (1.0, 1.0, 1.0), (0.0, 0.0)),
     "entry d1_1 of the mass-weighted matrix is nan"),
    # d0_2 = -(1e300 + 1) / 1e-300 overflows
    (((1.0, 1e-300), (1.0, 1.0, 1e300), (0.0, 0.0)),
     "entry d0_2 of the mass-weighted matrix is -inf"),
    # m_1 m_2 overflows: sqrt(inf) would make d1_1 0.0
    (((1e200, 1e200), (1.0, 1.0, 1.0), (0.0, 0.0)),
     "entry d1_1 of the mass-weighted matrix is nan"),
    (((1e200,) * 4, (1.0,) * 5, (1.0,) * 4),
     "entry d1_1 of the mass-weighted matrix is nan"),
], ids=["root-underflow", "overflow", "root-overflow", "heavy-four"])
@pytest.mark.parametrize("flags", [[], ["--matrix"], ["--cf-check"]],
                         ids=["frequencies", "matrix", "cf-check"])
def test_spring_refuses_non_finite_entry(tmp_path, chain, entry, flags):
    path = write(tmp_path, "chain.json", fileio.dump_chain(bs.SpringChain(*chain)))
    proc = subprocess.run([sys.executable, "-m", "bandspec", "spring", path] + flags,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: NonFiniteEntry: " + entry)
    assert "Traceback" not in proc.stderr and "nan" not in proc.stdout


def test_spring_cf_check_refuses_overflowing_identity(tmp_path, capsys):
    # the entries are finite, but the numerator term in d2_2 d2_1 overflows
    chain = {"masses": [2.1071550212975667e-111, 9.162050999638212e-111,
                        1.6042562583281628e-111, 2.3916263782868408e-126],
             "k": [8.273887663403512e+121, 5.933212486314901e-70, 8.378644462500385e-59,
                   6.891170584781037e+99, 9.485012630435352e+35],
             "kp": [1.3900037189713395e-94, 2.779865047434555e-20,
                    1.5022403283609527e+115, 4.0945398840303404e-38]}
    path = write(tmp_path, "chain.json", json.dumps(chain))
    assert main(["spring", path, "--cf-check"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: NonFiniteEntry: stiffness identity at j=2")
    assert "inf" not in captured.out and "nan" not in captured.out


def test_roundtrip_accepts_valid_matrix(tmp_path, capsys):
    rng = np.random.default_rng(4)
    A = bs.sampling.random_band_matrix(rng, 3, 8, j0=2)
    path = write(tmp_path, "m.json", fileio.dump_matrix(A))
    assert main(["roundtrip", path]) == 0
    out = capsys.readouterr().out
    assert "round trip OK within tol=1e-08" in out


def test_roundtrip_detects_perturbation(tmp_path, capsys):
    path = flip_file(tmp_path)
    assert main(["roundtrip", path, "--perturb", "1e-3"]) == 3
    captured = capsys.readouterr()
    dev_line = [l for l in captured.out.splitlines() if "max matrix deviation" in l]
    assert dev_line and float(dev_line[0].split("=")[-1]) > 1e-8
    assert "exceeds tol" in captured.err


def test_roundtrip_deviation_is_a_numerical_refusal(tmp_path, capsys):
    # a class member whose round trip misses the tolerance: a numerical
    # limit (exit 3), not a class violation (exit 2)
    A = bs.sampling.random_band_matrix(np.random.default_rng(236), 1, 25, j0=0)
    path = write(tmp_path, "a.json", fileio.dump_matrix(A))
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["roundtrip", path]) == 3
    captured = capsys.readouterr()
    dev_line = [l for l in captured.out.splitlines() if "max matrix deviation" in l]
    assert dev_line and float(dev_line[0].split("=")[-1]) > 1e-8
    assert captured.err == ("error: RoundTripDeviation: round trip deviation exceeds "
                            "tol=1e-08\n")


def test_inverse_names_singular_jump_sum(tmp_path, capsys):
    path = write(tmp_path, "flat.json", fileio.dump_sigma(helpers.subspace_sigma()))
    assert main(["inverse", path]) == 2
    assert capsys.readouterr().err == (
        "error: ProfileMismatch: generator 1 at height 2 < n = 3 is a constant of "
        "norm zero: the jump sum is singular\n")


def test_file_identity_is_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    A = bs.sampling.random_band_matrix(rng, 3, 9, j0=1)
    text = fileio.dump_matrix(A)
    assert fileio.dump_matrix(fileio.load_matrix(text)) == text
    assert fileio.load_matrix(text) == A

    sig = bs.canonical_spectral_function(A)
    stext = fileio.dump_sigma(sig)
    assert fileio.dump_sigma(fileio.load_sigma(stext)) == stext
    assert fileio.load_sigma(stext) == sig

    chain = bs.sampling.random_chain(rng, 6)
    ctext = fileio.dump_chain(chain)
    assert fileio.dump_chain(fileio.load_chain(ctext)) == ctext
    assert fileio.load_chain(ctext) == chain

    T = bs.sampling.random_tinit(rng, 3)
    ttext = fileio.dump_tinit(T)
    assert fileio.dump_tinit(fileio.load_tinit(ttext)) == ttext
    assert fileio.load_tinit(ttext) == T


def test_sigma_files_write_sorted_jumps(tmp_path):
    sig = bs.SpectralFunction(1, [(1.0, (0.5,)), (-1.0, (0.5,))])
    doc = json.loads(fileio.dump_sigma(sig))
    assert [j["x"] for j in doc["jumps"]] == [-1.0, 1.0]


def test_sigma_files_round_trip_tied_nodes():
    sig = bs.SpectralFunction(
        2, [(1.0, (0.5, 0.1)), (1.0, (0.3, 0.2)), (2.0, (0.1, 0.9))])
    text = fileio.dump_sigma(sig)
    back = fileio.load_sigma(text)
    assert back == sig
    assert fileio.dump_sigma(back) == text


@pytest.mark.parametrize("text", [
    pytest.param('{"n": 1, "N": 2, "jumps": [{"x": 1e400, "alpha": [0.5]}, '
                 '{"x": 1.0, "alpha": [0.5]}]}', id="overflowing-node"),
    pytest.param('{"n": 1, "N": 2, "diags": [[0.0, 0.0], [1e999]]}',
                 id="overflowing-diagonal"),
    pytest.param('{"n": 1, "N": 2, "diags": [[0.0, 0.0], [%s]]}' % ("9" * 401),
                 id="401-digit-integer"),
    pytest.param('{"n": 1, "N": 2, "diags": [[0.0, 0.0], [%s]]}' % ("9" * 5000),
                 id="5000-digit-integer"),
])
def test_out_of_range_numbers_are_malformed(tmp_path, capsys, text):
    path = write(tmp_path, "big.json", text)
    command = "inverse" if "jumps" in text else "validate"
    assert main([command, path]) == 1
    assert "InputError" in capsys.readouterr().err


TWO_JUMPS = '[{"x": -1.0, "alpha": [0.5]}, {"x": 1.0, "alpha": [0.5]}]'


@pytest.mark.parametrize("argv, text, message", [
    (["validate", "bad.json"], '[1.0, 2.0]',
     "InputError: matrix file must contain a JSON object"),
    (["validate", "bad.json"], '{"n": 1, "N": 2, "diags": [[0.0, "a"], [1.0]]}',
     "InputError: matrix: diags[0] must be a number, got 'a'"),
    (["validate", "bad.json"], '{"n": 1.0, "N": 2, "diags": [[0.0, 0.0], [1.0]]}',
     "InputError: matrix: n must be an integer, got 1.0"),
    (["validate", "bad.json"], '{"n": 1, "N": 2}',
     "InputError: matrix: missing field 'diags'"),
    (["spring", "bad.json"], '{"masses": 1.0, "k": [1.0, 1.0], "kp": [0.0]}',
     "InputError: chain: masses must be an array"),
    (["validate", "bad.json"], '{"n": 1, "N": 2, "diags": {"0": [0.0, 0.0]}}',
     "InputError: matrix: diags must be an array of arrays"),
    (["inverse", "bad.json"], '{"n": 1, "N": 2, "jumps": {}}',
     "InputError: sigma: jumps must be an array"),
    (["inverse", "bad.json"], '{"n": 1, "N": 3, "jumps": %s}' % TWO_JUMPS,
     "InputError: sigma: N=3 but 2 jumps present"),
    (["inverse", "bad.json"],
     '{"n": 1, "N": 2, "jumps": [{"x": -1.0, "alpha": [0.5]}, [1.0, 0.5]]}',
     "InputError: sigma: jumps[1] must be an object"),
    (["inverse", "bad.json"], '{"n": 2, "N": 2, "jumps": %s}' % TWO_JUMPS,
     "InputError: sigma: jumps[0].alpha has 1 entries, expected n=2"),
    (["direct", "m37.json", "--tinit", "bad.json"], '{"n": 1, "rows": 1.0}',
     "InputError: tinit: rows must be an array of arrays"),
    (["validate", "missing.json"], None,
     "InputError: cannot read matrix file 'missing.json': "),
    (["direct", "m37.json", "-o", "no/such/dir/s.json"], None,
     "InputError: cannot write 'no/such/dir/s.json': "),
    (["validate", "bad.json"], '{"n": 1, "N": 2, "diags": [[0.0, 0.0]]}',
     "DimensionMismatch: expected 2 diagonals, got 1"),
    (["direct", "m37.json", "--tinit", "bad.json"],
     '{"n": 2, "rows": [[1.0, 0.0]]}', "DimensionMismatch: expected 2 rows, got 1"),
    (["direct", "m37.json", "--tinit", "bad.json"],
     '{"n": 2, "rows": [[1.0, 0.0], [1.0]]}', "DimensionMismatch: row 1 has wrong length"),
], ids=["not-an-object", "not-a-number", "not-an-integer", "missing-field",
        "list-not-an-array", "diags-not-an-array", "jumps-not-an-array", "jump-count",
        "jump-not-an-object", "alpha-length", "rows-not-an-array", "unreadable-input",
        "unwritable-output", "diagonal-count", "row-count", "row-length"])
def test_malformed_files_and_paths_are_named(tmp_path, capsys, monkeypatch,
                                              argv, text, message):
    # each refusal of the file readers exits 1 and names the field or path
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "m37.json", fileio.dump_matrix(seven_by_seven()))
    if text is not None:
        write(tmp_path, "bad.json", text)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


def test_validate_rejects_diagonal_matrix_as_outside_class(tmp_path, capsys):
    path = write(tmp_path, "diagonal.json", '{"n": 0, "N": 2, "diags": [[1.0, 2.0]]}')
    assert main(["validate", path]) == 2
    assert "ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    pytest.param('{"n": -1, "N": 0, "jumps": []}', "", id="-1"),
    pytest.param('{"n": 0, "N": 0, "jumps": []}', "", id="0"),
    # admissible for validate_sigma, but gram_schmidt needs N > n
    pytest.param('{"n": 2, "N": 2, "jumps": [{"x": 0.0, "alpha": [1.0, 0.0]}, '
                 '{"x": 1.0, "alpha": [0.0, 1.0]}]}',
                 "need more jumps than components, got N=2 n=2", id="N=n=2"),
    pytest.param('{"n": 3, "N": 2, "jumps": [{"x": 0.0, "alpha": [1.0, 0.0, 1.0]}, '
                 '{"x": 1.0, "alpha": [0.0, 1.0, 1.0]}]}',
                 "need more jumps than components, got N=2 n=3", id="N=2<n=3"),
])
def test_sigma_without_components_is_malformed(tmp_path, capsys, text, message):
    path = write(tmp_path, "empty.json", text)
    assert main(["inverse", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: DimensionMismatch: " + message)


def test_module_entry_point(tmp_path):
    path = write(
        tmp_path, "m37.json", fileio.dump_matrix(seven_by_seven())
    )
    proc = subprocess.run(
        [sys.executable, "-m", "bandspec", "validate", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "m = [3, 5, 7], j0 = 2\n"


@pytest.mark.parametrize("argv", [
    ["--tol", "nan", "--perturb", "1e-3"],
    ["--tol", "-1"],
    ["--tol", "inf"],
    ["--tol", "abc"],
    ["--perturb", "nan"],
    ["--perturb", "inf"],
    ["--perturb=-inf"],
], ids=" ".join)
def test_roundtrip_refuses_non_finite_or_negative_options(tmp_path, capsys, argv):
    # a bad --perturb is a usage error, not a class violation; --tol is
    # gone (roundtrip checks the fixed bound 1e-8), like --tol-zero
    path = write(tmp_path, "m37.json", fileio.dump_matrix(seven_by_seven()))
    assert main(["roundtrip", path] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "--tol":
        assert "error: unrecognized arguments: --tol %s" % argv[1] in captured.err
    else:
        assert "error: argument %s: " % argv[0].split("=")[0] in captured.err


@pytest.mark.parametrize("where", ["matrix", "tinit"])
def test_roundtrip_fails_on_nan_deviation(tmp_path, capsys, monkeypatch, where):
    # Python's max(0.0, nan) is 0.0: a NaN in the answer must not pass
    def with_nan(sigma):
        rec = bs.reconstruct(sigma)
        if where == "matrix":
            diags = (rec.matrix.diags[0],) + ((math.nan,) + rec.matrix.diags[1][1:],) \
                + rec.matrix.diags[2:]
            return dataclasses.replace(rec, matrix=bs.BandMatrix(rec.matrix.n, rec.matrix.N,
                                                                   diags))
        rows = ((rec.tinit.rows[0][0], math.nan) + rec.tinit.rows[0][2:],) + rec.tinit.rows[1:]
        return dataclasses.replace(rec, tinit=bs.TriangularInit(rec.tinit.n, rows))

    monkeypatch.setattr(cli, "reconstruct", with_nan)
    path = write(tmp_path, "m37.json", fileio.dump_matrix(seven_by_seven()))
    assert main(["roundtrip", path]) == 3
    captured = capsys.readouterr()
    line = "max %s deviation%s = nan" % (
        ("matrix", "") if where == "matrix" else ("initial-value", " from identity"))
    assert line in captured.out.splitlines()
    assert "round trip OK" not in captured.out
    assert "exceeds tol" in captured.err


def entry_inputs(directory):
    """Write the input files of the entry-parity cases into ``directory``."""
    A = seven_by_seven()
    r = 1.0 / math.sqrt(2.0)
    docs = {
        "m37.json": fileio.dump_matrix(A),
        "sigma.json": fileio.dump_sigma(bs.canonical_spectral_function(A)),
        "t.json": fileio.dump_tinit(bs.sampling.random_tinit(np.random.default_rng(8), 3)),
        "five.json": fileio.dump_chain(bs.SpringChain((1.0,) * 5, (1.0,) * 6, (1.0,) * 5)),
        "lead.json": fileio.dump_matrix(
            bs.BandMatrix(2, 5, ((0.0,) * 5, (0.5,) * 4, (0.0, 1.0, 1.0)))),
        "ambiguous.json": fileio.dump_sigma(
            bs.SpectralFunction(1, [(-1.0, (r,)), (0.0, (1e-8,)), (1.0, (r,))])),
    }
    for name, text in docs.items():
        (directory / name).write_text(text, encoding="utf-8")


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("argv, code", [
    (["validate", "m37.json"], 0),
    (["direct", "m37.json", "-o", "s.json"], 0),
    (["direct", "m37.json", "--tinit", "t.json", "-o", "st.json"], 0),
    (["inverse", "sigma.json", "-o", "back.json", "--tinit-out", "tout.json"], 0),
    (["spring", "five.json", "--cf-check", "--frequencies"], 0),
    (["roundtrip", "m37.json"], 0),
    (["inverse", "sigma.json", "--tol-zero", "1e-10"], 1),
    (["validate", "lead.json"], 2),
    (["inverse", "ambiguous.json", "-o", "none.json"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_process_entry_matches_main(tmp_path, capsys, monkeypatch, argv, code):
    # the process entry adds nothing to main's output and loses none of it
    src = str(Path(bs.__file__).resolve().parents[1])
    sub, inproc = tmp_path / "sub", tmp_path / "inproc"
    for directory in (sub, inproc):
        directory.mkdir()
        entry_inputs(directory)
    proc = subprocess.run([sys.executable, "-m", "bandspec"] + argv, cwd=sub,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True)

    monkeypatch.chdir(inproc)
    gc_state = (gc.get_freeze_count(), gc.isenabled())
    got = main(argv)
    assert (gc.get_freeze_count(), gc.isenabled()) == gc_state
    captured = capsys.readouterr()
    assert got == code
    assert proc.returncode == code
    assert proc.stdout.decode("utf-8") == captured.out
    assert proc.stderr.decode("utf-8") == captured.err
    assert file_bytes(sub) == file_bytes(inproc)


@pytest.mark.parametrize("name, code", [("m37.json", 0), ("lead.json", 2)])
def test_run_exits_with_main_code_and_frozen_collector(tmp_path, capsys, monkeypatch,
                                                       name, code):
    entry_inputs(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bandspec", "validate", str(tmp_path / name)])
    try:
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert info.value.code == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(bs.__file__).resolve().parents[2] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["bandspec"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
