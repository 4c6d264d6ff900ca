"""The benchmark's own tests, in quick mode (one small pass per workload).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import verify as V  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

import bandspec as bs  # noqa: E402
from bandspec import errors, fileio  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# spans each workload exists to exercise; a renamed function shows up
# here as a missing span rather than as a silent zero
MUST_FIRE = {
    "roundtrip_desk": (
        "vecpoly.linear_combine", "reconstruct.reconstruct", "reconstruct.gram_schmidt",
        "reconstruct.matrix_from_basis", "reconstruct.initial_conditions",
        "spectral.validate_sigma", "spectral.eig_symmetric",
        "spectral.canonical_spectral_function", "spectral.transform_spectral_function",
        "spectral.merged_jump_matrices", "bandmat.validate_band", "bandmat.to_dense"),
    "inverse_limit": (
        "vecpoly.linear_combine", "reconstruct.reconstruct", "reconstruct.gram_schmidt"),
    "direct_batch": (
        "spectral.validate_sigma", "spectral.eig_symmetric",
        "spectral.canonical_spectral_function", "spectral.transform_spectral_function",
        "bandmat.validate_band", "bandmat.to_dense", "bandmat.shrink_band",
        "springchain.build_spring_matrix", "springchain.frequencies",
        "springchain.continued_fraction_check"),
    "cli_files": (
        "cli.main", "cli.cmd_validate", "cli.cmd_direct", "cli.cmd_inverse",
        "cli.cmd_spring", "cli.cmd_roundtrip", "fileio.read_file", "fileio.write_file",
        "fileio.dump_sigma", "fileio.dump_matrix", "reconstruct.reconstruct"),
}


@pytest.fixture(scope="module")
def quick_runs():
    return {(name, trace): run.run_workload(name, 0, 0.05, trace, quick=True)
            for name in W.WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_every_metric_with_its_unit(quick_runs, name):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line, _ = quick_runs[name, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
        for v in line["metrics"].values():
            assert math.isfinite(v["value"])
    for k, v in quick_runs[name, 0][0]["metrics"].items():
        assert v["value"] > 0, k


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_named_spans_fire(quick_runs, name):
    metrics = quick_runs[name, 1][0]["metrics"]
    silent = [s for s in MUST_FIRE[name] if metrics[s + ".calls"]["value"] == 0]
    assert silent == []
    if name == "direct_batch":
        assert metrics["vecpoly.linear_combine.calls"]["value"] == 0
        assert metrics["reconstruct.reconstruct.calls"]["value"] == 0
    if name == "roundtrip_desk":
        assert metrics["reconstruct.candidates"]["value"] > 0
    if name == "cli_files":
        assert metrics["fileio.read_file.bytes"]["value"] > 0


def test_layer_counts_repeat_at_a_fixed_seed(quick_runs):
    again, _ = run.run_workload("roundtrip_desk", 0, 0.05, 1, quick=True)
    first = quick_runs["roundtrip_desk", 1][0]["metrics"]
    for k, v in first.items():
        if v["unit"] == "count" and not k.startswith("trace."):
            assert again["metrics"][k]["value"] == v["value"], k


def test_attempted_and_failed_count_distinct_inputs(quick_runs):
    # a longer run repeats inputs, but counts each one once
    longer, report = run.run_workload("roundtrip_desk", 0, 2.5, 0, quick=True)
    first = quick_runs["roundtrip_desk", 0][0]
    assert report["detail"]["cycles"] > 1
    assert (longer["attempted"], longer["failed"]) == (first["attempted"], first["failed"])


def test_latency_is_taken_per_input():
    lat, repeats = run.per_input([1.0, 5.0, 3.0, 2.0, 9.0], [0, 1, 0, 0, 1], 3)
    assert lat == [2.0, 7.0, None] and repeats == [3, 2, 0]
    assert run.timing_metrics(lat, 1, 0.9)["solved_per_s"] == 1 / 9.0
    # the Harrell-Davis p90 stays within the order statistics around it
    assert run.hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert 88.0 < run.hd_quantile(list(range(100)), 0.9) < 91.0


def test_same_seed_same_inputs():
    def diags(seed):
        instances, _, _ = W.build("roundtrip_desk", seed, None, None, quick=True)
        return [inst.A.diags for inst in instances]

    assert diags(3) == diags(3)
    assert diags(3) != diags(4)


def test_planted_errors_are_never_solved(tmp_path):
    assert W.planted_errors_caught()
    # a bumped jump coefficient through the CLI: refused or counted wrong
    rng = np.random.default_rng(7)
    inst = W.RoundTrip(rng, 2, 8, 1, with_T=False)
    path = tmp_path / "m.json"
    fileio.write_file(str(path), inst.A)
    call = W.CliCall("planted", ["roundtrip", str(path), "--perturb", "1e-3"],
                     run.subprocess_env(), str(tmp_path), {})
    assert call.judge(call.run()).kind != V.VERIFIED
    # a direct answer file with one node moved
    out = tmp_path / "d.json"
    call = W.CliCall("planted", ["direct", str(path), "-o", str(out)],
                     run.subprocess_env(), str(tmp_path),
                     dict(out=str(out), eigs=W.Direct("x", inst.A).ref_eigs,
                          S=np.eye(2)))
    raw = call.run_inprocess()
    assert call.judge(raw).kind == V.VERIFIED
    doc = json.loads(out.read_text())
    doc["jumps"][0]["x"] += 1e-3
    out.write_text(json.dumps(doc))
    assert call.judge(raw).kind == V.WRONG


def test_outcome_families():
    assert V.exception_outcome(errors.AmbiguousNorm("x"), errors)[:3] == \
        ("refused", "AmbiguousNorm", "3")
    assert V.exception_outcome(errors.MembershipViolation("x"), errors)[:3] == \
        ("misclassified", "MembershipViolation", "2")
    assert V.exception_outcome(ZeroDivisionError(), errors)[:3] == \
        ("misclassified", "ZeroDivisionError", "crash")
    assert V.exit_outcome(3, "error: AmbiguousNorm: near tau\n")[:3] == \
        ("refused", "AmbiguousNorm", "3")
    assert V.exit_outcome(2, "error: BandViolation: off band\n")[:3] == \
        ("misclassified", "BandViolation", "2")


def test_chain_reference_matches_library_matrix():
    rng = np.random.default_rng(1)
    for cut in (None, 4, 1):
        chain = bs.sampling.random_chain(rng, 9, zero_kp_from=cut)
        A = bs.build_spring_matrix(chain)
        want = V.chain_matrix(chain.masses, chain.k, chain.kp)
        assert abs(V.dense(A.n, A.N, A.diags) - want).max() < 1e-12


def test_tracer_restores_every_binding():
    recon = sys.modules["bandspec.reconstruct"]
    before = (recon.linear_combine, bs.reconstruct, sys.modules["bandspec.cli"].reconstruct)
    with Tracer():
        assert recon.linear_combine is not before[0]
        assert sys.modules["bandspec.cli"].reconstruct is not before[2]
    assert (recon.linear_combine, bs.reconstruct,
            sys.modules["bandspec.cli"].reconstruct) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_files",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
