"""The experiment scripts still run against the library.

A library change that breaks a script's imports or its use of a public
name fails here, not when someone next runs the script.
"""

import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bandspec as bs

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ENV = dict(os.environ, PYTHONPATH=str(Path(bs.__file__).resolve().parents[1]))


@pytest.mark.parametrize("script", ["cli_phases.py", "inverse_fingerprint.py"])
def test_script_help_exits_zero(script):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


def test_completion_table_solves_its_first_case():
    spec = importlib.util.spec_from_file_location("completion_table",
                                                  SCRIPTS / "completion_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.outcome(1, 8, 0) is None


def test_fingerprint_write_mode_covers_every_case(tmp_path):
    # write mode alone calls some public names (merged_jump_matrices,
    # random_jacobi, ...); a file compared with itself agrees everywhere
    out = tmp_path / "fingerprint.jsonl"
    script = str(SCRIPTS / "inverse_fingerprint.py")
    proc = subprocess.run([sys.executable, script, str(out)], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 433
    assert all("case" in row for row in rows)
    # 332 grid and 21 off-grid inverse cases, then the direct, sampler
    # and band cases, each kind in one run
    kinds = [row["case"].split(": ")[0] if ": " in row["case"] else "grid" for row in rows]
    assert [(kind, len(list(run))) for kind, run in itertools.groupby(kinds)] == [
        ("grid", 332), ("inverse", 21), ("direct", 36), ("sampler", 28), ("band", 16)]
    proc = subprocess.run([sys.executable, script, "--compare", str(out), str(out)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fingerprint_writes_the_workload_instances(tmp_path):
    # one row per roundtrip_desk and inverse_limit instance at seed 0,
    # and the file compared with itself agrees everywhere
    out = tmp_path / "workloads.jsonl"
    script = str(SCRIPTS / "inverse_fingerprint.py")
    proc = subprocess.run([sys.executable, script, "--workloads", "0", str(out)], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    names = [row["case"].split(" ")[1] for row in rows]
    assert [(name, len(list(run))) for name, run in itertools.groupby(names)] == [
        ("roundtrip_desk", 230), ("inverse_limit", 216)]
    assert all("sigma" in row for row in rows)
    proc = subprocess.run([sys.executable, script, "--compare", str(out), str(out)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_span_names_resolve():
    # the benchmark's tracer wraps these (module, function) pairs; a
    # library change that deletes or renames one fails here, not in a
    # traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "spans", SCRIPTS.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(mod, name) for mod, names in spans.TRACED for name in names
               if not callable(getattr(importlib.import_module("bandspec." + mod), name, None))]
    assert spans.TRACED and not missing
