"""scripts/inverse_fingerprint.py: its compare mode runs without the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "inverse_fingerprint.py"


def test_compare_runs_without_the_library(tmp_path):
    # a bandspec that cannot be imported shadows any installed one
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "bandspec.py").write_text('raise ImportError("bandspec imported")\n')
    env = dict(os.environ, PYTHONPATH=str(blocked))
    rows = [{"case": "a", "draws": [["0x1.0000000000000p+0"]]},
            {"case": "b", "refusal": "IllConditioned", "message": "m"}]
    files = []
    for k, changed in enumerate((rows, rows, [rows[0], dict(rows[1], message="n")])):
        path = tmp_path / ("f%d.jsonl" % k)
        path.write_text("".join(json.dumps(r) + "\n" for r in changed))
        files.append(str(path))

    def compare(a, b):
        return subprocess.run([sys.executable, str(SCRIPT), "--compare", a, b],
                              env=env, cwd=tmp_path, capture_output=True, text=True)

    same = compare(files[0], files[1])
    assert same.returncode == 0, same.stderr
    differ = compare(files[0], files[2])
    assert differ.returncode == 1, differ.stderr
    lines = differ.stdout.splitlines()
    named = lines.index("  message        1 cases differ") + 1
    assert lines[named] == "      b"


def test_compare_counts_refusal_class_changes(tmp_path):
    # one return that became a refusal, one refusal that changed class,
    # one unchanged refusal whose message moved
    before = [{"case": "a", "cond": "0x1.0000000000000p+0"},
              {"case": "b", "refusal": "AmbiguousNorm", "message": "m"},
              {"case": "c", "refusal": "AmbiguousNorm", "message": "m"}]
    after = [{"case": "a", "refusal": "IllConditioned", "message": "m"},
             {"case": "b", "refusal": "IllConditioned", "message": "n"},
             {"case": "c", "refusal": "AmbiguousNorm", "message": "n"}]
    files = []
    for k, rows in enumerate((before, after)):
        path = tmp_path / ("f%d.jsonl" % k)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        files.append(str(path))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--compare"] + files,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "3 cases, refusals 2 / 3"
    at = lines.index("refusal class changes: 2")
    assert lines[at + 1:at + 3] == ["  AmbiguousNorm -> IllConditioned: 1",
                                    "  returned -> IllConditioned: 1"]
    assert lines[at + 3].startswith("largest absolute matrix difference")
