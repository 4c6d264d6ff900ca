"""The README's library quickstart runs as written, and its completion
table is the one scripts/completion_table.py prints."""

import importlib.util
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SCRIPT = README.parent / "scripts" / "completion_table.py"


def test_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_completion_table_matches_the_script(capsys):
    spec = importlib.util.spec_from_file_location("completion_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    table = [line for line in out.splitlines() if line.startswith("|")]
    text = README.read_text(encoding="utf-8")
    lines = [line.strip() for line in text.splitlines()]
    at = lines.index(table[0])
    assert lines[at:at + len(table)] == table
    # the refusal counts, by class, in the sentence after the table
    refused = re.search(r"^refusals: (.*)$", out, re.M).group(1)
    said = re.search(r"All other runs are refusals: (.*?)\.", " ".join(text.split())).group(1)
    assert ({name: int(count) for count, name in re.findall(r"(\d+) `(\w+)`", said)}
            == {name: int(count) for count, name in re.findall(r"(\d+) (\w+)", refused)})
