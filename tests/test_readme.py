"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.filterwarnings("error")
def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$", text, re.M | re.S)
    exec(compile(block.group(1), f"{README}:Library quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0"  # the order errors of the fitted order
    assert len(lines) == 2 + 5 * 4 // 2  # the order, its errors, one line per lower-triangle edge
