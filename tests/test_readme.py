"""The README's library tour is run as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_as_written():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) == 1
    # Pad with the lines above the block so a failure names its README line.
    source = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0][1]
    exec(compile(source, str(README), "exec"), {})
