"""The README's library tour and demo output are checked as written, so the docs cannot drift."""

import re
from pathlib import Path

from bellclone import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _only_block(language: str) -> tuple[str, str]:
    """The README's one fenced block in ``language``, padded so line numbers match the README."""
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(rf"^```{language}\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) == 1
    return "\n" * text.count("\n", 0, blocks[0].start(1)), blocks[0][1]


def test_library_tour_runs_as_written():
    # Pad with the lines above the block so a failure names its README line.
    padding, source = _only_block("python")
    exec(compile(padding + source, str(README), "exec"), {})


def test_demo_json_is_the_real_output(capsys):
    cli.main(["demo", "--seed", "7", "--bell", "3", "--format", "json"])
    assert capsys.readouterr().out == _only_block("json")[1]
