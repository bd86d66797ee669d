"""The CI workflow's own steps, rehearsed in-process so that an edit to it cannot rot unrun.

PyYAML is not a test dependency, so each ``run: |`` block is taken by its indentation.
The 99-column step's Python runs in this interpreter, each ``bellclone`` command of the
golden step runs through cli.main against its golden file, the golden step's exit-2 cases
run through cli.main and, with ``python -m bellclone`` standing in for the script, through
bash, the verify step's command runs against plain verify, and bash parses every block.
Out of reach offline: the ``pip install`` step, the console-script entry point and the
other Python versions of the matrix.
"""

import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import run_in_process

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
_COLUMNS_STEP = "No line under src/ or in tests/ is wider than 99 columns"
_GOLDEN_STEP = "The installed console script prints the golden bytes"
_EXPECT_ERROR = "expect_error() {"  # the golden step's exit-2 cases start here


def _run_blocks(text: str) -> dict[str, str]:
    """Each named step's ``run: |`` block, dedented, keyed by the step's name."""
    blocks, name, lines = {}, None, text.splitlines()
    for number, line in enumerate(lines):
        if match := re.match(r"\s*- name: (.*)", line):
            name = match[1]
        if re.match(r"\s*run: \|$", line):
            indent = len(line) - len(line.lstrip())
            body = []
            for following in lines[number + 1 :]:
                if following.strip() and len(following) - len(following.lstrip()) <= indent:
                    break
                body.append(following)
            width = min(len(b) - len(b.lstrip()) for b in body if b.strip())
            blocks[name] = "\n".join(b[width:] for b in body).strip("\n") + "\n"
    return blocks


def _heredoc(script: str) -> str:
    """The Python of the block's one ``python - <<'EOF'`` heredoc."""
    match = re.fullmatch(r"python - <<'EOF'\n(.*)EOF\n", script, re.S)
    assert match, "the 99-column step is no longer one Python heredoc"
    return match[1]


def _golden_commands(script: str) -> list[tuple[list[str], str]]:
    """(bellclone arguments, golden path) for each pipe into diff, every for loop expanded."""
    lines = script.partition(_EXPECT_ERROR)[0].replace("\\\n", " ").splitlines()
    commands, loop = [], None
    for line in (line.strip() for line in lines):
        if match := re.fullmatch(r"for (\w+) in (.*); do", line):
            loop = (match[1], match[2].split())
        elif line == "done":
            loop = None
        elif line:
            assert loop, f"a command outside every for loop: {line!r}"
            variable, values = loop
            for value in values:
                expanded = line.replace(f"${variable}", value)
                left, right = (shlex.split(part) for part in expanded.split("|"))
                assert left[0] == "bellclone" and right[:1] == ["diff"] and right[2:] == ["-"]
                commands.append((left[1:], right[1]))
    return commands


def _rehearse_columns(script: str, root: Path, monkeypatch) -> None:
    monkeypatch.chdir(root)
    exec(compile(_heredoc(script), "<the 99-column step>", "exec"), {"__name__": "__main__"})


def _rehearse_goldens(script: str) -> int:
    commands = _golden_commands(script)
    for argv, golden in commands:
        path = ROOT / golden
        assert path.is_file(), f"{golden} does not exist"
        proc = run_in_process(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), f"bellclone {shlex.join(argv)}"
        assert proc.stdout.encode() == path.read_bytes(), f"{golden} differs"
    return len(commands)


def _error_part(script: str) -> str:
    """The golden step from expect_error's definition on: the definition, then its calls."""
    _, start, rest = script.partition(_EXPECT_ERROR)
    assert start, "the golden step no longer defines expect_error"
    return start + rest


def _rehearse_errors(script: str, monkeypatch) -> int:
    """Each expect_error call run through cli.main from the checkout, as CI runs it."""
    monkeypatch.chdir(ROOT)  # the calls name paths relative to the checkout, and so does stderr
    calls = re.findall(r"^expect_error (.*)$", _error_part(script).replace("\\\n", " "), re.M)
    for path, line in (shlex.split(call) for call in calls):
        proc = run_in_process("clone", "--state", path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n"), path
    return len(calls)


def _bash_errors(script: str) -> subprocess.CompletedProcess:
    """The exit-2 cases run by bash with CI's options, ``python -m bellclone`` as the script."""
    stand_in = f'bellclone() {{ {shlex.quote(sys.executable)} -m bellclone "$@"; }}\n'
    return subprocess.run(
        ["bash", "-eo", "pipefail", "-c", stand_in + _error_part(script)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


_BLOCKS = _run_blocks(WORKFLOW.read_text(encoding="utf-8"))
_ONE_LINE_RUNS = re.findall(r"^\s*- run: (.*)$", WORKFLOW.read_text(encoding="utf-8"), re.M)


def test_the_columns_step_passes_on_this_tree(monkeypatch):
    _rehearse_columns(_BLOCKS[_COLUMNS_STEP], ROOT, monkeypatch)


def test_the_golden_step_holds_every_command_to_its_file():
    # 4 verify seeds, 3 demo seeds in two formats, 4 matrices, 3 state files in two formats.
    assert _rehearse_goldens(_BLOCKS[_GOLDEN_STEP]) == 4 + 6 + 4 + 6


def test_the_golden_step_pins_the_two_exit_2_errors(monkeypatch):
    # A missing path and a directory.
    assert _rehearse_errors(_BLOCKS[_GOLDEN_STEP], monkeypatch) == 2


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash is not installed")
def test_bash_runs_the_exit_2_cases_against_the_cli():
    proc = _bash_errors(_BLOCKS[_GOLDEN_STEP])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


# A pinned message the CLI does not print, and a path that exits 0.
_WRONG_ERRORS = [
    ("Is a directory", "Is not a directory"),
    ("tests/golden ", "tests/golden/state-bell.txt "),
]


@pytest.mark.parametrize("old, new", _WRONG_ERRORS)
def test_a_wrong_exit_2_case_fails_the_rehearsal(old, new, monkeypatch):
    script = _BLOCKS[_GOLDEN_STEP]
    assert script.count(old) == 1
    with pytest.raises(AssertionError):
        _rehearse_errors(script.replace(old, new), monkeypatch)
    if shutil.which("bash") is not None:
        assert _bash_errors(script.replace(old, new)).returncode == 1


def test_the_verify_step_times_each_check_and_keeps_plain_verifys_stdout():
    (command,) = [run for run in _ONE_LINE_RUNS if run.startswith("bellclone verify")]
    argv = shlex.split(command)[1:]
    proc, plain = run_in_process(*argv), run_in_process("verify")
    assert (proc.returncode, plain.returncode) == (0, 0)
    assert proc.stdout == plain.stdout
    assert proc.stderr.startswith("time ")
    assert proc.stderr.splitlines()[-1].startswith("time total ")


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash is not installed")
@pytest.mark.parametrize("name", sorted(_BLOCKS))
def test_bash_parses_every_block(name):
    proc = subprocess.run(["bash", "-n"], input=_BLOCKS[name], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_renamed_golden_fails_the_rehearsal():
    script = _BLOCKS[_GOLDEN_STEP].replace("golden/matrix-$name", "golden/matrices-$name")
    with pytest.raises(AssertionError, match="does not exist"):
        _rehearse_goldens(script)


def test_a_command_the_cli_rejects_fails_the_rehearsal():
    script = _BLOCKS[_GOLDEN_STEP].replace("bellclone matrix $name", "bellclone matrix --x $name")
    with pytest.raises(AssertionError, match="bellclone matrix --x encode"):
        _rehearse_goldens(script)


@pytest.mark.parametrize("width, fails", [(99, False), (100, True)])
def test_a_wide_line_fails_the_columns_step(tmp_path, monkeypatch, width, fails):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_wide.py").write_text("#" * width + "\n", encoding="utf-8")
    if fails:
        with pytest.raises(SystemExit, match=f"tests/test_wide.py:1: {width} columns"):
            _rehearse_columns(_BLOCKS[_COLUMNS_STEP], tmp_path, monkeypatch)
    else:
        _rehearse_columns(_BLOCKS[_COLUMNS_STEP], tmp_path, monkeypatch)
