import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellclone import bell_state, cli, clone, identify, verification

from oracles import BELL_AMPLITUDES, SQRT_HALF
from test_stateio import padded_bell_file


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bellclone", *args],
        capture_output=True,
        text=True,
    )


def run_in_process(*args):
    """cli.main in this interpreter, its streams captured, shaped like run_cli's result.

    Warnings are raised as errors: in a child process they would reach stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_state(tmp_path, amps, num_qubits=2, name="state.txt"):
    lines = [f"qubits {num_qubits}"]
    lines += [f"{float(a.real)!r} {float(a.imag)!r}" for a in np.asarray(amps, dtype=complex)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_path(command):
    """tests/golden/<the command's tokens, leading "-" and "@" stripped, joined by "-">.txt"""
    return GOLDEN / ("-".join(token.lstrip("-@") for token in command.split()) + ".txt")


def assert_matches_golden(command, stdout):
    """stdout equals the command's golden file byte for byte; a mismatch prints a unified diff."""
    path = golden_path(command)
    expected = path.read_bytes()
    if stdout.encode() != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            stdout.splitlines(keepends=True),
            fromfile=str(path),
            tofile="stdout",
        )
        pytest.fail("stdout differs from its golden file:\n" + "".join(diff), pytrace=False)


class TestDemo:
    def test_seed7_bell3_json_object(self):
        proc = run_in_process("demo", "--seed", "7", "--bell", "3", "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["hidden_index"] == 3
        assert report["identified_index"] == 3
        assert report["outcome_bits"] == "11"
        assert report["fidelity_original"] >= 1 - 1e-9
        assert report["fidelity_clone"] >= 1 - 1e-9
        assert report["ucm_reference"] == pytest.approx(5 / 6)
        assert report["seed"] == 7

    def test_seed7_bell0_identifies_00(self):
        proc = run_in_process("demo", "--seed", "7", "--bell", "0", "--format", "json")
        report = json.loads(proc.stdout)
        assert report["identified_index"] == 0
        assert report["outcome_bits"] == "00"

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_every_hidden_index_is_identified(self, index):
        proc = run_in_process("demo", "--bell", str(index), "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["identified_index"] == index

    def test_hidden_index_drawn_from_seed(self):
        for seed in range(8):
            proc = run_in_process("demo", "--seed", str(seed), "--format", "json")
            assert proc.returncode == 0
            report = json.loads(proc.stdout)
            expected = int(np.random.default_rng(seed).integers(0, 4))
            assert report["hidden_index"] == expected
            assert report["identified_index"] == expected

    def test_plain_format_is_key_equals_value(self):
        proc = run_in_process("demo", "--seed", "7", "--bell", "3")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == [
            "hidden_index",
            "identified_index",
            "outcome_bits",
            "fidelity_original",
            "fidelity_clone",
            "ucm_reference",
            "seed",
        ]
        assert "outcome_bits = 11" in lines

    def test_byte_identical_across_runs(self):
        first = run_cli("demo", "--seed", "5", "--format", "json")
        second = run_cli("demo", "--seed", "5", "--format", "json")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_bell_flag_rejects_out_of_range(self):
        proc = run_in_process("demo", "--bell", "5")
        assert proc.returncode == 2


@pytest.mark.parametrize("command", ["demo", "verify"])
def test_negative_seed_is_a_usage_error(command):
    proc = run_in_process(command, "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr
    assert "non-negative" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestClone:
    def test_bell_file_clones_at_fidelity_one(self, tmp_path):
        path = write_state(tmp_path, BELL_AMPLITUDES[1])
        proc = run_cli("clone", "--state", path, "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["input_label"] == "1"
        assert report["fidelity_original"] == pytest.approx(1.0, abs=1e-12)
        assert report["fidelity_clone"] == pytest.approx(1.0, abs=1e-12)
        joint = np.array([complex(re, im) for re, im in report["joint_state"]])
        assert_allclose(joint, np.kron(BELL_AMPLITUDES[1], BELL_AMPLITUDES[1]), atol=1e-12)

    def test_superposition_file_reports_half(self, tmp_path):
        sup = (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / math.sqrt(2)
        path = write_state(tmp_path, sup)
        proc = run_cli("clone", "--state", path, "--format", "json")
        report = json.loads(proc.stdout)
        assert report["input_label"] == "superposition"
        assert report["fidelity_original"] == pytest.approx(0.5, abs=1e-12)
        assert report["fidelity_clone"] == pytest.approx(0.5, abs=1e-12)

    def test_plain_format_lists_report_fields(self, tmp_path):
        path = write_state(tmp_path, BELL_AMPLITUDES[2])
        proc = run_cli("clone", "--state", path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("input_label = 2\n")
        assert "ucm_reference = 0.8333333333333334" in proc.stdout

    def test_malformed_file_exits_2_with_line_number(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("qubits 2\n1 0\n0 0\n0 0\n")
        proc = run_in_process("clone", "--state", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "broken.txt:1" in proc.stderr

    def test_wrong_qubit_count_exits_2(self, tmp_path):
        path = write_state(tmp_path, [SQRT_HALF, SQRT_HALF], num_qubits=1)
        proc = run_in_process("clone", "--state", path)
        assert proc.returncode == 2
        assert "2-qubit" in proc.stderr

    def test_bad_norm_exits_2(self, tmp_path):
        path = write_state(tmp_path, [0.9, 0.0, 0.0, 0.0])
        proc = run_in_process("clone", "--state", path)
        assert proc.returncode == 2
        assert "norm" in proc.stderr

    @pytest.mark.parametrize("line", ["nan 0", "inf 0", "1e308 1e308"])
    def test_out_of_range_amplitude_exits_2_quietly(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"qubits 2\n{line}\n0 0\n0 0\n0 0\n")
        proc = run_in_process("clone", "--state", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "bad.txt:2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    def test_huge_qubit_header_exits_2(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("qubits 20000\n0 0\n")
        proc = run_in_process("clone", "--state", str(path))
        assert proc.returncode == 2
        assert "huge.txt:1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_long_over_limit_qubit_count_is_cut(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nines.txt").write_text("qubits " + "9" * 4000 + "\n0 0\n")
        proc = run_in_process("clone", "--state", "nines.txt")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: nines.txt:1: qubit count 9999")
        assert len(proc.stderr.encode()) < 200

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"qubits 2\n\xff\xfe 0\n")
        proc = run_in_process("clone", "--state", str(path))
        assert proc.returncode == 2
        assert "binary.txt:2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_file_exits_2_within_a_memory_limit(self):
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "bellclone", "clone", "--state", "/dev/zero"],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: /dev/zero: file is larger than 4194304 bytes\n"

    def test_missing_file_exits_2(self, tmp_path):
        path = str(tmp_path / "absent.txt")
        proc = run_in_process("clone", "--state", path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_directory_exits_2_naming_it(self, tmp_path):
        proc = run_in_process("clone", "--state", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_file_at_the_size_limit_prints_the_small_files_report(self, tmp_path):
        # 4 MiB of comment lines, then Bell pair 1: the reader takes it in several reads.
        path = tmp_path / "padded.txt"
        path.write_bytes(padded_bell_file(4 * 1024 * 1024))
        proc = run_in_process("clone", "--state", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert_matches_golden("clone --state @bell", proc.stdout)

    def test_state_flag_is_required(self):
        proc = run_in_process("clone")
        assert proc.returncode == 2


class TestVerify:
    def test_exits_zero_with_all_checks_listed(self):
        proc = run_in_process("verify")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        check_lines = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert len(check_lines) == 19
        assert all(line.startswith("PASS") for line in check_lines)
        assert "tolerance=" in check_lines[0]
        assert "max_deviation=" in check_lines[0]
        assert lines[-1] == "19/19 checks passed"

    def test_byte_identical_across_runs(self):
        first = run_cli("verify", "--seed", "2")
        second = run_cli("verify", "--seed", "2")
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_seeded_report_is_pinned(self, seed):
        proc = run_in_process("verify", "--seed", seed)
        assert proc.returncode == 0
        assert_matches_golden(f"verify --seed {seed}", proc.stdout)
        assert proc.stderr == ""

    def test_timings_go_to_stderr_and_leave_stdout_alone(self):
        proc = run_in_process("verify", "--seed", "1", "--timings")
        assert proc.returncode == 0
        assert_matches_golden("verify --seed 1", proc.stdout)
        *lines, total = [line.split() for line in proc.stderr.splitlines()]
        names = [check_names[0] for check_names, _, _ in verification._CHECKS]
        assert [line[1] for line in lines] == names
        assert all(line[0] == "time" and line[3] == "ms" for line in [*lines, total])
        assert total[:2] == ["time", "total"]
        assert float(total[2]) == pytest.approx(sum(float(line[2]) for line in lines), abs=0.05)

    def test_timings_keep_the_failing_exit_code(self, monkeypatch):
        monkeypatch.setattr(verification, "EXACT_ATOL", -1.0)
        plain, timed = run_in_process("verify"), run_in_process("verify", "--timings")
        assert plain.returncode == timed.returncode == 1
        assert plain.stdout == timed.stdout

    @pytest.mark.parametrize("flags, imported", [((), False), (("--timings",), True)])
    def test_timings_import_numpy_random_before_the_first_check(self, flags, imported):
        # numpy imports numpy.random on first use. Under --timings the first check must not
        # pay for it; plain verify leaves it where it was. A fresh process is the only
        # place where the import has not happened yet.
        proc = subprocess.run(
            [sys.executable, "-c", _FIRST_CHECK_PROBE, "verify", *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[0] == f"numpy.random imported: {imported}"
        assert_matches_golden("verify --seed 0", proc.stdout)

    def test_timings_take_no_value(self):
        proc = run_in_process("verify", "--timings=1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--timings" in proc.stderr


# cli.main with a first _CHECKS entry that reports on stderr, before it runs, whether
# numpy.random has been imported.
_FIRST_CHECK_PROBE = """
import sys
from bellclone import cli, verification

names, check, seeded = verification._CHECKS[0]


def first(*args):
    print(f"numpy.random imported: {'numpy.random' in sys.modules}", file=sys.stderr)
    return check(*args)


verification._CHECKS = ((names, first, seeded), *verification._CHECKS[1:])
sys.exit(cli.main(sys.argv[1:]))
"""


# "@name" is the committed input file tests/golden/state-<name>.txt: Bell state 1, the
# equal superposition of Bell states 0 and 1, and random complex weights on all four Bell
# states, no two amplitudes equal.
_PINNED_COMMANDS = [
    "demo --seed 0",
    "demo --seed 0 --format json",
    "demo --seed 1",
    "demo --seed 1 --format json",
    "demo --seed 5",
    "demo --seed 5 --format json",
    "matrix encode",
    "matrix decode",
    "matrix tgp",
    "matrix clone",
    "clone --state @bell",
    "clone --state @bell --format json",
    "clone --state @superposition",
    "clone --state @superposition --format json",
    "clone --state @generic",
    "clone --state @generic --format json",
]


# Each id ends in the sha256 of the command's golden file, the digest this test
# compared before the files existed, so a rewritten file also shows as a new id.
@pytest.mark.parametrize(
    "command",
    _PINNED_COMMANDS,
    ids=[
        f"{command}-{hashlib.sha256(golden_path(command).read_bytes()).hexdigest()}"
        for command in _PINNED_COMMANDS
    ],
)
def test_report_bytes_are_pinned(command):
    argv = [
        str(GOLDEN / f"state-{token[1:]}.txt") if token.startswith("@") else token
        for token in command.split()
    ]
    proc = run_in_process(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_matches_golden(command, proc.stdout)


class TestMatrix:
    @staticmethod
    def parse(stdout):
        rows = []
        for line in stdout.splitlines():
            values = [float(v) for v in line.split()]
            rows.append([complex(values[k], values[k + 1]) for k in range(0, len(values), 2)])
        return np.array(rows)

    def test_encode_columns_are_bell_states(self):
        proc = run_in_process("matrix", "encode")
        assert proc.returncode == 0
        unitary = self.parse(proc.stdout)
        assert unitary.shape == (4, 4)
        for index in range(4):
            assert_allclose(unitary[:, index], BELL_AMPLITUDES[index], atol=1e-12)

    def test_decode_times_encode_is_identity(self):
        # two dumps multiplied externally, matching how a reader would check
        encode = self.parse(run_in_process("matrix", "encode").stdout)
        decode = self.parse(run_in_process("matrix", "decode").stdout)
        assert_allclose(decode @ encode, np.eye(4), atol=1e-12)

    def test_tgp_dump_satisfies_the_subspace_constraints(self):
        unitary = self.parse(run_in_process("matrix", "tgp").stdout)
        assert unitary.shape == (16, 16)
        assert_allclose(unitary.conj().T @ unitary, np.eye(16), atol=1e-10)
        ancilla = np.zeros(4)
        ancilla[0] = 1.0
        for index in range(4):
            label = np.zeros(4)
            label[index] = 1.0
            out = unitary @ np.kron(BELL_AMPLITUDES[index], ancilla)
            assert_allclose(out, np.kron(BELL_AMPLITUDES[index], label), atol=1e-12)

    def test_clone_dump_doubles_bell_states(self):
        unitary = self.parse(run_in_process("matrix", "clone").stdout)
        ancilla = np.zeros(4)
        ancilla[0] = 1.0
        for index in range(4):
            out = unitary @ np.kron(BELL_AMPLITUDES[index], ancilla)
            expected = np.kron(BELL_AMPLITUDES[index], BELL_AMPLITUDES[index])
            assert_allclose(out, expected, atol=1e-12)

    def test_entries_have_17_significant_digits(self):
        line = run_in_process("matrix", "encode").stdout.splitlines()[0]
        assert "0.70710678118654746" in line

    def test_unknown_name_exits_2(self):
        proc = run_in_process("matrix", "swap")
        assert proc.returncode == 2


def test_no_subcommand_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


_PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"


def _script_entry_by_lines(text):
    """The `bellclone = "..."` value under [project.scripts], read line by line.

    Python 3.10 has no tomllib; this reads the one key of the one table it needs.
    """
    table = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            key, _, value = line.partition("=")
            if key.strip() == "bellclone":
                return value.strip().strip('"')
    return None


def _script_entry(text):
    try:
        import tomllib  # in the standard library from Python 3.11
    except ImportError:
        return _script_entry_by_lines(text)
    return tomllib.loads(text)["project"]["scripts"]["bellclone"]


def test_console_script_resolves_to_cli_main():
    # The `bellclone` command an install puts on PATH runs this [project.scripts] entry.
    entry = _script_entry(_PYPROJECT.read_text())
    assert pkgutil.resolve_name(entry) is cli.main


def test_the_line_reader_finds_the_console_script_on_any_python(monkeypatch):
    # The reader Python 3.10 takes, forced where tomllib exists, so every Python runs it.
    text = _PYPROJECT.read_text()
    monkeypatch.setitem(sys.modules, "tomllib", None)  # import tomllib now raises ImportError
    assert pkgutil.resolve_name(_script_entry(text)) is cli.main
    assert _script_entry_by_lines(text.replace("[project.scripts]", "[project.urls]")) is None


def test_commands_and_the_pair_path_start_no_thread():
    # Only a gate on 2**17 or more amplitudes is split across threads: every command and
    # the pair path stay on the one thread they start with.
    threads = threading.active_count()
    for command in (
        ("verify", "--seed", "0"),
        ("demo",),
        ("clone", "--state", str(GOLDEN / "state-generic.txt")),
    ):
        assert run_in_process(*command).returncode == 0
    identify(bell_state(2), seed=0)
    clone(bell_state(2))
    assert threading.active_count() == threads


_TOKENS = st.sampled_from(
    ["0", "-0", "1", "3", "20000", "0.5", "nan", "inf", "-inf", "1e308", "1e-320", "x"]
)


@st.composite
def _state_file_bytes(draw):
    """A Bell-pair file with a few tokens replaced, lines cut and bytes spliced in."""
    half = repr(SQRT_HALF)
    rows = [["qubits", "2"], [half, "0"], ["0", "0"], ["0", "0"], [half, "0"]]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, 1))] = draw(_TOKENS)
    rows = rows[: draw(st.sampled_from([5, 4, 2]))]
    text = "\n".join(" ".join(row) for row in rows).encode()
    junk = draw(st.just(b"") | st.binary(min_size=1, max_size=4))
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + junk + text[cut:]


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=64) | _state_file_bytes())
def test_clone_exits_0_or_2_on_arbitrary_file_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "state.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["clone", "--state", str(path)])
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")


# verify runs for a few tenths of a second, so it is drawn one time in sixteen.
_COMMANDS = st.sampled_from([*["demo", "clone", "matrix", None, "--help"] * 3, "verify"])
_WORDS = st.sampled_from(
    ["demo", "clone", "verify", "matrix", "--help", "-h", "--timings", "encode", "tgp", ""]
)
_VALUES = st.sampled_from(["0", "3", "-1", "4", "json", "plain", "@bell", "@missing", "@dir"])
# An OS argv cannot carry NUL, so no drawn argument holds one.
_TEXT = st.text(st.characters(blacklist_characters="\x00"), max_size=8)
_OPTION = st.tuples(st.sampled_from(["--seed", "--bell", "--state", "--format"]), _VALUES | _TEXT)


@st.composite
def _argv(draw):
    """A command, then up to three options with a value or lone words, in any order."""
    command = draw(_COMMANDS)
    groups = draw(st.lists(_OPTION | (_WORDS | _TEXT).map(lambda word: (word,)), max_size=3))
    return ([command] if command else []) + [token for group in groups for token in group]


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    bell = write_state(folder, BELL_AMPLITUDES[2])
    return {"@bell": bell, "@missing": str(folder / "missing.txt"), "@dir": str(folder)}


@settings(max_examples=120, deadline=None)
@given(argv=_argv())
@example(argv=["clone", "--state", "@bell", "--format", "json"])
@example(argv=["clone", "--state", "@missing"])
@example(argv=["demo", "--seed", "-1"])
@example(argv=["matrix", "tgp"])
@example(argv=["verify", "--seed", "1"])
@example(argv=["verify", "--timings"])
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv_paths, argv):
    argv = [argv_paths.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:  # only verify --timings writes to stderr on success, and only its times
        timings = "--timings" in argv and argv[0] == "verify"
        assert all(timings and line.startswith("time ") for line in err.getvalue().splitlines())
    if code == 2:
        assert err.getvalue() != ""
