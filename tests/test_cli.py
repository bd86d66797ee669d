import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellclone import cli

from oracles import BELL_AMPLITUDES, SQRT_HALF


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bellclone", *args],
        capture_output=True,
        text=True,
    )


def write_state(tmp_path, amps, num_qubits=2, name="state.txt"):
    lines = [f"qubits {num_qubits}"]
    lines += [f"{float(a.real)!r} {float(a.imag)!r}" for a in np.asarray(amps, dtype=complex)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDemo:
    def test_seed7_bell3_json_object(self):
        proc = run_cli("demo", "--seed", "7", "--bell", "3", "--format", "json")
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
        proc = run_cli("demo", "--seed", "7", "--bell", "0", "--format", "json")
        report = json.loads(proc.stdout)
        assert report["identified_index"] == 0
        assert report["outcome_bits"] == "00"

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_every_hidden_index_is_identified(self, index):
        proc = run_cli("demo", "--bell", str(index), "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["identified_index"] == index

    def test_hidden_index_drawn_from_seed(self):
        for seed in range(8):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["demo", "--seed", str(seed), "--format", "json"]) == 0
            report = json.loads(out.getvalue())
            expected = int(np.random.default_rng(seed).integers(0, 4))
            assert report["hidden_index"] == expected
            assert report["identified_index"] == expected

    def test_plain_format_is_key_equals_value(self):
        proc = run_cli("demo", "--seed", "7", "--bell", "3")
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
        proc = run_cli("demo", "--bell", "5")
        assert proc.returncode == 2


@pytest.mark.parametrize("command", ["demo", "verify"])
def test_negative_seed_is_a_usage_error(command):
    proc = run_cli(command, "--seed", "-1")
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
        proc = run_cli("clone", "--state", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "broken.txt:1" in proc.stderr

    def test_wrong_qubit_count_exits_2(self, tmp_path):
        path = write_state(tmp_path, [SQRT_HALF, SQRT_HALF], num_qubits=1)
        proc = run_cli("clone", "--state", path)
        assert proc.returncode == 2
        assert "2-qubit" in proc.stderr

    def test_bad_norm_exits_2(self, tmp_path):
        path = write_state(tmp_path, [0.9, 0.0, 0.0, 0.0])
        proc = run_cli("clone", "--state", path)
        assert proc.returncode == 2
        assert "norm" in proc.stderr

    @pytest.mark.parametrize("line", ["nan 0", "inf 0", "1e308 1e308"])
    def test_out_of_range_amplitude_exits_2_quietly(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"qubits 2\n{line}\n0 0\n0 0\n0 0\n")
        proc = run_cli("clone", "--state", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "bad.txt:2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    def test_huge_qubit_header_exits_2(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("qubits 20000\n0 0\n")
        proc = run_cli("clone", "--state", str(path))
        assert proc.returncode == 2
        assert "huge.txt:1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_long_over_limit_qubit_count_is_cut(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nines.txt").write_text("qubits " + "9" * 4000 + "\n0 0\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["clone", "--state", "nines.txt"]) == 2
        assert err.getvalue().startswith("error: nines.txt:1: qubit count 9999")
        assert len(err.getvalue().encode()) < 200

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"qubits 2\n\xff\xfe 0\n")
        proc = run_cli("clone", "--state", str(path))
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
        proc = run_cli("clone", "--state", str(tmp_path / "absent.txt"))
        assert proc.returncode == 2

    def test_state_flag_is_required(self):
        proc = run_cli("clone")
        assert proc.returncode == 2


class TestVerify:
    def test_exits_zero_with_all_checks_listed(self):
        proc = run_cli("verify")
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

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("0", "789530bad85ac1ef10224b5254e7051cb88bdde5c628c854864ae26aa78cb858"),
            ("1", "22bccb7a6c597034c62e22a283d4f27711842bb04833cbef6e9bde61e4acfdb1"),
            ("2", "73344c60f7daa462b6acc6ebffa414bbf78d8374799b41c9163df6e6c66f5bec"),
            ("3", "1f480b53c566ea4d0bbaee7fae44153619bd1031580a5013678d5281547b1475"),
        ],
    )
    def test_seeded_report_is_pinned(self, seed, digest):
        # sha256 of the whole report, recorded while every Born shot still
        # built its own default_rng; any moved count, deviation or detail fails.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "--seed", seed]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# sha256 of stdout, recorded before the engine's projections all went through
# _grouped; "@bell" and "@superposition" are the files the clone tests write.
_PINNED_STDOUT = [
    ("demo --seed 0", "b27d23c037c6a569e686077c790cf42f81d0a662d69d37e9ecd406656d6ac58d"),
    ("demo --seed 0 --format json", "41a399dba96fc0dc7dd7e68ff3e8fdecd678fb8062d97d420d14d5567ab34d6e"),
    ("demo --seed 1", "91da6172d1034789710a837a37add16d09ada6088d9b15e486c19f15f930d28b"),
    ("demo --seed 1 --format json", "1601fa79cabf2be038b8337da9a7de9f23eed685addbdf8795f475aae256f93d"),
    ("demo --seed 5", "c05e0b276d29205b777a1b9abe33ab2df0f1e49e53b964c3b044b8eb0bbff282"),
    ("demo --seed 5 --format json", "369574beb326b496d93052fdcb23b84e90369b6eca3994deb6f31c25529dcdbf"),
    ("matrix encode", "039ab909566860bcb1049f1c998e237152403952c46a14f07611c54e2e98d8c6"),
    ("matrix decode", "45f429e28a86aeb52f0929c7c292176c92a578d2b42326134119ea942beb3c1d"),
    ("matrix tgp", "8a0d77220c48018a01fff925843c67ffae261ddb3e8ca1f2eeb14b216b73d3e6"),
    ("matrix clone", "ef89db8cfbfaede8de995021d4dcd78fc7e6dfa7af41ae086870529afc7e2539"),
    ("clone --state @bell", "38e0eec3af4b2256406e7d7bc5554c19b078423211e990a7faa6477da26279ea"),
    ("clone --state @bell --format json", "9fc65d022f2bb16452ba9e1e136e06238df4a29e9cdb33b7b39c28626aa559c7"),
    ("clone --state @superposition", "dbe9af32432b9773457fb45b8d2059ce11df58e0443b9ac956254be4cb476004"),
    ("clone --state @superposition --format json", "f7d5ab7169229d03eac64f6e961706c8ff40bc50fb89f1a39883a3e0713c52a8"),
]


@pytest.mark.parametrize("command, digest", _PINNED_STDOUT)
def test_report_bytes_are_pinned(tmp_path, command, digest):
    files = {
        "@bell": write_state(tmp_path, BELL_AMPLITUDES[1], name="bell.txt"),
        "@superposition": write_state(
            tmp_path, (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / math.sqrt(2), name="sup.txt"
        ),
    }
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([files.get(token, token) for token in command.split()])
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


class TestMatrix:
    @staticmethod
    def parse(stdout):
        rows = []
        for line in stdout.splitlines():
            values = [float(v) for v in line.split()]
            rows.append([complex(values[k], values[k + 1]) for k in range(0, len(values), 2)])
        return np.array(rows)

    def test_encode_columns_are_bell_states(self):
        proc = run_cli("matrix", "encode")
        assert proc.returncode == 0
        unitary = self.parse(proc.stdout)
        assert unitary.shape == (4, 4)
        for index in range(4):
            assert_allclose(unitary[:, index], BELL_AMPLITUDES[index], atol=1e-12)

    def test_decode_times_encode_is_identity(self):
        # two dumps multiplied externally, matching how a reader would check
        encode = self.parse(run_cli("matrix", "encode").stdout)
        decode = self.parse(run_cli("matrix", "decode").stdout)
        assert_allclose(decode @ encode, np.eye(4), atol=1e-12)

    def test_tgp_dump_satisfies_the_subspace_constraints(self):
        unitary = self.parse(run_cli("matrix", "tgp").stdout)
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
        unitary = self.parse(run_cli("matrix", "clone").stdout)
        ancilla = np.zeros(4)
        ancilla[0] = 1.0
        for index in range(4):
            out = unitary @ np.kron(BELL_AMPLITUDES[index], ancilla)
            assert_allclose(out, np.kron(BELL_AMPLITUDES[index], BELL_AMPLITUDES[index]), atol=1e-12)

    def test_entries_have_17_significant_digits(self):
        line = run_cli("matrix", "encode").stdout.splitlines()[0]
        assert "0.70710678118654746" in line

    def test_unknown_name_exits_2(self):
        proc = run_cli("matrix", "swap")
        assert proc.returncode == 2


def test_no_subcommand_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


_TOKENS = st.sampled_from(
    ["0", "-0", "1", "3", "20000", "0.5", "nan", "inf", "-inf", "1e308", "1e-320", "x"]
)


@st.composite
def _state_file_bytes(draw):
    """A Bell-pair file with a few tokens replaced, lines cut and bytes spliced in."""
    rows = [["qubits", "2"], [repr(SQRT_HALF), "0"], ["0", "0"], ["0", "0"], [repr(SQRT_HALF), "0"]]
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
_WORDS = st.sampled_from(["demo", "clone", "verify", "matrix", "--help", "-h", "encode", "tgp", ""])
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
    if code == 0:
        assert err.getvalue() == ""
    if code == 2:
        assert err.getvalue() != ""
