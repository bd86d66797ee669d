import numpy as np
import pytest
from numpy.testing import assert_allclose

from bellclone import StateFileError, read_state_file

from oracles import BELL_AMPLITUDES, SQRT_HALF


def write(tmp_path, text, name="state.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_reads_a_bell_pair(tmp_path):
    path = write(
        tmp_path,
        f"qubits 2\n0 0\n{SQRT_HALF!r} 0\n{SQRT_HALF!r} 0\n0 0\n",
    )
    state = read_state_file(path)
    assert state.num_qubits == 2
    assert_allclose(state.amplitudes, BELL_AMPLITUDES[1], atol=1e-12)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = write(
        tmp_path,
        "# a single qubit\n\nqubits 1\n# amplitudes follow\n1 0\n\n0 0\n# trailing note\n",
    )
    state = read_state_file(path)
    assert state.num_qubits == 1
    assert state.amplitudes[0] == 1.0


def test_complex_amplitudes_parse(tmp_path):
    path = write(tmp_path, f"qubits 1\n0 {SQRT_HALF!r}\n-{SQRT_HALF!r} 0\n")
    state = read_state_file(path)
    assert state.amplitudes[0] == pytest.approx(SQRT_HALF * 1j, abs=1e-12)
    assert state.amplitudes[1] == pytest.approx(-SQRT_HALF, abs=1e-12)


def test_loose_norm_is_renormalized(tmp_path):
    # off by ~1e-7 in norm: accepted, and the loaded state is exactly unit
    wobble = SQRT_HALF * (1 + 1e-7)
    path = write(tmp_path, f"qubits 1\n{wobble!r} 0\n{SQRT_HALF!r} 0\n")
    state = read_state_file(path)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_norm_too_far_off_is_rejected(tmp_path):
    path = write(tmp_path, "qubits 1\n1 0\n0.01 0\n")
    with pytest.raises(StateFileError, match="norm"):
        read_state_file(path)


def test_empty_file_is_rejected(tmp_path):
    path = write(tmp_path, "# nothing but comments\n\n")
    with pytest.raises(StateFileError, match="no content"):
        read_state_file(path)


def test_missing_header_is_rejected(tmp_path):
    path = write(tmp_path, "1 0\n0 0\n")
    with pytest.raises(StateFileError, match="qubits N"):
        read_state_file(path)


def test_non_integer_qubit_count_is_rejected(tmp_path):
    path = write(tmp_path, "qubits two\n1 0\n0 0\n")
    with pytest.raises(StateFileError, match="not an integer"):
        read_state_file(path)


def test_zero_qubit_count_is_rejected(tmp_path):
    path = write(tmp_path, "qubits 0\n1 0\n")
    with pytest.raises(StateFileError, match="positive"):
        read_state_file(path)


def test_wrong_line_count_is_rejected(tmp_path):
    path = write(tmp_path, "qubits 2\n1 0\n0 0\n0 0\n")
    with pytest.raises(StateFileError, match="expected 4 amplitude lines"):
        read_state_file(path)


def test_malformed_amplitude_line_reports_its_number(tmp_path):
    path = write(tmp_path, "qubits 1\n1 0\n0\n")
    with pytest.raises(StateFileError, match=r":3:"):
        read_state_file(path)


def test_non_numeric_amplitude_reports_its_number(tmp_path):
    path = write(tmp_path, "qubits 1\none 0\n0 0\n")
    with pytest.raises(StateFileError, match=r":2:.*two floats"):
        read_state_file(path)


def test_error_message_names_the_file(tmp_path):
    path = write(tmp_path, "qubits 2\n1 0\n", name="short.txt")
    with pytest.raises(StateFileError, match="short.txt"):
        read_state_file(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line", ["nan 0", "0 nan", "inf 0", "0 -inf", "1e308 1e308", "1.5 0"])
def test_non_finite_or_oversized_amplitude_reports_its_number(tmp_path, line):
    path = write(tmp_path, f"qubits 1\n0 0\n{line}\n")
    with pytest.raises(StateFileError, match=r"state.txt:3:.*not finite"):
        read_state_file(path)


@pytest.mark.parametrize("count", ["20000", "1000000000"])
def test_huge_qubit_count_is_rejected_before_sizing(tmp_path, count):
    path = write(tmp_path, f"# header on line 2\nqubits {count}\n0 0\n")
    with pytest.raises(StateFileError, match=r"state.txt:2:.*exceeds"):
        read_state_file(path)


def test_non_utf8_bytes_are_rejected_with_their_line(tmp_path):
    path = tmp_path / "state.txt"
    path.write_bytes(b"qubits 1\n1 0\n\xff 0\n")
    with pytest.raises(StateFileError, match=r"state.txt:3:.*UTF-8"):
        read_state_file(str(path))


def test_crlf_line_endings_parse(tmp_path):
    path = tmp_path / "state.txt"
    path.write_bytes(b"qubits 1\r\n# comment\r\n1 0\r\n0 0\r\n")
    state = read_state_file(str(path))
    assert_allclose(state.amplitudes, [1.0, 0.0])
