"""Reading amplitude vectors from plain text files.

Format: a header line ``qubits N`` followed by exactly 2^N amplitude lines,
each holding the real and imaginary parts as two whitespace-separated floats.
Blank lines and lines starting with ``#`` are ignored anywhere in the file.
The amplitudes must form a normalized vector up to a loose file tolerance;
they are renormalized on load so downstream code sees an exact unit vector.
The file must be UTF-8 text, and the header may name at most 30 qubits.
"""

from __future__ import annotations

import io

import numpy as np

from .statevector import StateVector

_FILE_NORM_ATOL = 1e-6
# A normalized vector has no real or imaginary part beyond this; the
# comparison ``not abs(x) <= _MAX_COMPONENT`` also rejects nan and inf.
_MAX_COMPONENT = 1.0 + _FILE_NORM_ATOL
# 2^30 amplitude lines is far beyond any file this reader is meant for, and
# the cap keeps 2^N from being computed for an absurd header.
_MAX_FILE_QUBITS = 30


class StateFileError(ValueError):
    """Raised when a state file is malformed; the message carries file:line."""


def read_state_file(path: str) -> StateVector:
    """Parse ``path`` into a StateVector, or raise StateFileError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise StateFileError(f"{path}:{lineno}: file is not UTF-8 text ({exc.reason})") from None
    # Split lines exactly as a text-mode open() would (universal newlines).
    lines = io.StringIO(text, newline=None).readlines()

    content = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not content:
        raise StateFileError(f"{path}: file holds no content lines")

    header_lineno, header = content[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "qubits":
        raise StateFileError(f"{path}:{header_lineno}: expected header 'qubits N', got {header!r}")
    try:
        num_qubits = int(fields[1])
    except ValueError:
        raise StateFileError(f"{path}:{header_lineno}: qubit count {fields[1]!r} is not an integer")
    if num_qubits < 1:
        raise StateFileError(f"{path}:{header_lineno}: qubit count must be positive")
    if num_qubits > _MAX_FILE_QUBITS:
        raise StateFileError(
            f"{path}:{header_lineno}: qubit count {num_qubits} exceeds the file limit "
            f"of {_MAX_FILE_QUBITS}"
        )

    expected = 2**num_qubits
    body = content[1:]
    if len(body) != expected:
        raise StateFileError(
            f"{path}:{header_lineno}: expected {expected} amplitude lines "
            f"for {num_qubits} qubits, found {len(body)}"
        )

    amps = np.zeros(expected, dtype=complex)
    for k, (lineno, line) in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise StateFileError(
                f"{path}:{lineno}: expected two floats (real imag), got {line!r}"
            )
        try:
            real, imag = float(parts[0]), float(parts[1])
        except ValueError:
            raise StateFileError(f"{path}:{lineno}: could not parse {line!r} as two floats")
        if not (abs(real) <= _MAX_COMPONENT and abs(imag) <= _MAX_COMPONENT):
            raise StateFileError(
                f"{path}:{lineno}: amplitude {line!r} is not finite or has a part "
                f"beyond {_MAX_COMPONENT} in magnitude"
            )
        amps[k] = complex(real, imag)

    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > _FILE_NORM_ATOL:
        raise StateFileError(
            f"{path}: amplitudes have norm {norm:.9f}, further than {_FILE_NORM_ATOL} from 1"
        )
    return StateVector(num_qubits, amps / norm)
