"""Reading amplitude vectors from plain text files.

Format: a header line ``qubits N`` followed by exactly 2^N amplitude lines,
each holding the real and imaginary parts as two whitespace-separated floats.
Blank lines and lines starting with ``#`` are ignored anywhere in the file.
The amplitudes must form a normalized vector up to a loose file tolerance;
they are renormalized on load so downstream code sees an exact unit vector.
The file must be UTF-8 text of at most 4 MiB, in lines ending ``\n``, ``\r\n`` or ``\r``.
It is read through ``os.open``/``os.read``, without a buffered file object, until end of
file or one byte past the limit; the amplitudes are parsed into one flat list of floats
that becomes the complex array in one ``np.array(...).view(complex)`` call.
"""

from __future__ import annotations

import os

import numpy as np

from .statevector import StateVector, _built, _norm

_FILE_NORM_ATOL = 1e-6
# A normalized vector has no real or imaginary part beyond this; the
# comparison ``not abs(x) <= _MAX_COMPONENT`` also rejects nan and inf.
_MAX_COMPONENT = 1.0 + _FILE_NORM_ATOL
# Room for any 16-qubit file of repr floats (lines of at most 48 bytes). A line
# takes at least 4 bytes ("0 0\n"), so no file within it has more qubits than
# _MAX_FILE_QUBITS, and checking that first keeps 2**N from being computed.
_MAX_FILE_BYTES = 4 * 1024 * 1024
_MAX_FILE_QUBITS = (_MAX_FILE_BYTES // 4).bit_length() - 1
_FIRST_READ = 64 * 1024  # most files take one read, then one more that finds end of file
# Error messages quote at most this many characters of a line.
_ECHO_CHARS = 64


class StateFileError(ValueError):
    """Raised when a state file is malformed; the message carries file:line."""


def _echo(text: str, show=repr) -> str:
    """``show(text)`` (its ``repr`` by default) for a message, cut after _ECHO_CHARS characters."""
    if len(text) <= _ECHO_CHARS:
        return show(text)
    return f"{show(text[:_ECHO_CHARS])}... ({len(text)} characters)"


def _read_capped(path: str) -> bytes:
    """The file's bytes, read until end of file or one byte past _MAX_FILE_BYTES.

    A pipe hands its data over in pieces, so a short read is not taken as end of file.
    """
    fd = os.open(path, os.O_RDONLY)
    chunks, total, size = [], 0, _FIRST_READ
    try:
        while total <= _MAX_FILE_BYTES:
            chunk = os.read(fd, size)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            size = _MAX_FILE_BYTES + 1 - total
    except IsADirectoryError as exc:  # os.read names no file; open() would have named it
        raise IsADirectoryError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_state_file(path: str) -> StateVector:
    """Parse ``path`` into a StateVector, or raise StateFileError."""
    data = _read_capped(path)
    if len(data) > _MAX_FILE_BYTES:
        raise StateFileError(f"{path}: file is larger than {_MAX_FILE_BYTES} bytes")
    content = []
    # With its ending kept, a line fails to decode for the reason the whole file would.
    try:
        for lineno, raw in enumerate(data.splitlines(keepends=True), start=1):
            line = raw.decode("utf-8").strip()
            if line and not line.startswith("#"):
                content.append((lineno, line))
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path}:{lineno}: file is not UTF-8 text ({exc.reason})") from None
    if not content:
        raise StateFileError(f"{path}: file holds no content lines")

    header_lineno, header = content[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "qubits":
        raise StateFileError(
            f"{path}:{header_lineno}: expected header 'qubits N', got {_echo(header)}"
        )
    try:
        num_qubits = int(fields[1])
    except ValueError:
        raise StateFileError(
            f"{path}:{header_lineno}: qubit count {_echo(fields[1])} is not an integer"
        )
    if num_qubits < 1:
        raise StateFileError(f"{path}:{header_lineno}: qubit count must be positive")
    if num_qubits > _MAX_FILE_QUBITS:
        raise StateFileError(
            f"{path}:{header_lineno}: qubit count {_echo(str(num_qubits), str)} "
            f"exceeds the file limit of {_MAX_FILE_QUBITS}"
        )

    expected = 2**num_qubits
    body = content[1:]
    if len(body) != expected:
        raise StateFileError(
            f"{path}:{header_lineno}: expected {expected} amplitude lines "
            f"for {num_qubits} qubits, found {len(body)}"
        )

    values = []  # real, imag, real, imag, ...: the complex array's own float layout
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise StateFileError(
                f"{path}:{lineno}: expected two floats (real imag), got {_echo(line)}"
            )
        try:
            real, imag = float(parts[0]), float(parts[1])
        except ValueError:
            raise StateFileError(f"{path}:{lineno}: could not parse {_echo(line)} as two floats")
        if not (abs(real) <= _MAX_COMPONENT and abs(imag) <= _MAX_COMPONENT):
            raise StateFileError(
                f"{path}:{lineno}: amplitude {_echo(line)} is not finite or has a part "
                f"beyond {_MAX_COMPONENT} in magnitude"
            )
        values += (real, imag)
    amps = np.array(values).view(complex)

    norm = _norm(amps)
    if abs(norm - 1.0) > _FILE_NORM_ATOL:
        raise StateFileError(
            f"{path}: amplitudes have norm {norm:.9f}, further than {_FILE_NORM_ATOL} from 1"
        )
    return _built(StateVector, num_qubits, amps / norm)
