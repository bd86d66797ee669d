"""The Bell basis and the circuits that move between it and the computational basis.

Indexing follows the usual two-bit labels: index 0 and 2 are the even-parity
pairs (|00> +/- |11>)/sqrt(2), index 1 and 3 the odd-parity pairs
(|01> +/- |10>)/sqrt(2), with the minus sign on indices 2 and 3.  The encode
circuit sends |bin(i)> to the Bell state of index i; decode is its inverse.
"""

from __future__ import annotations

import numpy as np

from .statevector import (
    SQRT1_2,
    Circuit,
    StateVector,
    _require_integer,
    cnot,
    fidelity_pure,
    hadamard,
)

BELL_INDICES = (0, 1, 2, 3)

_BELL_MATCH_THRESHOLD = 1.0 - 1e-10


# States are immutable values, so each Bell state is built once at import.
_BELL_ROWS = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1), (0, 1, -1, 0))
_BELL_STATES = {i: StateVector(2, SQRT1_2 * np.array(row)) for i, row in enumerate(_BELL_ROWS)}


def _check_index(index) -> None:
    """Reject anything but a Python or numpy integer in 0..3."""
    _require_integer(index, "Bell index")
    if index not in BELL_INDICES:
        raise ValueError(f"Bell index must be 0..3, got {index!r}")


def bell_state(index: int) -> StateVector:
    """Bell basis element of the given index (0..3), one shared state per index."""
    _check_index(index)
    return _BELL_STATES[index]


def origin_bits(index: int) -> str:
    """Two-bit label whose basis state encodes to the Bell state of this index."""
    _check_index(index)
    return format(index, "02b")


# Circuits are immutable values, so each fixed one is built once at import.
_BELL_ENCODE = Circuit(2, (hadamard(0), cnot(0, 1)))
_BELL_DECODE = Circuit(2, (cnot(0, 1), hadamard(0)))


def bell_encode_circuit() -> Circuit:
    """Maps |bin(i)> to the Bell state of index i: Hadamard on the left qubit, then CNOT."""
    return _BELL_ENCODE


def bell_decode_circuit() -> Circuit:
    """Inverse of bell_encode_circuit: CNOT, then Hadamard on the left qubit."""
    return _BELL_DECODE


def bell_index_of(state: StateVector) -> int | None:
    """Index of the Bell state this two-qubit state equals up to global phase, else None."""
    if state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {state.num_qubits} qubits")
    for index, bell in _BELL_STATES.items():
        if fidelity_pure(state, bell) > _BELL_MATCH_THRESHOLD:
            return index
    return None
