"""Nondestructive identification and exact cloning over the Bell basis.

The tagging transform acts on four qubits: an input pair on positions (0, 1)
and two ancillas on (2, 3) prepared in |00>.  When the pair is a Bell basis
element of index i, the transform writes bin(i) onto the ancillas and returns
the pair unchanged.  Measuring the ancillas therefore identifies the pair
without disturbing it, and re-encoding the ancillas produces a second copy.
identify() is two steps: _joint() runs the transform's cached gather plan on the
bare product of the pair and |00>, which keeps the pair's norm, and builds one
state; _readouts() draws the ancilla outcome per uniform variate and builds one
result per outcome drawn; verify's Born and nondisturbance checks draw through it
too.  clone() also uses _joint().

Both behaviors are special to the four-state orthonormal input alphabet; on a
superposition of Bell states the transform entangles pair and ancillas and the
clone fidelities drop, as the no-cloning bound demands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import bell_decode_circuit, bell_encode_circuit, bell_index_of
from .statevector import (
    _built,
    _draw,
    _grouped,
    _outcome_marginal,
    _planned,
    Circuit,
    StateVector,
    basis_state,
    cnot,
    fidelity_mixed,
    hadamard,
    partial_trace,
)

# Bužek–Hillery bound: the best 1->2 clone fidelity a universal machine
# reaches on an unknown single qubit (d=2), the benchmark this
# restricted-alphabet cloner is reported against.  The object cloned here is a
# pair (d=4), for which Werner's optimal universal 1->2 fidelity
# (d+3)/(2(d+1)) is 7/10 (Werner, PRA 58, 1827, 1998).
UCM_REFERENCE = 5.0 / 6.0


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    """What one identification run produced.

    ``index`` is the Bell index read off the ancillas, ``outcome_bits`` the
    raw two-bit measurement record, ``probability`` its Born probability, and
    ``residual_state`` the pair left behind after the ancillas are measured.
    """

    index: int
    outcome_bits: str
    probability: float
    residual_state: StateVector


@dataclass(frozen=True, eq=False)
class CloneReport:
    """Fidelities of both halves of a cloning run against the original pair.

    ``input_label`` names the input: the Bell index as a string when the pair
    is a basis element, "superposition" otherwise.  The two fidelities compare
    the reduced states on (0, 1) and (2, 3) of ``joint_state`` with the input
    pair.  ``ucm_reference`` restates UCM_REFERENCE for side-by-side reading.
    """

    input_label: str
    joint_state: StateVector
    fidelity_original: float
    fidelity_clone: float
    ucm_reference: float


# Circuits and states are immutable values, so each fixed one is built once at import.
_TAG = Circuit(
    4, bell_decode_circuit().gates + (cnot(0, 2), cnot(1, 3)) + bell_encode_circuit().gates
)
_CLONE = Circuit(4, _TAG.gates + (hadamard(2), cnot(2, 3)))
_ANCILLAS = basis_state("00")
_ANCILLA_QUBITS = (2, 3)


def tag_circuit() -> Circuit:
    """Four-qubit transform writing a Bell pair's index onto ancillas (2, 3).

    Realized as decode on the pair, CNOT fan-out of both decoded bits onto
    the ancillas, then re-encode: on span{Bell x |00>} this acts exactly as
    the tagging map, and it is unitary everywhere.
    """
    return _TAG


def clone_circuit() -> Circuit:
    """tag_circuit followed by Bell-encoding the ancillas into a second pair."""
    return _CLONE


def _joint(pair: StateVector, circuit: Circuit) -> StateVector:
    """The pair on (0, 1) with |00> ancillas on (2, 3), after ``circuit``'s plan: one state."""
    if pair.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit pair, got {pair.num_qubits} qubits")
    product = (pair.amplitudes[:, None] * _ANCILLAS.amplitudes[None, :]).reshape(-1)
    return _built(StateVector, 4, _planned(product, circuit))


def _readouts(joint: StateVector, variates: np.ndarray | list) -> tuple[np.ndarray, dict]:
    """The one ancilla readout: (outcome drawn per uniform variate, {outcome: its result})."""
    marginal = _outcome_marginal(joint, _ANCILLA_QUBITS)
    rows = _grouped(joint.amplitudes, 4, _ANCILLA_QUBITS)
    drawn = _draw(marginal, variates)
    results = {}
    for i in set(drawn.tolist()):
        residual = _built(StateVector, 2, rows[i] / np.linalg.norm(rows[i]))
        results[i] = IdentificationResult(i, f"{i:02b}", float(marginal[i]), residual)
    return drawn, results


def identify(pair: StateVector, seed: int) -> IdentificationResult:
    """Identify a Bell pair by tagging ancillas and reading them out.

    The pair goes in on qubits (0, 1) with fresh |00> ancillas on (2, 3); the
    readout's one variate is ``default_rng(seed).random()``, as in measure().
    For Bell basis input the outcome is deterministic (probability 1) and the
    residual pair equals the input; the seed only matters on superpositions,
    where the Born rule genuinely has something to sample.
    """
    _, results = _readouts(_joint(pair, tag_circuit()), [np.random.default_rng(seed).random()])
    (result,) = results.values()
    return result


def clone(pair: StateVector) -> CloneReport:
    """Run the cloning circuit and score both output pairs against the input.

    Reduced states are compared rather than the joint vector so the report is
    honest on superposition inputs, where the two pairs come out entangled.
    """
    joint = _joint(pair, clone_circuit())
    original = partial_trace(joint, (0, 1))
    copy = partial_trace(joint, _ANCILLA_QUBITS)
    index = bell_index_of(pair)
    return CloneReport(
        input_label="superposition" if index is None else str(index),
        joint_state=joint,
        fidelity_original=fidelity_mixed(original, pair),
        fidelity_clone=fidelity_mixed(copy, pair),
        ucm_reference=UCM_REFERENCE,
    )
