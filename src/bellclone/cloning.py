"""Nondestructive identification and exact cloning over the Bell basis.

The tagging transform acts on four qubits: an input pair on positions (0, 1)
and two ancillas on (2, 3) prepared in |00>.  When the pair is a Bell basis
element of index i, the transform writes bin(i) onto the ancillas and returns
the pair unchanged.  Measuring the ancillas therefore identifies the pair
without disturbing it, and re-encoding the ancillas produces a second copy.
identify() is two steps: _joint() runs the transform's cached gather plan on the
bare product of the pair and |00>, which keeps the pair's norm, and returns the
register's bare amplitudes; _readouts() gathers their ancilla rows, draws the
outcome per uniform variate and builds one result per outcome drawn; verify's
Born and nondisturbance checks draw through it too.  A Bell pair's ancilla marginal
is a point mass, one nonzero outcome that every variate draws, so _readouts() reads it
without a lookup; given a plain non-negative int seed, identify() builds
default_rng(seed) only when two outcomes or more are possible.  clone() also uses
_joint(), builds the register it returns, reduces its two gathered row blocks through
statevector's _traced() to bare matrices and scores each against the pair through
statevector's _fidelity(), fidelity_mixed()'s formula without its checks.  A call builds
only the states it returns: the register stays bare in identify(), the reduced pairs stay
bare in clone(), and the groupings the register is read by are compiled at import.

Both behaviors are special to the four-state orthonormal input alphabet; on a
superposition of Bell states the transform entangles pair and ancillas and the
clone fidelities drop, as the no-cloning bound demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bell import bell_decode_circuit, bell_encode_circuit, bell_index_of
from .statevector import (
    _built,
    _draw,
    _fidelity,
    _grouped,
    _norm,
    _planned,
    _traced,
    Circuit,
    StateVector,
    basis_state,
    cnot,
    hadamard,
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
# The register's amplitude indices, grouped as _grouped groups the amplitudes themselves:
# row k of each gathers the amplitudes whose pair, or whose ancillas, read k.
_PAIR_ROWS = _grouped(np.arange(16), 4, (0, 1))
_ANCILLA_ROWS = _grouped(np.arange(16), 4, _ANCILLA_QUBITS)
for _rows in (_PAIR_ROWS, _ANCILLA_ROWS):
    _rows.setflags(write=False)


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


def _joint(pair: StateVector, circuit: Circuit) -> np.ndarray:
    """The pair on (0, 1) with |00> ancillas on (2, 3), after ``circuit``'s plan: bare."""
    if pair.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit pair, got {pair.num_qubits} qubits")
    product = (pair.amplitudes[:, None] * _ANCILLAS.amplitudes[None, :]).reshape(-1)
    return _planned(product, circuit)


def _readouts(
    amps: np.ndarray, variates: np.ndarray | list | Callable[[], float]
) -> tuple[np.ndarray, dict]:
    """The one ancilla readout of the register's amplitudes: (outcome drawn per uniform
    variate, {outcome: its result}).

    ``variates`` is a sequence of uniform variates, or a zero-argument callable that returns
    one and is called only if there is something to draw.  On a point mass, a marginal with
    one nonzero outcome, every variate in [0, 1) draws that outcome, so none is looked up.
    """
    rows = amps[_ANCILLA_ROWS]
    marginal = (np.abs(rows) ** 2).sum(axis=1)  # _outcome_marginal's values and layout
    (likely,) = marginal.nonzero()
    if likely.size == 1:
        drawn = np.full(1 if callable(variates) else len(variates), likely[0])
    else:
        drawn = _draw(marginal, [variates()] if callable(variates) else variates)
        likely = np.bincount(drawn, minlength=marginal.size).nonzero()[0]
    results = {}
    for i in likely.tolist():
        residual = _built(StateVector, 2, rows[i] / _norm(rows[i]))
        results[i] = IdentificationResult(i, f"{i:02b}", float(marginal[i]), residual)
    return drawn, results


def identify(pair: StateVector, seed: int) -> IdentificationResult:
    """Identify a Bell pair by tagging ancillas and reading them out.

    The pair goes in on qubits (0, 1) with fresh |00> ancillas on (2, 3); the
    readout's one variate is ``default_rng(seed).random()``, as in measure().
    For Bell basis input the outcome is deterministic (probability 1) and the
    residual pair equals the input, so no generator is built for a plain
    non-negative int seed; the seed only matters on superpositions, where the
    Born rule genuinely has something to sample.  Any other seed goes to
    default_rng at once, so numpy accepts, rejects or advances it on every input.
    """
    def draw() -> float:
        return np.random.default_rng(seed).random()

    amps = _joint(pair, tag_circuit())
    _, results = _readouts(amps, draw if type(seed) is int and seed >= 0 else [draw()])
    (result,) = results.values()
    return result


def clone(pair: StateVector) -> CloneReport:
    """Run the cloning circuit and score both output pairs against the input.

    Reduced states are compared rather than the joint vector so the report is
    honest on superposition inputs, where the two pairs come out entangled.  Each is
    scored as a bare matrix; the report's fidelities are fidelity_mixed's bytes.
    """
    amps = _joint(pair, clone_circuit())
    index = bell_index_of(pair)
    return CloneReport(
        input_label="superposition" if index is None else str(index),
        joint_state=_built(StateVector, 4, amps),
        fidelity_original=_fidelity(_traced(amps[_PAIR_ROWS]), pair.amplitudes),
        fidelity_clone=_fidelity(_traced(amps[_ANCILLA_ROWS]), pair.amplitudes),
        ucm_reference=UCM_REFERENCE,
    )
