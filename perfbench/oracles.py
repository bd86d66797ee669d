"""Independent correctness oracles for the benchmark workloads.

Nothing here imports bellclone.  Gate matrices and Bell amplitudes are written
out literally, circuits are replayed with einsum on a ``(2,) * n`` view rather
than the library's strided index arithmetic, and expected fidelities come from
closed forms over the coefficients the generator hid in each input.  Every
function returns ``None`` when the output is right and a one-line reason when
it is not, so a wrong op counts as a failure instead of stopping the run.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Rows are the Bell states |b0>..|b3> in the amplitude order |00>..|11>.
BELL_ROWS = np.array(
    [
        [SQRT_HALF, 0.0, 0.0, SQRT_HALF],
        [0.0, SQRT_HALF, SQRT_HALF, 0.0],
        [SQRT_HALF, 0.0, 0.0, -SQRT_HALF],
        [0.0, SQRT_HALF, -SQRT_HALF, 0.0],
    ],
    dtype=complex,
)

ONE_QUBIT = {
    "hadamard": np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex),
    "pauli_x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "pauli_z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# CNOT as a (2, 2, 2, 2) tensor indexed [control_out, target_out, control_in, target_in].
CNOT_TENSOR = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
).reshape(2, 2, 2, 2)

VERIFY_CHECKS = 19

BASIS_PROBABILITY_ATOL = 1e-12
BASIS_FIDELITY_FLOOR = 1.0 - 1e-9
SUPERPOSITION_ATOL = 1e-10
WIDE_STATE_ATOL = 1e-10
WIDE_MARGINAL_ATOL = 1e-12


def check_verify(code: int, stdout: str) -> str | None:
    """``verify`` passed: exit 0, one PASS line per check, then the summary."""
    lines = stdout.splitlines()
    if code != 0:
        return f"verify exited {code}"
    if len(lines) != VERIFY_CHECKS + 1:
        return f"verify printed {len(lines)} lines, expected {VERIFY_CHECKS + 1}"
    passing = sum(1 for line in lines[:-1] if line.startswith("PASS "))
    if passing != VERIFY_CHECKS:
        return f"verify printed {passing} PASS lines, expected {VERIFY_CHECKS}"
    if lines[-1] != f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed":
        return f"verify summary reads {lines[-1]!r}"
    return None


def check_pair_basis(hidden: int, found, report) -> str | None:
    """A Bell basis input is identified with certainty and cloned exactly."""
    if found.index != hidden:
        return f"identified {found.index}, hidden {hidden}"
    if abs(found.probability - 1.0) > BASIS_PROBABILITY_ATOL:
        return f"basis identification probability {found.probability!r}"
    if report.input_label != str(hidden):
        return f"clone labelled the input {report.input_label!r}, hidden {hidden}"
    for side in ("fidelity_original", "fidelity_clone"):
        value = getattr(report, side)
        if not value >= BASIS_FIDELITY_FLOOR:
            return f"basis {side} {value!r} below {BASIS_FIDELITY_FLOOR!r}"
    return None


def check_pair_superposition(coefficients: np.ndarray, found, report) -> str | None:
    """A superposition sum c_i|b_i> clones at sum |c_i|^4, and identifies as i with |c_i|^2."""
    weights = np.abs(coefficients) ** 2
    expected = float(np.sum(weights**2))
    for side in ("fidelity_original", "fidelity_clone"):
        value = getattr(report, side)
        if not abs(value - expected) <= SUPERPOSITION_ATOL:
            return f"superposition {side} {value!r}, expected {expected!r}"
    if found.index not in range(4):
        return f"identified index {found.index!r} outside 0..3"
    if not abs(found.probability - weights[found.index]) <= SUPERPOSITION_ATOL:
        return (
            f"identify probability {found.probability!r} for outcome {found.index}, "
            f"expected {float(weights[found.index])!r}"
        )
    if report.input_label != "superposition":
        return f"clone labelled a superposition {report.input_label!r}"
    return None


def _contract(*operands):
    """einsum in operand-sublist form, letting numpy route it through tensordot."""
    return np.einsum(*operands, optimize=True)


def evolve(amplitudes: np.ndarray, num_qubits: int, gates) -> np.ndarray:
    """Replay ``gates`` (kind, target, control, matrix) with einsum on the qubit-axis view."""
    psi = np.asarray(amplitudes, dtype=complex).reshape((2,) * num_qubits)
    axes = list(range(num_qubits))
    fresh = num_qubits
    for kind, target, control, matrix in gates:
        if kind == "cnot":
            out = list(axes)
            out[control], out[target] = fresh, fresh + 1
            psi = _contract(CNOT_TENSOR, [fresh, fresh + 1, control, target], psi, axes, out)
        else:
            mat = ONE_QUBIT[kind] if matrix is None else np.asarray(matrix, dtype=complex)
            out = list(axes)
            out[target] = fresh
            psi = _contract(mat, [fresh, target], psi, axes, out)
    return psi.reshape(-1)


def marginal(amplitudes: np.ndarray, num_qubits: int, qubits) -> np.ndarray:
    """Born probabilities of ``qubits``, flattened in outcome-bit order."""
    probs = (np.abs(amplitudes) ** 2).reshape((2,) * num_qubits)
    return np.einsum(probs, list(range(num_qubits)), list(qubits)).reshape(-1)


def reduced_density(amplitudes: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """rho_keep = Tr_rest |psi><psi|, contracted with einsum over the traced axes."""
    psi = amplitudes.reshape((2,) * num_qubits)
    bra_axes = list(range(num_qubits))
    for slot, q in enumerate(keep):
        bra_axes[q] = num_qubits + slot
    out = list(keep) + [num_qubits + slot for slot in range(len(keep))]
    dim = 2 ** len(keep)
    return _contract(psi, list(range(num_qubits)), psi.conj(), bra_axes, out).reshape(dim, dim)


def check_wide(initial: np.ndarray, num_qubits: int, gates, measured, kept,
               final, record, rho) -> str | None:
    """The evolved state, the Born marginal of the sampled outcome and the reduced state."""
    expected = evolve(initial, num_qubits, gates)
    drift = float(np.max(np.abs(final.amplitudes - expected)))
    if not drift <= WIDE_STATE_ATOL:
        return f"final state differs from the einsum replay by {drift!r}"
    outcome = int(record.outcome, 2)
    born = marginal(expected, num_qubits, measured)
    if not abs(record.probability - born[outcome]) <= WIDE_MARGINAL_ATOL:
        return (
            f"outcome {record.outcome} probability {record.probability!r}, "
            f"expected {float(born[outcome])!r}"
        )
    if not born[outcome] > 0.0:
        return f"sampled outcome {record.outcome} has zero Born probability"
    rho_drift = float(np.max(np.abs(rho.matrix - reduced_density(expected, num_qubits, kept))))
    if not rho_drift <= WIDE_STATE_ATOL:
        return f"reduced state differs from the einsum contraction by {rho_drift!r}"
    return None
