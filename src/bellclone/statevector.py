"""n-qubit state-vector engine: gates, measurement, partial trace, dense oracle.

Amplitude ordering: index k encodes the ket |q0 q1 ... q_{n-1}>, read left to
right, with qubit 0 the most significant bit of k.  On two qubits |01> sits at
index 1 and |10> at index 2.  Gates address qubits by these positions.

Everything here is a pure function over value-semantic containers: inputs are
never mutated and stored arrays are frozen.  Gates, measurement and partial
trace index the amplitudes through reshaped views of the stored vector; the
only dense-matrix code path is circuit_unitary(), kept separate so it can serve
as an independent cross-check of the gate loop.  _grouped() is the one
projection helper: partial_trace(), the Born marginal, a record's post_state
and identify()'s residual pair all take the rows it makes by moving a group of
qubits first.  Every caller array passes one intake check,
_frozen_complex_array(), for its shape and finite entries, and a caller's
StateVector or DensityMatrix passes all its checks.  A state built here from a
fresh array takes _built(), which freezes the array uncopied and checks only a
state vector's norm.  _NORM_ATOL is the one tolerance: traces and Born
probabilities are squared norms and take a bound derived from it, wide enough
for any state the norm check accepts.  _evolve() is the one gate loop, on
amplitudes as stored, for apply_circuit() and verify's gate checks; each gate
reshapes C-ordered buffers to its qubits' own axes and writes one of two buffers
used by turns, with a third as scratch.  cloning's _joint() runs _planned(), the
gather plan a Circuit compiles once, on its 4-qubit register only; the tests hold
it byte for byte to that loop on 1 to 6 qubits.

measure() draws its outcome by the inverse-CDF lookup that numpy's
Generator.choice performs for a weighted draw, so every seeded outcome matches
choice bit for bit.  The lookup is one helper, _draw(), that takes uniform
variates and knows nothing of seeds; measure() and cloning's _readouts(), the one
ancilla readout, pass it default_rng draws.  A record builds its post-measurement
state, fully checked, on first read, when a caller needs it.  tensor() and _kron()
lay out np.kron's bytes directly; tensor() rescales only a product past the norm bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

SQRT1_2 = 1.0 / np.sqrt(2.0)

HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Identity (Gate's unitarity reference too) and control projectors: _dense_gate's other factors.
_EYE2 = np.eye(2, dtype=complex)
_PROJECT0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_PROJECT1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
for _m in (HADAMARD, PAULI_X, PAULI_Z, _EYE2, _PROJECT0, _PROJECT1):
    _m.setflags(write=False)

# Dense unitaries above this size stop being a desk-scale cross-check.
MAX_DENSE_QUBITS = 12

_NORM_ATOL = 1e-12
# A trace or a probability of a state with |norm - 1| <= _NORM_ATOL is off 1 by up to
# (1 + _NORM_ATOL)**2 - 1, just over 2 * _NORM_ATOL; the third covers its sum's rounding.
_SQUARED_NORM_ATOL = 3 * _NORM_ATOL
_EIGENVALUE_FLOOR = -1e-10

_NAMED_MATRICES = {"hadamard": HADAMARD, "pauli_x": PAULI_X, "pauli_z": PAULI_Z}
_GATE_KINDS = (*_NAMED_MATRICES, "cnot", "single_qubit")


def _require_integer(value, what: str) -> None:
    """Reject anything but a Python or numpy integer, as ``operator.index`` decides."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _require_qubit_count(num_qubits) -> None:
    _require_integer(num_qubits, "num_qubits")
    if num_qubits < 1:
        raise ValueError("num_qubits must be positive")


def _frozen_complex_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A caller's array as a frozen complex copy, checked for its shape and finite entries."""
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def _require_unit_norm(amps: np.ndarray) -> None:
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= _NORM_ATOL:  # "not <=" rejects a NaN norm too
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")


def _built(cls, num_qubits: int, values: np.ndarray):
    """A StateVector or DensityMatrix of a fresh array: frozen uncopied, only a norm checked."""
    if cls is StateVector:
        _require_unit_norm(values)
    values.setflags(write=False)
    if values.base is not None:
        values.base.setflags(write=False)
    made = object.__new__(cls)
    made.__dict__.update(zip(cls.__dataclass_fields__, (num_qubits, values)))
    return made


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _require_qubit_count(self.num_qubits)
        amps = _frozen_complex_array(self.amplitudes, (2**self.num_qubits,), "amplitudes")
        _require_unit_norm(amps)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 operator on ``num_qubits`` qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _require_qubit_count(self.num_qubits)
        dim = 2**self.num_qubits
        mat = _frozen_complex_array(self.matrix, (dim, dim), "matrix entries")
        if np.abs(mat - mat.conj().T).max() > _NORM_ATOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(mat) - 1.0) > _SQUARED_NORM_ATOL:
            raise ValueError("matrix trace is not 1")
        if np.linalg.eigvalsh(mat).min() < _EIGENVALUE_FLOOR:
            raise ValueError("matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate application: a named kind plus the qubit positions it acts on.

    ``matrix`` is the 2x2 unitary of every uncontrolled gate, from a fixed table
    for the named kinds; "cnot" is controlled-X and has none.  Use the factory
    helpers (hadamard, pauli_x, pauli_z, cnot, single_qubit) rather than
    constructing Gate directly.
    """

    kind: str
    target: int
    control: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        _require_integer(self.target, "target index")
        if self.kind == "cnot":
            if self.control is None:
                raise ValueError("cnot requires a control index")
            _require_integer(self.control, "control index")
            if self.control == self.target:
                raise ValueError("cnot control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control qubit")
        if self.kind == "single_qubit":
            mat = _frozen_complex_array(self.matrix, (2, 2), "single_qubit matrix entries")
            if np.abs(mat.conj().T @ mat - _EYE2).max() > _NORM_ATOL:
                raise ValueError("single_qubit matrix is not unitary")
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} takes no matrix")
        else:
            mat = _NAMED_MATRICES.get(self.kind)
        object.__setattr__(self, "matrix", mat)

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)


def hadamard(target: int) -> Gate:
    return Gate("hadamard", target)


def pauli_x(target: int) -> Gate:
    return Gate("pauli_x", target)


def pauli_z(target: int) -> Gate:
    return Gate("pauli_z", target)


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", target, control=control)


def single_qubit(target: int, matrix) -> Gate:
    return Gate("single_qubit", target, matrix=matrix)


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate sequence on a fixed number of qubits, each gate checked to fit them."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        _require_qubit_count(self.num_qubits)
        gates = tuple(self.gates)
        for gate in gates:
            for q in gate.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(
                        f"gate on qubit {q} does not fit a {self.num_qubits}-qubit circuit"
                    )
        object.__setattr__(self, "gates", gates)

    @cached_property
    def _plan(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """_planned's (coefficients, indices) per uncontrolled gate, then a final gather; each
        run of CNOTs is a permutation, folded into the indices or the gather after it."""
        index = np.arange(2**self.num_qubits)
        steps, gather = [], index
        for gate in self.gates:
            bit = index.size >> (gate.target + 1)  # qubit 0 is the most significant bit
            if gate.control is None:
                # Row j: each output's matrix entry (its target bit, j), its input with bit j.
                coefficients = gate.matrix.T[:, (index & bit) // bit]
                steps.append((coefficients, gather[np.stack((index & ~bit, index | bit))]))
                gather = index
            else:
                control = index.size >> (gate.control + 1)
                gather = gather[np.where(index & control, index ^ bit, index)]
        for array in (*(a for step in steps for a in step), gather):
            array.setflags(write=False)
        return steps, gather


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome of one projective measurement.

    ``outcome`` lists one bit per measured qubit, in the order the qubits
    were requested.  ``probability`` is the Born probability of that outcome
    and ``input_state`` the state that was measured.  ``post_state``, the
    renormalized projection of the input onto the outcome, is built and
    validated on first read and then kept.
    """

    measured_qubits: tuple[int, ...]
    outcome: str
    probability: float
    input_state: StateVector

    def __post_init__(self):
        qubits = _checked_qubits(self.input_state.num_qubits, self.measured_qubits)
        object.__setattr__(self, "measured_qubits", tuple(qubits))
        if any(bit not in "01" for bit in self.outcome):
            raise ValueError(f"outcome must hold only 0s and 1s, got {self.outcome!r}")
        if len(self.outcome) != len(self.measured_qubits):
            raise ValueError("outcome length must match the number of measured qubits")
        if not -_SQUARED_NORM_ATOL <= self.probability <= 1.0 + _SQUARED_NORM_ATOL:
            raise ValueError(f"probability {self.probability!r} outside [0, 1]")

    @cached_property
    def post_state(self) -> StateVector:
        n, amps = self.input_state.num_qubits, self.input_state.amplitudes
        # Row k of the grouped indices lists the amplitudes consistent with outcome k.
        kept = _grouped(np.arange(2**n), n, self.measured_qubits)[int(self.outcome, 2)]
        projected = np.zeros_like(amps)
        projected[kept] = amps[kept]
        return StateVector(n, projected / np.linalg.norm(projected))


def basis_state(bits: str) -> StateVector:
    """Computational basis state |bits>, e.g. basis_state("01")."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bits must be a non-empty string of 0s and 1s, got {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(len(bits), amps)


def _grouped(values: np.ndarray, num_qubits: int, first: Sequence[int]) -> np.ndarray:
    """Matrix of a length-2^n array: rows run over ``first`` (in order), columns the rest."""
    rest = [q for q in range(num_qubits) if q not in first]
    return values.reshape((2,) * num_qubits).transpose(*first, *rest).reshape(2 ** len(first), -1)


def _evolve(view: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """The gates on amplitudes as stored: (2**n,) for one state, (2**n, k) for k columns.

    The result has the input's shape; the input may have any strides, and nothing is
    validated.  Each gate reshapes the C-ordered buffers to its own 3-D or 5-D view.  The
    bytes hold only with the matrix column as multiply's first operand (numpy rounds c * v
    and v * c apart) and a length-1 slice for each half it scales (a 0-d one takes the
    scalar path).
    """
    if not gates:
        return view
    out = np.empty_like(view, order="C")  # so that every reshape of a buffer is a view
    other = np.empty_like(out) if len(gates) > 1 else None
    spare = np.empty_like(out) if any(gate.control is None for gate in gates) else None
    for gate in gates:
        t, c = gate.target, gate.control
        if c is None:
            shape = (1 << t, 2, -1)
            v, o, s = view.reshape(shape), out.reshape(shape), spare.reshape(shape)
            np.multiply(gate.matrix[:, :1], v[:, :1], out=o)
            np.multiply(gate.matrix[:, 1:], v[:, 1:], out=s)
            np.add(o, s, out=o)
        else:
            # Keep the control=0 half; swap the target halves of the control=1 half.
            shape = (1 << min(c, t), 2, 1 << (abs(c - t) - 1), 2, -1)
            v, o = view.reshape(shape), out.reshape(shape)
            if c < t:
                o[:, 0], o[:, 1] = v[:, 0], v[:, 1, :, ::-1]
            else:
                o[:, :, :, 0], o[:, :, :, 1] = v[:, :, :, 0], v[:, ::-1, :, 1]
        view, out, other = out, other, out
    return view


def _planned(amps: np.ndarray, circuit: Circuit) -> np.ndarray:
    """_evolve's products, matrix entry first, and sums on one flat state, by the circuit's
    cached plan: compiling one costs more than an _evolve run, so it serves one fixed register,
    cloning's 4 qubits.  Tested byte-equal to _evolve on 1-6 qubits; on 13 or more the last
    bit has differed."""
    steps, gather = circuit._plan
    for coefficients, indices in steps:
        products = coefficients * amps[indices]
        amps = products[0] + products[1]
    return amps[gather]


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate and return the new state; the input is untouched."""
    return apply_circuit(state, Circuit(state.num_qubits, (gate,)))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply the gates in listed order through _evolve, checking only the final norm."""
    n = state.num_qubits
    if circuit.num_qubits != n:
        raise ValueError(f"circuit acts on {circuit.num_qubits} qubits, state has {n}")
    amps = _evolve(state.amplitudes, circuit.gates)
    return _built(StateVector, n, amps if circuit.gates else amps.copy())


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the leftmost positions."""
    product = (a.amplitudes[:, None] * b.amplitudes[None, :]).reshape(-1)
    try:
        return _built(StateVector, a.num_qubits + b.num_qubits, product)
    except ValueError:  # two norms within the bound can multiply past it
        return _built(StateVector, a.num_qubits + b.num_qubits, product / np.linalg.norm(product))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugating a."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to the global phase of either argument."""
    value = abs(inner_product(a, b)) ** 2
    return float(min(1.0, value))


def _checked_qubits(num_qubits: int, qubits: Sequence[int]) -> list[int]:
    qubits = list(qubits)
    if not qubits:
        raise ValueError("at least one qubit index is required")
    for q in qubits:
        _require_integer(q, "qubit index")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
    return qubits


def partial_trace(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (in the given order), tracing out the rest."""
    n = state.num_qubits
    keep = _checked_qubits(n, keep)
    rows = _grouped(state.amplitudes, n, keep)
    return _built(DensityMatrix, len(keep), rows @ rows.conj().T)


def fidelity_mixed(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi|rho|psi>; agrees with fidelity_pure when rho is a pure projector."""
    if rho.num_qubits != psi.num_qubits:
        raise ValueError("operator and state have different qubit counts")
    value = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real
    return float(min(1.0, max(0.0, value)))


def _outcome_marginal(state: StateVector, qubits: list[int]) -> np.ndarray:
    """Born probabilities of each outcome of ``qubits``, in outcome-index order."""
    return _grouped(np.abs(state.amplitudes) ** 2, state.num_qubits, qubits).sum(axis=1)


def measurement_distribution(state: StateVector, qubits: Sequence[int]) -> dict[str, float]:
    """Exact Born distribution of measuring ``qubits``, keyed by outcome bit string."""
    qubits = _checked_qubits(state.num_qubits, qubits)
    marginal = _outcome_marginal(state, qubits)
    width = len(qubits)
    return {format(o, f"0{width}b"): float(p) for o, p in enumerate(marginal)}


def _draw(marginal: np.ndarray, variates: np.ndarray | float) -> np.ndarray:
    """Outcome index per uniform variate, looked up in the normalized CDF as choice does."""
    cdf = np.cumsum(marginal / marginal.sum())
    cdf /= cdf[-1]
    return cdf.searchsorted(variates, side="right")


def measure(state: StateVector, qubits: Sequence[int], seed: int) -> MeasurementRecord:
    """Projectively measure ``qubits``, sampling the outcome by the Born rule.

    The draw is a pure function of ``seed``: one uniform variate from
    ``default_rng(seed)`` looked up in the normalized cumulative Born
    distribution, the algorithm ``Generator.choice(n, p=...)`` runs, so the
    outcome equals that call's.  Repeated calls with the same arguments
    return the identical record.  The record's ``post_state``, the projection
    onto the sampled outcome renormalized, is built when first read.
    """
    qubits = _checked_qubits(state.num_qubits, qubits)
    marginal = _outcome_marginal(state, qubits)
    index = int(_draw(marginal, np.random.default_rng(seed).random()))
    outcome = format(index, f"0{len(qubits)}b")
    return MeasurementRecord(tuple(qubits), outcome, float(marginal[index]), state)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products, laid out the same way."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def _dense_gate(gate: Gate, num_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, built by Kronecker products only."""
    if gate.control is not None:
        keep = [_EYE2] * num_qubits
        keep[gate.control] = _PROJECT0
        flip = [_EYE2] * num_qubits
        flip[gate.control] = _PROJECT1
        flip[gate.target] = PAULI_X
        return reduce(_kron, keep) + reduce(_kron, flip)
    factors = [_EYE2] * num_qubits
    factors[gate.target] = gate.matrix
    return reduce(_kron, factors)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit, as a brute-force reference.

    Deliberately shares no code with _evolve, the gate loop: each gate is expanded to a
    full matrix via Kronecker products and the expansions are multiplied in
    application order.  Refuses circuits beyond MAX_DENSE_QUBITS qubits.
    """
    if circuit.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense unitary limited to {MAX_DENSE_QUBITS} qubits, "
            f"got {circuit.num_qubits}"
        )
    unitary = np.eye(2**circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        unitary = _dense_gate(gate, circuit.num_qubits) @ unitary
    return unitary
