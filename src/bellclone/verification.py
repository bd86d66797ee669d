"""Runtime self-check suite behind the ``verify`` CLI command.

Each check exercises one library invariant and reports the largest deviation
it observed next to the tolerance it is held to.  Randomized checks derive
their generator from an explicit seed, so a given seed always produces the
identical report.  Checks look the fixed circuits up in their home modules
each time they run, so a circuit patched there is the one they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bell, cloning, statevector
from .bell import BELL_INDICES, bell_index_of, bell_state, origin_bits
from .cloning import _ANCILLA_QUBITS, UCM_REFERENCE, clone
from .statevector import (
    _draw,
    _outcome_marginal,
    Circuit,
    DensityMatrix,
    Gate,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_state,
    circuit_unitary,
    cnot,
    fidelity_mixed,
    fidelity_pure,
    measurement_distribution,
    partial_trace,
    single_qubit,
    tensor,
)

EXACT_ATOL = 1e-12
COMPOSED_ATOL = 1e-10

_BORN_SHOTS = 10_000
_BORN_SIGMA_LIMIT = 5.0
_NONDISTURBANCE_READOUTS = 100
_CURVE_POINTS = 17
# Unitary with four distinct entries, changed by transposing, conjugating or both.
_SWEEP_MATRIX = np.array([[0.6, 0.8j], [0.8, -0.6j]])


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    deviation: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "deviation", float(self.deviation))

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian amplitudes."""
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def _random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Random circuit drawing uniformly from the supported gate kinds."""
    gates: list[Gate] = []
    kinds = ["hadamard", "pauli_x", "pauli_z", "single_qubit"]
    if num_qubits >= 2:
        kinds.append("cnot")
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "cnot":
            control, target = rng.choice(num_qubits, size=2, replace=False)
            gates.append(cnot(int(control), int(target)))
            continue
        target = int(rng.integers(num_qubits))
        if kind == "single_qubit":
            gates.append(single_qubit(target, _random_unitary_2x2(rng)))
        else:
            gates.append(Gate(kind, target))
    return Circuit(num_qubits, tuple(gates))


def check_gate_norm_preservation(seed: int) -> CheckResult:
    """Single gate applications keep the state normalized."""
    rng = np.random.default_rng((seed, 1))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        gate = random_circuit(n, 1, rng).gates[0]
        try:
            norm = np.linalg.norm(apply_gate(state, gate).amplitudes)
        except ValueError as error:  # apply_gate's StateVector rejected the result
            return CheckResult("gate-norm-preservation", EXACT_ATOL, 1.0, str(error))
        worst = max(worst, abs(norm - 1.0))
    return CheckResult("gate-norm-preservation", EXACT_ATOL, worst)


def check_circuit_linearity(seed: int) -> CheckResult:
    """Circuits act linearly on superpositions of orthogonal states."""
    rng = np.random.default_rng((seed, 2))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(n, int(rng.integers(1, 13)), rng)
        u = random_state(n, rng)
        raw = random_state(n, rng).amplitudes
        raw = raw - np.vdot(u.amplitudes, raw) * u.amplitudes
        v = StateVector(n, raw / np.linalg.norm(raw))
        phi = rng.uniform(0.0, math.pi / 2)
        alpha = math.cos(phi)
        beta = math.sin(phi) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        mixed = StateVector(n, alpha * u.amplitudes + beta * v.amplitudes)
        via_sum = (
            alpha * apply_circuit(u, circuit).amplitudes
            + beta * apply_circuit(v, circuit).amplitudes
        )
        worst = max(worst, _max_abs(apply_circuit(mixed, circuit).amplitudes - via_sum))
    return CheckResult("circuit-linearity", COMPOSED_ATOL, worst)


def _sweep_circuits() -> list[Circuit]:
    """One-gate circuits: every kind on every target, CNOT on every pair; then the fixed four."""
    circuits = []
    for n, t in ((n, t) for n in range(1, 5) for t in range(n)):
        named = [Gate(kind, t) for kind in ("hadamard", "pauli_x", "pauli_z")]
        gates = [*named, single_qubit(t, _SWEEP_MATRIX), *(cnot(c, t) for c in range(n) if c != t)]
        circuits += [Circuit(n, (gate,)) for gate in gates]
    bell_pair = [bell.bell_encode_circuit(), bell.bell_decode_circuit()]
    return circuits + bell_pair + [cloning.tag_circuit(), cloning.clone_circuit()]


def check_kernel_against_dense() -> tuple[CheckResult, CheckResult]:
    """Axis-view kernels agree with the dense-matrix route, which is itself unitary.

    Seed-free and exhaustive: each circuit of _sweep_circuits() runs once through
    statevector._evolve on the identity's columns as a batch, held to circuit_unitary.
    Both routes are linear in the state, so that covers every input.
    """
    worst_agreement = worst_unitarity = 0.0
    for circuit in _sweep_circuits():
        n, unitary = circuit.num_qubits, circuit_unitary(circuit)
        columns = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
        fast = statevector._evolve(columns, circuit.gates).reshape(2**n, 2**n)
        worst_agreement = max(worst_agreement, _max_abs(fast - unitary))
        worst_unitarity = max(worst_unitarity, _max_abs(unitary.conj().T @ unitary - np.eye(2**n)))
    return (
        CheckResult("kernel-dense-agreement", COMPOSED_ATOL, worst_agreement),
        CheckResult("dense-unitarity", COMPOSED_ATOL, worst_unitarity),
    )


def check_born_normalization(seed: int) -> CheckResult:
    """measurement_distribution is a complete nonnegative distribution."""
    rng = np.random.default_rng((seed, 4))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        k = int(rng.integers(1, n + 1))
        qubits = [int(q) for q in rng.choice(n, size=k, replace=False)]
        dist = measurement_distribution(state, qubits)
        worst = max(worst, abs(sum(dist.values()) - 1.0))
        worst = max(worst, max(0.0, -min(dist.values())))
        if len(dist) != 2**k:
            worst = max(worst, 1.0)
    return CheckResult("born-distribution-normalization", EXACT_ATOL, worst)


def check_born_statistics(seed: int) -> CheckResult:
    """Sampled frequencies track the exact distribution, in binomial sigmas.

    The probe state is the tagged superposition (b0+b1)/sqrt(2) with the
    ancillas measured: outcomes "00" and "01" are equally likely and the
    other two outcomes are impossible, so any stray count is an instant fail.
    All 10,000 shots are looked up in the probe's marginal at once, their
    variates drawn from default_rng((seed, 7)).
    """
    pair = StateVector(2, (bell_state(0).amplitudes + bell_state(1).amplitudes) / math.sqrt(2))
    state = cloning._joint(pair, cloning.tag_circuit())
    marginal = _outcome_marginal(state, _ANCILLA_QUBITS)
    shots = _draw(marginal, np.random.default_rng((seed, 7)).random(_BORN_SHOTS))
    counts = {format(o, "02b"): int(c) for o, c in enumerate(np.bincount(shots, minlength=4))}
    sigma = math.sqrt(_BORN_SHOTS * 0.5 * 0.5)
    deviation = max(abs(counts["00"] - 5000), abs(counts["01"] - 5000)) / sigma
    if counts["10"] or counts["11"]:
        deviation = max(deviation, 1000.0)
    detail = "counts " + " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    return CheckResult("born-sampling-statistics", _BORN_SIGMA_LIMIT, deviation, detail)


def check_partial_trace_product(seed: int) -> CheckResult:
    """Tracing a product state down to one factor gives that factor's projector."""
    rng = np.random.default_rng((seed, 5))
    worst = 0.0
    for _ in range(20):
        na = int(rng.integers(1, 3))
        nb = int(rng.integers(1, 3))
        a = random_state(na, rng)
        b = random_state(nb, rng)
        joint = tensor(a, b)
        rho_a = partial_trace(joint, range(na)).matrix
        rho_b = partial_trace(joint, range(na, na + nb)).matrix
        worst = max(worst, _max_abs(rho_a - np.outer(a.amplitudes, a.amplitudes.conj())))
        worst = max(worst, _max_abs(rho_b - np.outer(b.amplitudes, b.amplitudes.conj())))
    return CheckResult("partial-trace-product", EXACT_ATOL, worst)


def check_fidelity_conventions(seed: int) -> CheckResult:
    """fidelity_mixed on a pure projector equals fidelity_pure."""
    rng = np.random.default_rng((seed, 6))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        psi = random_state(n, rng)
        phi = random_state(n, rng)
        projector = DensityMatrix(n, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        worst = max(worst, abs(fidelity_mixed(projector, phi) - fidelity_pure(psi, phi)))
    return CheckResult("fidelity-convention-agreement", EXACT_ATOL, worst)


def check_bell_orthonormality() -> CheckResult:
    worst = 0.0
    for i in BELL_INDICES:
        for j in BELL_INDICES:
            overlap = fidelity_pure(bell_state(i), bell_state(j))
            worst = max(worst, abs(overlap - (1.0 if i == j else 0.0)))
    return CheckResult("bell-orthonormality", EXACT_ATOL, worst)


def check_encode_columns() -> CheckResult:
    """The encoder's dense unitary has the four Bell states as its columns."""
    unitary = circuit_unitary(bell.bell_encode_circuit())
    worst = max(
        _max_abs(unitary[:, i] - bell_state(i).amplitudes) for i in BELL_INDICES
    )
    return CheckResult("encode-columns", EXACT_ATOL, worst)


def check_decode_encode_identity() -> CheckResult:
    decode, encode = bell.bell_decode_circuit(), bell.bell_encode_circuit()
    product = circuit_unitary(decode) @ circuit_unitary(encode)
    return CheckResult(
        "decode-encode-identity", EXACT_ATOL, _max_abs(product - np.eye(4))
    )


def check_bell_roundtrip() -> CheckResult:
    """Encoding |bin(i)> and recognizing the result recovers i, for every i."""
    encode = bell.bell_encode_circuit()
    bad = [
        i
        for i in BELL_INDICES
        if bell_index_of(apply_circuit(basis_state(origin_bits(i)), encode)) != i
    ]
    detail = f"misidentified indices: {bad}" if bad else ""
    return CheckResult("bell-roundtrip", 0.0, float(len(bad)), detail)


def check_tag_subspace_action() -> CheckResult:
    """Tagging writes bin(i) onto the ancillas and leaves the pair alone, in raw amplitudes."""
    circuit = cloning.tag_circuit()
    worst = 0.0
    for i in BELL_INDICES:
        out = cloning._joint(bell_state(i), circuit)
        expected = np.kron(bell_state(i).amplitudes, basis_state(origin_bits(i)).amplitudes)
        worst = max(worst, _max_abs(out.amplitudes - expected))
    return CheckResult("tag-subspace-action", EXACT_ATOL, worst)


def check_exact_cloning() -> CheckResult:
    """Cloning a Bell basis element yields the exact doubled product state."""
    circuit = cloning.clone_circuit()
    worst = 0.0
    for i in BELL_INDICES:
        out = cloning._joint(bell_state(i), circuit)
        expected = np.kron(bell_state(i).amplitudes, bell_state(i).amplitudes)
        worst = max(worst, _max_abs(out.amplitudes - expected))
    return CheckResult("exact-cloning", EXACT_ATOL, worst)


def check_identification_point_mass() -> CheckResult:
    """After tagging, the ancilla distribution is a point mass at bin(i)."""
    circuit = cloning.tag_circuit()
    worst = 0.0
    for i in BELL_INDICES:
        tagged = cloning._joint(bell_state(i), circuit)
        dist = measurement_distribution(tagged, _ANCILLA_QUBITS)
        for bits, prob in dist.items():
            target = 1.0 if bits == origin_bits(i) else 0.0
            worst = max(worst, abs(prob - target))
    return CheckResult("identification-point-mass", EXACT_ATOL, worst)


def check_nondisturbance(seed: int) -> CheckResult:
    """Measuring the ancillas never moves a Bell pair, read out per default_rng((seed, 8)) draw."""
    variates = np.random.default_rng((seed, 8)).random(_NONDISTURBANCE_READOUTS)
    worst = 0.0
    for i in BELL_INDICES:
        pair = bell_state(i)
        try:
            results = cloning._readouts(cloning._joint(pair, cloning.tag_circuit()), variates)
        except ValueError as error:  # a residual StateVector was rejected
            return CheckResult("measurement-nondisturbance", EXACT_ATOL, 1.0, str(error))
        for result in results:
            worst = max(worst, 1.0 - fidelity_pure(result.residual_state, pair))
            worst = max(worst, abs(result.probability - 1.0))
            if result.index != i:
                worst = max(worst, 1.0)
    return CheckResult("measurement-nondisturbance", EXACT_ATOL, worst)


def check_transform_unitarity() -> CheckResult:
    worst = 0.0
    for circuit in (cloning.tag_circuit(), cloning.clone_circuit()):
        unitary = circuit_unitary(circuit)
        worst = max(worst, _max_abs(unitary.conj().T @ unitary - np.eye(16)))
    return CheckResult("transform-unitarity", COMPOSED_ATOL, worst)


def check_no_cloning_curve() -> CheckResult:
    """Superpositions of b0 and b1 clone at cos^4 + sin^4, strictly below 1.

    Interior grid of the angle theta on (0, pi/2); a fidelity reaching 1
    anywhere on it would contradict the no-cloning bound and scores as an
    immediate unit deviation.
    """
    b0 = bell_state(0).amplitudes
    b1 = bell_state(1).amplitudes
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, _CURVE_POINTS + 2)[1:-1]:
        pair = StateVector(2, math.cos(theta) * b0 + math.sin(theta) * b1)
        expected = math.cos(theta) ** 4 + math.sin(theta) ** 4
        report = clone(pair)
        worst = max(worst, abs(report.fidelity_original - expected))
        worst = max(worst, abs(report.fidelity_clone - expected))
        if report.fidelity_original >= 1.0 or report.fidelity_clone >= 1.0:
            worst = max(worst, 1.0)
    return CheckResult("no-cloning-curve", COMPOSED_ATOL, worst)


def check_clone_fidelity_vs_ucm() -> CheckResult:
    """Bell-basis clones hit fidelity 1, beating the universal-machine bound."""
    fidelities = []
    for i in BELL_INDICES:
        report = clone(bell_state(i))
        fidelities.extend((report.fidelity_original, report.fidelity_clone))
    lowest = min(fidelities)
    deviation = 1.0 - lowest
    if lowest <= UCM_REFERENCE:
        deviation = max(deviation, 1.0)
    detail = f"lowest clone fidelity {lowest!r} vs ucm reference {UCM_REFERENCE!r}"
    return CheckResult("clone-fidelity-vs-ucm", EXACT_ATOL, deviation, detail)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Every invariant check, in a fixed order, deterministic for a given seed."""
    return [
        check_gate_norm_preservation(seed),
        check_circuit_linearity(seed),
        *check_kernel_against_dense(),
        check_born_normalization(seed),
        check_born_statistics(seed),
        check_partial_trace_product(seed),
        check_fidelity_conventions(seed),
        check_bell_orthonormality(),
        check_encode_columns(),
        check_decode_encode_identity(),
        check_bell_roundtrip(),
        check_tag_subspace_action(),
        check_exact_cloning(),
        check_identification_point_mass(),
        check_nondisturbance(seed),
        check_transform_unitarity(),
        check_no_cloning_curve(),
        check_clone_fidelity_vs_ucm(),
    ]
