"""Runtime self-check suite behind the ``verify`` CLI command.

Each check exercises one library invariant and reports the largest deviation
it observed next to the tolerance it is held to.  Randomized checks derive
their generator from an explicit seed, so a given seed always produces the
identical report.  Checks look the fixed circuits up in their home modules
each time they run, so a circuit patched there is the one they check; only the
60 one-gate circuits of the kernel sweep, which no home module owns, are built
once at import.  The states and projectors a check makes itself (random_state's
states, the fidelity check's projectors, the Born probe and the no-cloning pairs)
are fresh engine arrays and take statevector._built, a norm check only, not the
public constructors' full intake.  The two randomized gate checks make every draw of
every round first, in random_circuit's order, then build all their 2x2 unitaries with
one stacked QR; the bytes are those of one QR per gate.

``_CHECKS`` is the one list of checks, in report order, and ``_results`` the one escalation:
a check that raises ``ValueError`` FAILs each of its lines at an infinite deviation, and the
other checks still run; ``run_timed_checks`` times each entry.  Every floating-point reading
folds through ``_max_abs``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bell, cloning, statevector
from .bell import BELL_INDICES, bell_index_of, bell_state, origin_bits
from .cloning import _ANCILLA_QUBITS, UCM_REFERENCE, clone
from .statevector import (
    Circuit,
    DensityMatrix,
    Gate,
    StateVector,
    apply_circuit,
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
    """The fold for bare readings: ndarray.max keeps a NaN, so a NaN reading fails its check."""
    return float(np.abs(values).max())


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian amplitudes."""
    size = 2**num_qubits
    amps = np.empty(size, dtype=complex)
    amps.real, amps.imag = rng.normal(size=(2, size))  # the two draws of size, in one call
    amps /= statevector._norm(amps)
    return statevector._built(StateVector, num_qubits, amps)


def _drawn_gates(num_qubits: int, depth: int, rng: np.random.Generator) -> tuple[int, list]:
    """One random circuit's draws, made in random_circuit's order: the kind, then the target
    or the control/target pair, then a single_qubit's raw complex Gaussian 2x2.

    Each gate is (kind, qubits, raw), raw None for all but single_qubit; _built_circuits
    turns the draws into gates.
    """
    kinds = statevector._GATE_KINDS  # the draw order, cnot last
    kinds = kinds if num_qubits >= 2 else kinds[:-1]
    gates = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "cnot":
            control, target = rng.choice(num_qubits, size=2, replace=False)
            gates.append((kind, (int(control), int(target)), None))
            continue
        target = int(rng.integers(num_qubits))
        raw = None
        if kind == "single_qubit":
            real, imag = rng.normal(size=(2, 2, 2))  # the two draws of (2, 2), in one call
            raw = real + 1j * imag
        gates.append((kind, (target,), raw))
    return num_qubits, gates


def _built_circuits(drawn: list[tuple[int, list]]) -> list[Circuit]:
    """The circuits of _drawn_gates' draws, every raw 2x2 made unitary by one stacked QR.

    Mezzadri's recipe (Notices AMS 54, 592, 2007): Q of a complex Gaussian matrix, each
    column times the phase of R's diagonal entry, is Haar-distributed.  numpy runs the same
    LAPACK call on each matrix of a stack, so the bytes are those of one QR per matrix.
    """
    raws = [raw for _, gates in drawn for _, _, raw in gates if raw is not None]
    unitaries = iter(())
    if raws:
        q, r = np.linalg.qr(np.stack(raws))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        unitaries = iter(q * (d / abs(d))[..., None, :])
    circuits = []
    for num_qubits, gates in drawn:
        made = []
        for kind, qubits, raw in gates:
            if kind == "cnot":
                made.append(cnot(*qubits))
            elif raw is not None:
                made.append(single_qubit(*qubits, next(unitaries)))
            else:
                made.append(Gate(kind, *qubits))
        circuits.append(Circuit(num_qubits, tuple(made)))
    return circuits


def random_circuit(num_qubits: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Random circuit drawing uniformly from the supported gate kinds."""
    return _built_circuits([_drawn_gates(num_qubits, depth, rng)])[0]


def check_gate_norm_preservation(seed: int) -> CheckResult:
    """One gate, run by statevector._evolve on a bare state, keeps the norm at 1."""
    rng = np.random.default_rng((seed, 1))
    states, drawn = [], []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        states.append(random_state(n, rng).amplitudes)
        drawn.append(_drawn_gates(n, 1, rng))
    norms = [
        statevector._norm(statevector._evolve(amps, circuit.gates))
        for amps, circuit in zip(states, _built_circuits(drawn))
    ]
    return CheckResult("gate-norm-preservation", EXACT_ATOL, _max_abs(np.subtract(norms, 1.0)))


def check_circuit_linearity(seed: int) -> CheckResult:
    """Orthogonal u, v and alpha*u + beta*v, one bare batch for _evolve, stay linearly related."""
    rng = np.random.default_rng((seed, 2))
    drawn, rounds = [], []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        drawn.append(_drawn_gates(n, int(rng.integers(1, 13)), rng))
        u = random_state(n, rng).amplitudes
        raw = random_state(n, rng).amplitudes
        raw = raw - np.vdot(u, raw) * u
        v = raw / statevector._norm(raw)
        phi = rng.uniform(0.0, math.pi / 2)
        alpha = math.cos(phi)
        beta = math.sin(phi) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        rounds.append((np.stack((u, v, alpha * u + beta * v), axis=-1), alpha, beta))
    residuals = []
    for (batch, alpha, beta), circuit in zip(rounds, _built_circuits(drawn)):
        out = statevector._evolve(batch, circuit.gates)
        residuals.append(_max_abs(out[:, 2] - (alpha * out[:, 0] + beta * out[:, 1])))
    return CheckResult("circuit-linearity", COMPOSED_ATOL, _max_abs(residuals))


# Every kind on every target, and CNOT on every pair, of 1 to 4 qubits.  Circuits are
# immutable values, so this part of the sweep is built once at import.
_ONE_GATE_CIRCUITS = tuple(
    Circuit(n, (gate,))
    for n in range(1, 5)
    for t in range(n)
    for gate in (
        *(Gate(kind, t) for kind in ("hadamard", "pauli_x", "pauli_z")),
        single_qubit(t, _SWEEP_MATRIX),
        *(cnot(c, t) for c in range(n) if c != t),
    )
)


def _sweep_circuits() -> list[Circuit]:
    """The one-gate circuits, then the fixed four, looked up in their home modules each run."""
    bell_pair = [bell.bell_encode_circuit(), bell.bell_decode_circuit()]
    return [*_ONE_GATE_CIRCUITS, *bell_pair, cloning.tag_circuit(), cloning.clone_circuit()]


def check_kernel_against_dense() -> tuple[CheckResult, CheckResult]:
    """Axis-view kernels agree with the dense-matrix route, which is itself unitary.

    Seed-free and exhaustive: each circuit of _sweep_circuits() runs once through
    statevector._evolve on the identity's columns as a bare batch, held to circuit_unitary.
    Both routes are linear in the state, so that covers every input; a NaN reading fails.
    """
    circuits = _sweep_circuits()
    identities = {n: np.eye(2**n, dtype=complex) for n in {c.num_qubits for c in circuits}}
    agreement, unitarity = [], []
    for circuit in circuits:
        unitary, identity = circuit_unitary(circuit), identities[circuit.num_qubits]
        agreement.append(_max_abs(statevector._evolve(identity, circuit.gates) - unitary))
        unitarity.append(_max_abs(unitary.conj().T @ unitary - identity))
    return (
        CheckResult("kernel-dense-agreement", COMPOSED_ATOL, _max_abs(agreement)),
        CheckResult("dense-unitarity", COMPOSED_ATOL, _max_abs(unitarity)),
    )


def check_born_normalization(seed: int) -> CheckResult:
    """measurement_distribution is a complete nonnegative distribution."""
    rng = np.random.default_rng((seed, 4))
    readings = []
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        k = int(rng.integers(1, n + 1))
        qubits = [int(q) for q in rng.choice(n, size=k, replace=False)]
        probs = np.array([*measurement_distribution(state, qubits).values()])
        # np.maximum keeps a NaN, and a positive probability reads 0, not a deviation.
        readings += [sum(probs.tolist()) - 1.0, *np.maximum(-probs, 0.0)]
        if len(probs) != 2**k:
            readings.append(1.0)
    return CheckResult("born-distribution-normalization", EXACT_ATOL, _max_abs(readings))


def check_born_statistics(seed: int) -> CheckResult:
    """Sampled frequencies track the exact distribution, in binomial sigmas.

    The probe state is the tagged superposition (b0+b1)/sqrt(2) with the
    ancillas measured: outcomes "00" and "01" are equally likely and the
    other two outcomes are impossible, so any stray count is an instant fail.
    All 10,000 shots are drawn at once through cloning._readouts, identify's
    own readout, their variates drawn from default_rng((seed, 7)).
    """
    probe = (bell_state(0).amplitudes + bell_state(1).amplitudes) / math.sqrt(2)
    pair = statevector._built(StateVector, 2, probe)
    state = cloning._joint(pair, cloning.tag_circuit())
    shots, _ = cloning._readouts(state, np.random.default_rng((seed, 7)).random(_BORN_SHOTS))
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
    readings = []
    for _ in range(20):
        na = int(rng.integers(1, 3))
        nb = int(rng.integers(1, 3))
        a = random_state(na, rng)
        b = random_state(nb, rng)
        joint = tensor(a, b)
        rho_a = partial_trace(joint, range(na)).matrix
        rho_b = partial_trace(joint, range(na, na + nb)).matrix
        readings.append(_max_abs(rho_a - np.outer(a.amplitudes, a.amplitudes.conj())))
        readings.append(_max_abs(rho_b - np.outer(b.amplitudes, b.amplitudes.conj())))
    return CheckResult("partial-trace-product", EXACT_ATOL, _max_abs(readings))


def check_fidelity_conventions(seed: int) -> CheckResult:
    """fidelity_mixed on a pure projector equals fidelity_pure."""
    rng = np.random.default_rng((seed, 6))
    readings = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        psi = random_state(n, rng)
        phi = random_state(n, rng)
        outer = np.outer(psi.amplitudes, psi.amplitudes.conj())
        projector = statevector._built(DensityMatrix, n, outer)
        readings.append(fidelity_mixed(projector, phi) - fidelity_pure(psi, phi))
    return CheckResult("fidelity-convention-agreement", EXACT_ATOL, _max_abs(readings))


def check_bell_orthonormality() -> CheckResult:
    pairs = [(i, j) for i in BELL_INDICES for j in BELL_INDICES]
    readings = [fidelity_pure(bell_state(i), bell_state(j)) - float(i == j) for i, j in pairs]
    return CheckResult("bell-orthonormality", EXACT_ATOL, _max_abs(readings))


def check_encode_columns() -> CheckResult:
    """The encoder's dense unitary has the four Bell states as its columns."""
    columns = np.stack([bell_state(i).amplitudes for i in BELL_INDICES], axis=1)
    unitary = circuit_unitary(bell.bell_encode_circuit())
    return CheckResult("encode-columns", EXACT_ATOL, _max_abs(unitary - columns))


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
    readings = []
    for i in BELL_INDICES:
        out = cloning._joint(bell_state(i), circuit)
        expected = np.kron(bell_state(i).amplitudes, basis_state(origin_bits(i)).amplitudes)
        readings.append(_max_abs(out - expected))
    return CheckResult("tag-subspace-action", EXACT_ATOL, _max_abs(readings))


def check_exact_cloning() -> CheckResult:
    """Cloning a Bell basis element yields the exact doubled product state."""
    circuit = cloning.clone_circuit()
    readings = []
    for i in BELL_INDICES:
        out = cloning._joint(bell_state(i), circuit)
        expected = np.kron(bell_state(i).amplitudes, bell_state(i).amplitudes)
        readings.append(_max_abs(out - expected))
    return CheckResult("exact-cloning", EXACT_ATOL, _max_abs(readings))


def check_identification_point_mass() -> CheckResult:
    """After tagging, the ancilla distribution is a point mass at bin(i)."""
    circuit = cloning.tag_circuit()
    readings = []
    for i in BELL_INDICES:
        tagged = statevector._built(StateVector, 4, cloning._joint(bell_state(i), circuit))
        dist = measurement_distribution(tagged, _ANCILLA_QUBITS)
        readings += [prob - float(bits == origin_bits(i)) for bits, prob in dist.items()]
    return CheckResult("identification-point-mass", EXACT_ATOL, _max_abs(readings))


def check_nondisturbance(seed: int) -> CheckResult:
    """Measuring the ancillas never moves a Bell pair, read out per default_rng((seed, 8)) draw."""
    variates = np.random.default_rng((seed, 8)).random(_NONDISTURBANCE_READOUTS)
    readings = []
    for i in BELL_INDICES:
        pair = bell_state(i)
        _, results = cloning._readouts(cloning._joint(pair, cloning.tag_circuit()), variates)
        for result in results.values():
            fidelity = fidelity_pure(result.residual_state, pair)
            readings += [1.0 - fidelity, result.probability - 1.0]
            if result.index != i:
                readings.append(1.0)
    return CheckResult("measurement-nondisturbance", EXACT_ATOL, _max_abs(readings))


def check_transform_unitarity() -> CheckResult:
    unitaries = [circuit_unitary(c) for c in (cloning.tag_circuit(), cloning.clone_circuit())]
    gaps = [_max_abs(u.conj().T @ u - np.eye(16)) for u in unitaries]
    return CheckResult("transform-unitarity", COMPOSED_ATOL, _max_abs(gaps))


def check_no_cloning_curve() -> CheckResult:
    """Superpositions of b0 and b1 clone at cos^4 + sin^4, strictly below 1.

    Interior grid of the angle theta on (0, pi/2); a fidelity reaching 1
    anywhere on it would contradict the no-cloning bound and scores as an
    immediate unit deviation.
    """
    b0 = bell_state(0).amplitudes
    b1 = bell_state(1).amplitudes
    readings = []
    for theta in np.linspace(0.0, math.pi / 2, _CURVE_POINTS + 2)[1:-1]:
        pair = statevector._built(StateVector, 2, math.cos(theta) * b0 + math.sin(theta) * b1)
        expected = math.cos(theta) ** 4 + math.sin(theta) ** 4
        report = clone(pair)
        readings += [report.fidelity_original - expected, report.fidelity_clone - expected]
        if report.fidelity_original >= 1.0 or report.fidelity_clone >= 1.0:
            readings.append(1.0)
    return CheckResult("no-cloning-curve", COMPOSED_ATOL, _max_abs(readings))


def check_clone_fidelity_vs_ucm() -> CheckResult:
    """Bell-basis clones hit fidelity 1, beating the universal-machine bound."""
    fidelities = []
    for i in BELL_INDICES:
        report = clone(bell_state(i))
        fidelities.extend((report.fidelity_original, report.fidelity_clone))
    lowest = min(fidelities)
    readings = [1.0 - fidelity for fidelity in fidelities]
    if lowest <= UCM_REFERENCE:
        readings.append(1.0)
    detail = f"lowest clone fidelity {lowest!r} vs ucm reference {UCM_REFERENCE!r}"
    return CheckResult("clone-fidelity-vs-ucm", EXACT_ATOL, _max_abs(readings), detail)


# (result names, check, whether it takes the seed), in report order.
_CHECKS = (
    (("gate-norm-preservation",), check_gate_norm_preservation, True),
    (("circuit-linearity",), check_circuit_linearity, True),
    (("kernel-dense-agreement", "dense-unitarity"), check_kernel_against_dense, False),
    (("born-distribution-normalization",), check_born_normalization, True),
    (("born-sampling-statistics",), check_born_statistics, True),
    (("partial-trace-product",), check_partial_trace_product, True),
    (("fidelity-convention-agreement",), check_fidelity_conventions, True),
    (("bell-orthonormality",), check_bell_orthonormality, False),
    (("encode-columns",), check_encode_columns, False),
    (("decode-encode-identity",), check_decode_encode_identity, False),
    (("bell-roundtrip",), check_bell_roundtrip, False),
    (("tag-subspace-action",), check_tag_subspace_action, False),
    (("exact-cloning",), check_exact_cloning, False),
    (("identification-point-mass",), check_identification_point_mass, False),
    (("measurement-nondisturbance",), check_nondisturbance, True),
    (("transform-unitarity",), check_transform_unitarity, False),
    (("no-cloning-curve",), check_no_cloning_curve, False),
    (("clone-fidelity-vs-ucm",), check_clone_fidelity_vs_ucm, False),
)


def _results(names, check, seeded: bool, seed: int) -> list[CheckResult]:
    """One _CHECKS entry's results; a ValueError FAILs each of its names at deviation inf."""
    try:
        results = check(seed) if seeded else check()
    except ValueError as error:
        return [CheckResult(name, 0.0, math.inf, str(error)) for name in names]
    return [results] if isinstance(results, CheckResult) else list(results)


def run_timed_checks(seed: int = 0) -> list[tuple[float, list[CheckResult]]]:
    """Each _CHECKS entry's wall time in seconds and its results, in report order."""
    timed = []
    for entry in _CHECKS:
        start = time.perf_counter()
        results = _results(*entry, seed)
        timed.append((time.perf_counter() - start, results))
    return timed


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Every invariant check, in a fixed order, deterministic for a given seed."""
    return [result for _, results in run_timed_checks(seed) for result in results]
