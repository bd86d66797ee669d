import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellclone import (
    BELL_INDICES,
    Circuit,
    DensityMatrix,
    StateVector,
    apply_circuit,
    basis_state,
    bell,
    bell_decode_circuit,
    bell_encode_circuit,
    bell_state,
    cli,
    clone_circuit,
    cloning,
    cnot,
    partial_trace,
    pauli_x,
    pauli_z,
    single_qubit,
    statevector,
    tag_circuit,
    tensor,
    verification,
)
from bellclone.statevector import _draw, _grouped, _outcome_marginal
from bellclone.verification import (
    CheckResult,
    check_bell_orthonormality,
    check_bell_roundtrip,
    check_born_normalization,
    check_born_statistics,
    check_circuit_linearity,
    check_clone_fidelity_vs_ucm,
    check_decode_encode_identity,
    check_encode_columns,
    check_exact_cloning,
    check_fidelity_conventions,
    check_gate_norm_preservation,
    check_identification_point_mass,
    check_kernel_against_dense,
    check_no_cloning_curve,
    check_nondisturbance,
    check_partial_trace_product,
    check_tag_subspace_action,
    check_transform_unitarity,
    random_circuit,
    run_all_checks,
)

import test_cloning


def test_fresh_build_passes_every_check():
    results = run_all_checks(seed=0)
    failing = [r.name for r in results if not r.passed]
    assert failing == []


def test_check_names_are_unique_and_stable():
    results = run_all_checks(seed=0)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(names) == 19


def test_reports_are_deterministic_for_a_seed():
    first = run_all_checks(seed=3)
    second = run_all_checks(seed=3)
    assert [(r.name, r.deviation) for r in first] == [(r.name, r.deviation) for r in second]


def test_boundary_deviation_counts_as_passing():
    assert CheckResult("x", 1e-12, 1e-12).passed
    assert not CheckResult("x", 1e-12, 2e-12).passed


def _tagger_mutant(tagger: Circuit) -> tuple:
    """cloning's builders, patched to run this tagger with the genuine cloner's tail."""
    cloner = Circuit(4, tagger.gates + clone_circuit().gates[len(tag_circuit().gates):])
    return cloning, {"tag_circuit": lambda: tagger, "clone_circuit": lambda: cloner}


_DECODE, _ENCODE = bell_decode_circuit().gates, bell_encode_circuit().gates
# Encode and decode interchanged around the fan-out.
_SWAPPED = _tagger_mutant(Circuit(4, _ENCODE + (cnot(0, 2), cnot(1, 3)) + _DECODE))
# The second fan-out CNOT dropped: the ancillas only ever read 00 or 10.
_NO_FANOUT = _tagger_mutant(Circuit(4, _DECODE + (cnot(0, 2),) + _ENCODE))
# The encoder with a stray phase: |00> now encodes to b2, not b0.
_PHASED_ENCODER = (bell, {"bell_encode_circuit": lambda: Circuit(2, _ENCODE + (pauli_z(1),))})
_PROTOCOL_CHECKS = [
    check_tag_subspace_action,
    check_exact_cloning,
    check_identification_point_mass,
    check_nondisturbance,
    check_no_cloning_curve,
    check_clone_fidelity_vs_ucm,
]


def _patch(monkeypatch, mutant) -> None:
    module, builders = mutant
    for name, builder in builders.items():
        monkeypatch.setattr(module, name, builder)


# Engine mutants: each makes one small change to a genuine function or table.
_EVOLVE, _DENSE = statevector._evolve, statevector._dense_gate
_MARGINAL, _READOUTS = statevector._outcome_marginal, cloning._readouts


def _scaling_kernel(view, gates):
    result = _EVOLVE(view, gates)
    result *= 1 + 1e-9
    return result


def _abs_kernel(view, gates):
    result = _EVOLVE(view, gates)
    return np.abs(result, out=result)


def _low_control_kernel(view, gates):
    # Right whenever control < target; otherwise control and target trade places.
    rewritten = []
    for gate in gates:
        if gate.control is not None and gate.control > gate.target:
            gate = cnot(gate.target, gate.control)
        rewritten.append(gate)
    return _EVOLVE(view, rewritten)


def _transposing_kernel(view, gates):
    rewritten = []
    for gate in gates:
        if gate.kind == "single_qubit":
            gate = single_qubit(gate.target, gate.matrix.T)
        rewritten.append(gate)
    return _EVOLVE(view, rewritten)


def _first_column_kernel(view, gates):
    # Right on one state or a batch of one; every other column of a batch gets the first
    # one's result.
    if view.ndim == 1:
        return _EVOLVE(view, gates)
    return np.broadcast_to(_EVOLVE(view[:, :1], gates), view.shape)


def _zeroed_last_outcome(state, qubits):
    marginal = _MARGINAL(state, qubits)
    marginal[-1] = 0.0
    return marginal


def _without_last_outcome(state, qubits):
    return dict(list(statevector.measurement_distribution(state, qubits).items())[:-1])


def _wrong_row_readouts(joint, variates):
    # Each residual comes from the row of outcome index ^ 1.  On a Bell input
    # that row is zero, and 0/0 stays a NaN, as outside this test suite.
    rows = _grouped(joint, 4, (2, 3))
    with np.errstate(invalid="ignore"):
        wrong = [row / np.linalg.norm(row) for row in rows[[k ^ 1 for k in range(4)]]]
    drawn, results = _READOUTS(joint, variates)
    return drawn, {
        i: replace(r, residual_state=StateVector(2, wrong[r.index])) for i, r in results.items()
    }


def _variate_blind_readouts(joint, variates):
    # Every variate is looked up as 0.0, so every draw lands on the first likely outcome.
    return _READOUTS(joint, np.zeros(len(variates)))


_SCALING_KERNEL = (statevector, {"_evolve": _scaling_kernel})
_ABS_KERNEL = (statevector, {"_evolve": _abs_kernel})
_LOW_CONTROL_KERNEL = (statevector, {"_evolve": _low_control_kernel})
_TRANSPOSING_KERNEL = (statevector, {"_evolve": _transposing_kernel})
_FIRST_COLUMN_KERNEL = (statevector, {"_evolve": _first_column_kernel})
_SCALED_DENSE = (statevector, {"_dense_gate": lambda gate, n: _DENSE(gate, n) * (1 + 1e-6)})
_UNCONTROLLED_DENSE = (
    statevector,
    {"_dense_gate": lambda g, n: _DENSE(g if g.control is None else pauli_x(g.target), n)},
)
_ZEROED_OUTCOME = (statevector, {"_outcome_marginal": _zeroed_last_outcome})
# verification imports these two by name, so its own bindings are the ones patched.
_TRANSPOSED_TRACE = (
    verification,
    {"partial_trace": lambda s, keep: DensityMatrix(len(keep), partial_trace(s, keep).matrix.T)},
)
_UNCONJUGATED_FIDELITY = (
    verification,
    {
        "fidelity_mixed": lambda rho, psi: float(
            (psi.amplitudes @ rho.matrix @ psi.amplitudes).real
        )
    },
)
_DUPLICATED_BELL = (bell, {"_BELL_STATES": {**bell._BELL_STATES, 3: bell._BELL_STATES[1]}})
_WRONG_ROW = (cloning, {"_readouts": _wrong_row_readouts})
_VARIATE_BLIND = (cloning, {"_readouts": _variate_blind_readouts})
# Each of these three reaches its floor only through its check's escalation branch.
_DROPPED_OUTCOME = (verification, {"measurement_distribution": _without_last_outcome})
_FLIPPED_TAG = Circuit(4, (*tag_circuit().gates, pauli_x(2)))
_FLIPPED_ANCILLA = (cloning, {"tag_circuit": lambda: _FLIPPED_TAG})
# clone scores its halves through statevector's bare _fidelity, bound by name in cloning.
_PERFECT_FIDELITY = (cloning, {"_fidelity": lambda matrix, amps: 1.0})


def _run(check):
    """check's result at seed 0, run by verification._results from check's _CHECKS entry.

    The kernel sweep's entry gives its two results; each half below picks its own.
    """
    entry = next((entry for entry in verification._CHECKS if entry[1] is check), None)
    if entry is None:
        return check()
    results = verification._results(*entry, 0)
    return results[0] if len(results) == 1 else results


def check_kernel_dense_agreement():
    return _run(check_kernel_against_dense)[0]


def check_dense_unitarity():
    return _run(check_kernel_against_dense)[1]


# (label, mutant, the checks it fails, the least deviation each must report)
_CASES = [
    ("swapped", _SWAPPED, _PROTOCOL_CHECKS, 0.1),
    ("no-fanout", _NO_FANOUT, [check_born_statistics, *_PROTOCOL_CHECKS], 0.1),
    (
        "phased-encoder",
        _PHASED_ENCODER,
        [check_encode_columns, check_decode_encode_identity, check_bell_roundtrip],
        0.1,
    ),
    # Scaled by 1 + 1e-9 per gate run, so the one-gate norms read 1e-9, 1000x the tolerance.
    ("scaling-kernel", _SCALING_KERNEL, [check_gate_norm_preservation], 5e-10),
    ("abs-kernel", _ABS_KERNEL, [check_circuit_linearity, check_kernel_dense_agreement], 0.1),
    # Scaled by 1 + 1e-6 per gate, so the deviations are small but far above 1e-10.
    # Only clone_circuit's 8 gates lift dense-unitarity past the floor: 1.6e-5 against
    # 2e-6 from any one-gate circuit of the sweep.
    ("scaled-dense", _SCALED_DENSE, [check_dense_unitarity, check_transform_unitarity], 1e-5),
    ("uncontrolled-dense", _UNCONTROLLED_DENSE, [check_kernel_dense_agreement], 0.1),
    ("low-control-kernel", _LOW_CONTROL_KERNEL, [check_kernel_dense_agreement], 0.1),
    ("transposing-kernel", _TRANSPOSING_KERNEL, [check_kernel_dense_agreement], 0.1),
    (
        "first-column-kernel",
        _FIRST_COLUMN_KERNEL,
        [check_circuit_linearity, check_kernel_dense_agreement],
        0.1,
    ),
    ("zeroed-outcome", _ZEROED_OUTCOME, [check_born_normalization], 0.1),
    ("transposed-trace", _TRANSPOSED_TRACE, [check_partial_trace_product], 0.1),
    ("unconjugated-fidelity", _UNCONJUGATED_FIDELITY, [check_fidelity_conventions], 0.1),
    ("duplicated-bell", _DUPLICATED_BELL, [check_bell_orthonormality], 0.1),
    # The NaN residual is rejected inside cloning, so _results reads it as inf.
    ("wrong-row-readout", _WRONG_ROW, [check_nondisturbance], 0.1),
    # Every shot reads 00: 5,000 counts off, 100 sigmas.
    ("variate-blind-readout", _VARIATE_BLIND, [check_born_statistics], 99),
    # Without the escalation these read 0.604, 100 and 0.5.
    ("dropped-outcome", _DROPPED_OUTCOME, [check_born_normalization], 0.99),
    ("flipped-ancilla", _FLIPPED_ANCILLA, [check_born_statistics], 999),
    ("perfect-fidelity", _PERFECT_FIDELITY, [check_no_cloning_curve], 0.99),
]


@pytest.mark.parametrize(
    "mutant, check, floor",
    [
        pytest.param(mutant, check, floor, id=f"{label}-{check.__name__.removeprefix('check_')}")
        for label, mutant, checks, floor in _CASES
        for check in checks
    ],
)
def test_home_module_mutant_fails(mutant, check, floor, monkeypatch):
    # The checks look every builder and engine function up where the mutant
    # patches it, so the patch reaches them, through identify and clone too.
    _patch(monkeypatch, mutant)
    result = _run(check)
    assert not result.passed
    assert result.deviation > floor


def test_every_check_has_a_failing_mutant():
    checks = {check for _, _, listed, _ in _CASES for check in listed}
    assert {_run(check).name for check in checks} == {r.name for r in run_all_checks(0)}


def test_sweep_covers_every_gate_and_pair_then_the_fixed_circuits():
    *one_gate, encode, decode, tag, cloner = verification._sweep_circuits()
    assert (encode, decode) == (bell_encode_circuit(), bell_decode_circuit())
    assert (tag, cloner) == (tag_circuit(), clone_circuit())
    assert all(len(circuit.gates) == 1 for circuit in one_gate)
    gates = [(circuit.num_qubits, circuit.gates[0]) for circuit in one_gate]
    swept = Counter((n, g.kind, g.target, g.control) for n, g in gates)
    kinds = ("hadamard", "pauli_x", "pauli_z", "single_qubit")
    expected = Counter((n, kind, t, None) for n in range(1, 5) for t in range(n) for kind in kinds)
    pairs = [(c, t) for c in range(4) for t in range(4) if c != t]
    expected.update((n, "cnot", t, c) for n in range(1, 5) for c, t in pairs if max(c, t) < n)
    assert swept == expected
    assert sum(expected.values()) == 60
    matrices = [g.matrix for _, g in gates if g.kind == "single_qubit"]
    assert all(np.array_equal(m, verification._SWEEP_MATRIX) for m in matrices)


def test_the_sweep_builds_no_states(monkeypatch):
    # The gate checks run _evolve on bare arrays: no basis column or result becomes a
    # StateVector, and gate-norm and linearity build only their random_state inputs, each
    # a fresh engine-made array that takes _built, not the public constructor.
    calls = Counter()
    built, post_init = statevector._built, StateVector.__post_init__

    def counting_built(*args):
        calls["_built"] += 1
        return built(*args)

    def counting_post_init(self):
        calls["__post_init__"] += 1
        post_init(self)

    monkeypatch.setattr(statevector, "_built", counting_built)
    monkeypatch.setattr(StateVector, "__post_init__", counting_post_init)
    counts = []
    checks = (check_gate_norm_preservation, check_circuit_linearity, check_kernel_against_dense)
    for check in checks:
        calls.clear()
        _run(check)
        counts.append(dict(calls))
    assert counts == [{"_built": 50}, {"_built": 40}, {}]


@pytest.mark.parametrize("seed", range(4))
def test_random_state_keeps_the_public_constructors_bytes(seed):
    # random_state takes _built and _norm; its states and draws stay those of
    # StateVector(n, amps / np.linalg.norm(amps)).
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(1, 5):
        amps = reference.normal(size=2**n) + 1j * reference.normal(size=2**n)
        expected = StateVector(n, amps / np.linalg.norm(amps)).amplitudes
        state = verification.random_state(n, rng)
        assert state.num_qubits == n
        assert state.amplitudes.tobytes() == expected.tobytes()
        assert not state.amplitudes.flags.writeable
    assert rng.random() == reference.random()


def _per_gate_qr_gates(n, depth, rng):
    """random_circuit's (kind, target, control, matrix) per gate, one QR per single_qubit."""
    kinds = ["hadamard", "pauli_x", "pauli_z", "single_qubit"] + ["cnot"] * (n >= 2)
    gates = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "cnot":
            control, target = rng.choice(n, size=2, replace=False)
            gates.append((kind, int(target), int(control), None))
            continue
        target, matrix = int(rng.integers(n)), None
        if kind == "single_qubit":
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            matrix = (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).tobytes()
        gates.append((kind, target, None, matrix))
    return gates


@given(n=st.integers(1, 4), depth=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
@example(n=1, depth=0, seed=0)
@example(n=2, depth=4, seed=0)  # a CNOT, X and two Hadamards: no single_qubit gate
def test_random_circuit_keeps_the_per_gate_qr_bytes(n, depth, seed):
    # The draws come first and one stacked QR builds every matrix; the gates, their
    # matrices' bytes and the generator's next draw stay those of one QR per gate, and a
    # circuit with no single_qubit gate makes no QR call.
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _per_gate_qr_gates(n, depth, reference)
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        circuit = random_circuit(n, depth, rng)
    made = [
        (g.kind, g.target, g.control, g.matrix.tobytes() if g.kind == "single_qubit" else None)
        for g in circuit.gates
    ]
    assert circuit.num_qubits == n
    assert made == expected
    assert qr.call_count == any(gate[0] == "single_qubit" for gate in expected)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("seed", range(4))
def test_each_randomized_gate_check_makes_one_qr_call(seed, monkeypatch):
    stacks, qr = [], np.linalg.qr

    def counting_qr(a):
        stacks.append(a.shape)
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    for check in (check_gate_norm_preservation, check_circuit_linearity):
        stacks.clear()
        assert check(seed).passed
        assert len(stacks) == 1 and stacks[0][1:] == (2, 2) and stacks[0][0] > 1
    stacks.clear()
    run_all_checks(seed)
    assert len(stacks) == 2


def test_sweep_matrix_is_changed_by_transpose_and_conjugation():
    matrix = verification._SWEEP_MATRIX
    for changed in (matrix.T, matrix.conj(), matrix.conj().T):
        assert not np.allclose(changed, matrix)
    assert len({complex(v) for v in matrix.flat}) == 4


def test_wrong_row_readout_fails_identify_too(monkeypatch):
    _patch(monkeypatch, _WRONG_ROW)
    with pytest.raises(ValueError, match="finite"):
        test_cloning.TestIdentify().test_residual_survives_any_seed()


def test_nondisturbance_reads_out_every_pair_and_seed(monkeypatch):
    # One tag per Bell state, then identify's readout of all 100 variates.  Each pair
    # draws its own outcome on every one of them, so the readout builds one result with
    # one residual, and that residual is all cloning builds: the register stays bare.
    built, identified, batches = [], [], []
    result_type = cloning.IdentificationResult

    def counting_built(*args):
        built.append(statevector._built(*args))
        return built[-1]

    def counting_result(*args):
        identified.append(result_type(*args))
        return identified[-1]

    def recording(joint, variates):
        batches.append(_READOUTS(joint, variates))
        return batches[-1]

    monkeypatch.setattr(cloning, "_built", counting_built)
    monkeypatch.setattr(cloning, "IdentificationResult", counting_result)
    monkeypatch.setattr(cloning, "_readouts", recording)
    assert check_nondisturbance(0).passed
    assert [drawn.tolist() for drawn, _ in batches] == [[i] * 100 for i in BELL_INDICES]
    assert [list(results.values()) for _, results in batches] == [[r] for r in identified]
    assert [state.num_qubits for state in built] == [2] * 4
    assert [result.residual_state for result in identified] == built


def test_verify_exits_one_on_a_broken_tagger(monkeypatch, capsys):
    _patch(monkeypatch, _NO_FANOUT)
    assert cli.main(["verify", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
        "born-sampling-statistics",
        "tag-subspace-action",
        "exact-cloning",
        "identification-point-mass",
        "measurement-nondisturbance",
        "no-cloning-curve",
        "clone-fidelity-vs-ucm",
    ]
    assert lines[-1] == "12/19 checks passed"


def test_gate_norm_check_fails_on_a_scaling_kernel(monkeypatch):
    # The check reads the bare state's norm, so it measures the 1e-9 itself.
    _patch(monkeypatch, _SCALING_KERNEL)
    result = check_gate_norm_preservation(0)
    assert not result.passed
    assert result.deviation == pytest.approx(1e-9, rel=1e-3)
    assert result.detail == ""


def test_verify_reports_a_rejected_state_without_a_traceback(monkeypatch, capsys):
    # bell-roundtrip builds a state from the patched kernel's result (_joint runs the
    # circuit's gather plan, not _evolve, so it stays genuine), and StateVector rejects it.
    # That check FAILs at an infinite deviation, and the other 18 still report.
    _patch(monkeypatch, _SCALING_KERNEL)
    assert cli.main(["verify", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 20
    assert lines[-1] == "16/19 checks passed"
    failing = [line for line in lines if line.startswith("FAIL")]
    assert [line.split()[1] for line in failing] == [
        "gate-norm-preservation",
        "kernel-dense-agreement",
        "bell-roundtrip",
    ]
    roundtrip = "FAIL bell-roundtrip tolerance=0 max_deviation=inf (state is not normalized: "
    assert failing[-1].startswith(roundtrip)
    assert failing[-1].endswith(")")


def _raising(*args):
    raise ValueError("boom")


@pytest.mark.parametrize(
    "entry", verification._CHECKS, ids=lambda entry: entry[1].__name__.removeprefix("check_")
)
def test_no_check_hides_another(entry, monkeypatch):
    table = [(e[0], _raising, e[2]) if e is entry else e for e in verification._CHECKS]
    monkeypatch.setattr(verification, "_CHECKS", table)
    results = run_all_checks(0)
    assert [r.name for r in results] == [name for names, _, _ in table for name in names]
    failing = [r for r in results if not r.passed]
    assert [r.name for r in failing] == list(entry[0])
    assert all(r.deviation == math.inf and r.detail == "boom" for r in failing)


_RESULTS = verification._results


def _reraising_results(names, check, seeded, seed):
    # _results without its try: the check's ValueError leaves run_all_checks.
    results = check(seed) if seeded else check()
    return [results] if isinstance(results, CheckResult) else list(results)


def _finite_escalation(names, check, seeded, seed):
    # The deleted nondisturbance sentinel's finite 1.0 in place of inf.
    results = _RESULTS(names, check, seeded, seed)
    return [replace(r, deviation=1.0) if r.deviation == math.inf else r for r in results]


@pytest.mark.parametrize("runner", [_reraising_results, _finite_escalation])
def test_a_weaker_runner_fails_the_hiding_test(runner, monkeypatch):
    monkeypatch.setattr(verification, "_results", runner)
    with pytest.raises((AssertionError, ValueError)):
        test_no_check_hides_another(verification._CHECKS[0], monkeypatch)


_NAN_KERNEL = (statevector, {"_evolve": lambda view, gates: np.full_like(view, np.nan)})
_NAN_DENSE = (statevector, {"_dense_gate": lambda g, n: np.full_like(_DENSE(g, n), np.nan)})


def _nan_trace(state, keep):
    # _built skips the finiteness check that a public DensityMatrix would make.
    dim = 2 ** len(keep)
    return statevector._built(DensityMatrix, len(keep), np.full((dim, dim), np.nan, dtype=complex))


def _nan_probability_readouts(joint, variates):
    drawn, results = _READOUTS(joint, variates)
    return drawn, {i: replace(r, probability=np.nan) for i, r in results.items()}


# verification imports partial_trace by name, so its own binding is the one patched.
_NAN_TRACE = (verification, {"partial_trace": _nan_trace})
_NAN_MARGINAL = (
    statevector,
    {"_outcome_marginal": lambda state, qubits: np.full_like(_MARGINAL(state, qubits), np.nan)},
)
_NAN_PROBABILITY = (cloning, {"_readouts": _nan_probability_readouts})
# verification imports fidelity_pure and clone by name, so its own bindings are the ones patched.
_NAN_FIDELITY_PURE = (verification, {"fidelity_pure": lambda psi, phi: np.nan})
# _joint returns the register bare, so its stand-in is a bare NaN register.
_NAN_JOINT = (cloning, {"_joint": lambda pair, c: np.full(16, np.nan, dtype=complex)})
# clone's reduced matrices are genuine; only the fidelities it scores them at are NaN.
_NAN_CLONE_FIDELITY = (cloning, {"_fidelity": lambda matrix, amps: np.nan})
_CLONE = verification.clone
# Only the clone half reads NaN, so a min() fold picks a finite original and drops it.
_NAN_CLONE_HALF = (
    verification,
    {"clone": lambda pair: replace(_CLONE(pair), fidelity_clone=np.nan)},
)
_NAN_CASES = [
    (
        "nan-kernel",
        _NAN_KERNEL,
        [check_gate_norm_preservation, check_circuit_linearity, check_kernel_dense_agreement],
    ),
    (
        "nan-dense",
        _NAN_DENSE,
        [
            check_kernel_dense_agreement,
            check_dense_unitarity,
            check_transform_unitarity,
            check_encode_columns,
            check_decode_encode_identity,
        ],
    ),
    ("nan-marginal", _NAN_MARGINAL, [check_born_normalization, check_identification_point_mass]),
    ("nan-trace", _NAN_TRACE, [check_partial_trace_product]),
    ("nan-probability", _NAN_PROBABILITY, [check_nondisturbance]),
    (
        "nan-fidelity-pure",
        _NAN_FIDELITY_PURE,
        [check_fidelity_conventions, check_bell_orthonormality],
    ),
    ("nan-joint", _NAN_JOINT, [check_tag_subspace_action, check_exact_cloning]),
    ("nan-clone-fidelity", _NAN_CLONE_FIDELITY, [check_no_cloning_curve]),
    ("nan-clone-half", _NAN_CLONE_HALF, [check_clone_fidelity_vs_ucm]),
]


@pytest.mark.parametrize(
    "mutant, check",
    [
        pytest.param(mutant, check, id=f"{label}-{check.__name__.removeprefix('check_')}")
        for label, mutant, checks in _NAN_CASES
        for check in checks
    ],
)
def test_a_nan_reading_fails_its_check(mutant, check, monkeypatch):
    # A max(worst, x) fold would drop the NaN and read 0.0; _max_abs keeps it.
    _patch(monkeypatch, mutant)
    result = _run(check)
    assert math.isnan(result.deviation)
    assert not result.passed


def test_genuine_circuits_restore_the_checks():
    assert check_tag_subspace_action().passed
    assert check_exact_cloning().passed


def test_checkresult_is_a_value():
    result = CheckResult("sample", 1e-10, 0.0, "note")
    assert replace(result, detail="") == CheckResult("sample", 1e-10, 0.0)


# The Born check's counts of 00 and 01 for verify --seed 0..3.
_BORN_COUNTS = {0: (4925, 5075), 1: (4956, 5044), 2: (5019, 4981), 3: (4976, 5024)}


@pytest.mark.parametrize("seed", _BORN_COUNTS)
def test_born_check_detail_is_pinned(seed):
    low, high = _BORN_COUNTS[seed]
    result = check_born_statistics(seed)
    assert result.detail == f"counts 00={low} 01={high} 10=0 11=0"
    assert result.deviation == abs(low - 5000) / 50


def _born_probe_marginal() -> np.ndarray:
    """The Born check's probe: the tagged (b0+b1)/sqrt(2), ancillas measured."""
    pair = StateVector(2, (bell_state(0).amplitudes + bell_state(1).amplitudes) / math.sqrt(2))
    probe = apply_circuit(tensor(pair, basis_state("00")), tag_circuit())
    return _outcome_marginal(probe, [2, 3])


@pytest.mark.parametrize("seed", _BORN_COUNTS)
def test_born_check_shots_equal_numpy_choice(seed, monkeypatch):
    # numpy's own weighted draw does not go through _draw, so a shifted
    # stream or a changed lookup shows here.
    drawn = []

    def spy(marginal, variates):
        drawn.append(_draw(marginal, variates))
        return drawn[-1]

    monkeypatch.setattr(cloning, "_draw", spy)
    check_born_statistics(seed)
    marginal = _born_probe_marginal()
    chosen = np.random.default_rng((seed, 7)).choice(4, p=marginal / marginal.sum(), size=10_000)
    assert len(drawn) == 1
    assert np.array_equal(drawn[0], chosen)


def test_born_line_follows_the_verify_seed(capsys):
    lines = []
    for seed in ("0", "1"):
        assert cli.main(["verify", "--seed", seed]) == 0
        out = capsys.readouterr().out.splitlines()
        lines.append([line for line in out if "born-sampling-statistics" in line])
    assert len(lines[0]) == len(lines[1]) == 1
    assert lines[0] != lines[1]


def test_batched_draw_matches_measure_shot_for_shot():
    # measure looks default_rng(seed).random() up in _draw; numpy's own
    # weighted draw does not go through _draw, so a changed lookup shows here.
    marginal = _born_probe_marginal()
    variates = [np.random.default_rng(s).random() for s in range(10_000)]
    p = marginal / marginal.sum()
    chosen = [np.random.default_rng(s).choice(4, p=p) for s in range(10_000)]
    assert _draw(marginal, variates).tolist() == chosen
