import inspect
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bellclone import (
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
    # Right on a batch of one; every other column of a batch gets the first one's result.
    return np.broadcast_to(_EVOLVE(view[..., :1], gates), view.shape)


def _zeroed_last_outcome(state, qubits):
    marginal = _MARGINAL(state, qubits)
    marginal[-1] = 0.0
    return marginal


def _without_last_outcome(state, qubits):
    return dict(list(statevector.measurement_distribution(state, qubits).items())[:-1])


def _wrong_row_readouts(joint, variates):
    # Each residual comes from the row of outcome index ^ 1.  On a Bell input
    # that row is zero, and 0/0 stays a NaN, as outside this test suite.
    rows = _grouped(joint.amplitudes, 4, (2, 3))
    with np.errstate(invalid="ignore"):
        wrong = [row / np.linalg.norm(row) for row in rows[[k ^ 1 for k in range(4)]]]
    results = _READOUTS(joint, variates)
    return [replace(r, residual_state=StateVector(2, wrong[r.index])) for r in results]


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
    {"fidelity_mixed": lambda rho, psi: float((psi.amplitudes @ rho.matrix @ psi.amplitudes).real)},
)
_DUPLICATED_BELL = (bell, {"_BELL_STATES": {**bell._BELL_STATES, 3: bell._BELL_STATES[1]}})
_WRONG_ROW = (cloning, {"_readouts": _wrong_row_readouts})
# Each of these three reaches its floor only through its check's escalation branch.
_DROPPED_OUTCOME = (verification, {"measurement_distribution": _without_last_outcome})
_FLIPPED_TAG = Circuit(4, (*tag_circuit().gates, pauli_x(2)))
_FLIPPED_ANCILLA = (cloning, {"tag_circuit": lambda: _FLIPPED_TAG})
_PERFECT_FIDELITY = (cloning, {"fidelity_mixed": lambda rho, psi: 1.0})


def check_kernel_dense_agreement():
    return check_kernel_against_dense()[0]


def check_dense_unitarity():
    return check_kernel_against_dense()[1]


def _run(check) -> CheckResult:
    """A check's result, at seed 0 for the checks that take a seed."""
    return check(0) if inspect.signature(check).parameters else check()


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
    ("scaling-kernel", _SCALING_KERNEL, [check_gate_norm_preservation], 0.1),
    ("abs-kernel", _ABS_KERNEL, [check_circuit_linearity, check_kernel_dense_agreement], 0.1),
    # Scaled by 1 + 1e-6 per gate, so the deviations are small but far above 1e-10.
    # Only clone_circuit's 8 gates lift dense-unitarity past the floor: 1.6e-5 against
    # 2e-6 from any one-gate circuit of the sweep.
    ("scaled-dense", _SCALED_DENSE, [check_dense_unitarity, check_transform_unitarity], 1e-5),
    ("uncontrolled-dense", _UNCONTROLLED_DENSE, [check_kernel_dense_agreement], 0.1),
    ("low-control-kernel", _LOW_CONTROL_KERNEL, [check_kernel_dense_agreement], 0.1),
    ("transposing-kernel", _TRANSPOSING_KERNEL, [check_kernel_dense_agreement], 0.1),
    ("first-column-kernel", _FIRST_COLUMN_KERNEL, [check_kernel_dense_agreement], 0.1),
    ("zeroed-outcome", _ZEROED_OUTCOME, [check_born_normalization], 0.1),
    ("transposed-trace", _TRANSPOSED_TRACE, [check_partial_trace_product], 0.1),
    ("unconjugated-fidelity", _UNCONJUGATED_FIDELITY, [check_fidelity_conventions], 0.1),
    ("duplicated-bell", _DUPLICATED_BELL, [check_bell_orthonormality], 0.1),
    ("wrong-row-readout", _WRONG_ROW, [check_nondisturbance], 0.1),
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
    # Each circuit runs once on a bare batch: no basis column becomes a StateVector.
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
    check_kernel_against_dense()
    assert calls == Counter()


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
    # One tag per Bell state, then identify's readout for each of the 100 variates.
    batches = []

    def counting(joint, variates):
        results = _READOUTS(joint, variates)
        batches.append(len(results))
        return results

    monkeypatch.setattr(cloning, "_readouts", counting)
    assert check_nondisturbance(0).passed
    assert batches == [100] * 4


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
    # A result off by 1e-9 fails StateVector's own norm check inside apply_gate;
    # the check reports that as a failure instead of raising.
    _patch(monkeypatch, _SCALING_KERNEL)
    result = check_gate_norm_preservation(0)
    assert not result.passed
    assert result.deviation >= 1.0
    assert result.detail.startswith("state is not normalized")


def test_verify_reports_a_rejected_state_without_a_traceback(monkeypatch, capsys):
    # circuit-linearity runs second and has no FAIL path for a state that
    # StateVector rejects, so the whole run stops; verify says why and exits 1.
    _patch(monkeypatch, _SCALING_KERNEL)
    assert cli.main(["verify", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verify: state is not normalized")
    assert "Traceback" not in captured.err


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

    monkeypatch.setattr(verification, "_draw", spy)
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
