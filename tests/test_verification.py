import inspect
import math
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
    measure,
    partial_trace,
    pauli_x,
    pauli_z,
    statevector,
    tag_circuit,
    tensor,
    verification,
)
from bellclone._seeded_random import random_for_seeds
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
_KERNEL, _DENSE = statevector._gate_kernel, statevector._dense_gate
_MARGINAL, _READOUTS = statevector._outcome_marginal, cloning._readouts


def _scaling_kernel(view, gate, out, spare):
    result = _KERNEL(view, gate, out, spare)
    result *= 1 + 1e-9
    return result


def _abs_kernel(view, gate, out, spare):
    result = _KERNEL(view, gate, out, spare)
    return np.abs(result, out=result)


def _zeroed_last_outcome(state, qubits):
    marginal = _MARGINAL(state, qubits)
    marginal[-1] = 0.0
    return marginal


def _wrong_row_readouts(joint, variates):
    # Each residual comes from the row of outcome index ^ 1.  On a Bell input
    # that row is zero, and 0/0 stays a NaN, as outside this test suite.
    rows = _grouped(joint.amplitudes, 4, (2, 3))
    with np.errstate(invalid="ignore"):
        wrong = [row / np.linalg.norm(row) for row in rows[[k ^ 1 for k in range(4)]]]
    results = _READOUTS(joint, variates)
    return [replace(r, residual_state=StateVector(2, wrong[r.index])) for r in results]


_SCALING_KERNEL = (statevector, {"_gate_kernel": _scaling_kernel})
_ABS_KERNEL = (statevector, {"_gate_kernel": _abs_kernel})
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


def check_kernel_dense_agreement(seed):
    return check_kernel_against_dense(seed)[0]


def check_dense_unitarity(seed):
    return check_kernel_against_dense(seed)[1]


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
    ("scaled-dense", _SCALED_DENSE, [check_dense_unitarity, check_transform_unitarity], 1e-5),
    ("uncontrolled-dense", _UNCONTROLLED_DENSE, [check_kernel_dense_agreement], 0.1),
    ("zeroed-outcome", _ZEROED_OUTCOME, [check_born_normalization], 0.1),
    ("transposed-trace", _TRANSPOSED_TRACE, [check_partial_trace_product], 0.1),
    ("unconjugated-fidelity", _UNCONJUGATED_FIDELITY, [check_fidelity_conventions], 0.1),
    ("duplicated-bell", _DUPLICATED_BELL, [check_bell_orthonormality], 0.1),
    ("wrong-row-readout", _WRONG_ROW, [check_nondisturbance], 0.1),
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


def test_wrong_row_readout_fails_identify_too(monkeypatch):
    _patch(monkeypatch, _WRONG_ROW)
    with pytest.raises(ValueError, match="finite"):
        test_cloning.TestIdentify().test_residual_survives_any_seed()


def test_nondisturbance_reads_out_every_pair_and_seed(monkeypatch):
    # One tag per Bell state, then identify's readout for each of the 100 seeds.
    batches = []

    def counting(joint, variates):
        results = _READOUTS(joint, variates)
        batches.append(len(results))
        return results

    monkeypatch.setattr(cloning, "_readouts", counting)
    assert check_nondisturbance().passed
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


def test_genuine_circuits_restore_the_checks():
    assert check_tag_subspace_action().passed
    assert check_exact_cloning().passed


def test_checkresult_is_a_value():
    result = CheckResult("sample", 1e-10, 0.0, "note")
    assert replace(result, detail="") == CheckResult("sample", 1e-10, 0.0)


def test_born_check_detail_is_pinned():
    # Recorded while every shot was still a separate measure call.  Seeds
    # 1..10,000 give the same counts as 0..9,999, so a shifted seed is left
    # to the shot-for-shot test below.
    result = check_born_statistics()
    assert result.detail == "counts 00=5067 01=4933 10=0 11=0"
    assert result.deviation == 67 / 50


def test_born_check_draws_its_shots_in_one_vector_pass(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("the Born check built a default_rng")

    batches = []

    def spy(seeds):
        batches.append(len(seeds))
        return random_for_seeds(seeds)

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(verification, "random_for_seeds", spy)
    assert check_born_statistics().detail == "counts 00=5067 01=4933 10=0 11=0"
    assert batches == [10_000]


def test_batched_draw_matches_measure_shot_for_shot():
    # The Born check's probe: the tagged (b0+b1)/sqrt(2), ancillas measured.
    pair = StateVector(2, (bell_state(0).amplitudes + bell_state(1).amplitudes) / math.sqrt(2))
    probe = apply_circuit(tensor(pair, basis_state("00")), tag_circuit())
    marginal = _outcome_marginal(probe, [2, 3])
    variates = random_for_seeds(np.arange(10_000))
    drawn = [format(int(o), "02b") for o in _draw(marginal, variates)]
    assert drawn == [measure(probe, (2, 3), seed=s).outcome for s in range(10_000)]
    # numpy's own weighted draw does not go through _draw, so a shifted seed shows here.
    p = marginal / marginal.sum()
    chosen = [np.random.default_rng(s).choice(4, p=p) for s in range(10_000)]
    assert drawn == [format(int(o), "02b") for o in chosen]
