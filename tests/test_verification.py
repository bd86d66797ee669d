import math
from dataclasses import replace

import numpy as np
import pytest

from bellclone import (
    Circuit,
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
    pauli_z,
    statevector,
    tag_circuit,
    tensor,
    verification,
)
from bellclone._seeded_random import random_for_seeds
from bellclone.statevector import _draw, _outcome_marginal
from bellclone.verification import (
    CheckResult,
    check_bell_roundtrip,
    check_born_statistics,
    check_clone_fidelity_vs_ucm,
    check_decode_encode_identity,
    check_encode_columns,
    check_exact_cloning,
    check_gate_norm_preservation,
    check_identification_point_mass,
    check_no_cloning_curve,
    check_nondisturbance,
    check_tag_subspace_action,
    run_all_checks,
)


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


_CASES = [
    ("swapped", _SWAPPED, _PROTOCOL_CHECKS),
    ("no-fanout", _NO_FANOUT, [check_born_statistics, *_PROTOCOL_CHECKS]),
    (
        "phased-encoder",
        _PHASED_ENCODER,
        [check_encode_columns, check_decode_encode_identity, check_bell_roundtrip],
    ),
]


@pytest.mark.parametrize(
    "mutant, check",
    [
        pytest.param(mutant, check, id=f"{label}-{check.__name__.removeprefix('check_')}")
        for label, mutant, checks in _CASES
        for check in checks
    ],
)
def test_home_module_mutant_fails(mutant, check, monkeypatch):
    # The checks look every builder up in its home module, so patching that
    # module alone reaches them, through identify and clone too.
    _patch(monkeypatch, mutant)
    result = check()
    assert not result.passed
    assert result.deviation > 0.1


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
    kernel = statevector._gate_kernel

    def scaled(view, gate, out, spare):
        result = kernel(view, gate, out, spare)
        result *= 1 + 1e-9
        return result

    monkeypatch.setattr(statevector, "_gate_kernel", scaled)
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
