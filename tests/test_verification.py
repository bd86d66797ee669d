import math
from dataclasses import replace

import numpy as np

from bellclone import (
    Circuit,
    StateVector,
    apply_circuit,
    basis_state,
    bell_decode_circuit,
    bell_encode_circuit,
    bell_state,
    cnot,
    hadamard,
    measure,
    tag_circuit,
    tensor,
)
from bellclone.statevector import _draw, _outcome_marginal
from bellclone.verification import (
    CheckResult,
    check_born_statistics,
    check_exact_cloning,
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


def _swapped_tagger() -> Circuit:
    """Tagging circuit with the encode and decode stages interchanged."""
    decode = bell_decode_circuit().gates
    encode = bell_encode_circuit().gates
    return Circuit(4, encode + (cnot(0, 2), cnot(1, 3)) + decode)


def test_mutated_tagger_is_caught():
    # Deliberate mutation: running encode before the fan-out (instead of
    # decode) must break the tagging action, and the check must see it.
    result = check_tag_subspace_action(_swapped_tagger())
    assert not result.passed
    assert result.deviation > 0.1


def test_mutated_cloner_is_caught():
    broken = Circuit(4, _swapped_tagger().gates + (hadamard(2), cnot(2, 3)))
    assert not check_exact_cloning(broken).passed


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


def test_batched_draw_matches_measure_shot_for_shot():
    # The Born check's probe: the tagged (b0+b1)/sqrt(2), ancillas measured.
    pair = StateVector(2, (bell_state(0).amplitudes + bell_state(1).amplitudes) / math.sqrt(2))
    probe = apply_circuit(tensor(pair, basis_state("00")), tag_circuit())
    marginal = _outcome_marginal(probe, [2, 3])
    drawn = [format(int(o), "02b") for o in _draw(marginal, range(10_000))]
    assert drawn == [measure(probe, (2, 3), seed=s).outcome for s in range(10_000)]
    # numpy's own weighted draw does not go through _draw, so a shifted seed shows here.
    p = marginal / marginal.sum()
    chosen = [np.random.default_rng(s).choice(4, p=p) for s in range(10_000)]
    assert drawn == [format(int(o), "02b") for o in chosen]
