import math
from dataclasses import replace

import numpy as np
import pytest

from bellclone import (
    Circuit,
    StateVector,
    apply_circuit,
    basis_state,
    bell_decode_circuit,
    bell_encode_circuit,
    bell_state,
    cloning,
    cnot,
    hadamard,
    measure,
    tag_circuit,
    tensor,
    verification,
)
from bellclone._seeded_random import random_for_seeds
from bellclone.statevector import _draw, _outcome_marginal
from bellclone.verification import (
    CheckResult,
    check_born_statistics,
    check_clone_fidelity_vs_ucm,
    check_exact_cloning,
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


@pytest.mark.parametrize(
    "check",
    [
        check_identification_point_mass,
        check_nondisturbance,
        check_no_cloning_curve,
        check_clone_fidelity_vs_ucm,
    ],
)
def test_swapped_tagger_fails_the_checks_without_a_circuit_hook(check, monkeypatch):
    # These checks reach the circuits through identify, clone and tag_circuit,
    # so the mutation is patched in where those look the builders up.
    swapped = _swapped_tagger()
    swapped_cloner = Circuit(4, swapped.gates + (hadamard(2), cnot(2, 3)))
    monkeypatch.setattr(cloning, "tag_circuit", lambda: swapped)
    monkeypatch.setattr(verification, "tag_circuit", lambda: swapped)
    monkeypatch.setattr(cloning, "clone_circuit", lambda: swapped_cloner)
    result = check()
    assert not result.passed
    assert result.deviation > 0.1


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
