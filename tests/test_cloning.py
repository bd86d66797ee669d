import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellclone import (
    BELL_INDICES,
    DensityMatrix,
    StateVector,
    UCM_REFERENCE,
    apply_circuit,
    basis_state,
    bell_decode_circuit,
    bell_encode_circuit,
    bell_index_of,
    bell_state,
    circuit_unitary,
    clone,
    clone_circuit,
    fidelity_mixed,
    identify,
    measure,
    origin_bits,
    partial_trace,
    tag_circuit,
    tensor,
)
from bellclone import cloning, statevector
from bellclone.cloning import _ANCILLAS
from bellclone.statevector import _grouped

from oracles import BELL_AMPLITUDES, overlap_fidelity, reduced_density


def superposition(i: int, j: int, weight_i: float, weight_j: float) -> StateVector:
    amps = weight_i * BELL_AMPLITUDES[i] + weight_j * BELL_AMPLITUDES[j]
    return StateVector(2, amps)


@pytest.mark.parametrize(
    "builder", [bell_encode_circuit, bell_decode_circuit, tag_circuit, clone_circuit]
)
def test_fixed_circuits_are_built_once_and_read_only(builder):
    circuit = builder()
    assert builder() is circuit
    with pytest.raises(FrozenInstanceError):
        circuit.gates = ()
    with pytest.raises(TypeError):
        circuit.gates[0] = circuit.gates[-1]
    matrices = [gate.matrix for gate in circuit.gates if gate.matrix is not None]
    assert matrices
    for matrix in matrices:
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0


@pytest.mark.parametrize("index", BELL_INDICES)
def test_only_returned_states_are_validated(index, monkeypatch):
    # Intermediate values stay plain arrays: each call builds only the states it
    # hands its caller (identify's residual; clone's register, its reduced pairs scored
    # bare), and builds them through the private path, so no public constructor check runs.
    built, public = [], []
    private_path = statevector._built

    def counting(cls, num_qubits, values):
        built.append(cls)
        return private_path(cls, num_qubits, values)

    joint_input = tensor(bell_state(index), basis_state("00"))
    for module in (statevector, cloning):  # cloning builds identify's residual
        monkeypatch.setattr(module, "_built", counting)
    for cls in (StateVector, DensityMatrix):
        monkeypatch.setattr(cls, "__post_init__", lambda self: public.append(self))

    def constructions(call):
        built.clear()
        call()
        return built.count(StateVector), built.count(DensityMatrix)

    assert constructions(lambda: apply_circuit(joint_input, clone_circuit())) == (1, 0)
    assert constructions(lambda: identify(bell_state(index), seed=index)) == (1, 0)
    assert constructions(lambda: clone(bell_state(index))) == (1, 0)
    assert public == []


# Real and imaginary parts, with both signed zeros: pair files hold "-0.0 0.0" lines.
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


def _amplitudes(parts) -> np.ndarray:
    return np.array([complex(re, im) for re, im in parts])


@given(
    parts=st.lists(st.tuples(_PART, _PART), min_size=4, max_size=4),
    builder=st.sampled_from([tag_circuit, clone_circuit]),
)
@example(parts=[(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-1.0, 0.0)], builder=tag_circuit)
@example(parts=[(1.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-1.0, -0.0)], builder=clone_circuit)
@settings(max_examples=150, deadline=None)
def test_joint_matches_the_public_route_byte_for_byte(parts, builder):
    # _joint forms tensor's product and runs apply_circuit's gate loop on it bare.
    amps = _amplitudes(parts)
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    pair = StateVector(2, amps / norm)
    joint = cloning._joint(pair, builder())
    public = apply_circuit(tensor(pair, basis_state("00")), builder())
    assert joint.shape == (16,)
    assert joint.tobytes() == public.amplitudes.tobytes()


def _pair(parts, index) -> StateVector:
    """The Bell state of ``index``, or else the pair ``parts`` normalized."""
    if index is not None:
        return bell_state(index)
    amps = _amplitudes(parts)
    return StateVector(2, amps / np.linalg.norm(amps))


@given(
    parts=st.lists(st.tuples(_PART, _PART), min_size=4, max_size=4).filter(
        lambda parts: np.linalg.norm(_amplitudes(parts)) > 1e-3
    ),
    index=st.one_of(st.none(), st.sampled_from(BELL_INDICES)),
    seed=st.integers(0, 2**31 - 1),
)
@example(parts=[(1.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-1.0, -0.0)], index=None, seed=0)
@example(parts=[], index=0, seed=0)
@example(parts=[], index=1, seed=1)
@example(parts=[], index=2, seed=2)
@example(parts=[], index=3, seed=3)
@settings(max_examples=150, deadline=None)
def test_identify_and_clone_give_the_public_routes_bytes(parts, index, seed):
    # identify and clone run on the bare register and read it by compiled groupings;
    # every field they return must carry the bytes of the public calls they stand for.
    pair = _pair(parts, index)
    tagged = apply_circuit(tensor(pair, _ANCILLAS), tag_circuit())
    record = measure(tagged, (2, 3), seed)
    result = identify(pair, seed)
    assert (result.index, result.outcome_bits, repr(result.probability)) == (
        int(record.outcome, 2),
        record.outcome,
        repr(record.probability),
    )
    row = _grouped(tagged.amplitudes, 4, (2, 3))[result.index]
    assert result.residual_state.amplitudes.tobytes() == (row / np.linalg.norm(row)).tobytes()

    report = clone(pair)
    joint = apply_circuit(tensor(pair, _ANCILLAS), clone_circuit())
    label = bell_index_of(pair)
    assert report.input_label == ("superposition" if label is None else str(label))
    assert report.joint_state.amplitudes.tobytes() == joint.amplitudes.tobytes()
    fidelities = [fidelity_mixed(partial_trace(joint, keep), pair) for keep in ((0, 1), (2, 3))]
    assert [repr(report.fidelity_original), repr(report.fidelity_clone)] == [
        repr(fidelity) for fidelity in fidelities
    ]


class TestTagCircuit:
    @pytest.mark.parametrize("index", BELL_INDICES)
    def test_writes_origin_onto_ancillas(self, index):
        joint = tensor(bell_state(index), basis_state("00"))
        out = apply_circuit(joint, tag_circuit())
        expected = np.kron(BELL_AMPLITUDES[index], basis_state(origin_bits(index)).amplitudes)
        assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_acts_linearly_on_superpositions(self):
        pair = superposition(0, 2, 1 / math.sqrt(2), 1 / math.sqrt(2))
        out = apply_circuit(tensor(pair, basis_state("00")), tag_circuit())
        expected = (
            np.kron(BELL_AMPLITUDES[0], basis_state("00").amplitudes)
            + np.kron(BELL_AMPLITUDES[2], basis_state("10").amplitudes)
        ) / math.sqrt(2)
        assert_allclose(out.amplitudes, expected, atol=1e-12)
        # same answer through the dense-matrix route
        dense = circuit_unitary(tag_circuit()) @ tensor(pair, basis_state("00")).amplitudes
        assert_allclose(out.amplitudes, dense, atol=1e-10)

    def test_is_unitary(self):
        unitary = circuit_unitary(tag_circuit())
        assert_allclose(unitary.conj().T @ unitary, np.eye(16), atol=1e-10)


class TestCloneCircuit:
    @pytest.mark.parametrize("index", BELL_INDICES)
    def test_doubles_each_bell_state(self, index):
        out = apply_circuit(tensor(bell_state(index), basis_state("00")), clone_circuit())
        expected = np.kron(BELL_AMPLITUDES[index], BELL_AMPLITUDES[index])
        assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_superposition_becomes_entangled_pairs(self):
        pair = superposition(0, 1, 1 / math.sqrt(2), 1 / math.sqrt(2))
        out = apply_circuit(tensor(pair, basis_state("00")), clone_circuit())
        expected = (
            np.kron(BELL_AMPLITUDES[0], BELL_AMPLITUDES[0])
            + np.kron(BELL_AMPLITUDES[1], BELL_AMPLITUDES[1])
        ) / math.sqrt(2)
        assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_is_unitary(self):
        unitary = circuit_unitary(clone_circuit())
        assert_allclose(unitary.conj().T @ unitary, np.eye(16), atol=1e-10)


class TestIdentify:
    @pytest.mark.parametrize("index", BELL_INDICES)
    def test_bell_input_is_identified_with_certainty(self, index):
        result = identify(bell_state(index), seed=0)
        assert result.index == index
        assert result.outcome_bits == origin_bits(index)
        assert result.probability == pytest.approx(1.0, abs=1e-12)
        assert_allclose(result.residual_state.amplitudes, BELL_AMPLITUDES[index], atol=1e-12)

    def test_residual_survives_any_seed(self):
        for seed in range(100):
            result = identify(bell_state(2), seed)
            assert_allclose(result.residual_state.amplitudes, BELL_AMPLITUDES[2], atol=1e-12)

    def test_superposition_collapses_by_the_born_rule(self):
        pair = superposition(0, 1, 1 / math.sqrt(2), 1 / math.sqrt(2))
        seen = set()
        for seed in range(100):
            result = identify(pair, seed)
            assert result.index in (0, 1)
            assert result.probability == pytest.approx(0.5, abs=1e-12)
            assert_allclose(
                result.residual_state.amplitudes, BELL_AMPLITUDES[result.index], atol=1e-12
            )
            seen.add(result.index)
        assert seen == {0, 1}

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            identify(basis_state("000"), seed=0)

    def test_batch_readout_equals_single_readouts_byte_for_byte(self):
        # One result per outcome drawn; each variate's must equal a one-variate readout's.
        amps = sum(w * BELL_AMPLITUDES[i] for i, w in enumerate((1.0, 2.0, 2.0, 3.0)))
        pair = StateVector(2, amps / math.sqrt(18))
        joint = apply_circuit(tensor(pair, _ANCILLAS), tag_circuit())
        variates = np.random.default_rng(5).random(200)
        drawn, results = cloning._readouts(joint.amplitudes, variates)
        assert sorted(results) == list(BELL_INDICES)
        assert all(result.index == index for index, result in results.items())
        for u, index in zip(variates, drawn.tolist(), strict=True):
            single_drawn, singles = cloning._readouts(joint.amplitudes, [u])
            (single,) = singles.values()
            assert single_drawn.tolist() == [index]
            result = results[index]
            assert (result.index, result.outcome_bits, result.probability) == (
                single.index,
                single.outcome_bits,
                single.probability,
            )
            assert result.residual_state.amplitudes.tobytes() == (
                single.residual_state.amplitudes.tobytes()
            )

    @given(
        amplitudes=st.lists(
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_out_what_measure_draws_on_the_tagged_state(self, amplitudes, seed):
        amps = np.array(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        pair = StateVector(2, amps / norm)
        joint = apply_circuit(tensor(pair, _ANCILLAS), tag_circuit())
        record = measure(joint, (2, 3), seed)
        result = identify(pair, seed)
        assert (result.index, result.outcome_bits, result.probability) == (
            int(record.outcome, 2),
            record.outcome,
            record.probability,
        )
        row = _grouped(joint.amplitudes, 4, (2, 3))[result.index]
        assert np.array_equal(result.residual_state.amplitudes, row / np.linalg.norm(row))


class TestClone:
    @pytest.mark.parametrize("index", BELL_INDICES)
    def test_bell_inputs_clone_perfectly(self, index):
        report = clone(bell_state(index))
        assert report.input_label == str(index)
        assert report.fidelity_original == pytest.approx(1.0, abs=1e-12)
        assert report.fidelity_clone == pytest.approx(1.0, abs=1e-12)
        expected = np.kron(BELL_AMPLITUDES[index], BELL_AMPLITUDES[index])
        assert_allclose(report.joint_state.amplitudes, expected, atol=1e-12)

    def test_report_carries_the_ucm_benchmark(self):
        report = clone(bell_state(0))
        assert report.ucm_reference == UCM_REFERENCE
        assert UCM_REFERENCE == 5.0 / 6.0
        assert report.fidelity_clone > report.ucm_reference

    def test_equal_superposition_halves_both_fidelities(self):
        pair = superposition(0, 1, 1 / math.sqrt(2), 1 / math.sqrt(2))
        report = clone(pair)
        assert report.input_label == "superposition"
        assert report.fidelity_original == pytest.approx(0.5, abs=1e-12)
        assert report.fidelity_clone == pytest.approx(0.5, abs=1e-12)

    def test_tilted_superposition_matches_quartic_law(self):
        theta = math.pi / 6
        pair = superposition(0, 1, math.cos(theta), math.sin(theta))
        report = clone(pair)
        assert report.fidelity_original == pytest.approx(0.625, abs=1e-12)
        assert report.fidelity_clone == pytest.approx(0.625, abs=1e-12)

    def test_fidelities_agree_with_the_dense_oracle_route(self):
        # independent route: dense unitary, string-indexed partial trace,
        # explicit quadratic form
        theta = math.pi / 6
        pair = superposition(0, 1, math.cos(theta), math.sin(theta))
        joint_in = np.kron(pair.amplitudes, basis_state("00").amplitudes)
        joint_out = circuit_unitary(clone_circuit()) @ joint_in
        for keep in ([0, 1], [2, 3]):
            rho = reduced_density(joint_out, 4, keep)
            assert overlap_fidelity(rho, pair.amplitudes) == pytest.approx(0.625, abs=1e-10)

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            clone(basis_state("0"))
