import numpy as np
import pytest
from numpy.testing import assert_allclose

from bellclone import (
    BELL_INDICES,
    StateVector,
    apply_circuit,
    basis_state,
    bell_decode_circuit,
    bell_encode_circuit,
    bell_index_of,
    bell_state,
    circuit_unitary,
    origin_bits,
)

from oracles import BELL_AMPLITUDES


@pytest.mark.parametrize("index", BELL_INDICES)
def test_bell_state_literal_amplitudes(index):
    assert_allclose(bell_state(index).amplitudes, BELL_AMPLITUDES[index], atol=1e-12)


@pytest.mark.parametrize("index", BELL_INDICES)
def test_bell_state_is_one_shared_read_only_state(index):
    state = bell_state(index)
    assert bell_state(index) is state
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 0.0


def test_bell_state_rejects_bad_index():
    with pytest.raises(ValueError):
        bell_state(4)
    with pytest.raises(ValueError):
        bell_state(-1)


@pytest.mark.parametrize("function", [bell_state, origin_bits])
@pytest.mark.parametrize("index", [1.0, np.float64(2.0)], ids=["float", "np.float64"])
def test_non_integer_index_is_rejected(function, index):
    with pytest.raises(ValueError, match="Bell index must be an integer"):
        function(index)


def test_numpy_integer_index_is_accepted():
    assert bell_state(np.int64(2)) is bell_state(2)
    assert origin_bits(np.int64(2)) == "10"


def test_origin_bits_bijection():
    assert [origin_bits(i) for i in BELL_INDICES] == ["00", "01", "10", "11"]
    with pytest.raises(ValueError):
        origin_bits(4)


@pytest.mark.parametrize("index", BELL_INDICES)
def test_encode_maps_basis_label_to_bell_state(index):
    out = apply_circuit(basis_state(origin_bits(index)), bell_encode_circuit())
    assert_allclose(out.amplitudes, bell_state(index).amplitudes, atol=1e-12)


@pytest.mark.parametrize("index", BELL_INDICES)
def test_decode_inverts_encode_on_every_label(index):
    start = basis_state(origin_bits(index))
    round_trip = apply_circuit(
        apply_circuit(start, bell_encode_circuit()), bell_decode_circuit()
    )
    assert_allclose(round_trip.amplitudes, start.amplitudes, atol=1e-12)


def test_decode_unitary_times_encode_unitary_is_identity():
    product = circuit_unitary(bell_decode_circuit()) @ circuit_unitary(bell_encode_circuit())
    assert_allclose(product, np.eye(4), atol=1e-12)


def test_encode_unitary_columns_are_the_bell_states():
    unitary = circuit_unitary(bell_encode_circuit())
    for index in BELL_INDICES:
        assert_allclose(unitary[:, index], BELL_AMPLITUDES[index], atol=1e-12)


class TestBellIndexOf:
    def test_recognizes_each_basis_element(self):
        for index in BELL_INDICES:
            assert bell_index_of(bell_state(index)) == index

    def test_recognition_is_global_phase_blind(self):
        flipped = StateVector(2, -bell_state(2).amplitudes)
        assert bell_index_of(flipped) == 2
        rotated = StateVector(2, np.exp(1.2j) * bell_state(0).amplitudes)
        assert bell_index_of(rotated) == 0

    def test_superposition_is_not_a_match(self):
        sup = StateVector(2, (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / np.sqrt(2))
        assert bell_index_of(sup) is None

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            bell_index_of(basis_state("0"))
