import hashlib
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellclone import (
    Circuit,
    DensityMatrix,
    Gate,
    MeasurementRecord,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_state,
    circuit_unitary,
    clone_circuit,
    cnot,
    fidelity_mixed,
    fidelity_pure,
    hadamard,
    identify,
    inner_product,
    measure,
    measurement_distribution,
    partial_trace,
    pauli_x,
    read_state_file,
    single_qubit,
    tag_circuit,
    tensor,
)
from bellclone import statevector
from bellclone.statevector import HADAMARD, PAULI_X, PAULI_Z, _kron
from bellclone.verification import _SWEEP_MATRIX, random_circuit, random_state

from oracles import BELL_AMPLITUDES, SQRT_HALF, born_distribution, reduced_density

# Real and imaginary parts, with both signed zeros.
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))

S = SQRT_HALF


def bell(i: int) -> StateVector:
    return StateVector(2, BELL_AMPLITUDES[i])


def _sparse_state(n: int, rng: np.random.Generator) -> StateVector:
    """Random n-qubit state with about half its amplitudes exactly zero."""
    amps = random_state(n, rng).amplitudes * (rng.random(2**n) < 0.5)
    amps[rng.integers(2**n)] = 1.0
    return StateVector(n, amps / np.linalg.norm(amps))


class TestStateVector:
    def test_basis_index_convention(self):
        # |01> at index 1, |10> at index 2: leftmost ket symbol is the
        # most significant bit.
        assert basis_state("01").amplitudes[1] == 1.0
        assert basis_state("10").amplitudes[2] == 1.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected array of shape"):
            StateVector(2, np.array([1.0, 0.0], dtype=complex))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                StateVector(1, np.array([bad, 0.0], dtype=complex))

    def test_amplitudes_are_read_only(self):
        state = basis_state("0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_value_semantics_against_caller_mutation(self):
        raw = np.array([1.0, 0.0], dtype=complex)
        state = StateVector(1, raw)
        raw[0] = 123.0
        assert state.amplitudes[0] == 1.0


class TestGateValidation:
    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            cnot(1, 1)

    def test_single_qubit_matrix_must_be_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            single_qubit(0, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("toffoli", 0)

    def test_named_kinds_carry_their_matrix(self):
        for kind, matrix in (("hadamard", HADAMARD), ("pauli_x", PAULI_X), ("pauli_z", PAULI_Z)):
            assert Gate(kind, 0).matrix is matrix
        assert cnot(0, 1).matrix is None

    def test_named_kinds_take_no_matrix(self):
        with pytest.raises(ValueError, match="takes no matrix"):
            Gate("hadamard", 0, matrix=np.eye(2))
        with pytest.raises(ValueError, match="takes no matrix"):
            Gate("cnot", 1, control=0, matrix=PAULI_X)

    def test_gate_out_of_range_rejected_by_circuit(self):
        with pytest.raises(ValueError):
            Circuit(1, (cnot(0, 1),))


class TestCallerInputIntake:
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_gate_matrix_must_be_finite(self, entry):
        # A NaN slips past the unitarity test, since nan > tol is False.
        with pytest.raises(ValueError, match="single_qubit matrix entries must be finite"):
            single_qubit(0, [[entry, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda count: StateVector(count, [1.0, 0.0, 0.0, 0.0]),
            lambda count: DensityMatrix(count, np.eye(4) / 4),
            lambda count: Circuit(count),
        ],
        ids=["StateVector", "DensityMatrix", "Circuit"],
    )
    @pytest.mark.parametrize("count", [2.0, "2"], ids=["float", "str"])
    def test_qubit_count_must_be_an_integer(self, build, count):
        with pytest.raises(ValueError, match="num_qubits must be an integer"):
            build(count)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: hadamard(0.5), "target index"),
            (lambda: pauli_x(1.0), "target index"),
            (lambda: single_qubit(0.0, np.eye(2)), "target index"),
            (lambda: cnot(0.0, 1), "control index"),
            (lambda: cnot(0, 1.0), "target index"),
        ],
        ids=["hadamard", "pauli_x", "single_qubit", "cnot-control", "cnot-target"],
    )
    def test_gate_indices_must_be_integers(self, build, match):
        with pytest.raises(ValueError, match=f"{match} must be an integer"):
            build()

    @pytest.mark.parametrize(
        "call",
        [
            lambda qubits: measure(bell(0), qubits, seed=0),
            lambda qubits: partial_trace(bell(0), qubits),
            lambda qubits: measurement_distribution(bell(0), qubits),
            lambda qubits: MeasurementRecord(tuple(qubits), "0", 0.5, input_state=bell(0)),
        ],
        ids=["measure", "partial_trace", "measurement_distribution", "MeasurementRecord"],
    )
    @pytest.mark.parametrize("qubits", [[0.0], [1.0], ["0"]], ids=["0.0", "1.0", "str"])
    def test_qubit_indices_must_be_integers(self, call, qubits):
        with pytest.raises(ValueError, match="qubit index must be an integer"):
            call(qubits)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: StateVector(0, [1]), "num_qubits must be positive"),
            (lambda: DensityMatrix(0, [[1]]), "num_qubits must be positive"),
            (lambda: Circuit(0), "num_qubits must be positive"),
            (lambda: Gate("cnot", 1), "cnot requires a control index"),
            (lambda: Gate("hadamard", 0, control=1), "hadamard takes no control qubit"),
            (
                lambda: MeasurementRecord((0,), "01", 0.5, bell(0)),
                "outcome length must match the number of measured qubits",
            ),
            (lambda: basis_state(""), "non-empty string of 0s and 1s"),
            (lambda: basis_state("012"), "non-empty string of 0s and 1s"),
            (lambda: measure(bell(0), [], seed=0), "at least one qubit index"),
            (lambda: partial_trace(bell(0), []), "at least one qubit index"),
            (lambda: measurement_distribution(bell(0), []), "at least one qubit index"),
            (lambda: Circuit(2, (hadamard(-1),)), "qubit -1 does not fit a 2-qubit"),
            (lambda: Circuit(2, (cnot(-1, 1),)), "qubit -1 does not fit a 2-qubit"),
            (lambda: apply_gate(bell(0), hadamard(-1)), "qubit -1 does not fit a 2-qubit"),
        ],
        ids=[
            "StateVector-0-qubits",
            "DensityMatrix-0-qubits",
            "Circuit-0-qubits",
            "cnot-without-control",
            "hadamard-with-control",
            "record-outcome-length",
            "basis-state-empty",
            "basis-state-bad-digit",
            "measure-no-qubits",
            "partial_trace-no-qubits",
            "measurement_distribution-no-qubits",
            "negative-target",
            "negative-control",
            "apply_gate-negative-target",
        ],
    )
    def test_rejections_name_their_rule(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_numpy_integers_are_accepted(self):
        state = StateVector(np.int64(2), bell(0).amplitudes)
        circuit = Circuit(np.int64(2), (hadamard(np.int32(0)), cnot(np.int8(0), np.uint8(1))))
        out = apply_circuit(state, circuit)
        expected = apply_circuit(bell(0), Circuit(2, (hadamard(0), cnot(0, 1))))
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert measure(out, [np.int64(1)], seed=0).outcome == measure(out, [1], seed=0).outcome
        assert np.array_equal(
            partial_trace(out, [np.int64(0)]).matrix, partial_trace(out, [0]).matrix
        )
        assert DensityMatrix(np.int64(1), np.eye(2) / 2).num_qubits == 1


class TestApplyGate:
    def test_hadamard_on_left_qubit_of_00(self):
        out = apply_gate(basis_state("00"), hadamard(0))
        assert_allclose(out.amplitudes, [S, 0.0, S, 0.0], atol=1e-12)

    def test_cnot_completes_the_bell_pair(self):
        plus = apply_gate(basis_state("00"), hadamard(0))
        out = apply_gate(plus, cnot(0, 1))
        assert_allclose(out.amplitudes, BELL_AMPLITUDES[0], atol=1e-12)

    def test_hadamard_on_left_qubit_of_10(self):
        out = apply_gate(basis_state("10"), hadamard(0))
        assert_allclose(out.amplitudes, [S, 0.0, -S, 0.0], atol=1e-12)

    def test_single_qubit_identity_is_noop(self):
        state = bell(1)
        out = apply_gate(state, single_qubit(1, np.eye(2)))
        assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_pauli_x_flips_the_addressed_qubit(self):
        assert_allclose(
            apply_gate(basis_state("00"), pauli_x(1)).amplitudes,
            basis_state("01").amplitudes,
        )

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state("0"), hadamard(1))

    def test_input_state_is_unchanged(self):
        state = basis_state("00")
        apply_gate(state, hadamard(0))
        assert state.amplitudes[0] == 1.0


class TestApplyCircuit:
    def test_empty_circuit_is_identity(self):
        state = bell(0)
        out = apply_circuit(state, Circuit(2))
        assert_allclose(out.amplitudes, state.amplitudes)

    def test_encode_sequence_on_01(self):
        out = apply_circuit(basis_state("01"), Circuit(2, (hadamard(0), cnot(0, 1))))
        assert_allclose(out.amplitudes, BELL_AMPLITUDES[1], atol=1e-12)

    def test_qubit_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_circuit(basis_state("0"), Circuit(2, (hadamard(0),)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_route_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        circuit = random_circuit(n, int(rng.integers(1, 13)), rng)
        state = random_state(n, rng)
        fast = apply_circuit(state, circuit).amplitudes
        dense = circuit_unitary(circuit) @ state.amplitudes
        assert_allclose(fast, dense, atol=1e-10)

    def test_kernel_bytes_are_pinned(self):
        # sha256 of the amplitudes, recorded while every gate still allocated
        # fresh temporaries instead of writing into reused buffers.  Per qubit
        # count 1..7: the empty circuit, one gate, and 2, 7 and 12 gates.
        rng = np.random.default_rng(15)
        digest, kinds = hashlib.sha256(), set()
        for n in range(1, 8):
            for depth in (0, 1, 2, 7, 12):
                state, circuit = random_state(n, rng), random_circuit(n, depth, rng)
                kinds |= {gate.kind for gate in circuit.gates}
                digest.update(apply_circuit(state, circuit).amplitudes.tobytes())
        assert kinds == {"hadamard", "pauli_x", "pauli_z", "cnot", "single_qubit"}
        assert digest.hexdigest() == (
            "12f882eec9f83eb134f8a3296dd904a5381f9bc7c2e2c71826df560142f0a487"
        )

    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_chained_gates_byte_for_byte(self, seed, depth):
        # Odd and even gate counts end in different buffers of the same call.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        circuit = random_circuit(n, depth, rng)
        state = random_state(n, rng)
        chained = reduce(apply_gate, circuit.gates, state)
        assert apply_circuit(state, circuit).amplitudes.tobytes() == chained.amplitudes.tobytes()

    @given(
        n=st.integers(1, 5),
        batch=st.integers(1, 5),
        depth=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_batch_matches_single_runs_byte_for_byte(self, n, batch, depth, seed):
        # verify's kernel sweep runs whole batches; each column must be apply_circuit's bytes.
        rng = np.random.default_rng(seed)
        circuit = random_circuit(n, depth, rng)
        states = [random_state(n, rng) for _ in range(batch)]
        stacked = np.stack([state.amplitudes for state in states], axis=-1)
        out = statevector._evolve(stacked, circuit.gates)
        singles = np.stack([apply_circuit(state, circuit).amplitudes for state in states])
        assert out.shape == stacked.shape
        assert out.T.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("n", range(5, 9))
    def test_every_placement_matches_the_dense_route(self, n):
        # Each gate reshapes to its own 3-D or 5-D view: every target, the last qubit
        # too, and every ordered (control, target) pair, control above and below.
        rng = np.random.default_rng(n)
        gates = [single_qubit(t, _SWEEP_MATRIX) for t in range(n)]
        gates += [cnot(c, t) for c in range(n) for t in range(n) if c != t]
        batch = np.stack([random_state(n, rng).amplitudes for _ in range(2)], axis=-1)
        for gate in gates:
            out = statevector._evolve(batch, (gate,))
            dense = circuit_unitary(Circuit(n, (gate,))) @ batch
            assert out.shape == batch.shape
            assert_allclose(out, dense, rtol=0, atol=1e-12)

    @given(
        n=st.integers(1, 6),
        depth=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        parts=st.lists(st.tuples(_PART, _PART), min_size=64, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_layout_gives_the_same_bytes(self, n, depth, seed, parts):
        # _evolve takes amplitudes as stored: a flat state, one column, the per-qubit view
        # with a batch axis, or a strided column of a wider batch all read the same bytes.
        circuit = random_circuit(n, depth, np.random.default_rng(seed))
        flat = np.array([complex(re, im) for re, im in parts[: 2**n]])
        wide = np.zeros((2**n, 3), dtype=complex)
        wide[:, 1] = flat
        strided = wide[:, 1:2]
        assert not strided.flags.c_contiguous
        layouts = [flat, flat[:, None], flat.reshape((2,) * n + (1,)), strided]
        outs = [statevector._evolve(layout, circuit.gates) for layout in layouts]
        assert [out.shape for out in outs] == [layout.shape for layout in layouts]
        assert {out.tobytes() for out in outs} == {outs[0].tobytes()}

    def test_buffers_do_not_leak_between_calls(self):
        rng = np.random.default_rng(7)
        states = [random_state(3, rng) for _ in range(3)]
        before = [state.amplitudes.tobytes() for state in states]
        circuits = [random_circuit(3, depth, rng) for depth in (4, 5, 6)]
        results = [apply_circuit(s, c) for s, c in zip(states, circuits)]
        kept = [r.amplitudes.tobytes() for r in results]
        for _ in range(3):
            for state, circuit in zip(states[::-1], circuits):
                apply_circuit(state, circuit)
        assert [state.amplitudes.tobytes() for state in states] == before
        assert [r.amplitudes.tobytes() for r in results] == kept
        for state, result in zip(states, results):
            assert not result.amplitudes.flags.writeable
            assert not np.shares_memory(result.amplitudes, state.amplitudes)
        unchanged = apply_circuit(states[0], Circuit(3))
        assert unchanged.amplitudes.tobytes() == before[0]
        assert not np.shares_memory(unchanged.amplitudes, states[0].amplitudes)

    @pytest.mark.parametrize("gates", [(), (cnot(0, 1),)], ids=["empty", "one-cnot"])
    def test_a_cnot_or_no_gate_allocates_one_buffer(self, gates):
        # _evolve allocates a second buffer only for a second gate and scratch only for
        # an uncontrolled one, so the peak is the result's own buffer, not three of them.
        state = random_state(16, np.random.default_rng(0))
        tracemalloc.start()
        try:
            apply_circuit(state, Circuit(16, gates))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.amplitudes.nbytes <= peak < 1.5 * state.amplitudes.nbytes


class TestGatherPlan:
    @given(
        n=st.integers(1, 6),
        depth=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        parts=st.lists(st.tuples(_PART, _PART), min_size=64, max_size=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_plan_gives_the_gate_loops_bytes(self, n, depth, seed, parts):
        # cloning's _joint runs a circuit's cached plan, not _evolve: on every gate kind,
        # complex single_qubit matrices and signed zeros included, the bytes must agree.
        circuit = random_circuit(n, depth, np.random.default_rng(seed))
        flat = np.array([complex(re, im) for re, im in parts[: 2**n]])
        flat.setflags(write=False)
        planned = statevector._planned(flat, circuit)
        assert planned.shape == flat.shape
        assert planned.tobytes() == statevector._evolve(flat, circuit.gates).tobytes()
        assert circuit._plan is circuit._plan

    @pytest.mark.parametrize("builder, count", [(tag_circuit, 2), (clone_circuit, 3)])
    def test_the_protocol_circuits_fold_their_cnots(self, builder, count):
        # Two Hadamards on qubit 0 tag the pair, and cloning adds one on qubit 2; every
        # CNOT folds into a step's indices or the final gather.
        steps, gather = builder()._plan
        assert len(steps) == count
        assert all(not array.flags.writeable for step in steps for array in step)
        assert not gather.flags.writeable


class TestTensorAndOverlaps:
    def test_tensor_of_basis_states(self):
        assert_allclose(
            tensor(basis_state("0"), basis_state("0")).amplitudes,
            basis_state("00").amplitudes,
        )
        assert tensor(basis_state("1"), basis_state("0")).amplitudes[2] == 1.0

    def test_tensor_accepts_the_product_of_two_edge_states(self):
        # Each factor passes the norm check, but the raw product is off by 1.8e-12.
        edge = StateVector(1, [1 + 9e-13, 0])
        _assert_valid_and_frozen(tensor(edge, edge))
        # A product inside the bound keeps np.kron's bytes.
        for index in range(4):
            want = np.kron(bell(index).amplitudes, basis_state("00").amplitudes)
            assert tensor(bell(index), basis_state("00")).amplitudes.tobytes() == want.tobytes()

    def test_tensor_puts_first_factor_leftmost(self):
        joint = tensor(bell(0), basis_state("00"))
        nonzero = np.nonzero(joint.amplitudes)[0]
        assert list(nonzero) == [0, 12]
        assert_allclose(joint.amplitudes[[0, 12]], [S, S])

    def test_inner_product_examples(self):
        assert inner_product(bell(0), bell(0)) == pytest.approx(1.0, abs=1e-12)
        assert inner_product(bell(0), bell(1)) == pytest.approx(0.0, abs=1e-12)
        sup = StateVector(2, (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / math.sqrt(2))
        assert inner_product(bell(0), sup) == pytest.approx(S, abs=1e-12)

    def test_inner_product_conjugates_first_argument(self):
        a = StateVector(1, np.array([S, S * 1j]))
        b = basis_state("1")
        assert inner_product(a, b) == pytest.approx(complex(0, -S), abs=1e-12)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)

    def test_inner_product_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state("0"), basis_state("00"))

    def test_fidelity_pure_examples(self):
        sup = StateVector(2, (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / math.sqrt(2))
        assert fidelity_pure(bell(0), bell(0)) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_pure(bell(0), bell(1)) == pytest.approx(0.0, abs=1e-12)
        assert fidelity_pure(sup, bell(0)) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_pure_ignores_global_phase(self):
        phased = StateVector(2, np.exp(0.73j) * BELL_AMPLITUDES[2])
        assert fidelity_pure(phased, bell(2)) == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    def test_product_state_reduces_to_projector(self):
        rho = partial_trace(basis_state("00"), [0])
        assert_allclose(rho.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_bell_pair_reduces_to_maximally_mixed(self):
        rho = partial_trace(bell(0), [0])
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_keep_order_is_respected(self):
        # keeping [1] of |01> must give |1><1|, not |0><0|
        rho = partial_trace(basis_state("01"), [1])
        assert_allclose(rho.matrix, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("keep", [[0], [1], [2], [0, 1], [1, 2], [2, 0]])
    def test_against_string_contraction_oracle(self, keep):
        state = random_state(3, np.random.default_rng(99))
        expected = reduced_density(state.amplitudes, 3, keep)
        assert_allclose(partial_trace(state, keep).matrix, expected, atol=1e-12)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell(0), [0, 0])

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell(0), [2])


class TestFidelityMixed:
    def test_pure_projector_matches_pure_fidelity(self):
        rho = DensityMatrix(2, np.outer(BELL_AMPLITUDES[0], BELL_AMPLITUDES[0].conj()))
        assert fidelity_mixed(rho, bell(0)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_single_qubit(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        assert fidelity_mixed(rho, basis_state("0")) == pytest.approx(0.5, abs=1e-12)

    def test_equal_mixture_of_two_bell_pairs(self):
        mix = 0.5 * np.outer(BELL_AMPLITUDES[0], BELL_AMPLITUDES[0].conj())
        mix = mix + 0.5 * np.outer(BELL_AMPLITUDES[1], BELL_AMPLITUDES[1].conj())
        sup = StateVector(2, (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / math.sqrt(2))
        assert fidelity_mixed(DensityMatrix(2, mix), sup) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity_mixed(DensityMatrix(1, np.eye(2) / 2), bell(0))


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative_operator(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize(
        "matrix",
        [[[np.nan, 0.0], [0.0, 0.5]], [[np.inf, 0.0], [0.0, 0.5]], [[0.5, np.nan], [0.0, 0.5]]],
        ids=["nan", "inf", "nan-and-non-hermitian"],
    )
    def test_rejects_non_finite_entries(self, matrix):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            DensityMatrix(1, np.array(matrix))


class TestMeasurement:
    def test_basis_state_outcome_is_certain(self):
        record = measure(basis_state("00"), [0], seed=0)
        assert record.outcome == "0"
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        assert_allclose(record.post_state.amplitudes, basis_state("00").amplitudes)

    def test_bell_pair_collapses_consistently(self):
        for seed in range(50):
            record = measure(bell(0), [0], seed=seed)
            expected = basis_state("00" if record.outcome == "0" else "11")
            assert record.probability == pytest.approx(0.5, abs=1e-12)
            assert_allclose(record.post_state.amplitudes, expected.amplitudes, atol=1e-12)

    def test_both_outcomes_appear_across_seeds(self):
        outcomes = {measure(bell(0), [0], seed=seed).outcome for seed in range(200)}
        assert outcomes == {"0", "1"}

    def test_same_seed_same_record(self):
        first = measure(bell(3), [0, 1], seed=11)
        second = measure(bell(3), [0, 1], seed=11)
        assert first.outcome == second.outcome
        assert first.probability == second.probability
        assert_allclose(first.post_state.amplitudes, second.post_state.amplitudes)

    def test_measured_qubit_order_sets_bit_order(self):
        # |01> read in order [1, 0] is "10"
        record = measure(basis_state("01"), [1, 0], seed=0)
        assert record.outcome == "10"

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            measure(bell(0), [0, 0], seed=0)
        with pytest.raises(ValueError):
            measure(bell(0), [5], seed=0)

    def test_seeded_draws_are_pinned(self):
        # The tagged (b0+b1)/sqrt(2) probe that check_born_statistics samples.
        # Character s is the last bit of measure(probe, (2, 3), seed=s).outcome
        # for s = 0..63; the first bit is always 0.  A refactor or a numpy
        # upgrade that moves any seeded draw fails here.
        pinned = "1100111101100111110001010001100100000101111101110011100111010011"
        pair = StateVector(2, (BELL_AMPLITUDES[0] + BELL_AMPLITUDES[1]) / math.sqrt(2))
        probe = apply_circuit(tensor(pair, basis_state("00")), tag_circuit())
        outcomes = [measure(probe, (2, 3), seed=s).outcome for s in range(64)]
        assert outcomes == ["0" + bit for bit in pinned]

    def test_draw_matches_numpy_choice(self):
        # measure draws by the inverse-CDF lookup Generator.choice runs for a
        # weighted draw; a numpy upgrade that changes choice fails here.
        rng = np.random.default_rng(20240518)
        for seed in range(3000):
            width = int(rng.integers(1, 5))
            state = _sparse_state(int(rng.integers(width, 6)), rng)
            qubits = [int(q) for q in rng.choice(state.num_qubits, size=width, replace=False)]
            marginal = np.array(list(measurement_distribution(state, qubits).values()))
            chosen = np.random.default_rng(seed).choice(marginal.size, p=marginal / marginal.sum())
            assert measure(state, qubits, seed=seed).outcome == format(chosen, f"0{width}b")

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 3])
    def test_large_seed_gives_numpys_choice(self, seed):
        state = random_state(3, np.random.default_rng(41))
        marginal = np.array(list(measurement_distribution(state, [0, 2]).values()))
        chosen = np.random.default_rng(seed).choice(4, p=marginal / marginal.sum())
        assert measure(state, [0, 2], seed=seed).outcome == format(chosen, "02b")

    def test_negative_seed_raises_numpys_own_error(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as measure_error:
            measure(bell(0), [0], seed=-1)
        assert type(measure_error.value) is type(numpy_error.value)
        assert str(measure_error.value) == str(numpy_error.value)

    def test_post_state_is_the_eager_projection(self):
        rng = np.random.default_rng(8)
        for seed in range(300):
            n = int(rng.integers(1, 6))
            state = random_state(n, rng)
            size = int(rng.integers(1, n + 1))
            qubits = [int(q) for q in rng.choice(n, size=size, replace=False)]
            record = measure(state, qubits, seed=seed)
            # Keep the amplitudes whose index bits match the outcome on every measured qubit.
            index = np.arange(2**n)
            keep = np.ones(2**n, dtype=bool)
            for q, bit in zip(qubits, record.outcome):
                keep &= (index >> (n - 1 - q)) & 1 == int(bit)
            projected = np.where(keep, state.amplitudes, 0)
            expected = projected / np.linalg.norm(projected)
            post = record.post_state
            assert isinstance(post, StateVector) and post.num_qubits == n
            assert post.amplitudes.tobytes() == expected.tobytes()
            assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-12)
            assert record.post_state is post

    def test_post_state_is_validated_when_built(self):
        # A hand-made record for an impossible outcome: the projection is zero
        # and the StateVector check rejects it on first read.
        record = MeasurementRecord((0,), "1", 0.0, input_state=basis_state("0"))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            record.post_state

    def test_record_validates_probability(self):
        with pytest.raises(ValueError):
            MeasurementRecord((0,), "0", 1.5, input_state=basis_state("0"))

    @pytest.mark.parametrize(
        "qubits, outcome, match",
        [((5,), "1", "out of range"), ((0, 0), "11", "distinct"), ((0,), "x", "0s and 1s")],
    )
    def test_record_rejects_qubits_or_outcome_that_do_not_fit(self, qubits, outcome, match):
        # Caught at construction, not by the first post_state read.
        with pytest.raises(ValueError, match=match):
            MeasurementRecord(qubits, outcome, 0.5, input_state=basis_state("0"))


class TestMeasurementDistribution:
    def test_point_mass_on_basis_state(self):
        assert measurement_distribution(basis_state("00"), [0, 1]) == {
            "00": pytest.approx(1.0, abs=1e-12),
            "01": 0.0,
            "10": 0.0,
            "11": 0.0,
        }

    def test_bell_marginal_is_uniform(self):
        dist = measurement_distribution(bell(0), [0])
        assert dist["0"] == pytest.approx(0.5, abs=1e-12)
        assert dist["1"] == pytest.approx(0.5, abs=1e-12)

    def test_distribution_is_complete_and_normalized(self):
        dist = measurement_distribution(random_state(4, np.random.default_rng(5)), [1, 3])
        assert set(dist) == {"00", "01", "10", "11"}
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_against_dict_accumulation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        k = int(rng.integers(1, n + 1))
        qubits = [int(q) for q in rng.choice(n, size=k, replace=False)]
        dist = measurement_distribution(state, qubits)
        expected = born_distribution(state.amplitudes, n, qubits)
        for bits, prob in expected.items():
            assert dist[bits] == pytest.approx(prob, abs=1e-12)


class TestCircuitUnitary:
    def test_kron_matches_numpy_byte_for_byte(self):
        # tensor forms its own product and _dense_gate uses _kron, both in place of
        # np.kron; every entry must be the same product, laid out the same way.
        rng = np.random.default_rng(2026)

        def operand(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for _ in range(300):
            u, v = (random_state(int(rng.integers(1, 4)), rng) for _ in range(2))
            pairs = [(tensor(u, v).amplitudes, np.kron(u.amplitudes, v.amplitudes))]
            a, b = (operand(tuple(rng.integers(1, 9, size=2))) for _ in range(2))
            side = int(rng.integers(1, 9))
            eye = np.eye(side, dtype=complex)
            projector = np.diag(rng.integers(0, 2, size=side)).astype(complex)
            for x, y in [(a, b), (eye, b), (a, eye), (projector, b), (a, projector)]:
                pairs.append((_kron(x, y), np.kron(x, y)))
            for got, want in pairs:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_empty_circuit_gives_identity(self):
        assert_allclose(circuit_unitary(Circuit(2)), np.eye(4))

    def test_size_guard_refuses_large_circuits(self):
        with pytest.raises(ValueError, match="12"):
            circuit_unitary(Circuit(13, (hadamard(0),)))

    def test_gate_order_matters(self):
        hx = circuit_unitary(Circuit(1, (hadamard(0), pauli_x(0))))
        xh = circuit_unitary(Circuit(1, (pauli_x(0), hadamard(0))))
        assert not np.allclose(hx, xh)
        # listed order means the first gate hits the state first:
        # X then H sends |0> through |1> to (|0> - |1>)/sqrt(2)
        assert_allclose(xh @ basis_state("0").amplitudes, [S, -S], atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_gates_preserve_the_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    state = random_state(n, rng)
    gate = random_circuit(n, 1, rng).gates[0]
    assert np.linalg.norm(apply_gate(state, gate).amplitudes) == pytest.approx(
        1.0, abs=1e-12
    )


def _assert_valid_and_frozen(built):
    """A state from the private path equals its public rebuild, and nothing can write to it."""
    field = "amplitudes" if isinstance(built, StateVector) else "matrix"
    values = getattr(built, field)
    rebuilt = getattr(type(built)(built.num_qubits, values), field)
    assert (rebuilt.shape, rebuilt.tobytes()) == (values.shape, values.tobytes())
    assert not values.flags.writeable
    assert values.base is None or not values.base.flags.writeable


def _at_norm_edge(state, side):
    """``state`` rescaled to within ulps of the largest (side 1) or least (-1) norm accepted."""
    target = 1.0 + side * statevector._NORM_ATOL
    amps = state.amplitudes / np.linalg.norm(state.amplitudes)
    while True:
        try:
            return StateVector(state.num_qubits, amps * target)
        except ValueError:
            target = np.nextafter(target, 1.0)


@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_private_path_sees_only_valid_values(tmp_path_factory, seed, depth):
    # tensor, apply_circuit, partial_trace, identify's residual and
    # read_state_file skip the public checks; every value they build must pass them,
    # and so must every record measure returns, for inputs at either edge of the norm check.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    state = random_state(n, rng)
    head = int(rng.integers(1, n)) if n > 1 else 0
    outputs = [apply_circuit(state, random_circuit(n, depth, rng))]
    if head:
        outputs.append(tensor(random_state(head, rng), random_state(n - head, rng)))
    keep = [int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
    outputs.append(partial_trace(outputs[0], keep))
    outputs.append(identify(random_state(2, rng), seed=seed).residual_state)
    path = tmp_path_factory.mktemp("state") / "state.txt"
    lines = [f"{float(a.real)!r} {float(a.imag)!r}" for a in state.amplitudes]
    path.write_text("\n".join([f"qubits {n}", *lines]) + "\n")
    outputs.append(read_state_file(str(path)))
    # A basis state puts all its weight on one outcome, so its probability sits at the edge too.
    basis = basis_state(format(int(rng.integers(2**n)), f"0{n}b"))
    records = []
    for edge in (_at_norm_edge(s, side) for s in (outputs[0], basis) for side in (-1, 1)):
        outputs.append(tensor(edge, edge))
        outputs.append(partial_trace(edge, keep))
        records.append(measure(edge, keep, seed=seed))
    for built in outputs:
        _assert_valid_and_frozen(built)
    for record in records:
        fields = (getattr(record, f) for f in MeasurementRecord.__dataclass_fields__)
        assert MeasurementRecord(*fields).probability == record.probability


def test_a_nan_from_the_kernel_is_rejected(monkeypatch):
    # The private path keeps only the norm check, so it must catch a NaN as
    # well: abs(nan - 1) > atol is False, and a check written that way passes it.
    kernel = statevector._evolve

    def nan_kernel(view, gates):
        result = kernel(view, gates)
        result.flat[0] = np.nan
        return result

    monkeypatch.setattr(statevector, "_evolve", nan_kernel)
    with pytest.raises(ValueError, match="not normalized"):
        apply_circuit(basis_state("00"), Circuit(2, (hadamard(0),)))
