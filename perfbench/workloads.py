"""The three benchmark workloads: seeded inputs, one op, and its oracle check.

Each workload is built from the workload seed alone.  ``op(lib, j)`` runs the
j-th op against the library modules in ``lib`` and returns its outputs;
``check(j, outputs)`` runs the oracle on them outside the timed region.  Ops
look library functions up on their modules at call time, so a tracer that
swaps module attributes sees every call.  ``j = -1`` is the untimed set-up op.

``probe`` names the calibration probe whose work resembles the workload's
(calibration.py).  ``block`` is the op count over which a workload's mix of
inputs repeats exactly.  Traced windows are whole blocks, which makes every per-op call count
the same number on every run and every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

import oracles

# Verify seeds come from this fixed pool so a block of four ops (one per seed)
# makes the same library calls whatever the workload seed; the seed only
# chooses the order.
VERIFY_SEEDS = (0, 1, 2, 3)


class VerifySuite:
    """``cli.main(["verify", "--seed", s])`` in-process, stdout captured."""

    name = "verify-suite"
    block = len(VERIFY_SEEDS)
    probe = "small"

    def __init__(self, seed: int, workdir: str, lib):
        rng = np.random.default_rng([seed, 1])
        self.sequence = [
            VERIFY_SEEDS[k] for _ in range(256) for k in rng.permutation(len(VERIFY_SEEDS))
        ]
        self.digests: dict[int, str] = {}

    def op(self, lib, j):
        s = self.sequence[j % len(self.sequence)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["verify", "--seed", str(s)])
        return s, code, buf.getvalue()

    def check(self, j, outputs):
        s, code, text = outputs
        problem = oracles.check_verify(code, text)
        if problem:
            return f"verify --seed {s}: {problem}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(s, digest) != digest:
            return f"verify --seed {s}: stdout differs from an earlier run of the same seed"
        return None


class PairStream:
    """Read a 2-qubit amplitude file, identify the pair, clone it."""

    name = "pair-stream"
    probe = "small"
    cycle = 8  # four Bell basis inputs (one per index) and four superpositions
    block = 64
    files = 512

    def __init__(self, seed: int, workdir: str, lib):
        rng = np.random.default_rng([seed, 2])
        folder = os.path.join(workdir, "pairs")
        os.makedirs(folder, exist_ok=True)
        self.paths: list[str] = []
        self.hidden: list = []  # Bell index, or the superposition coefficients
        for _ in range(self.files // self.cycle):
            for slot in rng.permutation(self.cycle):
                if slot < 4:
                    hidden = int(slot)
                    amps = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * oracles.BELL_ROWS[hidden]
                else:
                    hidden = _superposition_coefficients(rng)
                    amps = hidden @ oracles.BELL_ROWS
                path = os.path.join(folder, f"pair{len(self.paths):04d}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("# benchmark input\nqubits 2\n")
                    handle.writelines(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in amps)
                self.paths.append(path)
                self.hidden.append(hidden)
        self.identify_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.files)]

    def op(self, lib, j):
        k = j % self.files
        pair = lib.stateio.read_state_file(self.paths[k])
        found = lib.cloning.identify(pair, seed=self.identify_seeds[k])
        report = lib.cloning.clone(pair)
        return found, report

    def check(self, j, outputs):
        found, report = outputs
        hidden = self.hidden[j % self.files]
        if isinstance(hidden, int):
            return oracles.check_pair_basis(hidden, found, report)
        return oracles.check_pair_superposition(hidden, found, report)


def _superposition_coefficients(rng: np.random.Generator) -> np.ndarray:
    """Random complex weights on the Bell basis, kept well away from any basis element."""
    while True:
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        if np.max(np.abs(c) ** 2) < 0.9:
            return c


class WideCircuit:
    """A 20-gate random circuit on 18 qubits, then measure 2 qubits and trace down to 3."""

    name = "wide-circuit"
    block = 4
    probe = "wide"
    qubits = 18
    gates_per_kind = 4  # every circuit holds 4 gates of each of the 5 kinds
    # Not a multiple of 2 * block, so traced and untraced blocks both cycle through every circuit.
    circuits = 12
    states = 2

    def __init__(self, seed: int, workdir: str, lib):
        rng = np.random.default_rng([seed, 3])
        n = self.qubits
        self.initial = []
        for _ in range(self.states):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            self.initial.append(amps / np.linalg.norm(amps))
        self.start = [lib.statevector.StateVector(n, amps) for amps in self.initial]
        kinds = ["hadamard", "pauli_x", "pauli_z", "cnot", "single_qubit"] * self.gates_per_kind
        self.specs = []
        for _ in range(self.circuits):
            gates = []
            for k in rng.permutation(len(kinds)):
                kind = kinds[k]
                if kind == "cnot":
                    control, target = (int(q) for q in rng.choice(n, size=2, replace=False))
                    gates.append((kind, target, control, None))
                elif kind == "single_qubit":
                    gates.append((kind, int(rng.integers(n)), None, _random_unitary(rng)))
                else:
                    gates.append((kind, int(rng.integers(n)), None, None))
            measured = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            kept = tuple(int(q) for q in rng.choice(n, size=3, replace=False))
            self.specs.append((tuple(gates), measured, kept))
        self.measure_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.circuits)]

    def op(self, lib, j):
        sv = lib.statevector
        gates, measured, kept = self.specs[j % self.circuits]
        built = []
        for kind, target, control, matrix in gates:
            if kind == "cnot":
                built.append(sv.cnot(control, target))
            elif kind == "single_qubit":
                built.append(sv.single_qubit(target, matrix))
            else:
                built.append(getattr(sv, kind)(target))
        final = sv.apply_circuit(self.start[j % self.states], sv.Circuit(self.qubits, tuple(built)))
        record = sv.measure(final, measured, seed=self.measure_seeds[j % self.circuits])
        rho = sv.partial_trace(final, kept)
        return final, record, rho

    def check(self, j, outputs):
        gates, measured, kept = self.specs[j % self.circuits]
        return oracles.check_wide(
            self.initial[j % self.states], self.qubits, gates, measured, kept, *outputs
        )


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


WORKLOADS = {cls.name: cls for cls in (VerifySuite, PairStream, WideCircuit)}
