"""Host-speed calibration: fixed probe work timed between slices of ops.

The machines this benchmark runs on are shared.  Other tenants slow every
process on the host by up to about 2x, in stretches of seconds to minutes, so
the same code reads very different wall times from one run to the next (see
NOTES.md).  A probe is a fixed piece of numpy work, written here and never
changed, with the same character as a workload's ops: small-array dispatch
for pair-stream and verify-suite, strided gates on 18 qubits for wide-circuit.
The worker times a probe block right after every half second of ops, and
rescales those ops by ``REFERENCE_S / probe time``.  A calibrated time is
therefore the time the op would have taken with the host running the probe at
its reference speed, which is the probe's speed on the reference machine
(NOTES.md) when its host was least loaded.

Nothing here imports bellclone, so no library change can alter the probes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracles

# Probe call time on the reference machine (NOTES.md) at the fastest host speed
# observed on it.  Fixed: changing a value rescales every calibrated metric.
REFERENCE_S = {"small": 220e-6, "wide": 24e-3}

_MIN_CALLS = 3


class Probe:
    """Times blocks of one fixed probe and turns them into calibration scales."""

    def __init__(self, kind: str):
        self.reference = REFERENCE_S[kind]
        self._call = {"small": _SmallProbe, "wide": _WideProbe}[kind]()

    def time(self, budget_s: float) -> float:
        """Median call time over a block of at least ``budget_s`` seconds."""
        times = []
        while len(times) < _MIN_CALLS or sum(times) < budget_s:
            start = time.perf_counter()
            self._call()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, *probe_times: float) -> float:
        """Factor that turns a wall time into a calibrated time."""
        return self.reference / statistics.fmean(probe_times)


class _SmallProbe:
    """Tag-and-measure a random pair on 4 qubits, then one reduced density matrix."""

    _HADAMARD = oracles.ONE_QUBIT["hadamard"]
    _ANCILLAS = np.array([1, 0, 0, 0], dtype=complex)

    def __init__(self):
        self._k = 0

    def __call__(self):
        rng = np.random.default_rng(self._k % 64)
        self._k += 1
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        psi = np.kron(c @ oracles.BELL_ROWS, self._ANCILLAS).reshape(2, 2, 2, 2)
        for target in (0, 1, 2, 3, 0, 2):
            psi = np.moveaxis(np.tensordot(self._HADAMARD, psi, axes=([1], [target])), 0, target)
            if not np.all(np.isfinite(psi)):
                raise ArithmeticError("probe state is not finite")
        probs = (np.abs(psi) ** 2).sum(axis=(0, 1)).reshape(-1)
        rng.choice(4, p=probs / probs.sum())
        rows = psi.reshape(4, 4)
        return np.linalg.eigvalsh(rows @ rows.conj().T)


class _WideProbe:
    """Three strided Hadamard gates on one fixed 18-qubit state, each then checked and normed.

    Index-array gathers and scatters over 4 MiB, like the wide-circuit kernel
    at the time the benchmark was written.  An einsum probe tracked that
    workload less well: it slowed about 1.4 times as much under load.
    """

    _QUBITS = 18
    _TARGETS = (3, 9, 14)

    def __init__(self):
        rng = np.random.default_rng(0)
        size = 2**self._QUBITS
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        self._state = amps / np.linalg.norm(amps)
        self._matrix = oracles.ONE_QUBIT["hadamard"]

    def __call__(self):
        state, m = self._state, self._matrix
        index = np.arange(state.size)
        for target in self._TARGETS:
            stride = 1 << (self._QUBITS - 1 - target)
            i0 = index[(index & stride) == 0]
            i1 = i0 | stride
            a0, a1 = state[i0], state[i1]
            state = state.copy()
            state[i0] = m[0, 0] * a0 + m[0, 1] * a1
            state[i1] = m[1, 0] * a0 + m[1, 1] * a1
            if not np.all(np.isfinite(state)):
                raise ArithmeticError("probe state is not finite")
            np.linalg.norm(state)
        return state
