"""The engine's byte and thread-lifetime guards, each shown to fail on the mutant it catches.

No verify check reads an operand order, a slice bound, an input layout, the axis of
random_circuit's phase fix, the rounding of a Born probability or whether a helper
thread outlives its call, so _CASES in test_verification.py cannot show that these
guards bite.  Each row here patches the engine, a table it compiles at import, or
random_circuit's builder, with one small change, calls the named test, and expects it
to fail.  A source row rewrites one snippet of a function's own source, so the row
breaks loudly if that snippet changes.
"""

import __future__
import inspect
import textwrap
from functools import partial

import numpy as np
import pytest

from bellclone import cloning, statevector, verification

import test_cli
import test_cloning
import test_statevector
import test_verification


def _rewritten(function, old, new):
    """``function`` compiled from its own source, with the one ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not in {function.__name__} exactly once"
    padding = "\n" * (function.__code__.co_firstlineno - 1)  # so tracebacks name its lines
    code = compile(
        padding + source.replace(old, new),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def _source_mutant(function, old, new):
    return inspect.getmodule(function), function.__name__, _rewritten(function, old, new)


def _joint_by_isometry(pair, circuit):
    # The circuit's |a>|00> columns times the pair: the same state, not the same bytes.
    return statevector.circuit_unitary(circuit)[:, ::4] @ pair.amplitudes


def _multiply_commutes() -> bool:
    """Whether this host's complex multiply rounds c * v and v * c alike."""
    rng = np.random.default_rng(0)
    c, v = rng.normal(size=(2, 2, 256)) + 1j * rng.normal(size=(2, 2, 256))
    return (c * v).tobytes() == (v * c).tobytes()


def _example(test, *args, **example):
    """One fixed example of a hypothesis test: it fails or passes the same way every run."""
    return partial(test.hypothesis.inner_test, *args, **example)


_PARTS = [tuple(part) for part in np.random.default_rng(0).uniform(-1, 1, (64, 2)).tolist()]
_CIRCUIT = {"n": 4, "depth": 12, "seed": 0, "parts": _PARTS}
_PLAN = _example(
    test_statevector.TestGatherPlan.test_the_plan_gives_the_gate_loops_bytes,
    test_statevector.TestGatherPlan(),
    **_CIRCUIT,
)
_LAYOUT = _example(
    test_statevector.TestApplyCircuit.test_every_layout_gives_the_same_bytes,
    test_statevector.TestApplyCircuit(),
    **_CIRCUIT,
)
_NORM = _example(
    test_statevector.test_one_norm_gives_numpys_bytes, size=4096, seed=0, exponent=0, zeros=0.5
)
_ANY_CUT = _example(
    test_statevector.TestSplitGates.test_any_cut_gives_the_inline_bytes,
    test_statevector.TestSplitGates(),
    n=6,
    batch=3,
    depth=12,
    seed=0,
)
_WIDE_CUT = partial(
    test_statevector.TestSplitGates().test_a_wide_state_splits_every_placement_byte_for_byte
)
_NO_HELPER_LEFT = [
    partial(test_statevector.TestSplitGates().test_no_helper_thread_outlives_a_wide_call, fails)
    for fails in (False, True)
]
_WIDE_NORM = partial(
    test_statevector.test_a_wide_state_meets_the_same_norm_bound, scale=1 + 5e-13, accepted=True
)
_ELIDED = [
    partial(test_statevector.TestGatherPlan().test_the_plan_keeps_its_bytes_where_numpy_elides, n)
    for n in (13, 14)
]
_PAIR_ROUTE = test_cloning.test_identify_and_clone_give_the_public_routes_bytes
_SUPERPOSED_PAIR = _example(
    _PAIR_ROUTE,
    parts=[(0.274, -0.46), (-0.918, -0.967), (0.627, 0.826), (0.213, 0.459)],
    index=None,
    seed=0,
)
_BELL_PAIR = _example(_PAIR_ROUTE, parts=[], index=1, seed=1)
_PER_GATE_QR = _example(
    test_verification.test_random_circuit_keeps_the_per_gate_qr_bytes, n=4, depth=12, seed=0
)
_GENERIC_GOLDEN = partial(test_cli.test_report_bytes_are_pinned, "clone --state @generic")

# (label, (module, name, replacement), the tests it fails, the exception each raises)
_BYTE_MUTANTS = [
    (
        "planned-operands-swapped",
        _source_mutant(
            statevector._planned,
            "np.multiply(coefficients, amps[indices])",
            "np.multiply(amps[indices], coefficients)",
        ),
        [_PLAN, _ELIDED[0]],
        AssertionError,
    ),
    # numpy elides the temporary of `*` into an in-place multiply with swapped operands.
    (
        "planned-product-by-operator",
        _source_mutant(
            statevector._planned,
            "np.multiply(coefficients, amps[indices])",
            "coefficients * amps[indices]",
        ),
        _ELIDED,
        AssertionError,
    ),
    # The same Born probabilities, rounded otherwise: identify's probability moves.
    (
        "readout-marginal-by-parts",
        _source_mutant(
            cloning._readouts,
            "(np.abs(rows) ** 2).sum(axis=1)",
            "(rows.real**2 + rows.imag**2).sum(axis=1)",
        ),
        [_SUPERPOSED_PAIR],
        AssertionError,
    ),
    # Outcome k's row then gathers ancilla bits (q3, q2): Bell pair 1 reads out as 2.
    (
        "ancilla-rows-swapped",
        (cloning, "_ANCILLA_ROWS", statevector._grouped(np.arange(16), 4, (3, 2))),
        [_BELL_PAIR],
        AssertionError,
    ),
    (
        "split-slices-end-early",
        _source_mutant(statevector._split, "slice(None, half)", "slice(None, half - 1)"),
        [_ANY_CUT, _WIDE_CUT],
        AssertionError,
    ),
    (
        "split-slices-start-late",
        _source_mutant(statevector._split, "slice(half, None)", "slice(half + 1, None)"),
        [_ANY_CUT, _WIDE_CUT],
        AssertionError,
    ),
    # A cut across the gate's own 2-axis leaves each slice one half: numpy cannot broadcast.
    (
        "split-along-a-gate-axis",
        _source_mutant(statevector._split, "range(0, len(shape), 2)", "range(1, len(shape), 2)"),
        [_WIDE_CUT],
        ValueError,
    ),
    (
        "norm-of-real-parts",
        _source_mutant(
            statevector._norm, "x.real.dot(x.real) + x.imag.dot(x.imag)", "x.real.dot(x.real)"
        ),
        [_NORM],
        AssertionError,
    ),
    # The wide state's norm then reads about sqrt(1/2), and the norm check rejects it.
    (
        "wide-norm-of-real-parts",
        _source_mutant(
            statevector._require_unit_norm, "parts, parts)", "parts[::2], parts[::2])"
        ),
        [_WIDE_NORM],
        ValueError,
    ),
    (
        "evolve-reads-c-strides",
        _source_mutant(
            statevector._evolve,
            'out = np.empty_like(view, order="C")',
            'out = np.empty_like(view, order="C"); '
            "view = np.lib.stride_tricks.as_strided(view, strides=out.strides)",
        ),
        [_LAYOUT],
        AssertionError,
    ),
    # Never shut down, the call's executor keeps its thread alive after the call.
    (
        "evolve-never-joins-its-helper",
        _source_mutant(statevector._evolve, "with helper or contextlib.nullcontext():", "if 1:"),
        _NO_HELPER_LEFT,
        AssertionError,
    ),
    (
        "evolve-returns-flat",
        _source_mutant(statevector._evolve, "\n    return view\n", "\n    return view.ravel()\n"),
        [_LAYOUT],
        AssertionError,
    ),
    # Each row of Q times a phase of R's diagonal: unitary still, but not Q's bytes.
    (
        "qr-phases-along-rows",
        _source_mutant(verification._built_circuits, "[..., None, :]", "[..., :, None]"),
        [_PER_GATE_QR],
        AssertionError,
    ),
    (
        "joint-by-isometry",
        (cloning, "_joint", _joint_by_isometry),
        [_GENERIC_GOLDEN],
        pytest.fail.Exception,
    ),
]


_GUARDS = {test for _, _, tests, _ in _BYTE_MUTANTS for test in tests}


@pytest.mark.parametrize(
    "mutant, test, raises",
    [
        pytest.param(mutant, test, raises, id=f"{label}-{test.func.__name__}")
        for label, mutant, tests, raises in _BYTE_MUTANTS
        for test in tests
    ],
)
def test_a_byte_mutant_fails_its_guard(mutant, test, raises, monkeypatch):
    module, name, replacement = mutant
    if name == "_planned" and _multiply_commutes():
        pytest.skip("this host's complex multiply rounds both operand orders alike")
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(raises):
        test()


def test_every_guard_passes_on_the_engine_recompiled_unchanged(monkeypatch):
    # So each row's failure is its mutant's: neither the example nor the rewriting fails.
    for module, name in {mutant[:2] for _, mutant, _, _ in _BYTE_MUTANTS}:
        if not callable(getattr(module, name)):  # a table compiled at import: nothing to redo
            continue
        same = _rewritten(getattr(module, name), f"def {name}(", f"def {name}(")
        monkeypatch.setattr(module, name, same)
    for test in _GUARDS:
        test()
