"""Command-line front end.

Four subcommands: ``demo`` runs the identify-then-clone story on a hidden
Bell index, ``clone`` scores an amplitude file, ``verify`` runs the invariant
suite, and ``matrix`` dumps a named circuit's dense unitary.  Reports render
as "key = value" lines or as a single JSON object; identical arguments always
produce byte-identical output.  Exit codes: 0 success, 1 a physics check or
demo expectation failed, 2 usage or input-file problems.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bell import bell_decode_circuit, bell_encode_circuit, bell_state
from .cloning import UCM_REFERENCE, clone, clone_circuit, identify, tag_circuit
from .statevector import StateVector, circuit_unitary
from .stateio import StateFileError, read_state_file
from .verification import run_all_checks

_DEMO_FIDELITY_FLOOR = 1.0 - 1e-9

_MATRIX_CIRCUITS = {
    "encode": bell_encode_circuit,
    "decode": bell_decode_circuit,
    "tgp": tag_circuit,
    "clone": clone_circuit,
}


def _state_pairs(state: StateVector) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def _render(fields: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(fields)
    lines = []
    for key, value in fields.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(f"{key} = {value!r}")
        elif isinstance(value, str):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {json.dumps(value)}")
    return "\n".join(lines)


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.bell is None:
        hidden = int(np.random.default_rng(args.seed).integers(0, 4))
    else:
        hidden = args.bell
    pair = bell_state(hidden)
    found = identify(pair, args.seed)
    scored = clone(pair)
    fields = {
        "hidden_index": hidden,
        "identified_index": found.index,
        "outcome_bits": found.outcome_bits,
        "fidelity_original": scored.fidelity_original,
        "fidelity_clone": scored.fidelity_clone,
        "ucm_reference": UCM_REFERENCE,
        "seed": args.seed,
    }
    print(_render(fields, args.format))
    passed = (
        found.index == hidden
        and scored.fidelity_original >= _DEMO_FIDELITY_FLOOR
        and scored.fidelity_clone >= _DEMO_FIDELITY_FLOOR
    )
    return 0 if passed else 1


def _cmd_clone(args: argparse.Namespace) -> int:
    try:
        pair = read_state_file(args.state)
    except (OSError, StateFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if pair.num_qubits != 2:
        print(
            f"error: {args.state}: cloning takes a 2-qubit state, file holds "
            f"{pair.num_qubits} qubits",
            file=sys.stderr,
        )
        return 2
    report = clone(pair)
    fields = {
        "input_label": report.input_label,
        "joint_state": _state_pairs(report.joint_state),
        "fidelity_original": report.fidelity_original,
        "fidelity_clone": report.fidelity_clone,
        "ucm_reference": report.ucm_reference,
    }
    print(_render(fields, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks(args.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = (
            f"{status} {result.name} tolerance={result.tolerance:g} "
            f"max_deviation={result.deviation!r}"
        )
        if result.detail:
            line += f" ({result.detail})"
        print(line)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_matrix(args: argparse.Namespace) -> int:
    unitary = circuit_unitary(_MATRIX_CIRCUITS[args.name]())
    for row in unitary:
        print(" ".join(f"{entry.real:.17g} {entry.imag:.17g}" for entry in row))
    return 0


def _seed(text: str) -> int:
    """argparse type for --seed: numpy's generators take non-negative seeds only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellclone",
        description="Identify and clone Bell pairs in a seeded state-vector simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="hide a Bell index, identify it, clone it, report")
    demo.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    demo.add_argument(
        "--bell",
        type=int,
        choices=(0, 1, 2, 3),
        default=None,
        help="hidden Bell index; drawn from the seed when omitted",
    )
    demo.add_argument("--format", choices=("plain", "json"), default="plain")
    demo.set_defaults(handler=_cmd_demo)

    clone_cmd = sub.add_parser("clone", help="clone the 2-qubit state in an amplitude file")
    clone_cmd.add_argument("--state", required=True, help="path to an amplitude file")
    clone_cmd.add_argument("--format", choices=("plain", "json"), default="plain")
    clone_cmd.set_defaults(handler=_cmd_clone)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    verify.set_defaults(handler=_cmd_verify)

    matrix = sub.add_parser("matrix", help="dump a named circuit's dense unitary")
    matrix.add_argument("name", choices=tuple(_MATRIX_CIRCUITS))
    matrix.set_defaults(handler=_cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)
