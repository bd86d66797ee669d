"""Span tracing of the library's public calls, installed from outside the library.

``Tracer`` wraps every public function the six bellclone modules define, and
puts the wrapper into every bellclone namespace that holds the function:
``cloning``, ``bell``, ``verification`` and ``cli`` bind their own names with
``from .statevector import ...``, so patching ``statevector`` alone would miss
their calls.  The ``StateVector`` and ``DensityMatrix`` constructors are traced
by wrapping the class's ``__init__``, which every namespace shares, so objects
keep their real type.  ``install`` and ``uninstall`` swap the wrappers in and
out, letting one process alternate traced and untraced blocks of ops.

Spans live in memory as flat integer columns: name, start, end, parent span,
op id, a detail (gate kind and qubit count for ``apply_gate``) and an error
flag.  ``write`` saves them at the end; ``layer_metrics`` derives the per-layer
numbers from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("statevector", "bell", "cloning", "stateio", "verification", "cli")
CONSTRUCTORS = (("statevector", "StateVector"), ("statevector", "DensityMatrix"))
CIRCUIT_BUILDERS = (
    "cloning.tag_circuit",
    "cloning.clone_circuit",
    "bell.bell_encode_circuit",
    "bell.bell_decode_circuit",
)
GATE_KINDS = ("hadamard", "pauli_x", "pauli_z", "cnot", "single_qubit")
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.details: list[tuple[str, int]] = []
        self._detail_ids: dict[tuple[str, int], int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.detail = array("q")
        self.error = array("b")
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._root = self._recorder(0, lambda fn, *args: fn(*args), None)
        self._plan()

    def _plan(self):
        """Find every wrapped callable and every namespace slot that holds it."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules.get(f"bellclone.{short}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    detail = self._gate_detail if f"{short}.{attr}" == "statevector.apply_gate" else None
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj, detail)
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "bellclone" or key.startswith("bellclone."))]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, wrappers[obj]))
        for short, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules.get(f"bellclone.{short}"), cls_name, None)
            if isinstance(cls, type):
                init = cls.__init__
                self._patches.append((cls, "__init__", self._wrap(f"{short}.{cls_name}", init, None)))
        self._originals = [getattr(target, attr) for target, attr, _ in self._patches]

    def install(self):
        for target, attr, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for (target, attr, _), original in zip(self._patches, self._originals):
            setattr(target, attr, original)

    def _gate_detail(self, args) -> int:
        try:
            key = (args[1].kind, args[0].num_qubits)
        except (AttributeError, IndexError):
            return -1
        found = self._detail_ids.get(key)
        if found is None:
            found = self._detail_ids[key] = len(self.details)
            self.details.append(key)
        return found

    def _wrap(self, name: str, fn, detail_of):
        self.names.append(name)
        return functools.wraps(fn)(self._recorder(len(self.names) - 1, fn, detail_of))

    def _recorder(self, name_id, fn, detail_of):
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, details, errors, stack = self.op, self.detail, self.error, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer._op_id)
            details.append(detail_of(args) if detail_of else -1)
            errors.append(0)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span, so its children carry ``op_id``."""
        self._op_id = op_id
        try:
            return self._root(fn, *args)
        finally:
            self._op_id = -1

    def write(self, path: str):
        """Save every span as numpy columns; ``name`` and ``detail`` index the two tables."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            details=np.array(["%s:%d" % d for d in self.details], dtype=str),
            **{column: np.array(getattr(self, column)) for column in
               ("name", "start", "end", "parent", "op", "detail", "error")},
        )

    def layer_metrics(self, wanted: list[str]) -> tuple[dict[str, float], dict[str, list[str]]]:
        """Values for the metric names in ``wanted``, plus the names that read 0 and why.

        ``absent`` names a layer the library no longer has (no wrapper was made
        for it); ``idle`` names a layer that exists but did not run on this
        workload.  Both read 0 instead of failing the run.
        """
        spans = _SpanTable(self)
        values, notes = {}, {"absent": [], "idle": []}
        for metric in wanted:
            value, note = spans.metric(metric)
            if note:
                notes[note].append(metric)
            values[metric] = value
        return values, notes


class _SpanTable:
    """Columnar view of the spans with per-name totals, for metric lookups."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        name, start, end, parent, detail = (
            np.array(column, dtype=np.int64)
            for column in (tracer.name, tracer.start, tracer.end, tracer.parent, tracer.detail)
        )
        duration = end - start
        child = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        count = len(self.names)
        self.calls = np.bincount(name, minlength=count)
        self.total = np.bincount(name, weights=duration, minlength=count)
        self.self_total = np.bincount(name, weights=self_time, minlength=count)
        self.errors = np.bincount(name, weights=np.array(tracer.error, dtype=np.int64), minlength=count)
        self.ops = int(self.calls[0])
        self.op_time = float(self.total[0])
        self.name_col, self.parent_col, self.detail_col = name, parent, detail
        self.duration, self.self_time = duration, self_time
        self.details = tracer.details
        self.module_of = np.array([n.split(".")[0] for n in self.names])

    def _ids(self, *names: str) -> np.ndarray:
        return np.flatnonzero(np.isin(self.names, names))

    def metric(self, metric: str) -> tuple[float, str | None]:
        """(value, None) when measured; (0.0, "absent" or "idle") otherwise."""
        head, _, suffix = metric.rpartition(".")
        gate, _, kind = head.rpartition(".")
        if suffix == "self_share" and head in MODULES:
            ids = np.flatnonzero(self.module_of == head)
            value = self.self_total[ids].sum() / max(self.op_time, 1.0)
        elif metric == "cloning.circuit_builds_per_op":
            ids = self._ids(*CIRCUIT_BUILDERS)
            value = self.calls[ids].sum() / max(self.ops, 1)
        elif metric == "statevector.StateVector.internal_per_op":
            ids = self._ids("statevector.StateVector")
            built = np.isin(self.name_col, ids) & (self.parent_col >= 0)
            parents = self.module_of[self.name_col[self.parent_col[built]]]
            value = np.sum(parents == "statevector") / max(self.ops, 1)
        elif gate == "statevector.apply_gate" and kind in GATE_KINDS:
            ids = self._ids(gate)
            return self._gate_kind_us(kind, ids)
        elif metric == "statevector.apply_gate.gbytes_per_s_computed":
            ids = self._ids(head)
            return self._gate_bandwidth(ids)
        else:
            ids = self._ids(head)
            value = None
        if not len(ids):
            return 0.0, "absent"
        calls = int(self.calls[ids].sum())
        if not calls or not self.ops:
            return 0.0, "idle"
        if value is not None:
            return float(value), None
        if suffix in ("calls_per_op", "constructs_per_op"):
            return calls / self.ops, None
        if suffix == "errors":
            return float(self.errors[ids].sum()), None
        scale = {"us": 1e-3, "s": 1e-9, "self_us": 1e-3}.get(suffix)
        if scale is None:
            raise ValueError(f"no rule for per-layer metric {metric!r}")
        column = self.self_total if suffix == "self_us" else self.total
        return float(column[ids].sum() / calls * scale), None

    def _gate_rows(self, ids, kind=None):
        rows = np.isin(self.name_col, ids) & (self.detail_col >= 0)
        if kind is not None:
            kinds = np.array([k for k, _ in self.details] or [""])
            rows &= kinds[np.maximum(self.detail_col, 0)] == kind
        return rows

    def _gate_kind_us(self, kind: str, ids) -> tuple[float, str | None]:
        if not len(ids):
            return 0.0, "absent"
        rows = self._gate_rows(ids, kind)
        if not rows.any():
            return 0.0, "idle"
        return float(self.duration[rows].mean() * 1e-3), None

    def _gate_bandwidth(self, ids) -> tuple[float, str | None]:
        """Computed bytes per self-time nanosecond (GB/s): each call reads and writes 2^n complex128."""
        if not len(ids):
            return 0.0, "absent"
        rows = self._gate_rows(ids)
        if not rows.any():
            return 0.0, "idle"
        qubits = np.array([n for _, n in self.details])
        moved = (2 * 16 * 2.0 ** qubits[self.detail_col[rows]]).sum()
        return float(moved / self.self_time[rows].sum()), None
