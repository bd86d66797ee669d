"""One benchmark process: import the library cold, then run one workload closed-loop.

Run by ``run.py`` in a fresh interpreter, never by hand:

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                                  "trace": 0 or 1, "root": ..., "workdir": ...}'

Only the standard library is imported before the clock starts, so set-up time
covers importing bellclone (and numpy with it).  The process prints one JSON
object as its last line of output.

In plain mode it times ops until the op time reaches ``seconds``, with a
calibration probe after every slice of ops (see calibration.py).  In trace
mode it alternates an untraced and a traced block of ops until the op time
reaches ``seconds``, so the two throughputs it compares share the same
process and the same stretch of wall time.
"""

import json
import os
import resource
import sys
import time
import types

# The workloads import numpy at top level, which must happen after the timed import.
WORKLOAD_IMPORTS = {
    "verify-suite": "bellclone.cli",
    "pair-stream": "bellclone",
    "wide-circuit": "bellclone",
}
MAX_REPORTED_ERRORS = 5
# Ops run in slices of at least SLICE_S of op time; after each slice a probe
# block of PROBE_SHARE of that time (at least MIN_PROBE_S) measures host speed.
SLICE_S = 0.5
PROBE_SHARE = 0.2
MIN_PROBE_S = 0.05


def main(config: dict) -> dict:
    src = os.path.join(config["root"], "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    __import__(WORKLOAD_IMPORTS[config["workload"]])
    t1 = time.perf_counter()

    import bellclone.cli  # the tracer wraps cli too; a no-op where it was timed above
    import numpy

    import tracer
    import workloads

    package_dir = os.path.dirname(os.path.abspath(bellclone.__file__))
    if package_dir != os.path.join(os.path.abspath(src), "bellclone"):
        raise RuntimeError(f"bellclone imported from {package_dir}, not from {src}")
    # Ops reach the library through these module objects, so the tracer's patches apply.
    lib = types.SimpleNamespace(**{name: sys.modules.get(f"bellclone.{name}") for name in tracer.MODULES})
    workload = workloads.WORKLOADS[config["workload"]](config["seed"], config["workdir"], lib)

    tally = {"attempted": 0, "failed": 0, "errors": []}

    def run(j, call):
        start = time.perf_counter()
        try:
            outputs, problem = call(workload.op, lib, j), None
        except Exception as exc:  # a raising op is a failed op, not a failed run
            outputs, problem = None, f"op raised {exc!r}"
        elapsed = time.perf_counter() - start
        if problem is None:
            problem = workload.check(j, outputs)
        tally["attempted"] += 1
        if problem:
            tally["failed"] += 1
            if len(tally["errors"]) < MAX_REPORTED_ERRORS:
                tally["errors"].append(f"op {j}: {problem}")
        return elapsed

    def plain(fn, *args):
        return fn(*args)

    t2 = time.perf_counter()
    first_op = run(-1, plain)
    result = {
        "setup_s": (t1 - t0) + first_op,
        "import_s": t1 - t0,
        "input_s": t2 - t1,
        "numpy": numpy.__version__,
    }

    if config["trace"]:
        result.update(_traced_run(config, workload, run, plain))
    else:
        result.update(_calibrated_run(config, workload, run, plain, first_op))
    if hasattr(workload, "digests"):
        result["digests"] = workload.digests
    result.update(tally)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _calibrated_run(config, workload, run, plain, first_op):
    """Time ops slice by slice, each slice scaled by the probe blocks on either side."""
    import calibration

    probe = calibration.Probe(workload.probe)
    before = probe.time(max(MIN_PROBE_S, PROBE_SHARE * first_op))
    latencies, scales, probes = [], [], [before]
    spent, j = 0.0, 0
    while spent < config["seconds"]:
        chunk = []
        while sum(chunk) < SLICE_S:
            chunk.append(run(j, plain))
            j += 1
        after = probe.time(max(MIN_PROBE_S, PROBE_SHARE * sum(chunk)))
        scales += [probe.scale(before, after)] * len(chunk)
        latencies += chunk
        probes.append(after)
        spent += sum(chunk)
        before = after
    return {"latencies": latencies, "scales": scales, "setup_scale": probe.scale(probes[0]),
            "probe_s": probes, "probe_reference_s": probe.reference}


def _traced_run(config, workload, run, plain):
    import tracer

    spans = tracer.Tracer()
    spent = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    j = 0
    while not ops[True] or spent[False] + spent[True] < config["seconds"]:
        for _ in range(workload.block):
            spent[False] += run(j, plain)
            ops[False] += 1
            j += 1
        spans.install()
        try:
            for _ in range(workload.block):
                spent[True] += run(j, lambda fn, *args, op_id=j: spans.run_op(op_id, fn, *args))
                ops[True] += 1
                j += 1
        finally:
            spans.uninstall()

    wanted = [name for name in config["per_layer"] if not name.startswith("trace.")]
    values, notes = spans.layer_metrics(wanted)
    untraced, traced = ops[False] / spent[False], ops[True] / spent[True]
    values["trace.ops_per_s_untraced"] = untraced
    values["trace.ops_per_s_traced"] = traced
    values["trace.overhead_ratio"] = untraced / traced
    span_file = os.path.join(config["outdir"], f"spans-{config['workload']}-seed{config['seed']}.npz")
    spans.write(span_file)
    return {"layer": values, "notes": notes, "traced_ops": ops[True], "spans": len(spans.start),
            "span_file": span_file}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
