"""bellclone benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload pair-stream --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout.  The library is imported from the
checkout's ``src/``; without it the script exits 2 and prints no result.

``--trace 0`` starts PROCESSES fresh interpreters one after another, each
timing the workload closed-loop for ``seconds / PROCESSES`` seconds of op
time, and prints the end-to-end metrics, calibrated to the host's speed
(calibration.py).  ``--trace 1`` starts one interpreter
that alternates untraced and traced blocks of ops and prints the per-layer
metrics.  Either way the metric names and units are the ones BENCHMARK.json
lists, the last line of standard output is the result, and a full report
(environment, samples, spans) goes to ``.perfbench_out/`` in the checkout.
See perfbench/NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("verify-suite", "pair-stream", "wide-circuit")
# Fresh interpreters per untraced run, one after another: each gives one
# set-up sample, and their op samples are pooled (see NOTES.md).
PROCESSES = 3
# BLAS is pinned to one thread so timings do not depend on what else the two
# cores are doing; the hash seed is fixed so dict and set layouts repeat.
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def _worker(config: dict, deadline: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    command = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _environment(args, workers: list[dict]) -> dict:
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:  # Linux only; informational
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": len(workers),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "worker_env": WORKER_ENV,
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def _end_to_end(workers: list[dict]) -> tuple[dict, dict]:
    """Calibrated metrics (see calibration.py), with the raw wall-clock figures as context."""
    raw = [x for w in workers for x in w["latencies"]]
    calibrated = [x * s for w in workers for x, s in zip(w["latencies"], w["scales"])]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    values = {
        "setup_s": statistics.median(w["setup_s"] * w["setup_scale"] for w in workers),
        "ops_per_s": len(calibrated) / sum(calibrated),
        "latency_p50_ms": statistics.median(calibrated) * 1e3,
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(w["peak_rss_kb"] for w in workers) / 1024,
    }
    probes = [p for w in workers for p in w["probe_s"]]
    context = {
        "timed_ops": len(raw),
        "latency_p99_ms": _percentile(sorted(calibrated), 99) * 1e3,
        "samples_beyond_p99": len(raw) - math.ceil(0.99 * len(raw)),
        "fail_ratio": failed / attempted,
        "host_speed": workers[0]["probe_reference_s"] / statistics.median(probes),
        "raw": {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "ops_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_p99_ms": _percentile(sorted(raw), 99) * 1e3,
        },
        "per_process": [
            {"setup_s": w["setup_s"], "import_s": w["import_s"], "input_s": w["input_s"],
             "ops": len(w["latencies"]),
             "raw_p50_ms": statistics.median(w["latencies"]) * 1e3,
             "peak_rss_mb": w["peak_rss_kb"] / 1024}
            for w in workers
        ],
    }
    return values, context


def _digest_clash(workers: list[dict]) -> str | None:
    """verify-suite: the same seed must print the same bytes in every process of the run."""
    seen = {}
    for w in workers:
        for seed, digest in w.get("digests", {}).items():
            if seen.setdefault(seed, digest) != digest:
                return f"verify --seed {seed} printed different output in two processes"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "bellclone", "__init__.py")):
        raise BenchmarkError(f"no library source at {os.path.join(ROOT, 'src', 'bellclone')}")
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    config = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "root": ROOT, "workdir": workdir, "outdir": OUT, "per_layer": list(units)}
    try:
        if args.trace:
            workers = [_worker(dict(config, seconds=args.seconds), deadline)]
        else:
            share = args.seconds / PROCESSES
            workers = [_worker(dict(config, seconds=share), deadline) for _ in range(PROCESSES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    clash = _digest_clash(workers)
    if clash:
        errors.append(clash)
    if args.trace:
        values, context = workers[0]["layer"], {
            "traced_ops": workers[0]["traced_ops"], "spans": workers[0]["spans"],
            "span_file": os.path.relpath(workers[0]["span_file"], ROOT), **workers[0]["notes"]}
    else:
        values, context = _end_to_end(workers)
    missing = set(units) - set(values)
    if missing:
        raise BenchmarkError(f"no rule computed {sorted(missing)}")

    env = _environment(args, workers)
    report = {"environment": env, "context": context, "errors": errors,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(" ".join(f"{key}={value}" for key, value in env.items() if key != "worker_env"))
    print("worker env: " + " ".join(f"{k}={v}" for k, v in WORKER_ENV.items()))
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    if args.trace:
        print(f"traced ops = {context['traced_ops']}, spans = {context['spans']} -> {context['span_file']}")
        print("absent (no such function in the library): " + (", ".join(context["absent"]) or "none"))
        print("idle (not called on this workload, read 0): " + (", ".join(context["idle"]) or "none"))
    else:
        print(f"timed ops = {context['timed_ops']} in {len(workers)} processes; "
              f"host ran at {context['host_speed']:.3f} of reference speed")
        print(f"latency_p99_ms = {context['latency_p99_ms']!r} ms "
              f"({context['samples_beyond_p99']} samples beyond it; not a bounded metric)")
        print("uncalibrated wall clock: " + ", ".join(
            f"{name} = {value!r}" for name, value in context["raw"].items()))
    print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} ops)")
    for error in errors:
        print(f"error: {error}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
