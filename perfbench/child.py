"""Workload process of the benchmark.

run.py starts this script in a fresh interpreter.  It imports driftlab,
builds the workload's config dicts and runs passes over them through
``driftlab.cli.run``, one experiment after the other (a closed loop with one
client).  It writes what it measured, with every report.csv body, as JSON to
``--out``; run.py checks the reports.

Modes:
  setup    import and build the configs, then stop: one set-up sample
  measure  one warm-up pass, then timed passes for --seconds (at least 3)
  serial   one warm-up pass and 2 timed passes
  trace    one warm-up pass, then untraced and traced passes in turn for
           --seconds (at least 2 of each), then a traced pass on the
           configs of --seed2; spans go to spans.tsv in --workdir
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def monotonic():
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own readings
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(cli, configs, workdir, tracer=None):
    """One pass: every config through cli.run; returns timings and reports."""
    jobs = []
    for label, cfg in configs:
        out = workdir / label
        (out / "report.csv").unlink(missing_ok=True)
        jobs.append((label, copy.deepcopy(cfg), out))
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for label, cfg, out in jobs:
        if tracer is not None:
            tracer.experiment = label
        try:
            results.append((cli.run(cfg, out, source=label), None))
        except Exception:  # an escaped exception is a failed experiment
            results.append((None, traceback.format_exc()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    outputs = []
    for (label, _, out), (code, error) in zip(jobs, results):
        report = out / "report.csv"
        outputs.append({"label": label, "code": code, "error": error,
                        "csv": report.read_text() if report.is_file() else None})
    return {"wall_s": wall, "cpu_s": cpu, "outputs": outputs}


def repeat(step, seconds, minimum):
    """Call step() at least ``minimum`` times, then while one more call is
    expected to end within ``seconds`` of the first."""
    results = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if len(results) >= minimum and now - begin + (now - started) > seconds:
            return results


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    from driftlab.parallel import worker_count

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "worker_count": worker_count(),
        "l3": l3,
        "DRIFTLAB_WORKERS": os.environ.get("DRIFTLAB_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def traced_pass(cli, tracing, configs, workdir, expected, spans_file, tag):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result, root = tracer.root("bench.pass", lambda: run_pass(cli, configs, workdir, tracer))
    finally:
        tracer.uninstall()
    fired = {s.name for s in tracer.spans}
    missing = [name for name in expected if name not in fired]
    if missing:
        raise RuntimeError(f"expected spans never fired on this workload: {missing}")
    with spans_file.open("a") as fh:
        for s in tracer.spans:
            fh.write(f"{tag}\t{s.id}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\t"
                     f"{s.experiment}\t{s.thread}\t{json.dumps(s.attrs)}\n")
    result["metrics"] = tracing.layer_metrics(tracer.spans, root)
    result["bindings"] = dict(tracer.bindings)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seed2", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "serial", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    started = monotonic()
    import driftlab.cli as cli

    loaded = monotonic()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    result = {"first_call": monotonic(), "load_s": loaded - started}
    workdir = Path(args.workdir)

    if args.mode != "setup":
        result["env"] = environment()
        result["warmup"] = run_pass(cli, configs, workdir / "warmup")
    if args.mode == "measure":
        result["passes"] = repeat(lambda: run_pass(cli, configs, workdir / "pass"),
                                  args.seconds, 3)
    elif args.mode == "serial":
        result["passes"] = repeat(lambda: run_pass(cli, configs, workdir / "pass"), 0.0, 2)
    elif args.mode == "trace":
        import tracing

        spans_file = workdir / "spans.tsv"
        spans_file.unlink(missing_ok=True)
        tags = (f"seed{args.seed}.{i}" for i in itertools.count())
        pairs = repeat(lambda: (
            run_pass(cli, configs, workdir / "untraced"),
            traced_pass(cli, tracing, configs, workdir / "traced", workload.spans, spans_file,
                        next(tags))), args.seconds, 2)
        result["untraced"] = [u for u, _ in pairs]
        result["traced"] = [t for _, t in pairs]
        result["seed2"] = traced_pass(cli, tracing, workload.configs(args.seed2),
                                      workdir / "seed2", workload.spans, spans_file,
                                      f"seed{args.seed2}")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
