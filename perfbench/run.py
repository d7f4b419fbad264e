"""driftlab benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that has ``src/driftlab``.  The workloads are defined in
workloads.py; BENCHMARK.json names them and lists the metrics with their
units.  Each workload runs in a fresh interpreter (child.py) at the
program's defaults: DRIFTLAB_WORKERS unset, BLAS threads as inherited.

--trace 0  measures for S seconds untraced and reports the end-to-end
           metrics: the median wall and CPU time of one pass over the
           workload's configs, the peak RSS of the workload process and the
           median set-up time of SETUP_SAMPLES fresh processes.
--trace 1  traces the program from outside (tracing.py) and reports the
           per-layer metrics, the tracing overhead, a single-threaded
           baseline (one pool worker, one BLAS thread) and whether the
           work counts repeat across passes and seeds.

Every report.csv of every pass is checked against an independent reference
(oracles.py).  A summary goes to standard output; its last line is one JSON
object with the keys correct, attempted, failed and metrics.  Scratch files
and spans go to .perfbench_out/ in the checkout.  The exit code is 0 when
the run completed, whether or not the checks passed, and 1 or 2 when it
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
SERIAL_ENV = {"DRIFTLAB_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Launcher:
    """Starts child.py processes for one workload and waits for each."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def run(self, mode, extra_env=None, seed2=None):
        self.count += 1
        out = self.workdir / f"child-{self.count}-{mode}.json"
        env = dict(os.environ)
        env.pop("DRIFTLAB_WORKERS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env.update(extra_env or {})
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--mode", mode, "--workdir", str(self.workdir / mode), "--out", str(out)]
        if seed2 is not None:
            cmd += ["--seed2", str(seed2)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a workload process")
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} process exceeded the time limit") from err
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["first_call"] - spawned
        return result


class Checker:
    """Checks every report of every pass; counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ref_err = 0.0
        self.rows = 0
        self.problems = []

    def passes(self, passes, tag, checks):
        for i, p in enumerate(passes):
            for out in p["outputs"]:
                self.attempted += 1
                where = f"{tag}[{i}] {out['label']}"
                if out["error"] is not None:
                    problems = [out["error"].strip().splitlines()[-1]]
                elif out["code"] != 0:
                    problems = [f"exit code {out['code']}"]
                elif out["csv"] is None:
                    problems = ["no report.csv"]
                else:
                    problems, err, rows = checks[out["label"]](out["csv"])
                    self.ref_err = max(self.ref_err, err)
                    self.rows += rows
                if problems:
                    self.failed += 1
                    self.problems += [f"{where}: {msg}" for msg in problems]

    @property
    def failed_frac(self):
        return self.failed / self.attempted


def _timing_line(name, unit, values, what):
    lo, _, hi = statistics.quantiles(values, n=4, method="inclusive")
    return (f"  {name:<13} {statistics.median(values):10.4f} {unit:<3} median of {len(values)} "
            f"{what}; quartiles {lo:.4f} .. {hi:.4f}, range {min(values):.4f} .. {max(values):.4f}")


def _env_line(env):
    return "  env: " + ", ".join(f"{k}={v}" for k, v in env.items())


def measure(args, launcher, checker, checks):
    setups = [launcher.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = launcher.run("measure")
    setups.append(main["setup_s"])
    checker.passes([main["warmup"]], "warmup", checks)
    checker.passes(main["passes"], "pass", checks)
    walls = [p["wall_s"] for p in main["passes"]]
    cpus = [p["cpu_s"] for p in main["passes"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    print(f"workload {args.workload}: seed {args.seed}, closed loop with one client, "
          f"{len(main['passes'])} timed passes after 1 warm-up pass")
    print(_timing_line("wall_s", "s", walls, "passes"))
    print(_timing_line("cpu_s", "s", cpus, "passes"))
    print(f"  {'peak_rss_mb':<13} {metrics['peak_rss_mb']:10.4f} MB  workload process, 1 sample")
    print(_timing_line("setup_s", "s", setups, "fresh processes"))
    print(f"  {'ref_err':<13} {checker.ref_err:10.4g}     largest error against the references "
          f"over {checker.rows} checked rows")
    print(f"  {'failed_frac':<13} {checker.failed_frac:10.4f}     "
          f"{checker.failed} of {checker.attempted} experiments")
    print(_env_line(main["env"]))
    return metrics


def _median_metrics(results):
    keys = results[0]["metrics"]
    return {k: statistics.median(r["metrics"][k] for r in results) for k in keys}


def trace(args, launcher, checker, checks, seed2, checks2):
    run = launcher.run("trace", seed2=seed2)
    serial = launcher.run("serial", extra_env=SERIAL_ENV)
    checker.passes([run["warmup"]], "warmup", checks)
    checker.passes(run["untraced"], "untraced", checks)
    checker.passes(run["traced"], "traced", checks)
    checker.passes([serial["warmup"]], "serial-warmup", checks)
    checker.passes(serial["passes"], "serial", checks)
    checker.passes([run["seed2"]], f"seed{seed2}", checks2)

    mismatched = []
    first = run["traced"][0]["metrics"]
    for tag, other in [(f"traced[{i}]", r) for i, r in enumerate(run["traced"][1:], 1)] + [
            (f"seed {seed2}", run["seed2"])]:
        for key in tracing.REPEATABLE:
            if other["metrics"][key] != first[key]:
                mismatched.append(f"{key}: {first[key]} in traced[0], {other['metrics'][key]} "
                                  f"in {tag}")

    m = _median_metrics(run["traced"])
    untraced = statistics.median(p["wall_s"] for p in run["untraced"])
    serial_wall = statistics.median(p["wall_s"] for p in serial["passes"])
    m["cli.load_s"] = run["load_s"]
    m["parallel.speedup_vs_serial"] = serial_wall / untraced
    m["trace.untraced_wall_s"] = untraced
    m["trace.serial_wall_s"] = serial_wall
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced
    m["trace.counts_repeat"] = 0.0 if mismatched else 1.0
    m["check.ref_err"] = checker.ref_err
    m["check.failed_frac"] = checker.failed_frac

    wall = m["trace.wall_s"]
    print(f"workload {args.workload}: seed {args.seed}, traced run: {len(run['traced'])} traced "
          f"and {len(run['untraced'])} untraced passes, 1 traced pass on seed {seed2}, "
          f"{len(serial['passes'])} single-threaded passes")
    print(f"  traced wall {wall:.4f} s, untraced {untraced:.4f} s, overhead "
          f"{m['trace.overhead_s']:+.4f} s; single-threaded {serial_wall:.4f} s "
          f"(speed-up {m['parallel.speedup_vs_serial']:.3f})")
    # shares are of thread time: wall plus the time pool threads overlapped
    busy = wall + m["trace.overlap_s"]
    print(f"  {'layer':<12} {'self_s':>9} {'share':>7}  prediction (should move; on; flat on)")
    for layer in tracing.LAYERS:
        print(f"  {layer:<12} {m[f'{layer}.self_s']:9.4f} {m[f'{layer}.self_s'] / busy:7.1%}  "
              f"{tracing.PREDICTIONS[layer]}")
    print(f"  {'unattributed':<12} {m['trace.unattributed_s']:9.4f} "
          f"{m['trace.unattributed_s'] / busy:7.1%}  benchmark loop outside cli.run")
    print(f"  self times add up to the traced wall {wall:.4f} s plus "
          f"{m['trace.overlap_s']:.4f} s that pool threads ran concurrently")
    print(f"  bindings replaced: " + ", ".join(
        f"{k} x{v}" for k, v in sorted(run["traced"][0]["bindings"].items()) if v > 1))
    print("  counts " + ("repeat exactly" if not mismatched else "DIFFER: " + "; ".join(mismatched))
          + " across traced passes and seeds: " + ", ".join(tracing.REPEATABLE))
    print(f"  ref_err {checker.ref_err:.4g}, failed {checker.failed} of {checker.attempted} "
          f"experiments")
    print(_env_line(run["env"]))
    print("  single-threaded" + _env_line(serial["env"])[len("  env"):])
    return m, mismatched


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "driftlab" / "cli.py").is_file():
        print(f"driftlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    launcher = Launcher(args, workdir)
    # references are computed before any workload process starts, so they
    # do not compete with it for the cores
    checks = workload.checks(args.seed)
    checker = Checker()
    try:
        if args.trace:
            seed2 = args.seed + 1
            values, mismatched = trace(args, launcher, checker, checks, seed2,
                                       workload.checks(seed2))
            listed = spec["per_layer"]
        else:
            values, mismatched = measure(args, launcher, checker, checks), []
            listed = spec["end_to_end"]
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for msg in checker.problems[:20]:
        print(f"  check failed: {msg}")
    metrics = {}
    for entry in listed:
        if entry["name"] not in values:
            print(f"metric {entry['name']} was not measured", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    print(json.dumps({"correct": checker.failed == 0 and not mismatched,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
