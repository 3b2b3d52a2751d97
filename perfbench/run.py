"""qlattice benchmark: run one workload, or all of them, and print metrics.

    python3 perfbench/run.py --workload verify-all|query-mix|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src.  Every phase runs in a fresh worker process (perfbench/worker.py)
with one BLAS thread and a fixed hash seed.

--trace 0 measures the end-to-end metrics: fresh processes, each of which
sets up and times one pass of the workload's fixed work, until --seconds
have passed and at least the workload's least number of processes ran;
set-up-only processes are spread between them.  Each measuring process
draws its own inputs from the seed.  setup_s and wall_s are medians over
the processes, the latency percentiles are taken over all calls of the
run, and peak_rss_mb is the largest of the processes.  --trace 1 runs
one pass untraced and one traced, and reports the per-layer metrics of the
traced pass together with the tracing overhead.

A run stops starting processes when the next one would not end within
BUDGET_S seconds, judged by the longest one so far.  When a process is
still cut by the budget, the run reports the processes that ended; when
none ended, it prints "timed out" and exits with code 3, without a result
line, since the outputs were not found wrong.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  perfbench/design.json records the seeds, the metric
definitions and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out")
BUDGET_S = 170.0
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerFailed(Exception):
    pass


class TimedOut(Exception):
    pass


class Runner(object):
    def __init__(self, seed, deadline):
        self.seed = seed
        self.deadline = deadline
        self.count = 0
        self.longest = {}

    def fits(self, phase):
        """Whether another process of this phase should end in time."""
        longest = self.longest.get(phase, 0.0)
        return time.monotonic() + 1.25 * longest < self.deadline

    def spawn(self, workload, phase, trace=False, stream=0):
        self.count += 1
        result = os.path.join(SCRATCH, "result-%d.json" % self.count)
        log = os.path.join(SCRATCH, "worker-%d.log" % self.count)
        spec = {"workload": workload, "phase": phase, "seed": self.seed,
                "stream": stream, "trace": trace, "scratch": SCRATCH,
                "result": result}
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "w") as fh:
            spec["spawn"] = start = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"),
                     json.dumps(spec)],
                    cwd=ROOT, env=ENV, stdout=fh, stderr=fh, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise TimedOut("%s %s worker cut after %.0f s"
                               % (workload, phase, timeout))
        took = time.monotonic() - start
        self.longest[phase] = max(self.longest.get(phase, 0.0), took)
        if proc.returncode != 0 or not os.path.exists(result):
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise WorkerFailed("%s %s worker exited %d:\n%s"
                               % (workload, phase, proc.returncode, tail))
        with open(result) as fh:
            return json.load(fh)


def _outcome(results):
    passes = [r["pass"] for r in results]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for r in results for e in r["gate_errors"]]
    errors += [e for p in passes for e in p["errors"]]
    return attempted, failed, errors


def _p90(values):
    # "inclusive" never extrapolates beyond the slowest call, as the default
    # method does on a handful of calls.
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(runner, name, seconds):
    """End-to-end metrics of one workload, tracing off."""
    wl = WORKLOADS[name]
    runs, setups = [], []
    # set-up-only processes before, between and after the measuring ones
    batch = -(-(wl.setup_samples - wl.procs) // (wl.procs + 1))

    def sample_setups(count):
        for _ in range(count):
            if not runner.fits("setup"):
                return
            setups.append(runner.spawn(name, "setup")["setup_s"])

    start = time.monotonic()
    while len(runs) < wl.procs or time.monotonic() - start < seconds:
        sample_setups(batch)
        if runs and not runner.fits("run"):
            break
        try:
            runs.append(runner.spawn(name, "run", stream=len(runs)))
        except TimedOut as exc:
            if not runs:
                raise
            print("%s: %s; reporting the %d processes that ended"
                  % (name, exc, len(runs)), file=sys.stderr)
            break
        setups.append(runs[-1]["setup_s"])
    sample_setups(wl.setup_samples - len(setups))
    passes = [r["pass"] for r in runs]
    lat_us = [1e6 * s for p in passes for s in p["latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "query_p50_us": (statistics.median(lat_us), "us"),
        "query_p90_us": (_p90(lat_us), "us"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
    }
    info = {"processes": len(runs), "calls": len(lat_us),
            "setup_samples": len(setups),
            "pass_wall_s": " ".join("%.3f" % p["wall_s"] for p in passes)}
    return metrics, _outcome(runs), info


def trace(runner, name):
    """Per-layer metrics of one traced pass, and the tracing overhead
    against one untraced pass of the same work."""
    plain = runner.spawn(name, "run")
    traced = runner.spawn(name, "run", trace=True)
    plain_s = plain["pass"]["wall_s"]
    traced_s = traced["pass"]["wall_s"]
    layers = tracing.per_layer(traced["layers"], plain_s, traced_s)
    info = {"untraced_wall_s": plain_s, "traced_wall_s": traced_s}
    return layers, _outcome([plain, traced]), info


def run_workload(runner, name, seconds, traced):
    try:
        if traced:
            metrics, (attempted, failed, errors), info = trace(runner, name)
        else:
            metrics, (attempted, failed, errors), info = \
                measure(runner, name, seconds)
    except WorkerFailed as exc:
        print("%s: %s" % (name, exc), file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}
    except TimedOut as exc:
        print("%s: timed out: %s" % (name, exc), file=sys.stderr)
        return None
    correct = failed == 0 and not errors
    print("== %s (seed %d, %s)" % (name, runner.seed,
                                   "traced" if traced else "untraced"))
    for key, value in sorted(info.items()):
        print("   %-40s %s" % (key, value))
    for metric, (value, unit) in metrics.items():
        print("   %-40s %.6g %s" % (metric, value, unit))
    print("   %-40s %.6g (%d of %d calls)"
          % ("fail_ratio", failed / max(attempted, 1), failed, attempted))
    print("   gate %s" % ("PASS" if correct else "FAIL"))
    for err in errors[:10]:
        print("     " + err)
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": u}
                        for m, (v, u) in metrics.items()}}


def main():
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=design["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qlattice",
                                       "__init__.py")):
        sys.exit("no qlattice source under %s" % os.path.join(ROOT, "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    runner = Runner(args.seed, time.monotonic() + BUDGET_S * len(names))
    try:
        results = {name: run_workload(runner, name, args.seconds,
                                      bool(args.trace))
                   for name in names}
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if None in results.values():
        sys.exit(3)
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s/%s" % (name, m): v
                           for name, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
