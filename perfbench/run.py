"""The fermatmf benchmark: one workload per invocation, end-to-end numbers
or, with ``--trace 1``, per-layer numbers.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 22 --trace 0

Run it from the root of a source checkout; it needs only the standard
library and the package under ``src/``.  Every workload runs in a fresh
worker process (``worker.py``), because the package keeps process-global
caches that a command-line user pays cold on every invocation.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit, the verdict census and the run metadata.  See NOTES.md for the
workloads and what each metric is meant to catch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("catalog", "sweep", "moduli")

SETUP_RUNS = 12         # set-up samples spread over the window; the worker
                        # adds two before its loop and two after it
TAIL_BEYOND = 10        # samples the tail percentile must leave beyond it
DEADLINE_S = 170        # the whole invocation, workers included


class BenchError(Exception):
    """A worker failed or the checkout cannot be benchmarked."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spawn(args, extra, deadline):
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s ran past the deadline" % " ".join(extra))
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s"
                         % (proc.returncode, proc.stderr.strip()))
    return proc.stdout


def _worker(args, extra, deadline):
    return json.loads(_spawn(args, extra, deadline).strip().splitlines()[-1])


def tail(samples):
    """(value, percentile, count beyond): the highest whole percentile, by
    nearest rank, that leaves at least TAIL_BEYOND samples beyond it; the
    maximum when that percentile would fall below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100, 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def end_to_end(raw):
    seconds = raw["item_seconds"]
    setup_times = raw["setup_seconds"]
    tail_s, pct, beyond = tail(seconds)
    decisions = raw["decisions"]
    inconclusive = raw["inconclusive"] / decisions if decisions else 0.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(seconds) / sum(seconds), "1/s"),
        "item_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "decided_ratio": (1.0 - inconclusive, "ratio"),
    }
    notes = [
        "first_pass_s = %.6g s (the warm-up: the cold work of a fresh process "
        "and the first %d items; not in the timed metrics)"
        % (raw["first_pass_s"], raw["census_items"]),
        "item_tail_ms is p%d of %d items, %d beyond it" % (pct, len(seconds),
                                                           beyond),
        "fail_ratio = %.6g ratio (%d of %d items)"
        % (raw["failed"] / raw["attempted"], raw["failed"], raw["attempted"]),
        "inconclusive_ratio = %.6g ratio (%d of %d decisions)"
        % (inconclusive, raw["inconclusive"], decisions),
        "setup_s runs: %s" % ", ".join("%.4f" % t for t in setup_times),
    ]
    return metrics, notes


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as handle:
                ref = handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fermatmf", "__init__.py")):
        print("error: no fermatmf sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            reference = _worker(args, [], deadline)
            raw = _worker(args, ["--trace", "--items", str(reference["attempted"])],
                          deadline)
            metrics = {name: tuple(pair) for name, pair in raw["layers"].items()}
            metrics["trace.overhead_ratio"] = (
                raw["loop_s"] / reference["loop_s"], "ratio")
            notes = ["untraced reference: %d items in %.3f s"
                     % (reference["attempted"], reference["loop_s"])]
            if raw["census"] != reference["census"]:
                raw["problems"].append("the census of the traced run differs "
                                       "from that of the untraced one")
                raw["problem_count"] += 1
            runs = (reference, raw)
        else:
            raw = _worker(args, ["--setup-runs", str(SETUP_RUNS)], deadline)
            metrics, notes = end_to_end(raw)
            runs = (raw,)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    notes.append("wall_s = %.3f s (the whole invocation; the limit is %d s)"
                 % (time.monotonic() - deadline + DEADLINE_S, DEADLINE_S))
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    problems = [p for run in runs for p in run["problems"]]
    correct = failed == 0 and not any(run["problem_count"] for run in runs)

    print("workload: %s  seed: %d  seconds: %d  trace: %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("meta: python %s, nproc %d, commit %s"
          % (platform.python_version(), os.cpu_count() or 0, _commit()))
    for name, (value, unit) in sorted(metrics.items()):
        print("%s = %.6g %s" % (name, value, unit))
    for note in notes:
        print(note)
    census = json.dumps(raw["census"], sort_keys=True)
    print("census (warm-up and first %d items): %s"
          % (raw["census_items"], census))
    for key, value in sorted(raw["extra"].items()):
        print("%s: %s" % (key, value))
    for problem in problems:
        print("problem: %s" % problem)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
