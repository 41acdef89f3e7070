"""Run one workload in this (fresh) process and print its raw results as
one JSON line.  ``run.py`` starts it; by hand:

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 22

The items run closed-loop on one thread: the next starts when the previous
returns.  The loop first warms up: it runs the workload's ``warm_up`` call,
if it has one, and then its fixed census prefix of items.  That holds the
cold work a fresh process pays (`verify --all` on the catalog, the
structured scans of the moduli points).  It then measures ``--seconds``
more; with ``--items`` it runs exactly that many items after the warm-up
call instead.  Only the items after the prefix count in the timed metrics:
the cold work is a few single chunks of seconds each, so one slow spell of
a shared machine would set it.  Its time is reported as ``first_pass_s``.
Checks run after the loop, outside every timed region.

With ``--setup-runs N`` the worker also times the set-up ``2 + N + 2``
times, each in a fresh ``--setup-only`` process: two before the loop, N
spread evenly over the measured window and two after the loop.  The loop
clock stops while it waits for one, so the window still holds ``--seconds``
of items.  Spreading the samples over the whole run keeps one slow spell of
a shared machine from setting their median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)

_MAX_PROBLEMS = 20
_SETUP_EDGE_RUNS = 2    # set-up samples before the loop, and as many after
_SETUP_TIMEOUT_S = 30


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--items", type=int,
                        help="run exactly this many items, ignoring --seconds")
    parser.add_argument("--trace", action="store_true",
                        help="install the layer wrappers and report per-layer "
                             "numbers")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the seeded inputs and exit")
    parser.add_argument("--setup-runs", type=int, default=0,
                        help="time the set-up this many times during the "
                             "window, plus twice before and after the loop")
    return parser.parse_args(argv)


def _time_setup(args):
    """Wall time from starting a fresh interpreter to having the seeded
    inputs ready.  A child that finds set-up problems exits with 1; this
    process reports the same problems itself.  A child that hangs is killed
    and fails this worker."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    began = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=_SETUP_TIMEOUT_S)
    return time.perf_counter() - began


def _run_items(workload, seconds, count, setup_runs=0, setup_once=None):
    """Warm up, then run the items closed-loop; return the results, the
    loop time, the warm-up time (the call and the census prefix) and the
    set-up samples taken inside the window (the clock stops during them)."""
    results = []
    setup_times = []
    stream = workload.items()
    clock = time.perf_counter
    start = clock()
    if hasattr(workload, "warm_up"):
        workload.warm_up()
    window = None
    paused = 0.0
    while True:
        done = len(results)
        if done >= workload.census_items and window is None:
            window = clock()
        if count is not None:
            if done >= count:
                break
        elif window is not None:
            measured = clock() - window - paused
            if len(setup_times) < setup_runs \
                    and measured >= len(setup_times) * seconds / setup_runs:
                began = clock()
                setup_times.append(setup_once())
                paused += clock() - began
                continue
            if measured >= seconds:
                break
        item = next(stream)
        began = clock()
        try:
            result, error = workload.run(item), None
        except Exception:
            result, error = None, traceback.format_exc(limit=4)
        results.append((item, result, clock() - began, error))
    end = clock()
    return results, end - start - paused, (window or end) - start, setup_times


def _judge(workload, results):
    census = Counter()
    tally = Counter()
    problems = list(workload.setup_problems)
    for index, (item, result, _, error) in enumerate(results):
        outcome = None
        if error is None:
            try:
                outcome = workload.check(item, result)
            except Exception:
                error = traceback.format_exc(limit=4)
        if outcome is None or outcome.problems:
            tally["failed"] += 1
            problems.extend([error] if outcome is None else outcome.problems)
        else:
            tally["decisions"] += outcome.decisions
            tally["inconclusive"] += outcome.inconclusive
        if index < workload.census_items:
            keys = [("error",)] if outcome is None else outcome.census
            census.update(" ".join(map(str, key)) for key in keys)
    extra = {}
    if hasattr(workload, "final_check"):
        try:
            extra, final_problems, final_census = workload.final_check()
        except Exception:
            final_problems = [traceback.format_exc(limit=4)]
            final_census = ["final check error"]
        problems.extend(final_problems)
        census.update(final_census)
    return census, tally, problems, extra


def main(argv=None):
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 1 if workload.setup_problems else 0
    tracer = None
    if args.trace:
        from tracing import Tracer, cache_sizes
        tracer = Tracer()
        tracer.install()
    edge_runs = _SETUP_EDGE_RUNS if args.setup_runs else 0
    setup_times = [_time_setup(args) for _ in range(edge_runs)]
    results, loop_s, first_pass_s, during = _run_items(workload, args.seconds, args.items,
                                         args.setup_runs,
                                         lambda: _time_setup(args))
    setup_times += during + [_time_setup(args) for _ in range(edge_runs)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers.update(cache_sizes())
        layers.update(tracer.replay_field_ops(args.seed))
    census, tally, problems, extra = _judge(workload, results)
    print(json.dumps({
        "attempted": len(results),
        "failed": tally["failed"],
        "decisions": tally["decisions"],
        "inconclusive": tally["inconclusive"],
        "problems": problems[:_MAX_PROBLEMS],
        "problem_count": len(problems),
        "item_seconds": [seconds for _, _, seconds, _ in
                         results[workload.census_items:]],
        "loop_s": loop_s,
        "first_pass_s": first_pass_s,
        "setup_seconds": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "census": dict(sorted(census.items())),
        "census_items": min(len(results), workload.census_items),
        "extra": extra,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
