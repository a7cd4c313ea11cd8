"""One workload in a fresh process.

``--role setup`` imports fracprop, builds the inputs from the seed, warms up
each kind of operation once, prints its set-up time and exits.  ``--role
measure`` does the same and then runs the timed phase: whole rounds of the
workload's operations, one at a time, each output checked before the next
call.  Only the calls themselves are timed; checking is not.  The last line
of stdout is one JSON object for run.py.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from checkout import use_checkout_source  # noqa: E402

# p90 needs at least ten operations beyond it
MIN_OPERATIONS = 100
# stop starting rounds after this much timed work, so a slow tree still ends
MAX_TIMED_S = 90.0


def _warm_up(workload):
    for op in workload.warmup():
        try:
            op.run()
        except Exception:  # the timed phase counts and reports the failure
            pass


def _timed_phase(workload, seconds):
    from workloads import CheckError

    ops = workload.operations()
    # The host's CPUs slow down independently of each other for tens of
    # seconds at a time; moving to the next allowed CPU every round averages
    # over them instead of riding on one.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    rounds, cpu, spent = [], 0.0, 0.0
    attempted = failed = completed = 0
    wrong = []
    while True:
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        walls = []
        rounds.append(walls)
        round_start = spent
        for op in ops:
            attempted += 1
            cpu_start, start = time.process_time(), time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:
                spent += time.perf_counter() - start
                failed += 1
                print(f"failed: {op.label}: {exc!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            wall = time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            spent += wall
            walls.append(wall)
            try:
                op.check(output)
            except CheckError as exc:
                wrong.append(f"{op.label}: {exc}")
                print(f"wrong output: {op.label}: {exc}", file=sys.stderr)
        completed += len(walls)
        print(f"round: {spent - round_start:.4f} s", file=sys.stderr)
        if (spent >= seconds and completed >= MIN_OPERATIONS) or spent >= MAX_TIMED_S:
            return rounds, cpu, spent, attempted, failed, wrong


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.make(args.workload, args.seed % 2**64, args.workdir)
    _warm_up(workload)
    setup_s = time.perf_counter() - START
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.reset()
    rounds, cpu, spent, attempted, failed, wrong = _timed_phase(workload, args.seconds)
    walls = [wall for round_walls in rounds for wall in round_walls]
    completed = len(walls)
    result = {"setup_s": setup_s, "attempted": attempted, "failed": failed,
              "correct": not wrong, "completed": completed, "timed_s": spent}
    if completed:
        p90 = statistics.quantiles(walls, n=10)[8] if completed > 1 else walls[0]
        result.update({
            "ops_per_s": completed / spent,
            # The host's speed switches between a fast and a slow level for
            # stretches of seconds, so the median of all calls jumps between
            # the two levels with the share of time spent in each; the median
            # of each round, averaged over the rounds, moves smoothly with it.
            "op_p50_s": statistics.fmean(statistics.median(r) for r in rounds if r),
            "op_p90_s": p90,
            "beyond_p90": sum(1 for w in walls if w > p90),
            "cpu_s_per_op": cpu / completed,
        })
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        result["per_layer"] = tracer.per_operation(max(completed, 1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
