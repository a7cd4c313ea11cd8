"""fracprop benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it runs SETUP_REPEATS - 1 set-up-only processes and one
measured process, and prints the end-to-end metrics; ``setup_s`` is the
median of all SETUP_REPEATS set-up times.  With ``--trace 1`` it runs one
measured process with the per-layer tracer installed and prints the
per-layer metrics instead.  The last line of stdout is the JSON result; see
README.md in this directory for the workloads, metrics and settings.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import SRC, sources_present
from tracer import metric_unit

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-suite", "evolve-csv", "characterize-profiles")
SETUP_REPEATS = 7
# a run must end within 180 s: 6 * 10 + 110
SETUP_TIMEOUT_S = 10
MEASURE_TIMEOUT_S = 110
# one BLAS thread: the benchmark is a single caller on a shared 2-core machine
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
         "cpu_s_per_op": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    pass


def child_environment():
    env = dict(os.environ)
    env.pop("FRACPROP_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, role, workdir, timeout):
    workdir.mkdir(parents=True)
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--role", role, "--workdir", str(workdir)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout, env=child_environment())
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{role} process exceeded {timeout} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{role} process exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, workdir):
    if args.trace:
        run = run_worker(args, "measure", workdir / "measure", MEASURE_TIMEOUT_S)
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in run["per_layer"].items()}
        print(f"traced: {run['completed']} operations, "
              f"{run['completed'] / run['timed_s']:.4g} ops/s", file=sys.stderr)
    else:
        # set-up processes on both sides of the measured one sample the
        # host's speed at different moments, which steadies their median
        setups = [run_worker(args, "setup", workdir / f"setup-{k}", SETUP_TIMEOUT_S)["setup_s"]
                  for k in range(SETUP_REPEATS // 2)]
        run = run_worker(args, "measure", workdir / "measure", MEASURE_TIMEOUT_S)
        setups.append(run["setup_s"])
        setups += [run_worker(args, "setup", workdir / f"setup-{k}", SETUP_TIMEOUT_S)["setup_s"]
                   for k in range(SETUP_REPEATS // 2, SETUP_REPEATS - 1)]
        if run["completed"] == 0:
            raise BenchmarkError("no operation completed")
        run["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in UNITS.items()}
        print(f"{run['completed']} operations in {run['timed_s']:.3f} s, "
              f"{run['beyond_p90']} beyond p90; set-up times {setups}", file=sys.stderr)
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not sources_present():
        print(f"error: no fracprop sources under {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
