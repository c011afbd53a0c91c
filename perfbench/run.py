"""Benchmark of the ifg commands: meanings, sentences, algebras, laws.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of meanings, sentences, algebras, laws, or `all`, which runs
the four one after another.  Each workload runs in a fresh process
(worker.py); set-up is measured in SETUP_RUNS further fresh processes and
reported as the median.  Prints every metric by name with its unit, then,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics.  Exits 1 without that line if a process fails.

See perfbench/README.md for the workloads, the metrics and the
speed normalisation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("meanings", "sentences", "algebras", "laws")
SETUP_RUNS = 4
DEADLINE = 170.0  # seconds for all processes of one workload

UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(Exception):
    pass


def worker(args, timeout):
    """Run worker.py with args; returns its last line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker %s timed out" % " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("worker %s exited %d" % (" ".join(args),
                                                    proc.returncode))
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    """(result, human-readable lines) of one workload."""
    deadline = time.monotonic() + DEADLINE
    setups = [worker(["--workload", name, "--setup-only"],
                     deadline - time.monotonic())["setup_s"]
              for _ in range(SETUP_RUNS)]
    main = worker(["--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
                  deadline - time.monotonic())
    setups.append(main["setup_s"])
    if trace:
        units = layers.metric_units()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in main["metrics"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in main["metrics"].items()}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    lines = ["%s/%s = %.6g %s" % (name, k, m["value"], m["unit"])
             for k, m in metrics.items()]
    lines.append("%s: attempted %d, failed %d, correct %s; raw op time %.3f s,"
                 " normalised %.3f s, median r %.6f s, set-up runs %s"
                 % (name, main["attempted"], main["failed"], main["correct"],
                    main["raw_s"], main["norm_s"], main["r_median"],
                    ", ".join("%.4f" % s for s in setups)))
    return {"correct": main["correct"], "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         args.trace)
            print("\n".join(lines), flush=True)
            results.append((name, result))
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {"%s/%s" % (name, k): v for name, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
