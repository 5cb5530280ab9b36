"""The ammhedge benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload sweep_cv|rebalance_jumps|size_positions
                             --seed N --seconds S --trace 0|1

One caller runs operations back to back, each in a fresh interpreter
(worker.py), starting the next only when the previous one has ended, until
S seconds have passed and at least two operations have run. Every output is
checked; the same seed must print the same bytes in every operation, and on
the threaded workload `--workers 2` must print what `--workers 1` prints.

--trace 0 reports the end-to-end metrics: medians over the run's operations
of wall_s, cpu_s and peak_rss_mb, and setup_s, the median of several
set-up-only launches. --trace 1 alternates untraced and traced operations
and reports the per-layer metrics of the traced ones, with the tracing
overhead (traced minus untraced wall_s). The last stdout line is the JSON
result; the per-operation samples and spans go to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_LAUNCHES = 9
MIN_OPS = 2
# the threaded workload is also run once single-threaded to compare bytes
THREADED = "rebalance_jumps"


class FatalError(Exception):
    """The benchmark itself cannot run here (no program, broken worker)."""


def launch(workload, seed, mode="op", trace=0, workers=None, selftest=0):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(trace), "--selftest", str(selftest)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    env = dict(os.environ)
    env.pop("AMMHEDGE_SEED", None)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=150)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise FatalError("worker exited with %d: %s" % (proc.returncode, " ".join(cmd)))
    out = json.loads(lines[-1])
    out["launch_s"] = elapsed
    return out


def run_ops(args):
    """Closed loop; in trace mode each round is an untraced then a traced op.

    Operations self-test the checker until one has completed and done so.
    """
    modes = (0, 1) if args.trace else (0,)
    ops = []
    selftested = False
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < args.seconds:
        for trace in modes:
            op = launch(args.workload, args.seed, trace=trace, selftest=int(not selftested))
            selftested = selftested or op["ok"]
            op["traced"] = trace
            ops.append(op)
    return ops


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "ammhedge")):
        print("run.py: no program source under %s/src" % ROOT, file=sys.stderr)
        return 2

    try:
        ops = run_ops(args)
        extra = []
        if args.workload == THREADED:
            extra.append(launch(args.workload, args.seed, workers=1))
        setups = ([] if args.trace else
                  [launch(args.workload, args.seed, mode="setup") for _ in range(SETUP_LAUNCHES)])
    except (FatalError, subprocess.TimeoutExpired) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2

    good = [op for op in ops if op["ok"]]
    problems = [p for op in ops + extra for p in op["problems"]]
    problems += ["self-test missed planted fault %r" % f for op in ops for f in op["missed_faults"]]
    problems += ["the --workers 1 operation failed: %s" % e["error"] for e in extra if not e["ok"]]
    problems += checks.check_same_bytes(
        [op["digest"] for op in good + extra if op["ok"]],
        "seed %d%s" % (args.seed, ", --workers 1 and 2" if extra else ""))
    if not good:
        print("run.py: every operation failed: %s" % ops[0]["error"], file=sys.stderr)
        return 2

    untraced = [op for op in good if not op["traced"]]
    if args.trace:
        traced = [op for op in good if op["traced"]]
        values = {name: median([op["layers"][name] for op in traced])
                  for name in spans.PER_LAYER_UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median([op["wall_s"] for op in traced])
                                      - median([op["wall_s"] for op in untraced]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": median([op["wall_s"] for op in untraced]), "unit": "s"},
            "cpu_s": {"value": median([op["cpu_s"] for op in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": median([op["peak_rss_mb"] for op in untraced]), "unit": "MB"},
            "setup_s": {"value": median([s["launch_s"] for s in setups]), "unit": "s"},
        }

    result = {"correct": not problems, "attempted": len(ops),
              "failed": len(ops) - len(good), "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, problems=problems, ops=ops, workers_check=extra,
                       setup_launch_s=[s["launch_s"] for s in setups]), fh, indent=1)
    for p in problems[:20]:
        print("problem: %s" % p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
