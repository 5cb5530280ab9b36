"""One benchmark operation, or one set-up launch, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--mode op|setup]
                                [--trace 0|1] [--workers K] [--selftest 0|1]

Set-up imports numpy and the program from this checkout's src/ and builds
the workload's inputs from the seed. An operation then runs once, timed:
the CLI workloads call `ammhedge.cli.main(argv)` in-process with stdout
captured, the sizing workload calls the library. Outside the timed region
the output is checked, hashed and, with --selftest 1, used to self-test the
checker. The last stdout line is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import selftest
import spans
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def load_program():
    """Import numpy and ammhedge from this checkout, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "ammhedge")):
        raise SystemExit("worker: no program source at %s" % SRC)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import ammhedge
    import ammhedge.cli
    if not os.path.abspath(ammhedge.__file__).startswith(SRC + os.sep):
        raise SystemExit("worker: ammhedge imported from %s, not %s" % (ammhedge.__file__, SRC))
    return ammhedge


def build_inputs(workload, seed, workers):
    if workload == "size_positions":
        cals = workloads.calibrations(seed)
        return {"calibrations": cals, "overrides": [workloads.overrides(c) for c in cals]}
    return {"argv": workloads.cli_argv(workload, seed, workers)}


def run_cli(ammhedge, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ammhedge.cli.main(argv)
    if rc != 0:
        raise RuntimeError("ammhedge %s exited with %r" % (" ".join(argv), rc))
    return buf.getvalue()


def run_sizing(overrides):
    from ammhedge import analytics as an, config_domain as cd, liquidation_fpt as fpt
    base = cd.baseline_scenario()
    records = []
    for pairs in overrides:
        scn = cd.apply_overrides(base, pairs)
        errors = cd.validate_scenario(scn)
        m, r, p = scn.market, scn.rates, scn.position
        hs = an.h_star(m, r, p)
        hc = min(max(hs, 0.0), 1.0)
        records.append({
            "errors": errors, "h_star": hs, "sr": an.sharpe(hc, m, r, p),
            "p_liq": fpt.liquidation_probability(hc, m, p),
            "alphas": [(a, fpt.h_bar(a, m, p), fpt.h_double_star(a, m, r, p))
                       for a in workloads.ALPHAS]})
    return records


def check(workload, seed, inputs, output):
    if workload == "size_positions":
        probs = []
        for rec, cal in zip(output, inputs["calibrations"]):
            probs += checks.check_sizing(rec, cal)
        if len(output) != len(inputs["calibrations"]):
            probs.append("%d sizings for %d calibrations" % (len(output), len(inputs["calibrations"])))
        return probs
    prog_seed = workloads.program_seed(workload, seed)
    if workload == "sweep_cv":
        return checks.check_sweep_cv(output, prog_seed, workloads.cv_values(seed), workloads.N_PATHS)
    return checks.check_rebalance(output, prog_seed, workloads.N_PATHS)


def selftest_context(workload, seed, inputs):
    ctx = {"seed": workloads.program_seed(workload, seed), "n_paths": workloads.N_PATHS}
    if workload == "sweep_cv":
        ctx["values"] = workloads.cv_values(seed)
    if workload == "size_positions":
        ctx["calibration"] = inputs["calibrations"][0]
    return ctx


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("op", "setup"), default="op")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--selftest", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ammhedge = load_program()
    inputs = build_inputs(args.workload, args.seed, args.workers)
    if args.mode == "setup":
        print(json.dumps({"setup": True}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install([ammhedge] + [sys.modules["ammhedge." + m] for m in spans.LAYERS])

    result = {"ok": True, "error": None, "problems": [], "missed_faults": []}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if args.workload == "size_positions":
            output = run_sizing(inputs["overrides"])
        else:
            output = run_cli(ammhedge, inputs["argv"])
    except Exception as exc:  # an operation that fails is counted, not fatal
        traceback.print_exc()
        result.update(ok=False, error="%s: %s" % (type(exc).__name__, exc))
        output = None
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if output is not None:
        text = output if isinstance(output, str) else json.dumps(output)
        result["digest"] = checks.digest(text)
        result["problems"] = check(args.workload, args.seed, inputs, output)
        if args.selftest:
            clean = output[0] if args.workload == "size_positions" else output
            result["missed_faults"] = selftest.missed_faults(
                args.workload, clean, selftest_context(args.workload, args.seed, inputs))
    if tracer is not None:
        result["layers"] = spans.per_layer(tracer)
        result["spans"] = tracer.span_rows()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
