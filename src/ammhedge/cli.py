"""Command line front end.

Every subcommand resolves one Scenario (--scenario, a preset or a file, else
the subcommand's or target's own preset, with every flag on top), runs, and
prints the same CSV text that --out writes to disk, so the command line and
the scenario file decide every byte of a run.

Exit codes: 1 for configuration problems (bad file, unknown key, invalid
parameters), 2 for runtime failures, such as an output path that cannot be
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import analytics, experiments, liquidation_fpt as fpt, montecarlo as mc
from .config_domain import (DEFAULT_SEED, ScenarioError, apply_overrides,
                            estimate_market_params, load_scenario, read_price_csv,
                            scenario_hash, validate_scenario)


def _add_common(p):
    p.add_argument("--scenario", default=None,
                   help="preset name (%s) or path to a scenario file; default: baseline, "
                        "or for reproduce the target's own preset"
                        % ", ".join(sorted(experiments.PRESETS)))
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override one scenario key; repeatable")
    p.add_argument("--out", default=None, metavar="DIR", help="also write CSVs here")


def _add_monte_carlo(p):
    _add_common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (beats the scenario file; default %d)" % DEFAULT_SEED)
    p.add_argument("--paths", type=int, default=None, help="number of Monte Carlo paths")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that each draw whole path blocks and run the kernel on them")


def _resolve_scenario(args, preset="baseline"):
    """The scenario a run starts from, --scenario when set, else preset, with
    --override on top and, where the subcommand simulates, --paths and --seed.
    A file, never a directory, stands in for a preset of its name, and
    only when --scenario names it. Nothing here checks the scenario: a Monte
    Carlo run is checked at the hedge ratios it runs, before its first draw
    (montecarlo._stream_passes), and the closed form by _at_h."""
    name = args.scenario
    if name is None or (name in experiments.PRESETS and not os.path.isfile(name)):
        scn = experiments.get_preset(preset if name is None else name)
    elif os.path.exists(name):
        scn = load_scenario(name)
    else:
        raise ScenarioError("no preset or scenario file named %r; presets: %s"
                            % (name, ", ".join(sorted(experiments.PRESETS))))
    overrides = list(args.override)
    if "paths" in args:
        if args.workers < 1:
            raise ScenarioError("--workers %d: need at least one" % args.workers)
        if args.paths is not None:
            overrides.append("sim.n_paths=%d" % args.paths)
        if args.seed is not None:
            overrides.append("sim.seed=%d" % args.seed)
    return apply_overrides(scn, overrides) if overrides else scn


def _at_h(args, scn, h):
    """scn with h in place of position.h, held to validate_scenario and, where
    the subcommand draws no paths, to the closed form's zero drift and no
    jumps. A rejection names --h, when given, before the errors that h causes:
    those the scenario does not show at h = 0 (the h range, the initial LTV)."""
    at_0 = dataclasses.replace(scn, position=dataclasses.replace(scn.position, h=0.0))
    scn = dataclasses.replace(scn, position=dataclasses.replace(scn.position, h=h))
    errs = validate_scenario(scn)
    flag = getattr(args, "h", None) is not None
    own = [e for e in errs if e not in validate_scenario(at_0)] if flag else []
    errs = [e for e in errs if e not in own]
    if "paths" not in args:
        lam = scn.jump.lam if scn.jump is not None else 0.0
        errs += ["%s = %r: the closed form and the first-passage bound take zero drift and "
                 "no jumps; simulate models them" % (key, value) for key, value in
                 (("market.mu_a", scn.market.mu_a), ("market.mu_b", scn.market.mu_b),
                  ("jump.lambda", lam)) if value != 0.0]
    if own:
        errs.append("--h %r: %s" % (h, "; ".join(own)))
    if errs:
        raise ScenarioError("; ".join(errs))
    return scn


def _emit(tables, out_dir):
    # stdout last, so that a run whose --out cannot be written prints nothing
    text = "\n".join(experiments.render_table(t) for t in tables)
    if out_dir is not None:
        for t in tables:
            experiments.write_table(t, out_dir)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analytic(args):
    scn = _resolve_scenario(args)
    _at_h(args, scn, 0.0)  # no line reads position.h; the header hashes scn as given
    m, r, pos = scn.market, scn.rates, scn.position
    t = pos.horizon_years
    mom = analytics.variance_components(m, t)
    dec = analytics.pnl_decomposition(m, r, pos)
    h_mv = analytics.h_min_variance(m, pos)
    h_opt = analytics.h_star(m, r, pos)
    print("T            = %.6f years" % t)
    print("phi          = %.8f" % mom.phi)
    print("v_GG         = %.8f" % mom.v_gg)
    print("v_AA         = %.8f" % mom.v_aa)
    print("v_GA         = %.8f" % mom.v_ga)
    print("mu0          = %.8f" % dec.mu0)
    print("c            = %.8f" % dec.c)
    print("h_mv         = %.6f" % h_mv)
    print("h*           = %.6f" % h_opt)
    print("SR(h*)       = %.4f" % analytics.sharpe(h_opt, m, r, pos))
    print("SOC at h*    = %s" % ("satisfied" if analytics.verify_soc(h_opt, m, r, pos) else "VIOLATED"))
    rows = [[h, analytics.sharpe(h, m, r, pos)] for h in experiments.TABLE4_GRID]
    table = experiments.Table(
        name="analytic_sharpe", columns=["h", "SR"], rows=rows,
        provenance={"seed": "-", "n_paths": "-", "engine": "closed_form",
                    "config": scenario_hash(scn)},
        formats=["%.2f", "%.4f"])
    print()
    _emit([table], args.out)
    return 0


def cmd_fpt(args):
    scn = _resolve_scenario(args)
    scn = _at_h(args, scn, scn.position.h if args.h is None else args.h)
    if args.alpha is not None and not 0.0 < args.alpha < 1.0:
        raise ScenarioError("--alpha %r: must lie in (0,1)" % args.alpha)
    m, pos = scn.market, scn.position
    inp = fpt.fpt_inputs(pos.h, m, pos)
    prob = fpt.liquidation_probability(pos.h, m, pos)
    if args.alpha is not None:
        # both before the first line, so that a failure prints nothing
        hb = fpt.h_bar(args.alpha, m, pos)
        hdd = fpt.h_double_star(args.alpha, m, scn.rates, pos)
    print("sigma_tilde  = %.6f" % inp.sigma_tilde)
    print("LTV_0        = %.4f" % inp.ltv0)
    print("barrier b    = %.6f" % inp.barrier_log)
    print("P(liq, %.0fd) = %.2f%%" % (pos.horizon_days, prob * 100.0))
    if args.alpha is not None:
        print("h_bar(%.4f) = %.4f" % (args.alpha, hb))
        print("h**          = %.4f" % hdd)
    return 0


def cmd_simulate(args):
    scn = _resolve_scenario(args)
    (_, batches), = mc._stream_passes([scn], (scn.position.h,), args.workers)
    batch = next(batches)
    if args.dump_paths:
        mc.write_path_dump(batch, args.dump_paths)
    stats = mc.aggregate(batch, scn.position.horizon_days, r_f=scn.rates.r_f)
    rows = [
        ["E[ROE] (pp)", stats.e_roe_pp], ["Std (pp)", stats.std_pp],
        ["SR (raw)", stats.sr_raw], ["SR (+tx)", stats.sr_tx],
        ["P(loss) (%)", stats.p_loss * 100.0], ["P(liq) (%)", stats.p_liq * 100.0],
        ["5% VaR (pp)", stats.var5_pp],
        ["mean max LTV (%)", stats.mean_max_ltv * 100.0],
        ["p95 max LTV (%)", stats.p95_max_ltv * 100.0],
        ["p99 max LTV (%)", stats.p99_max_ltv * 100.0],
        ["avg rebalances", stats.avg_rebalances],
    ]
    table = experiments.Table(
        name="summary", columns=["Metric", "Value"], rows=rows,
        provenance=experiments._provenance(scn),
        formats=[None, "%.4f"])
    _emit([table], args.out)
    return 0


def cmd_sweep(args):
    scn = _resolve_scenario(args)
    if args.values is None:
        raise ScenarioError("--values is required; the built-in sweeps are `reproduce %s`"
                            % "|".join(n for n, t in experiments.TARGETS.items() if t.axis))
    # a shortcut sweeps the scenario key it names
    axis = getattr(experiments.TARGETS.get(args.axis), "axis", None) or args.axis
    # text passes an unknown axis on to run_sensitivity, which reports it
    parse = experiments.SWEEP_AXES.get(axis, str)
    try:
        values = tuple(parse(v.strip()) for v in args.values.split(","))
    except (ValueError, ScenarioError) as exc:
        raise ScenarioError("cannot parse --values for %s: %s" % (axis, exc)) from None
    tables = [experiments.run_sensitivity(scn, axis, values, n_workers=args.workers)]
    _emit(tables, args.out)
    return 0


def cmd_rebalance(args):
    scn = _resolve_scenario(args)
    _at_h(args, scn, args.h)  # every strategy runs at --h, which a rejection names
    tables = [experiments.run_rebalancing_comparison(scn, h=args.h, n_workers=args.workers)]
    _emit(tables, args.out)
    return 0


def cmd_calibrate(args):
    try:
        dates_a, prices_a = read_price_csv(args.prices_a)
        dates_b, prices_b = read_price_csv(args.prices_b)
    except (OSError, ValueError) as exc:
        raise ScenarioError(str(exc)) from None
    if dates_a != dates_b:
        n = min(len(dates_a), len(dates_b))
        where = next((i for i in range(n) if dates_a[i] != dates_b[i]), n)
        raise ScenarioError(
            "price series are not date-aligned (first mismatch at row %d: %s vs %s)"
            % (where + 2,
               dates_a[where] if where < len(dates_a) else "<end>",
               dates_b[where] if where < len(dates_b) else "<end>"))
    try:
        m = estimate_market_params(prices_a, prices_b)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    print("observations = %d" % len(prices_a))
    print("sigma_a      = %.6f" % m.sigma_a)
    print("sigma_b      = %.6f" % m.sigma_b)
    print("rho          = %.6f" % m.rho)
    print("overrides: market.sigma_a=%.6f market.sigma_b=%.6f market.rho=%.6f"
          % (m.sigma_a, m.sigma_b, m.rho))
    return 0


def cmd_reproduce(args):
    scn = _resolve_scenario(args, experiments.find_target(args.name).preset)
    tables = experiments.reproduce(args.name, scn=scn, n_workers=args.workers)
    _emit(tables, args.out)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="ammhedge",
        description="Hedged AMM liquidity positions: closed-form optima, liquidation "
                    "bounds and Monte Carlo experiments.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form moments, optimum and Sharpe curve")
    _add_common(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("fpt", help="first-passage liquidation probability and caps")
    _add_common(p)
    p.add_argument("--h", type=float, default=None, help="hedge ratio (default: scenario h)")
    p.add_argument("--alpha", type=float, default=None,
                   help="liquidation budget; prints h_bar and h** when given")
    p.set_defaults(func=cmd_fpt)

    p = sub.add_parser("simulate", help="one Monte Carlo run, summary statistics")
    _add_monte_carlo(p)
    p.add_argument("--dump-paths", default=None, metavar="FILE",
                   help="write a per-path CSV (path_id, roe, liquidated, ...)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sensitivity sweep with per-value re-optimization")
    _add_monte_carlo(p)
    p.add_argument("--axis", required=True,
                   help="%s, or any scenario key but position.h and position.horizon_years "
                        "(market.vol_scale scales both vols)"
                        % " | ".join(n for n, t in experiments.TARGETS.items() if t.axis))
    p.add_argument("--values", default=None, help="comma-separated axis values (required)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rebalance", help="compare rebalancing strategies on shared paths")
    _add_monte_carlo(p)
    p.add_argument("--h", type=float, default=0.60, help="hedge ratio (default 0.60)")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser("calibrate", help="estimate vols and correlation from price CSVs")
    p.add_argument("prices_a", help="date,price CSV of token A, one row per consecutive day")
    p.add_argument("prices_b", help="date,price CSV of token B, one row per consecutive day")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("reproduce", help="rebuild one results table or figure dataset")
    _add_monte_carlo(p)
    p.add_argument("name", help="target name or alias: " + experiments.describe_targets())
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
