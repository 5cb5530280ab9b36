"""Config-driven reproduction of every results table and figure dataset.

Each runner names the scenarios it scores and the hedge ratios it runs them
at, and montecarlo._stream_passes, the one place that draws paths and runs
kernel passes, checks every one at those hedge ratios before the first draw
(a rejection names it) and streams them, mostly through _score,
which aggregates each pass per h: consecutive scenarios that ask for the same
paths read one stream of blocks, so comparisons ride on common random numbers,
and those with equal pass records (montecarlo._Pass) share one pass per h. Each
runner returns a Table; write_table() emits two CSVs per table, at display and
at full precision, under a provenance header (the seeds, path counts and
engines the rows used, and a config hash).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import montecarlo as mc
from .config_domain import (_KEY_PARSERS, DAYS_PER_YEAR, Scenario, ScenarioError,
                            _parse_number, apply_overrides, parse_scenario, scenario_hash)
from .liquidation_fpt import fpt_inputs, liquidation_probability

TABLE4_GRID = (0.0, 0.20, 0.40, 0.50, 0.60, 0.65, 0.70, 0.80, 1.00)
TABLE5_GRID = (0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 1.00)
FINE_GRID = tuple(round(0.05 * i, 2) for i in range(21))
JUMP_GRID = (0.0, 0.40, 0.60, 0.65, 0.70, 1.00)

# the presets are the package's scenario files: name -> file text
PRESETS = {f.name[:-len(".cfg")]: f.read_text(encoding="utf-8")
           for f in sorted((resources.files(__package__) / "scenarios").iterdir(),
                           key=lambda f: f.name) if f.name.endswith(".cfg")}

ROBUSTNESS_PAIRS = (
    ("SUI/NS", "Sui", "baseline"),
    ("SOL/RAY", "Solana", "sol_ray"),
    ("SOL/JUP", "Solana", "sol_jup"),
    ("ETH/ARB", "Arbitrum", "eth_arb"),
)


def get_preset(name) -> Scenario:
    if name not in PRESETS:
        raise ScenarioError("unknown preset %r; available: %s" % (name, ", ".join(sorted(PRESETS))))
    return parse_scenario(PRESETS[name], name=name)


@dataclass
class Table:
    name: str
    columns: list
    rows: list
    provenance: dict
    formats: list = None
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared machinery

def _provenance(scn, used=()):
    """scn's config hash, with the seeds, path counts and engines of the scenarios
    the rows used (scn itself by default), joined by "|" where they differ."""
    used = used or (scn,)
    engines = ["mc_jump" if s.jump is not None and s.jump.lam > 0 else "mc_gbm" for s in used]
    prov = {"config": scenario_hash(scn)}
    for key, vals in (("seed", [s.sim.seed for s in used]),
                      ("n_paths", [s.sim.n_paths for s in used]), ("engine", engines)):
        vals = list(dict.fromkeys(vals))
        # "|", not ",": the header sits above a CSV
        prov[key] = vals[0] if len(vals) == 1 else "|".join(map(str, vals))
    return prov


def _score(scenarios, grid, n_workers=1) -> list:
    """{h: SummaryStats} over the grid for each scenario, on common random numbers:
    the passes of mc._stream_passes, each aggregated as it is joined."""
    return [{h: mc.aggregate(batch, scn.position.horizon_days, r_f=scn.rates.r_f)
             for h, batch in zip(grid, batches)}
            for scn, batches in mc._stream_passes(scenarios, grid, n_workers)]


def argmax_h(grid, stats_by_h, key=lambda s: s.sr_raw):
    """Sharpe-maximizing h on the grid; ties break toward the lower h."""
    best, best_v = grid[0], key(stats_by_h[grid[0]])
    for h in grid[1:]:
        v = key(stats_by_h[h])
        if v > best_v:
            best, best_v = h, v
    return best


def _se_mean_pp(st):
    return st.std_pp / math.sqrt(st.n_paths)


def _se_prob_pp(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) * 100.0


def _sr_se(st, horizon_days):
    # asymptotic standard error of a Sharpe estimate annualized from horizon_days
    ann = math.sqrt(DAYS_PER_YEAR / horizon_days)
    per_period = st.sr_raw / ann
    return math.sqrt((1.0 + 0.5 * per_period ** 2) / st.n_paths) * ann


# ---------------------------------------------------------------------------
# table runners

def run_hedge_grid(scn, grid=TABLE4_GRID, n_workers=1) -> Table:
    """Summary statistics by hedge ratio on shared paths."""
    stats, = _score([scn], grid, n_workers)
    rows = []
    for h in grid:
        st = stats[h]
        rows.append([h * 100.0, st.e_roe_pp, st.std_pp, st.sr_raw, st.sr_tx,
                     st.p_loss * 100.0, st.p_liq * 100.0, st.var5_pp,
                     _se_mean_pp(st), _se_prob_pp(st.p_loss, st.n_paths),
                     _se_prob_pp(st.p_liq, st.n_paths)])
    return Table(
        name="hedge_grid",
        columns=["h (%)", "E[ROE]", "Std", "SR (raw)", "SR (+tx)", "P(loss)", "P(liq)",
                 "5% VaR", "se(E[ROE])", "se(P(loss))", "se(P(liq))"],
        rows=rows,
        provenance=_provenance(scn),
        formats=["%.0f", "%+.2f", "%.1f", "%.3f", "%.3f", "%.1f", "%.1f", "%+.1f",
                 "%.3f", "%.2f", "%.2f"],
        extra={"stats": stats, "grid": grid})


def _no_claims(scn) -> Scenario:
    return replace(scn, sim=replace(scn.sim, claim_interval_days=0.0))


def run_analytic_vs_mc(scn, grid=TABLE5_GRID, n_workers=1) -> Table:
    """First-passage approximation against MC liquidation frequency."""
    no_claims, claims = _score([_no_claims(scn), scn], grid, n_workers)
    rows = []
    for h in grid:
        fi = fpt_inputs(h, scn.market, scn.position)
        ana = liquidation_probability(h, scn.market, scn.position) * 100.0
        p_no = no_claims[h].p_liq * 100.0
        p_cl = claims[h].p_liq * 100.0
        rows.append([h * 100.0, fi.ltv0 * 100.0, fi.barrier_log, ana, p_no, p_cl,
                     _se_prob_pp(no_claims[h].p_liq, no_claims[h].n_paths),
                     _se_prob_pp(claims[h].p_liq, claims[h].n_paths)])
    return Table(
        name="analytic_vs_mc",
        columns=["h (%)", "LTV_0", "b", "Analytical", "MC (no claims)", "MC (claims)",
                 "se(no claims)", "se(claims)"],
        rows=rows,
        provenance=_provenance(scn),
        formats=["%.0f", "%.1f", "%.3f", "%.2f", "%.2f", "%.2f", "%.3f", "%.3f"],
        extra={"no_claims": no_claims, "claims": claims, "grid": grid})


def run_liquidation_stats(scn, h=1.0, n_workers=1) -> Table:
    """Liquidation outcome statistics with and without reward claims."""
    no_claims, claims = _score([_no_claims(scn), scn], (h,), n_workers)
    st_no, st_cl = no_claims[h], claims[h]
    rows = [
        ["Liquidation probability", st_no.p_liq * 100.0, st_cl.p_liq * 100.0],
        ["Mean max LTV", st_no.mean_max_ltv * 100.0, st_cl.mean_max_ltv * 100.0],
        ["95th pctl max LTV", st_no.p95_max_ltv * 100.0, st_cl.p95_max_ltv * 100.0],
        ["99th pctl max LTV", st_no.p99_max_ltv * 100.0, st_cl.p99_max_ltv * 100.0],
    ]
    return Table(
        name="liquidation_stats",
        columns=["Metric", "No claims", "Claim/14d"],
        rows=rows,
        provenance=_provenance(scn),
        formats=[None, "%.1f", "%.1f"],
        extra={"no_claims": st_no, "claims": st_cl, "h": h})


REBALANCE_STRATEGIES = (
    ("No rebalance", "none"),
    ("Threshold 20pp", "threshold(20)"),
    ("Threshold 15pp", "threshold(15)"),
    ("Threshold 10pp", "threshold(10)"),
    ("Every 14 days", "periodic(14)"),
    ("Every 30 days", "periodic(30)"),
)


def run_rebalancing_comparison(scn, h=0.60, strategies=REBALANCE_STRATEGIES,
                               n_workers=1) -> Table:
    """Static hedge vs threshold and periodic rebalancing on shared paths."""
    pos = replace(scn.position, h=h)
    scenarios = [replace(scn, position=pos, sim=replace(scn.sim, rebalance=rule))
                 for _, rule in strategies]
    rows, stats = [], {}
    for (label, _), (_, batches) in zip(strategies, mc._stream_passes(scenarios, (h,), n_workers)):
        batch = next(batches)
        st = mc.aggregate(batch, pos.horizon_days, r_f=scn.rates.r_f)
        stats[label] = st
        gas_paid = scn.sim.gas_cost * float(np.mean(batch.n_rebalances))
        rows.append([label, st.e_roe_pp, st.std_pp, st.sr_raw, st.p_liq * 100.0,
                     st.avg_rebalances, gas_paid / batch.pi0 * 100.0, _sr_se(st, pos.horizon_days)])
    return Table(
        name="rebalancing",
        columns=["Strategy", "E[ROE]", "Std", "SR", "P(liq)", "Avg rebal.", "Cost", "se(SR)"],
        rows=rows,
        provenance=_provenance(scn),
        formats=[None, "%+.2f", "%.2f", "%.3f", "%.1f", "%.1f", "%.2f", "%.3f"],
        extra={"stats": stats, "h": h})


# ---------------------------------------------------------------------------
# sensitivity sweeps

# scenario keys a sweep cannot vary, and why
_UNSWEPT = {
    "position.h": "the h grid sets h in every pass; give the grid instead",
    "position.horizon_years": "it is derived from position.horizon_days; sweep that key",
}
# sweep axis -> parser of its values: every other scenario key with its own
# parser, and market.vol_scale, which scales both vols
SWEEP_AXES = {**{k: p for k, p in _KEY_PARSERS.items() if k not in _UNSWEPT},
              "market.vol_scale": _parse_number}


def _apply_axis(scn, axis, value) -> Scenario:
    if axis == "market.vol_scale":
        m = scn.market
        return replace(scn, market=replace(m, sigma_a=m.sigma_a * value, sigma_b=m.sigma_b * value))
    return apply_overrides(scn, ["%s=%s" % (axis, value)])


def run_sensitivity(base, axis, values, grid=FINE_GRID, n_workers=1) -> Table:
    """Re-optimize h over the grid for each value of one parameter axis.

    Optima are selected on the raw (cost-free) Sharpe; the cost-adjusted
    Sharpe at the optimum is reported alongside. A value's scenario is named
    "sweep value <axis> = <value>", which a rejection names, and reuses the
    previous value's paths when it asks for the same ones. Consecutive values
    whose pass records are equal share one kernel pass per h: those that
    differ only in what the step loop does not read, such as the penalty,
    r_f, the fees, gas and, without rebalancing, C/V0.
    """
    if not values:
        raise ScenarioError("sweep needs at least one axis value")
    if axis in _UNSWEPT:
        raise ScenarioError("cannot sweep %s: %s" % (axis, _UNSWEPT[axis]))
    if axis not in SWEEP_AXES:
        raise ScenarioError("unknown sweep axis %r" % (axis,))
    scenarios = [replace(_apply_axis(base, axis, value), name="sweep value %s = %r" % (axis, value))
                 for value in values]
    rows, per_value = [], {}
    for value, scn, stats in zip(values, scenarios, _score(scenarios, grid, n_workers)):
        h_opt = argmax_h(grid, stats)
        st = stats[h_opt]
        rows.append([value, h_opt * 100.0, st.sr_raw, st.sr_tx, st.p_liq * 100.0,
                     st.e_roe_pp, h_opt / scn.position.c_over_v0 * 100.0,
                     _sr_se(st, scn.position.horizon_days)])
        per_value[value] = (h_opt, stats)
    return Table(
        name="sensitivity_" + axis.replace(".", "_"),
        columns=[axis, "h**", "SR", "SR (+tx)", "P(liq)", "E[ROE]", "Init LTV", "se(SR)"],
        rows=rows,
        provenance=_provenance(base, scenarios),
        formats=["%g", "%.0f", "%.2f", "%.2f", "%.1f", "%+.2f", "%.1f", "%.3f"],
        extra={"per_value": per_value})


def _apr_remark(value, sr, calibrated):
    if sr <= 0.05:
        return "Strategy unprofitable"
    if abs(value - calibrated) < 1e-12:
        return "Calibrated value"
    if sr <= 0.20:
        return "Marginal viability"
    return ""


def run_sensitivity_apr(scn, values=(0.10, 0.20, 0.30, 0.40, 0.54, 0.70, 1.00),
                        grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(scn, "rates.reward_rate", tuple(values), grid, n_workers)
    rows = [[r[0] * 100.0, r[1], r[2], _apr_remark(r[0], r[2], scn.rates.reward_rate)]
            for r in t.rows]
    return Table(name="sensitivity_apr",
                 columns=["R/V_0", "h**", "SR", "Remark"],
                 rows=rows, provenance=t.provenance,
                 formats=["%.0f", "%.0f", "%.2f", None], extra=t.extra)


def run_sensitivity_vol(scn, scales=(0.8, 1.0, 1.2), grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(scn, "market.vol_scale", tuple(scales), grid, n_workers)
    labels = {0.8: "-20%", 1.0: "Baseline", 1.2: "+20%"}
    rows = []
    for r in t.rows:
        scale = r[0]
        rows.append([labels.get(scale, "%+.0f%%" % ((scale - 1.0) * 100.0)),
                     scn.market.sigma_a * scale * 100.0, scn.market.sigma_b * scale * 100.0,
                     r[1], r[2], r[4]])
    return Table(name="sensitivity_vol",
                 columns=["sigma scaling", "sigma_A", "sigma_B", "h**", "SR", "P(liq)"],
                 rows=rows, provenance=t.provenance,
                 formats=[None, "%.0f", "%.0f", "%.0f", "%.2f", "%.1f"], extra=t.extra)


def run_sensitivity_penalty(scn, values=(0.10, 0.20, 0.30), grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(scn, "sim.liq_penalty_frac", tuple(values), grid, n_workers)
    rows = [[r[0] * 100.0, r[1], r[2], r[4]] for r in t.rows]
    return Table(name="sensitivity_penalty",
                 columns=["Penalty", "h**", "SR", "P(liq) at h**"],
                 rows=rows, provenance=t.provenance,
                 formats=["%.0f", "%.0f", "%.2f", "%.1f"], extra=t.extra)


def run_sensitivity_cv(scn, values=(1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0),
                       grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(scn, "position.c_over_v0", tuple(values), grid, n_workers)
    rows = [[r[0], r[1], r[2], r[4], r[5], r[6]] for r in t.rows]
    return Table(name="cv_sensitivity",
                 columns=["C/V_0", "h**", "SR", "P(liq)", "E[ROE]", "Init LTV"],
                 rows=rows, provenance=t.provenance,
                 formats=["%.1f", "%.0f", "%.2f", "%.1f", "%+.2f", "%.1f"], extra=t.extra)


def run_robustness_pairs(base, grid=FINE_GRID, n_workers=1) -> Table:
    """Optimal hedge ratio across the shipped token-pair presets.

    Each pair keeps its own preset's market and rates and takes the rest from
    base: position, jumps and simulation settings.
    """
    scenarios = [replace(base, market=pair.market, rates=pair.rates, name=pair.name)
                 for pair in (get_preset(preset) for _, _, preset in ROBUSTNESS_PAIRS)]
    rows, per_pair = [], {}
    for (pair, chain, _), scn, stats in zip(ROBUSTNESS_PAIRS, scenarios,
                                            _score(scenarios, grid, n_workers)):
        h_opt = argmax_h(grid, stats)
        st = stats[h_opt]
        m, r = scn.market, scn.rates
        rows.append([pair, chain, m.sigma_a * 100.0, m.sigma_b * 100.0, m.rho,
                     r.r_a * 100.0, r.r_b * 100.0, r.reward_rate * 100.0,
                     h_opt * 100.0, st.sr_raw])
        per_pair[pair] = (h_opt, stats)
    return Table(name="robustness_pairs",
                 columns=["Pair", "Chain", "sigma_A", "sigma_B", "rho", "r_A", "r_B",
                          "LP APR", "h**", "SR"],
                 rows=rows, provenance=_provenance(base, scenarios),
                 formats=[None, None, "%.0f", "%.0f", "%.2f", "%.0f", "%.0f", "%.0f",
                          "%.0f", "%.2f"],
                 extra={"per_pair": per_pair})


# ---------------------------------------------------------------------------
# jump stress

def _with_jump(scn, rho_j, matched) -> Scenario:
    # a base without jumps takes the default jump calibration
    scn = apply_overrides(scn, ["jump.rho_j=%s" % rho_j, "jump.variance_matched=%s" % matched])
    return replace(scn, name="rho_J = %.2f %s jumps" % (rho_j, "matched" if matched else "unmatched"))


def run_jump_stress(scn, grid=JUMP_GRID, fine_grid=FINE_GRID, n_workers=1) -> dict:
    """GBM vs jump-diffusion comparison plus the four stress combinations.

    Returns {"jump_comparison": Table, "jump_stress": Table}. Each scenario's
    paths are generated once and scored on the union of both grids; the
    comparison reads the GBM and the matched rho_J = 0.80 stress scenario. The
    stress table reports every scenario at h = 0.65, so fine_grid must contain
    it. Both headers carry scn's config hash and the engines their rows used.
    """
    if 0.65 not in fine_grid:
        raise ScenarioError("jump stress needs h = 0.65 in its fine grid")
    hs = tuple(sorted(set(grid) | set(fine_grid)))
    keys = ["gbm", (0.80, True), (0.30, True), (0.80, False), (0.30, False)]
    scenarios = [replace(scn, jump=None)] + [_with_jump(scn, *key) for key in keys[1:]]
    per_scn = {key: (argmax_h(fine_grid, stats), stats)
               for key, stats in zip(keys, _score(scenarios, hs, n_workers))}
    gbm, jd = per_scn["gbm"][1], per_scn[(0.80, True)][1]

    comparison = Table(
        name="jump_comparison",
        columns=["h (%)", "SR (GBM)", "P(liq) (GBM)", "5% VaR (GBM)",
                 "SR (JD)", "P(liq) (JD)", "5% VaR (JD)"],
        rows=[[h * 100.0, gbm[h].sr_raw, gbm[h].p_liq * 100.0, gbm[h].var5_pp,
               jd[h].sr_raw, jd[h].p_liq * 100.0, jd[h].var5_pp] for h in grid],
        provenance=_provenance(scn, scenarios[:2]),
        formats=["%.0f", "%.2f", "%.1f", "%+.1f", "%.2f", "%.1f", "%+.1f"],
        extra={"gbm": gbm, "jd": jd})

    stress_rows = []
    for key, (h_opt, stats) in per_scn.items():
        st = stats[0.65]
        label = (["GBM (baseline)", ""] if key == "gbm"
                 else ["%.2f" % key[0], "matched" if key[1] else "unmatched"])
        stress_rows.append(label + [st.sr_raw, st.p_liq * 100.0, st.var5_pp, h_opt * 100.0])
    stress = Table(
        name="jump_stress",
        columns=["rho_J", "Variance", "SR", "P(liq)", "5% VaR", "h**"],
        rows=stress_rows,
        provenance=_provenance(scn, scenarios),
        formats=[None, None, "%.2f", "%.1f", "%+.1f", "%.0f"],
        extra={"per_scenario": per_scn})
    return {"jump_comparison": comparison, "jump_stress": stress}


# ---------------------------------------------------------------------------
# figure data

FIG3_RHOS = (0.0, 0.30, 0.60, 0.72, 0.90)
FIG4_RBS = (0.05, 0.10, 0.15, 0.20, 0.30)


def _by_h(*fields):
    """Figure rows of SummaryStats fields per h, on one stream of paths."""
    def build(scn, grid, n_workers):
        stats, = _score([scn], grid, n_workers)
        return [[h] + [getattr(stats[h], f) for f in fields] for h in grid], {"stats": stats}
    return build


def _sharpe_series(axis, values):
    """Figure rows of the raw Sharpe per h, one column per axis value."""
    def build(scn, grid, n_workers):
        per_value = run_sensitivity(scn, axis, values, grid, n_workers).extra["per_value"]
        return [[h] + [per_value[v][1][h].sr_raw for v in values] for h in grid], {}
    return build


# figure name -> (default h grid, columns, build(scn, grid, n_workers) -> (rows, extra))
FIGURES = {
    "fig1": (TABLE4_GRID, ["h", "sr_tx", "p_liq"], _by_h("sr_tx", "p_liq")),
    "fig2": (TABLE4_GRID, ["h", "e_roe", "std"], _by_h("e_roe_pp", "std_pp")),
    "fig3": (FINE_GRID, ["h"] + ["sr(rho=%.2f)" % r for r in FIG3_RHOS],
             _sharpe_series("market.rho", FIG3_RHOS)),
    "fig4": (FINE_GRID, ["h"] + ["sr(r_b=%.2f)" % r for r in FIG4_RBS],
             _sharpe_series("rates.r_b", FIG4_RBS)),
}


def emit_figure_data(which, scn, n_workers=1, grid=None) -> Table:
    """Plot-data table of one figure in FIGURES; CSV of (x, series...) tuples."""
    if which not in FIGURES:
        raise ScenarioError("unknown figure %r; expected one of %s" % (which, ", ".join(FIGURES)))
    default_grid, columns, build = FIGURES[which]
    rows, extra = build(scn, tuple(grid) if grid is not None else default_grid, n_workers)
    return Table(name=which, columns=columns, rows=rows,
                 provenance=_provenance(scn), formats=None, extra=extra)


# ---------------------------------------------------------------------------
# output

def _fmt_full(x):
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _fmt_cell(x, fmt):
    if isinstance(x, str) or fmt is None:
        return _fmt_full(x)
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return fmt % x


def render_table(table, full=False) -> str:
    prov = table.provenance
    lines = ["# seed=%s n_paths=%s engine=%s config=%s"
             % (prov.get("seed"), prov.get("n_paths"), prov.get("engine"), prov.get("config"))]
    lines.append(",".join(table.columns))
    fmts = table.formats if (table.formats and not full) else [None] * len(table.columns)
    for row in table.rows:
        lines.append(",".join(_fmt_cell(x, f) for x, f in zip(row, fmts)))
    return "\n".join(lines) + "\n"


def write_table(table, out_dir) -> list:
    """Write display-precision and full-precision CSV twins; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for full, suffix in ((False, ""), (True, "_full")):
        path = os.path.join(out_dir, table.name + suffix + ".csv")
        with open(path, "w") as fh:
            fh.write(render_table(table, full=full))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# one-shot reproduction targets

class Target(NamedTuple):
    """run(base, n_workers) -> Tables, base being the caller's scenario or the target's
    preset; a sweep shortcut also names the scenario key it varies."""

    aliases: tuple
    run: Callable
    axis: str = None
    preset: str = "baseline"


def _one(runner):
    return lambda base, n_workers: [runner(base, n_workers=n_workers)]


# the single list of target names, aliases and sweep shortcuts
TARGETS = {
    "table4": Target(("hedge_grid",), _one(run_hedge_grid)),
    # the table5 preset's 50k paths, as in the paper
    "table5": Target(("analytic_vs_mc",), _one(run_analytic_vs_mc), preset="table5"),
    "liqstats": Target(("liquidation_stats",), _one(run_liquidation_stats)),
    "table8": Target(("rebalancing",), _one(run_rebalancing_comparison)),
    "jumps": Target(("jump_stress", "jump_comparison"), lambda base, n_workers: list(
        run_jump_stress(base, n_workers=n_workers).values())),
    "apr": Target(("sensitivity_apr",), _one(run_sensitivity_apr), "rates.reward_rate"),
    "vol": Target(("sensitivity_vol",), _one(run_sensitivity_vol), "market.vol_scale"),
    "penalty": Target(("sensitivity_penalty",), _one(run_sensitivity_penalty),
                      "sim.liq_penalty_frac"),
    "cv": Target(("cv_sensitivity",), _one(run_sensitivity_cv), "position.c_over_v0"),
    "robustness": Target(("robustness_pairs", "table6"), _one(run_robustness_pairs)),
    **{fig: Target((), lambda base, n_workers, fig=fig: [
        emit_figure_data(fig, base, n_workers=n_workers)]) for fig in FIGURES},
}


def describe_targets() -> str:
    """Target names with their aliases, for help and error text."""
    return ", ".join(name + "".join("|" + a for a in t.aliases) for name, t in TARGETS.items())


def find_target(name) -> Target:
    """The target of TARGETS with this name or alias."""
    target = next((t for key, t in TARGETS.items() if name == key or name in t.aliases), None)
    if target is None:
        raise ScenarioError("unknown reproduction target %r; known: %s"
                            % (name, describe_targets()))
    return target


def reproduce(name, scn=None, n_workers=1):
    """Run one target of TARGETS, by name or alias, on scn or else the target's
    preset; returns its Tables, for write_table to write."""
    target = find_target(name)
    return target.run(scn if scn is not None else get_preset(target.preset), n_workers)
