"""Config-driven reproduction of every results table and figure dataset.

Each runner returns a Table; write_table() emits two CSVs per table, one at
display precision and one full precision, both carrying a provenance header
(seed, path count, engine, config hash). Sweeps share one path matrix across
hedge ratios and axis values whenever the axis does not touch the price
process, so comparisons ride on common random numbers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import montecarlo as mc
from .config_domain import (DAYS_PER_YEAR, JumpParams, Scenario, ScenarioError, parse_scenario,
                            scenario_hash, scenario_values)
from .liquidation_fpt import fpt_inputs, liquidation_probability

TABLE4_GRID = (0.0, 0.20, 0.40, 0.50, 0.60, 0.65, 0.70, 0.80, 1.00)
TABLE5_GRID = (0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 1.00)
FINE_GRID = tuple(round(0.05 * i, 2) for i in range(21))
JUMP_GRID = (0.0, 0.40, 0.60, 0.65, 0.70, 1.00)

# presets are plain scenario-file text so the shipped .cfg files and the
# built-ins cannot drift apart
PRESETS = {
    "baseline": "",
    "table5": "sim.n_paths = 50000\n",
    "sec46": ("position.horizon_years = 0.25\n"
              "position.horizon_days = 91.25\n"),
    "jumps": ("jump.lambda = 4.0\n"
              "jump.mu_j = -0.05\n"
              "jump.sigma_j = 0.15\n"
              "jump.rho_j = 0.80\n"
              "jump.variance_matched = true\n"),
    # representative lending/reward rates for the extra pairs; treat as
    # illustrative defaults rather than authoritative calibrations
    "sol_ray": ("market.sigma_a = 0.80\nmarket.sigma_b = 1.10\nmarket.rho = 0.83\n"
                "rates.r_a = 0.05\nrates.r_b = 0.08\nrates.reward_rate = 0.40\n"),
    "sol_jup": ("market.sigma_a = 0.80\nmarket.sigma_b = 1.00\nmarket.rho = 0.86\n"
                "rates.r_a = 0.05\nrates.r_b = 0.06\nrates.reward_rate = 0.35\n"),
    "eth_arb": ("market.sigma_a = 0.74\nmarket.sigma_b = 1.03\nmarket.rho = 0.82\n"
                "rates.r_a = 0.03\nrates.r_b = 0.05\nrates.reward_rate = 0.30\n"),
}

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


@dataclass
class SweepSpec:
    """One sensitivity axis: vary `axis` over `values`, re-optimizing h each time."""

    base: Scenario
    axis: str
    values: tuple
    grid: tuple = FINE_GRID
    engines: tuple = ("mc_gbm",)
    out: str = None


# ---------------------------------------------------------------------------
# shared machinery

def _provenance(scn, n_paths=None):
    engine = "mc_jump" if scn.jump is not None and scn.jump.lam > 0 else "mc_gbm"
    return {"seed": scn.sim.seed, "n_paths": n_paths if n_paths is not None else scn.sim.n_paths,
            "engine": engine, "config": scenario_hash(scn)}


def _paths_for(scn, n_workers=1, n_paths=None, seed=None):
    sim = scn.sim
    return mc.generate_path_matrix(
        scn.market, scn.jump, scn.position.horizon_days, sim.dt_days,
        sim.n_paths if n_paths is None else n_paths,
        sim.seed if seed is None else seed, n_workers)


def _stats_at(scn, paths, h=None, **sim_changes):
    pos = scn.position if h is None else replace(scn.position, h=h)
    sim = replace(scn.sim, **sim_changes) if sim_changes else scn.sim
    batch = mc.simulate_batch(paths[0], paths[1], scn.market, scn.rates, pos, sim)
    return mc.aggregate(batch, sim, pos.horizon_days, r_f=scn.rates.r_f)


def _grid_stats(scn, paths, grid, **sim_changes):
    return {h: _stats_at(scn, paths, h=h, **sim_changes) for h in grid}


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

def run_hedge_grid(scn, grid=TABLE4_GRID, n_workers=1, paths=None) -> Table:
    """Summary statistics by hedge ratio on shared paths."""
    if paths is None:
        paths = _paths_for(scn, n_workers)
    stats = _grid_stats(scn, paths, grid)
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
        provenance=_provenance(scn, n_paths=paths[0].shape[0]),
        formats=["%.0f", "%+.2f", "%.1f", "%.3f", "%.3f", "%.1f", "%.1f", "%+.1f",
                 "%.3f", "%.2f", "%.2f"],
        extra={"stats": stats, "grid": grid})


def run_analytic_vs_mc(scn, grid=TABLE5_GRID, n_paths=50000, n_workers=1, paths=None) -> Table:
    """First-passage approximation against MC liquidation frequency."""
    if paths is None:
        paths = _paths_for(scn, n_workers, n_paths=n_paths)
    n = paths[0].shape[0]
    no_claims = _grid_stats(scn, paths, grid, claim_interval_days=0.0)
    claims = _grid_stats(scn, paths, grid)
    rows = []
    for h in grid:
        fi = fpt_inputs(h, scn.market, scn.position)
        ana = liquidation_probability(h, scn.market, scn.position) * 100.0
        p_no = no_claims[h].p_liq * 100.0
        p_cl = claims[h].p_liq * 100.0
        rows.append([h * 100.0, fi.ltv0 * 100.0, fi.barrier_log, ana, p_no, p_cl,
                     _se_prob_pp(no_claims[h].p_liq, n), _se_prob_pp(claims[h].p_liq, n)])
    return Table(
        name="analytic_vs_mc",
        columns=["h (%)", "LTV_0", "b", "Analytical", "MC (no claims)", "MC (claims)",
                 "se(no claims)", "se(claims)"],
        rows=rows,
        provenance=_provenance(scn, n_paths=n),
        formats=["%.0f", "%.1f", "%.3f", "%.2f", "%.2f", "%.2f", "%.3f", "%.3f"],
        extra={"no_claims": no_claims, "claims": claims, "grid": grid})


def run_liquidation_stats(scn, h=1.0, n_workers=1, paths=None) -> Table:
    """Liquidation outcome statistics with and without reward claims."""
    if paths is None:
        paths = _paths_for(scn, n_workers)
    st_no = _stats_at(scn, paths, h=h, claim_interval_days=0.0)
    st_cl = _stats_at(scn, paths, h=h)
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
        provenance=_provenance(scn, n_paths=paths[0].shape[0]),
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
                               n_workers=1, paths=None) -> Table:
    """Static hedge vs threshold and periodic rebalancing on shared paths."""
    if paths is None:
        paths = _paths_for(scn, n_workers)
    rows, stats = [], {}
    pi0 = scn.position.c_over_v0 * scn.position.v0 + (1.0 - h) * scn.position.v0
    for label, rule in strategies:
        pos = replace(scn.position, h=h)
        sim = replace(scn.sim, rebalance=rule)
        batch = mc.simulate_batch(paths[0], paths[1], scn.market, scn.rates, pos, sim)
        st = mc.aggregate(batch, sim, pos.horizon_days, r_f=scn.rates.r_f)
        stats[label] = st
        gas_paid = scn.sim.gas_cost * float(np.mean(batch.n_rebalances))
        rows.append([label, st.e_roe_pp, st.std_pp, st.sr_raw, st.p_liq * 100.0,
                     st.avg_rebalances, gas_paid / pi0 * 100.0, _sr_se(st, pos.horizon_days)])
    return Table(
        name="rebalancing",
        columns=["Strategy", "E[ROE]", "Std", "SR", "P(liq)", "Avg rebal.", "Cost", "se(SR)"],
        rows=rows,
        provenance=_provenance(scn, n_paths=paths[0].shape[0]),
        formats=[None, "%+.2f", "%.2f", "%.3f", "%.1f", "%.1f", "%.2f", "%.3f"],
        extra={"stats": stats, "h": h})


# ---------------------------------------------------------------------------
# sensitivity sweeps

def _apply_axis(scn, axis, value) -> Scenario:
    if axis == "market.vol_scale":
        market = replace(scn.market, sigma_a=scn.market.sigma_a * value,
                         sigma_b=scn.market.sigma_b * value)
        return replace(scn, market=market)
    values = scenario_values(scn)
    if axis not in values and not axis.startswith("jump."):
        raise ScenarioError("unknown sweep axis %r" % (axis,))
    values[axis] = value
    text = "%s = %r\n" % (axis, value)
    return parse_scenario(text, name=scn.name, base=values)


def run_sensitivity(spec: SweepSpec, n_workers=1) -> Table:
    """Re-optimize h over the grid for each value of one parameter axis.

    Optima are selected on the raw (cost-free) Sharpe; the cost-adjusted
    Sharpe at the optimum is reported alongside.
    """
    if not spec.values:
        raise ScenarioError("sweep needs at least one axis value")
    if spec.axis != "market.vol_scale" and spec.axis not in scenario_values(spec.base) \
            and not spec.axis.startswith("jump."):
        raise ScenarioError("unknown sweep axis %r" % (spec.axis,))
    if not spec.grid:
        raise ScenarioError("sweep needs a nonempty h grid")
    regen = spec.axis.startswith(("market.", "jump."))
    base_paths = None if regen else _paths_for(spec.base, n_workers)
    rows, per_value = [], {}
    for value in spec.values:
        scn = _apply_axis(spec.base, spec.axis, value)
        paths = _paths_for(scn, n_workers) if regen else base_paths
        stats = _grid_stats(scn, paths, spec.grid)
        h_opt = argmax_h(spec.grid, stats)
        st = stats[h_opt]
        init_ltv = h_opt / scn.position.c_over_v0 * 100.0
        rows.append([value, h_opt * 100.0, st.sr_raw, st.sr_tx, st.p_liq * 100.0,
                     st.e_roe_pp, init_ltv, _sr_se(st, scn.position.horizon_days)])
        per_value[value] = (h_opt, stats)
    return Table(
        name="sensitivity_" + spec.axis.replace(".", "_"),
        columns=[spec.axis, "h**", "SR", "SR (+tx)", "P(liq)", "E[ROE]", "Init LTV", "se(SR)"],
        rows=rows,
        provenance=_provenance(spec.base),
        formats=["%g", "%.0f", "%.2f", "%.2f", "%.1f", "%+.2f", "%.1f", "%.3f"],
        extra={"per_value": per_value, "spec": spec})


def _apr_remark(value, sr):
    if sr <= 0.05:
        return "Strategy unprofitable"
    if abs(value - 0.54) < 1e-12:
        return "Calibrated value"
    if sr <= 0.20:
        return "Marginal viability"
    return ""


def run_sensitivity_apr(scn, values=(0.10, 0.20, 0.30, 0.40, 0.54, 0.70, 1.00),
                        grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(SweepSpec(base=scn, axis="rates.reward_rate", values=tuple(values),
                                  grid=grid), n_workers)
    rows = [[r[0] * 100.0, r[1], r[2], _apr_remark(r[0], r[2])] for r in t.rows]
    return Table(name="sensitivity_apr",
                 columns=["R/V_0", "h**", "SR", "Remark"],
                 rows=rows, provenance=t.provenance,
                 formats=["%.0f", "%.0f", "%.2f", None], extra=t.extra)


def run_sensitivity_vol(scn, scales=(0.8, 1.0, 1.2), grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(SweepSpec(base=scn, axis="market.vol_scale", values=tuple(scales),
                                  grid=grid), n_workers)
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
    t = run_sensitivity(SweepSpec(base=scn, axis="sim.liq_penalty_frac", values=tuple(values),
                                  grid=grid), n_workers)
    rows = [[r[0] * 100.0, r[1], r[2], r[4]] for r in t.rows]
    return Table(name="sensitivity_penalty",
                 columns=["Penalty", "h**", "SR", "P(liq) at h**"],
                 rows=rows, provenance=t.provenance,
                 formats=["%.0f", "%.0f", "%.2f", "%.1f"], extra=t.extra)


def run_sensitivity_cv(scn, values=(1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0),
                       grid=FINE_GRID, n_workers=1) -> Table:
    t = run_sensitivity(SweepSpec(base=scn, axis="position.c_over_v0", values=tuple(values),
                                  grid=grid), n_workers)
    rows = [[r[0], r[1], r[2], r[4], r[5], r[6]] for r in t.rows]
    return Table(name="cv_sensitivity",
                 columns=["C/V_0", "h**", "SR", "P(liq)", "E[ROE]", "Init LTV"],
                 rows=rows, provenance=t.provenance,
                 formats=["%.1f", "%.0f", "%.2f", "%.1f", "%+.2f", "%.1f"], extra=t.extra)


def run_robustness_pairs(base=None, grid=FINE_GRID, n_workers=1) -> Table:
    """Optimal hedge ratio across the shipped token-pair presets.

    Each pair keeps its own market and rates; given a base scenario, every
    pair takes its simulation settings (paths, seed, time step, claims,
    costs) from it.
    """
    rows, per_pair = [], {}
    for pair, chain, preset in ROBUSTNESS_PAIRS:
        scn = get_preset(preset)
        if base is not None:
            scn = replace(scn, sim=base.sim)
        paths = _paths_for(scn, n_workers)
        stats = _grid_stats(scn, paths, grid)
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
                 rows=rows, provenance=_provenance(base or get_preset("baseline")),
                 formats=[None, None, "%.0f", "%.0f", "%.2f", "%.0f", "%.0f", "%.0f",
                          "%.0f", "%.2f"],
                 extra={"per_pair": per_pair})


# ---------------------------------------------------------------------------
# jump stress

def _with_jump(scn, rho_j, matched) -> Scenario:
    base = scn.jump if scn.jump is not None else JumpParams(
        lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.80, variance_matched=True)
    return replace(scn, jump=replace(base, rho_j=rho_j, variance_matched=matched))


def run_jump_stress(scn, grid=JUMP_GRID, fine_grid=FINE_GRID, n_workers=1) -> dict:
    """GBM vs jump-diffusion comparison plus the four stress combinations.

    Returns {"jump_comparison": Table, "jump_stress": Table}. The stress
    table reports every scenario at h = 0.65, so fine_grid must contain it.
    """
    if 0.65 not in fine_grid:
        raise ScenarioError("jump stress needs h = 0.65 in its fine grid")
    gbm_scn = replace(scn, jump=None)
    gbm_paths = _paths_for(gbm_scn, n_workers)
    gbm_fine = _grid_stats(gbm_scn, gbm_paths, fine_grid)

    jd_scn = _with_jump(scn, 0.80, True)
    jd_paths = _paths_for(jd_scn, n_workers)
    jd_stats = _grid_stats(jd_scn, jd_paths, grid)

    comp_rows = []
    for h in grid:
        g = gbm_fine[h] if h in gbm_fine else _stats_at(gbm_scn, gbm_paths, h=h)
        j = jd_stats[h]
        comp_rows.append([h * 100.0, g.sr_raw, g.p_liq * 100.0, g.var5_pp,
                          j.sr_raw, j.p_liq * 100.0, j.var5_pp])
    comparison = Table(
        name="jump_comparison",
        columns=["h (%)", "SR (GBM)", "P(liq) (GBM)", "5% VaR (GBM)",
                 "SR (JD)", "P(liq) (JD)", "5% VaR (JD)"],
        rows=comp_rows,
        provenance=_provenance(jd_scn),
        formats=["%.0f", "%.2f", "%.1f", "%+.1f", "%.2f", "%.1f", "%+.1f"],
        extra={"gbm": gbm_fine, "jd": jd_stats})

    g_opt = argmax_h(fine_grid, gbm_fine)
    g65 = gbm_fine[0.65]
    stress_rows = [["GBM (baseline)", "", g65.sr_raw, g65.p_liq * 100.0, g65.var5_pp,
                    g_opt * 100.0]]
    per_scn = {"gbm": (g_opt, gbm_fine)}
    for rho_j, matched in ((0.80, True), (0.30, True), (0.80, False), (0.30, False)):
        s_scn = _with_jump(scn, rho_j, matched)
        s_paths = _paths_for(s_scn, n_workers)
        stats = _grid_stats(s_scn, s_paths, fine_grid)
        h_opt = argmax_h(fine_grid, stats)
        st = stats[0.65]
        stress_rows.append(["%.2f" % rho_j, "matched" if matched else "unmatched",
                            st.sr_raw, st.p_liq * 100.0, st.var5_pp, h_opt * 100.0])
        per_scn[(rho_j, matched)] = (h_opt, stats)
    stress = Table(
        name="jump_stress",
        columns=["rho_J", "Variance", "SR", "P(liq)", "5% VaR", "h**"],
        rows=stress_rows,
        provenance=_provenance(jd_scn),
        formats=[None, None, "%.2f", "%.1f", "%+.1f", "%.0f"],
        extra={"per_scenario": per_scn})
    return {"jump_comparison": comparison, "jump_stress": stress}


# ---------------------------------------------------------------------------
# figure data

FIG3_RHOS = (0.0, 0.30, 0.60, 0.72, 0.90)
FIG4_RBS = (0.05, 0.10, 0.15, 0.20, 0.30)


def emit_figure_data(which, scn, n_workers=1, grid=None) -> Table:
    """Plot-data tables for the four figures; CSV of (x, series...) tuples."""
    if grid is not None and len(grid) == 0:
        raise ScenarioError("figure grid must be nonempty")
    if which == "fig1" or which == "fig2":
        g = tuple(grid) if grid is not None else TABLE4_GRID
        paths = _paths_for(scn, n_workers)
        stats = _grid_stats(scn, paths, g)
        if which == "fig1":
            rows = [[h, stats[h].sr_tx, stats[h].p_liq] for h in g]
            cols = ["h", "sr_tx", "p_liq"]
        else:
            rows = [[h, stats[h].e_roe_pp, stats[h].std_pp] for h in g]
            cols = ["h", "e_roe", "std"]
        return Table(name=which, columns=cols, rows=rows,
                     provenance=_provenance(scn), formats=None, extra={"stats": stats})
    if which == "fig3":
        g = tuple(grid) if grid is not None else FINE_GRID
        series = []
        for rho in FIG3_RHOS:
            s_scn = _apply_axis(scn, "market.rho", rho)
            paths = _paths_for(s_scn, n_workers)
            series.append(_grid_stats(s_scn, paths, g))
        rows = [[h] + [s[h].sr_raw for s in series] for h in g]
        cols = ["h"] + ["sr(rho=%.2f)" % r for r in FIG3_RHOS]
        return Table(name="fig3", columns=cols, rows=rows,
                     provenance=_provenance(scn), formats=None, extra={})
    if which == "fig4":
        g = tuple(grid) if grid is not None else FINE_GRID
        paths = _paths_for(scn, n_workers)
        series = []
        for r_b in FIG4_RBS:
            s_scn = _apply_axis(scn, "rates.r_b", r_b)
            series.append(_grid_stats(s_scn, paths, g))
        rows = [[h] + [s[h].sr_raw for s in series] for h in g]
        cols = ["h"] + ["sr(r_b=%.2f)" % r for r in FIG4_RBS]
        return Table(name="fig4", columns=cols, rows=rows,
                     provenance=_provenance(scn), formats=None, extra={})
    raise ScenarioError("unknown figure %r; expected fig1..fig4" % (which,))


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
# one-shot reproduction presets

def reproduce(name, scn=None, out_dir=None, n_workers=1):
    """Run one named table/figure preset; returns the list of Tables produced."""
    base = scn if scn is not None else get_preset("baseline")
    if name in ("table4", "hedge_grid"):
        tables = [run_hedge_grid(base, n_workers=n_workers)]
    elif name in ("table5", "analytic_vs_mc"):
        n = base.sim.n_paths if scn is not None else 50000
        tables = [run_analytic_vs_mc(base, n_paths=n, n_workers=n_workers)]
    elif name in ("liqstats", "liquidation_stats"):
        tables = [run_liquidation_stats(base, n_workers=n_workers)]
    elif name in ("table8", "rebalancing"):
        tables = [run_rebalancing_comparison(base, n_workers=n_workers)]
    elif name in ("jumps", "jump_stress", "jump_comparison"):
        tables = list(run_jump_stress(base, n_workers=n_workers).values())
    elif name in ("apr", "sensitivity_apr"):
        tables = [run_sensitivity_apr(base, n_workers=n_workers)]
    elif name in ("vol", "sensitivity_vol"):
        tables = [run_sensitivity_vol(base, n_workers=n_workers)]
    elif name in ("penalty", "sensitivity_penalty"):
        tables = [run_sensitivity_penalty(base, n_workers=n_workers)]
    elif name in ("cv", "cv_sensitivity"):
        tables = [run_sensitivity_cv(base, n_workers=n_workers)]
    elif name in ("robustness", "robustness_pairs", "table6"):
        tables = [run_robustness_pairs(scn, n_workers=n_workers)]
    elif name in ("fig1", "fig2", "fig3", "fig4"):
        tables = [emit_figure_data(name, base, n_workers=n_workers)]
    else:
        raise ScenarioError(
            "unknown reproduction target %r; known: table4, table5, table8, liqstats, "
            "rebalancing, jumps, apr, vol, penalty, cv, robustness, fig1..fig4" % (name,))
    if out_dir is not None:
        for t in tables:
            write_table(t, out_dir)
    return tables
