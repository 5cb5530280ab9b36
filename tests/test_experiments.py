"""Table runner tests on downscaled path counts: structure, wiring, output."""

import dataclasses
import itertools
import math
import os
import weakref

import pytest

import ammhedge.experiments as exp
import ammhedge.liquidation_fpt as fpt
import ammhedge.montecarlo as mc
from ammhedge.config_domain import (JumpParams, ScenarioError, apply_overrides, load_scenario,
                                    scenario_hash, scenario_values)

from conftest import scaled

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scenarios")


@pytest.fixture(scope="module")
def tiny(baseline):
    return scaled(baseline, 400)


def _dummy_stats(sr_raw, sr_tx=0.0):
    return mc.SummaryStats(e_roe_pp=0.0, std_pp=1.0, sr_raw=sr_raw, sr_tx=sr_tx,
                           p_loss=0.0, p_liq=0.0, var5_pp=0.0, mean_max_ltv=0.0,
                           p95_max_ltv=0.0, p99_max_ltv=0.0, avg_rebalances=0.0,
                           n_paths=1)


# ---------------------------------------------------------------------------
# presets

def test_presets_match_shipped_files():
    for name in exp.PRESETS:
        preset = exp.get_preset(name)
        from_file = load_scenario(os.path.join(SCENARIO_DIR, name + ".cfg"))
        assert scenario_values(from_file) == scenario_values(preset), name
        assert scenario_hash(from_file) == scenario_hash(preset), name


def test_get_preset_unknown_lists_names():
    with pytest.raises(ScenarioError, match="unknown preset") as err:
        exp.get_preset("nope")
    assert "baseline" in str(err.value)


# ---------------------------------------------------------------------------
# table runners

def test_hedge_grid_structure(tiny):
    t = exp.run_hedge_grid(tiny, grid=(0.0, 0.6, 1.0))
    assert len(t.columns) == 11
    assert [r[0] for r in t.rows] == [0.0, 60.0, 100.0]
    assert all(len(r) == len(t.columns) for r in t.rows)
    assert t.provenance == {"seed": 42, "n_paths": 400, "engine": "mc_gbm",
                            "config": scenario_hash(tiny)}
    assert set(t.extra["stats"]) == {0.0, 0.6, 1.0}
    assert t.rows[0][6] == 0.0  # no debt, no liquidations


def test_hedge_grid_jump_engine_tag():
    t = exp.run_hedge_grid(scaled(exp.get_preset("jumps"), 300), grid=(0.6,))
    assert t.provenance["engine"] == "mc_jump"


def test_hedge_grid_uses_caller_paths(tiny):
    paths = mc.generate_path_matrix(tiny.market, None, tiny.position.horizon_days,
                                    tiny.sim.dt_days, 250, seed=tiny.sim.seed)
    t = exp.run_hedge_grid(tiny, grid=(0.6,), paths=paths)
    assert t.provenance["n_paths"] == 250


def test_analytic_vs_mc_columns(tiny):
    t = exp.run_analytic_vs_mc(tiny, grid=(0.4, 0.8))
    assert t.columns[:6] == ["h (%)", "LTV_0", "b", "Analytical", "MC (no claims)",
                             "MC (claims)"]
    assert len(t.rows) == 2
    for row, h in zip(t.rows, (0.4, 0.8)):
        assert row[1] == pytest.approx(h / 2.0 * 100.0)
        assert row[2] == pytest.approx(fpt.fpt_inputs(h, tiny.market, tiny.position).barrier_log)
        want = fpt.liquidation_probability(h, tiny.market, tiny.position) * 100.0
        assert row[3] == pytest.approx(want, abs=1e-9)
        # claims retire debt, so claim-path liquidations never exceed no-claims
        assert row[5] <= row[4]
    assert t.provenance["n_paths"] == 400


def test_liquidation_stats_rows(tiny):
    t = exp.run_liquidation_stats(tiny)
    assert t.columns == ["Metric", "No claims", "Claim/14d"]
    assert [r[0] for r in t.rows] == ["Liquidation probability", "Mean max LTV",
                                      "95th pctl max LTV", "99th pctl max LTV"]
    for row in t.rows:
        assert row[1] >= row[2]  # claims only ever lower LTV, pathwise
    assert t.extra["h"] == 1.0


def test_rebalancing_comparison_rows(tiny):
    t = exp.run_rebalancing_comparison(tiny)
    labels = [r[0] for r in t.rows]
    assert labels == [lbl for lbl, _ in exp.REBALANCE_STRATEGIES]
    static = t.rows[labels.index("No rebalance")]
    monthly = t.rows[labels.index("Every 30 days")]
    assert static[5] == 0.0
    assert monthly[5] == 3.0  # fixed cadence: exactly 3 trades in 90 days
    assert all(r[6] == 0.0 for r in t.rows)  # gas is zero in the baseline
    assert set(t.extra["stats"]) == set(labels)


def test_sharpe_se_uses_the_horizon():
    st = _dummy_stats(1.2)
    at_90 = math.sqrt((1.0 + 0.5 * (1.2 / math.sqrt(365.0 / 90.0)) ** 2)) * math.sqrt(365.0 / 90.0)
    assert exp._sr_se(st, 90.0) == at_90
    # a one-year horizon needs no annualization
    assert exp._sr_se(st, 365.0) == pytest.approx(math.sqrt(1.0 + 0.5 * 1.2 ** 2), rel=1e-15)


def test_argmax_prefers_lower_h_on_ties():
    grid = (0.1, 0.2, 0.3)
    flat_top = {0.1: _dummy_stats(1.0), 0.2: _dummy_stats(1.0), 0.3: _dummy_stats(0.5)}
    assert exp.argmax_h(grid, flat_top) == 0.1
    rising = {0.1: _dummy_stats(0.5), 0.2: _dummy_stats(1.0), 0.3: _dummy_stats(1.0)}
    assert exp.argmax_h(grid, rising) == 0.2
    by_tx = {0.1: _dummy_stats(9.0, sr_tx=0.1), 0.2: _dummy_stats(0.0, sr_tx=2.0),
             0.3: _dummy_stats(0.0, sr_tx=0.3)}
    assert exp.argmax_h(grid, by_tx, key=lambda s: s.sr_tx) == 0.2


# ---------------------------------------------------------------------------
# sensitivity sweeps

def test_sensitivity_sweep_structure(tiny):
    t = exp.run_sensitivity(tiny, "rates.reward_rate", (0.30, 0.54), grid=(0.5, 0.6))
    assert t.name == "sensitivity_rates_reward_rate"
    assert [r[0] for r in t.rows] == [0.30, 0.54]
    for r in t.rows:
        assert r[1] in (50.0, 60.0)
    assert set(t.extra["per_value"]) == {0.30, 0.54}


def test_sensitivity_rejects_bad_specs(tiny):
    with pytest.raises(ScenarioError, match="at least one"):
        exp.run_sensitivity(tiny, "rates.r_b", ())
    with pytest.raises(ScenarioError, match="unknown sweep axis"):
        exp.run_sensitivity(tiny, "rates.bogus", (0.1,))
    with pytest.raises(ScenarioError, match="nonempty"):
        exp.run_sensitivity(tiny, "rates.r_b", (0.1,), grid=())
    with pytest.raises(ScenarioError, match="h grid sets h"):
        exp.run_sensitivity(tiny, "position.h", (0.3, 0.6))
    with pytest.raises(ScenarioError, match="position.horizon_days"):
        exp.run_sensitivity(tiny, "position.horizon_years", (0.25,))


@pytest.mark.parametrize("axis, values", [("sim.seed", (1, 2)), ("sim.n_paths", (100, 300))])
def test_sweep_draws_the_paths_each_value_asks_for(tiny, axis, values):
    grid, month = (0.5, 0.6, 0.7), apply_overrides(tiny, ["position.horizon_days=30"])
    t = exp.run_sensitivity(month, axis, values, grid=grid)
    assert t.rows[0][1:] != t.rows[1][1:]
    for value, row in zip(values, t.rows):
        alone = exp.run_sensitivity(apply_overrides(month, ["%s=%d" % (axis, value)]), axis,
                                    (value,), grid=grid)
        assert alone.rows == [row]


def _count_draws(monkeypatch):
    """Scenarios whose paths get drawn; each draw asserts the previous matrix is dead."""
    real, drawn, refs = exp._paths_for, [], []

    def counted(scn, n_workers=1):
        assert all(ref() is None for ref in refs)
        paths = real(scn, n_workers)
        refs.append(weakref.ref(paths[0]))
        drawn.append(scn)
        return paths

    monkeypatch.setattr(exp, "_paths_for", counted)
    return drawn


@pytest.mark.parametrize("axis, values, draws", [
    ("position.c_over_v0", (2.0, 3.0), 1),
    ("rates.r_b", (0.05, 0.25), 1),
    ("sim.liq_penalty_frac", (0.1, 0.3), 1),
    ("market.rho", (0.3, 0.3, 0.6), 2),
    ("market.vol_scale", (0.8, 1.2), 2),
])
def test_sweep_reuses_paths_while_their_inputs_hold(tiny, monkeypatch, axis, values, draws):
    drawn = _count_draws(monkeypatch)
    exp.run_sensitivity(apply_overrides(tiny, ["position.horizon_days=30"]), axis, values,
                        grid=(0.6,))
    assert len(drawn) == draws


def _count_passes(monkeypatch):
    real, calls = mc.simulate_batch, []

    def counted(*args, **kw):
        calls.append(kw.get("variants"))
        return real(*args, **kw)

    monkeypatch.setattr(mc, "simulate_batch", counted)
    return calls


@pytest.mark.parametrize("runner, axis, n_values", [
    (exp.run_sensitivity_cv, "position.c_over_v0", 8),
    (exp.run_sensitivity_penalty, "sim.liq_penalty_frac", 3),
])
def test_shared_sweep_runs_one_pass_per_h(tiny, monkeypatch, runner, axis, n_values):
    month = apply_overrides(tiny, ["position.horizon_days=30"])
    calls = _count_passes(monkeypatch)
    t = runner(month)
    assert len(calls) == len(exp.FINE_GRID) == 21
    assert all(len(variants) == n_values for variants in calls)
    # each value's statistics are those of its own single-value passes
    monkeypatch.undo()
    per_value = t.extra["per_value"]
    assert len(per_value) == n_values
    paths = exp._paths_for(month)
    for value, (h_opt, stats) in per_value.items():
        scn = apply_overrides(month, ["%s=%r" % (axis, value)])
        assert [stats] == exp._score([scn], exp.FINE_GRID, paths=paths), value


def test_rebalancing_cv_sweep_runs_one_pass_per_value(tiny, monkeypatch):
    base = apply_overrides(tiny, ["position.horizon_days=30", "sim.rebalance=threshold(15)"])
    grid, values = (0.6, 0.8, 1.0), (1.3, 2.0)
    calls = _count_passes(monkeypatch)
    t = exp.run_sensitivity(base, "position.c_over_v0", values, grid=grid)
    assert len(calls) == len(values) * len(grid)
    monkeypatch.undo()
    for value, row in zip(values, t.rows):
        alone = exp.run_sensitivity(apply_overrides(base, ["position.c_over_v0=%r" % value]),
                                    "position.c_over_v0", (value,), grid=grid)
        assert alone.rows == [row]


def test_pass_groups_follow_the_step_loop_inputs(tiny):
    def groups(axis, values, base=tiny):
        scns = [exp._apply_axis(base, axis, v) for v in values]
        return [len(list(g)) for _, g in itertools.groupby(scns, key=exp._pass_key)]

    assert groups("position.c_over_v0", (1.5, 2.0, 3.0)) == [3]
    assert groups("sim.liq_penalty_frac", (0.1, 0.2)) == [2]
    assert groups("rates.r_b", (0.1, 0.2)) == [1, 1]
    threshold = apply_overrides(tiny, ["sim.rebalance=threshold(15)"])
    assert groups("position.c_over_v0", (1.5, 2.0), threshold) == [1, 1]
    assert groups("sim.liq_penalty_frac", (0.1, 0.2), threshold) == [2]


@pytest.mark.parametrize("axis, values, header", [
    ("sim.seed", (1, 2), "seed=1|2 n_paths=400 "),
    ("sim.seed", (7,), "seed=7 n_paths=400 "),
    ("sim.n_paths", (100, 300), "seed=42 n_paths=100|300 "),
    ("rates.r_b", (0.1, 0.2), "seed=42 n_paths=400 "),
    ("jump.lambda", (0, 4), "seed=42 n_paths=400 engine=mc_gbm|mc_jump "),
])
def test_sweep_provenance_names_what_the_rows_used(tiny, axis, values, header):
    t = exp.run_sensitivity(apply_overrides(tiny, ["position.horizon_days=30"]), axis, values,
                            grid=(0.6,))
    assert exp.render_table(t).startswith("# " + header)


def test_sweep_values_are_validated_before_any_draw(tiny, monkeypatch):
    def boom(*args, **kw):
        raise AssertionError("paths drawn before the sweep was validated")

    monkeypatch.setattr(mc, "generate_path_matrix", boom)
    with pytest.raises(ScenarioError, match=r"sim\.dt_days = 0\.4: .*dt_days"):
        exp.run_sensitivity(tiny, "sim.dt_days", (0.5, 0.4))
    with pytest.raises(ScenarioError, match="sim.seed"):
        exp.run_sensitivity(tiny, "sim.seed", (1.5,))


def test_apr_remarks():
    assert exp._apr_remark(0.10, 0.01, 0.54) == "Strategy unprofitable"
    assert exp._apr_remark(0.54, 0.90, 0.54) == "Calibrated value"
    assert exp._apr_remark(0.54, 0.90, 0.40) == ""
    assert exp._apr_remark(0.30, 0.15, 0.54) == "Marginal viability"
    assert exp._apr_remark(0.30, 0.50, 0.54) == ""


def test_sensitivity_apr_wrapper(tiny):
    t = exp.run_sensitivity_apr(tiny, values=(0.54,), grid=(0.6,))
    assert t.columns == ["R/V_0", "h**", "SR", "Remark"]
    assert t.rows[0][0] == 54.0
    assert t.rows[0][3] == "Calibrated value"


def test_sensitivity_vol_wrapper(tiny):
    t = exp.run_sensitivity_vol(tiny, scales=(0.8, 1.0), grid=(0.6,))
    assert [r[0] for r in t.rows] == ["-20%", "Baseline"]
    assert t.rows[0][1] == pytest.approx(0.922 * 0.8 * 100.0)
    assert t.rows[1][2] == pytest.approx(108.4)


def test_sensitivity_cv_wrapper(tiny):
    t = exp.run_sensitivity_cv(tiny, values=(2.0,), grid=(0.6,))
    assert t.columns[0] == "C/V_0"
    assert t.rows[0][0] == 2.0
    assert t.rows[0][5] == pytest.approx(30.0)  # init LTV = h/cv


def test_sensitivity_penalty_wrapper(tiny):
    t = exp.run_sensitivity_penalty(tiny, values=(0.10, 0.30), grid=(0.6,))
    assert [r[0] for r in t.rows] == [10.0, 30.0]
    assert t.columns == ["Penalty", "h**", "SR", "P(liq) at h**"]


def test_robustness_pairs_structure(baseline):
    # every preset pair shares the baseline's simulation settings
    t = exp.run_robustness_pairs(scaled(baseline, 4000),
                                 grid=tuple(round(0.05 * i, 2) for i in range(9, 17)))
    assert [r[0] for r in t.rows] == ["SUI/NS", "SOL/RAY", "SOL/JUP", "ETH/ARB"]
    for row in t.rows:
        # optimum stays in the interior band for every shipped pair
        assert 45.0 <= row[8] <= 80.0
        assert math.isfinite(row[9])


# ---------------------------------------------------------------------------
# jump stress

def test_jump_stress_structure(tiny):
    out = exp.run_jump_stress(tiny, grid=(0.6, 0.65), fine_grid=(0.6, 0.65))
    comp, stress = out["jump_comparison"], out["jump_stress"]
    assert comp.columns[0] == "h (%)" and len(comp.rows) == 2
    # the GBM columns and row were drawn without jumps; the hash is the caller's
    for t in (comp, stress):
        assert t.provenance["engine"] == "mc_gbm|mc_jump"
        assert t.provenance["config"] == scenario_hash(tiny)
    assert stress.rows[0][0] == "GBM (baseline)"
    assert len(stress.rows) == 5
    assert [r[1] for r in stress.rows[1:]] == ["matched", "matched", "unmatched", "unmatched"]
    for r in stress.rows:
        assert r[5] in (60.0, 65.0)
    assert set(out["jump_stress"].extra["per_scenario"]) == {
        "gbm", (0.80, True), (0.30, True), (0.80, False), (0.30, False)}


def test_jump_stress_generates_each_scenario_once(tiny, monkeypatch):
    drawn = _count_draws(monkeypatch)
    month = dataclasses.replace(tiny, position=dataclasses.replace(tiny.position,
                                                                   horizon_days=30.0))
    out = exp.run_jump_stress(month, grid=(0.3, 0.65), fine_grid=(0.6, 0.65))
    # GBM plus the four stress scenarios; the matched 0.80 one feeds the comparison
    made = [scn.jump for scn in drawn]
    assert len(made) == 5 and len(set(made)) == 5
    comp, per_scn = out["jump_comparison"], out["jump_stress"].extra["per_scenario"]
    matched = per_scn[(0.80, True)][1]
    assert [r[4] for r in comp.rows] == [matched[0.3].sr_raw, matched[0.65].sr_raw]
    assert comp.rows[0][1] == per_scn["gbm"][1][0.3].sr_raw  # off the fine grid


def test_with_jump_fills_the_default_jump_calibration(tiny):
    assert tiny.jump is None
    scn = exp._with_jump(tiny, 0.30, False)
    values = {k: v for k, v in scenario_values(scn).items() if not k.startswith("jump.")}
    assert scn.jump == JumpParams(rho_j=0.30, variance_matched=False)
    assert values == scenario_values(tiny)


def test_jump_stress_needs_the_reported_hedge_ratio(tiny):
    with pytest.raises(ScenarioError, match="0.65"):
        exp.run_jump_stress(tiny, fine_grid=(0.6, 0.7))


# ---------------------------------------------------------------------------
# every runner against a naive reference

REF_GRID = (0.4, 0.8)


def _naive(scn, grid):
    """{h: SummaryStats} of scn on freshly drawn paths, one plain kernel call per h."""
    pos, sim = scn.position, scn.sim
    rel_a, rel_b = mc.generate_path_matrix(scn.market, scn.jump, pos.horizon_days, sim.dt_days,
                                           sim.n_paths, sim.seed)
    out = {}
    for h in grid:
        at_h = dataclasses.replace(pos, h=h)
        batch = mc.simulate_batch(rel_a, rel_b, scn.market, scn.rates, at_h, sim)
        out[h] = mc.aggregate(batch, at_h.horizon_days, r_f=scn.rates.r_f)
    return out


def _no_claims(scn):
    return apply_overrides(scn, ["sim.claim_interval_days=0"])


# runner(month) -> [(scenario, {h: SummaryStats} the runner reports for it)]
def _hedge_grid(m):
    return [(m, exp.run_hedge_grid(m, grid=REF_GRID).extra["stats"])]


def _analytic_vs_mc(m):
    t = exp.run_analytic_vs_mc(m, grid=REF_GRID)
    return [(_no_claims(m), t.extra["no_claims"]), (m, t.extra["claims"])]


def _liquidation_stats(m):
    t = exp.run_liquidation_stats(m, h=0.8)
    return [(_no_claims(m), {0.8: t.extra["no_claims"]}), (m, {0.8: t.extra["claims"]})]


def _robustness_pairs(m):
    per_pair = exp.run_robustness_pairs(m, grid=REF_GRID).extra["per_pair"]
    presets = [exp.get_preset(preset) for _, _, preset in exp.ROBUSTNESS_PAIRS]
    return [(dataclasses.replace(m, market=p.market, rates=p.rates), per_pair[pair][1])
            for (pair, _, _), p in zip(exp.ROBUSTNESS_PAIRS, presets)]


def _jump_stress(m):
    out = exp.run_jump_stress(m, grid=(0.4,), fine_grid=(0.65,))
    return [(dataclasses.replace(m, jump=None) if key == "gbm" else exp._with_jump(m, *key),
             stats) for key, (_, stats) in out["jump_stress"].extra["per_scenario"].items()]


def _figure(m):
    return [(m, exp.emit_figure_data("fig2", m, grid=REF_GRID).extra["stats"])]


def _sweep(axis, values):
    def scored(m):
        per_value = exp.run_sensitivity(m, axis, values, grid=REF_GRID).extra["per_value"]
        return [(apply_overrides(m, ["%s=%r" % (axis, v)]), per_value[v][1]) for v in values]
    return scored


@pytest.mark.parametrize("runner, draws", [
    (_hedge_grid, 1), (_analytic_vs_mc, 1), (_liquidation_stats, 1), (_robustness_pairs, 4),
    (_jump_stress, 5), (_figure, 1), (_sweep("position.c_over_v0", (1.5, 3.0)), 1),
    (_sweep("sim.liq_penalty_frac", (0.1, 0.3)), 1), (_sweep("market.rho", (0.3, 0.6)), 2),
], ids=["hedge_grid", "analytic_vs_mc", "liquidation_stats", "robustness_pairs", "jump_stress",
        "figure", "sweep_cv", "sweep_penalty", "sweep_rho"])
def test_runner_stats_equal_a_naive_reference(tiny, monkeypatch, runner, draws):
    # each runner also drops its old matrix before the next draw
    drawn = _count_draws(monkeypatch)
    scored = runner(apply_overrides(tiny, ["position.horizon_days=30"]))
    assert len(drawn) == draws
    monkeypatch.undo()
    assert scored
    for scn, stats in scored:
        assert stats and stats == _naive(scn, tuple(stats))


# ---------------------------------------------------------------------------
# figures

def test_figure_data_columns(tiny):
    f1 = exp.emit_figure_data("fig1", tiny, grid=(0.5, 0.6))
    assert f1.columns == ["h", "sr_tx", "p_liq"]
    assert [r[0] for r in f1.rows] == [0.5, 0.6]
    f2 = exp.emit_figure_data("fig2", tiny, grid=(0.5,))
    assert f2.columns == ["h", "e_roe", "std"]
    f3 = exp.emit_figure_data("fig3", tiny, grid=(0.6,))
    assert f3.columns == ["h"] + ["sr(rho=%.2f)" % r for r in exp.FIG3_RHOS]
    f4 = exp.emit_figure_data("fig4", tiny, grid=(0.6,))
    assert f4.columns == ["h"] + ["sr(r_b=%.2f)" % r for r in exp.FIG4_RBS]
    assert len(f4.rows[0]) == 6


def test_figure_data_errors(tiny):
    with pytest.raises(ScenarioError, match="unknown figure"):
        exp.emit_figure_data("fig9", tiny)
    with pytest.raises(ScenarioError, match="nonempty"):
        exp.emit_figure_data("fig1", tiny, grid=())


# ---------------------------------------------------------------------------
# rendering and reproduction

def test_render_table_and_twin_files(tiny, tmp_path):
    t = exp.run_liquidation_stats(tiny)
    text = exp.render_table(t)
    lines = text.splitlines()
    assert lines[0] == ("# seed=42 n_paths=400 engine=mc_gbm config=%s"
                        % t.provenance["config"])
    assert lines[1] == ",".join(t.columns)
    assert len(lines) == 2 + len(t.rows)
    # display file rounds to one decimal, the twin keeps repr precision
    disp, full = exp.write_table(t, tmp_path)
    assert disp.endswith("liquidation_stats.csv") and full.endswith("_full.csv")
    cell = open(disp).read().splitlines()[2].split(",")[1]
    cell_full = open(full).read().splitlines()[2].split(",")[1]
    assert cell == "%.1f" % t.rows[0][1]
    assert float(cell_full) == t.rows[0][1]


def test_reproduce_dispatch(tiny, tmp_path):
    tables = exp.reproduce("liqstats", scn=tiny, out_dir=str(tmp_path))
    assert [t.name for t in tables] == ["liquidation_stats"]
    assert (tmp_path / "liquidation_stats.csv").exists()
    assert (tmp_path / "liquidation_stats_full.csv").exists()

    t5 = exp.reproduce("table5", scn=tiny)[0]
    assert t5.name == "analytic_vs_mc"
    assert t5.provenance["n_paths"] == 400  # explicit scenario keeps its path count

    t8 = exp.reproduce("table8", scn=tiny)[0]
    assert t8.name == "rebalancing"


def test_targets_are_one_registry():
    names = list(exp.TARGETS) + [a for t in exp.TARGETS.values() for a in t.aliases]
    assert len(names) == len(set(names))
    assert {n for n, t in exp.TARGETS.items() if t.axis} == {"apr", "vol", "penalty", "cv"}
    for fig in exp.FIGURES:
        assert fig in exp.TARGETS
    for name in names:
        assert name in exp.describe_targets()


def test_reproduce_unknown_target(tiny):
    with pytest.raises(ScenarioError, match="unknown reproduction target") as err:
        exp.reproduce("table99", scn=tiny)
    assert "table4" in str(err.value)
