"""End-to-end command line tests run in process through main()."""

import argparse
import concurrent.futures
import contextlib
import datetime
import multiprocessing
import os
import re
import shlex
import sys
import types

import numpy as np
import pytest

import ammhedge.montecarlo as mc
from ammhedge.cli import build_parser, main
from ammhedge.config_domain import ScenarioError, apply_overrides, scenario_hash
from ammhedge.experiments import PRESETS, TARGETS, Table, get_preset


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_prices(path, prices, start="2024-01-01", days=None):
    d0 = datetime.date.fromisoformat(start)
    with open(path, "w") as fh:
        fh.write("date,price\n")
        for i, p in zip(days or range(len(prices)), prices):
            fh.write("%s,%.10g\n" % (d0 + datetime.timedelta(days=i), p))


# ---------------------------------------------------------------------------
# analytic / fpt

def test_analytic_prints_closed_form_constants(capsys):
    code, out, _ = _run(capsys, ["analytic", "--scenario", "sec46"])
    assert code == 0
    assert "phi          = 0.07324186" in out
    assert "v_GG         = 0.23305691" in out
    assert "v_AA         = 0.24311405" in out
    assert "v_GA         = 0.23761509" in out
    assert "mu0          = 0.13685615" in out
    assert "c            = 0.02250000" in out
    assert "h_mv         = 0.977381" in out
    assert "h*           = 0.976723" in out
    assert "SR(h*)       = 4.0203" in out
    assert "SOC at h*    = satisfied" in out
    assert "engine=closed_form" in out


def test_analytic_writes_tables(capsys, tmp_path):
    code, _, _ = _run(capsys, ["analytic", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "analytic_sharpe.csv").exists()
    assert (tmp_path / "analytic_sharpe_full.csv").exists()


def test_fpt_reports_probability_and_caps(capsys):
    code, out, _ = _run(capsys, ["fpt", "--h", "0.6", "--alpha", "0.05"])
    assert code == 0
    assert "sigma_tilde  = 0.932962" in out
    assert "LTV_0        = 0.3000" in out
    assert "P(liq, 90d) = 2.05%" in out
    assert "h_bar(0.0500) = 0.7048" in out
    assert "h**" in out


def test_fpt_rejects_out_of_range_h(capsys):
    code, _, err = _run(capsys, ["fpt", "--h", "1.5"])
    assert code == 1
    assert "configuration error" in err and "[0,1]" in err


def test_fpt_h_is_held_to_initial_ltv_feasibility(capsys):
    code, out, err = _run(capsys, ["fpt", "--h", "0.9", "--override", "position.c_over_v0=1"])
    assert (code, out) == (1, "")
    assert "--h 0.9" in err and "initial LTV 0.90" in err


@pytest.mark.parametrize("alpha", ["1.5", "1", "0", "-0.1", "nan"])
def test_fpt_rejects_an_alpha_outside_the_unit_interval(capsys, alpha):
    code, out, err = _run(capsys, ["fpt", "--h", "0.6", "--alpha", alpha])
    assert (code, out) == (1, "")
    assert err.startswith("configuration error:") and "--alpha %r" % float(alpha) in err


def test_fpt_prints_nothing_when_h_double_star_is_undefined(capsys):
    # without rewards or a risk-free rate the expected P&L at h = 0 is
    # negative, so h** has no Sharpe optimum: a runtime error, and no half table
    code, out, err = _run(capsys, ["fpt", "--alpha", "0.05", "--override", "rates.reward_rate=0",
                                   "--override", "rates.r_f=0"])
    assert (code, out) == (2, "")
    assert err.startswith("error: mu0 = ")


@pytest.mark.parametrize("command", ["analytic", "fpt"])
@pytest.mark.parametrize("argv, key", [
    (["--override", "market.mu_a=0.5"], "market.mu_a"),
    (["--override", "market.mu_b=-0.1"], "market.mu_b"),
    (["--scenario", "jumps"], "jump.lambda"),
    (["--scenario", "jumps", "--override", "jump.variance_matched=false"], "jump.lambda"),
    (["--override", "jump.rho_j=0.3"], "jump.lambda"),
])
def test_closed_form_rejects_drift_and_jumps(capsys, command, argv, key):
    # neither the closed form nor the first-passage bound models them
    code, out, err = _run(capsys, [command] + argv)
    assert (code, out) == (1, "")
    assert err.startswith("configuration error: %s = " % key)


@pytest.mark.parametrize("command", ["analytic", "fpt"])
def test_closed_form_takes_no_monte_carlo_flags(capsys, command):
    for flags in (["--paths", "5"], ["--seed", "9"], ["--workers", "7"], ["--tx"], ["--no-tx"]):
        with pytest.raises(SystemExit) as exc:
            main([command] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_summary_and_path_dump(capsys, tmp_path):
    dump = tmp_path / "paths.csv"
    code, out, _ = _run(capsys, ["simulate", "--paths", "400", "--seed", "7",
                                 "--out", str(tmp_path / "tbl"),
                                 "--dump-paths", str(dump)])
    assert code == 0
    assert out.startswith("# seed=7 n_paths=400 engine=mc_gbm config=")
    assert "E[ROE] (pp)" in out and "P(liq) (%)" in out
    assert (tmp_path / "tbl" / "summary.csv").exists()
    assert (tmp_path / "tbl" / "summary_full.csv").exists()
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("path_id,roe,")
    assert len(lines) == 401


def test_simulate_stdout_ignores_the_path_dump(capsys, tmp_path):
    argv = ["simulate", "--paths", "300", "--seed", "5", "--override",
            "sim.rebalance=threshold(15)"]
    code1, plain, _ = _run(capsys, argv)
    code2, dumped, _ = _run(capsys, argv + ["--dump-paths", str(tmp_path / "paths.csv")])
    assert code1 == code2 == 0
    assert plain == dumped


def test_simulate_runs_are_byte_identical(capsys):
    code1, out1, _ = _run(capsys, ["simulate", "--paths", "300", "--seed", "5"])
    code2, out2, _ = _run(capsys, ["simulate", "--paths", "300", "--seed", "5"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_resolution_order(capsys, tmp_path):
    _, out_default, _ = _run(capsys, ["simulate", "--paths", "50"])
    assert out_default.startswith("# seed=42 ")
    _, out_flag, _ = _run(capsys, ["simulate", "--paths", "50", "--seed", "5"])
    assert out_flag.startswith("# seed=5 ")
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("sim.seed = 11\n")
    _, out_file, _ = _run(capsys, ["simulate", "--paths", "50", "--scenario", str(cfg)])
    assert out_file.startswith("# seed=11 ")
    _, out_both, _ = _run(capsys, ["simulate", "--paths", "50", "--scenario", str(cfg),
                                   "--seed", "5"])
    assert out_both == out_flag  # the flag beats the file's sim.seed


def test_no_environment_variable_changes_a_run(capsys, monkeypatch):
    plain = _run(capsys, ["simulate", "--paths", "50"])
    monkeypatch.setenv("AMMHEDGE_SEED", "9")
    assert plain[0] == 0 and _run(capsys, ["simulate", "--paths", "50"]) == plain


def test_a_file_named_like_a_preset_stands_in_only_when_named(capsys, monkeypatch, tmp_path):
    # without --scenario a run starts from the preset itself, whatever the
    # working directory holds; --scenario baseline still reads ./baseline,
    # but a directory such as an --out DIR never hides a preset
    plain = _run(capsys, ["simulate", "--paths", "50"])
    jumps = _run(capsys, ["simulate", "--paths", "50", "--scenario", "jumps"])
    (tmp_path / "baseline").write_text("rates.r_b = 0.10\n")
    (tmp_path / "jumps").mkdir()
    monkeypatch.chdir(tmp_path)
    assert plain[0] == 0 and _run(capsys, ["simulate", "--paths", "50"]) == plain
    named = _run(capsys, ["simulate", "--paths", "50", "--scenario", "baseline"])
    assert named[0] == 0 and named[1] != plain[1]
    assert jumps[0] == 0 and _run(capsys, ["simulate", "--paths", "50", "--scenario",
                                           "jumps"]) == jumps


def test_override_flag_equals_scenario_file(capsys, tmp_path):
    cfg = tmp_path / "custom.cfg"
    cfg.write_text("rates.reward_rate = 0.40\nsim.n_paths = 50\n")
    _, out_file, _ = _run(capsys, ["simulate", "--scenario", str(cfg)])
    _, out_flag, _ = _run(capsys, ["simulate", "--override", "rates.reward_rate=0.40",
                                   "--paths", "50"])
    assert out_file == out_flag


def test_tx_flag_switches_headline_basis(capsys):
    _, out_raw, _ = _run(capsys, ["simulate", "--paths", "50", "--no-tx"])
    _, out_tx, _ = _run(capsys, ["simulate", "--paths", "50", "--tx"])
    assert out_raw != out_tx


def test_unknown_scenario_is_config_error(capsys):
    code, _, err = _run(capsys, ["simulate", "--scenario", "missing_thing"])
    assert code == 1
    assert "no preset or scenario file" in err


def test_unreadable_scenario_file_is_config_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"sim.seed = 3\xff\n")
    for path in (tmp_path, bad):
        code, out, err = _run(capsys, ["analytic", "--scenario", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("configuration error: cannot read scenario file %s: " % path)


def test_invalid_parameter_is_config_error(capsys):
    code, _, err = _run(capsys, ["simulate", "--paths", "50",
                                 "--override", "market.rho=1.5"])
    assert code == 1
    assert "configuration error" in err and "rho" in err


def test_variance_matched_jumps_that_use_up_a_leg_are_rejected(capsys):
    # lambda (mu_j^2 + sigma_j^2) is sigma_a * sigma_a to the bit, while
    # sigma_a ** 2 rounds one ulp above it: the generator would be left no
    # diffusion on leg a, so the validator must refuse the record
    code, out, err = _run(capsys, ["simulate", "--paths", "50",
                                   "--override", "market.sigma_a=1.0484845121491653",
                                   "--override", "jump.lambda=1.099319772216673",
                                   "--override", "jump.mu_j=0", "--override", "jump.sigma_j=1"])
    assert code == 1 and out == ""
    assert "variance matching infeasible: sigma_a" in err


def test_runtime_failure_exits_two(capsys):
    # a valid calibration whose unhedged P&L has no positive mean: no Sharpe optimum
    code, _, err = _run(capsys, ["analytic", "--override", "rates.reward_rate=0",
                                 "--override", "rates.r_f=0"])
    assert code == 2
    assert err.startswith("error:") and "mu0" in err


@pytest.mark.parametrize("flag, where", [("--dump-paths", ("missing", "x.csv")),
                                         ("--out", ("file", "tables"))])
def test_unwritable_output_path_is_runtime_error(capsys, tmp_path, flag, where):
    # a file in a directory that does not exist, a directory under a regular
    # file: one error line each, exit 2, no traceback
    (tmp_path / "file").write_text("")
    path = str(tmp_path.joinpath(*where))
    code, out, err = _run(capsys, ["simulate", "--paths", "50", flag, path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


def test_step_that_does_not_divide_horizon_is_config_error(capsys):
    argv = ["--override", "position.horizon_days=91", "--override", "sim.dt_days=2"]
    code, _, err = _run(capsys, ["simulate", "--paths", "50"] + argv)
    assert code == 1
    assert "dt_days = 2 does not divide horizon_days = 91" in err
    # the closed form needs no grid
    assert _run(capsys, ["analytic"] + argv)[0] == 0


@pytest.mark.parametrize("argv, dt_days", [
    (["simulate", "--override", "sim.dt_days=0.3333334"], 0.3333334),
    (["simulate", "--override", "position.horizon_days=90.00001"], 1.0 / 3.0),
    (["sweep", "--axis", "sim.dt_days", "--values", "0.3333334"], 0.3333334),
])
def test_step_validation_accepts_runs_as_given(capsys, monkeypatch, argv, dt_days):
    # within _whole_steps' tolerance of 90 days: every kernel pass runs 270
    # steps of the configured step and claims every 42 of them
    grids, loop = [], mc._step_loop

    def recorded(rel_a, rel_b, rec, *args):
        grids.append((rec.steps, rec.dt_days, rec.claim_stride))
        return loop(rel_a, rel_b, rec, *args)

    monkeypatch.setattr(mc, "_step_loop", recorded)
    code, out, err = _run(capsys, argv + ["--paths", "200"])
    assert (code, err) == (0, "")
    assert grids and set(grids) == {(270, dt_days, 42)}


@pytest.mark.parametrize("overrides", [
    ["sim.dt_days=0.4"],
    ["sim.dt_days=3", "sim.claim_interval_days=10"],
    ["sim.dt_days=3", "sim.claim_interval_days=9", "sim.rebalance=periodic(10)"],
])
def test_event_cadence_off_the_grid_is_config_error(capsys, overrides):
    argv = ["simulate", "--paths", "50"]
    for pair in overrides:
        argv += ["--override", pair]
    code, _, err = _run(capsys, argv)
    assert code == 1 and "configuration error" in err


def test_horizon_days_alone_sets_the_horizon(capsys):
    code, out, _ = _run(capsys, ["simulate", "--paths", "50",
                                 "--override", "position.horizon_days=30"])
    assert code == 0 and "E[ROE] (pp)" in out
    code, out, _ = _run(capsys, ["fpt", "--h", "0.6", "--override", "position.horizon_days=30"])
    assert code == 0 and "P(liq, 30d)" in out


def test_horizon_years_must_agree_with_days(capsys):
    code, _, err = _run(capsys, ["fpt", "--override", "position.horizon_years=0.3"])
    assert code == 1
    assert "position.horizon_years" in err and "position.horizon_days" in err
    code, _, _ = _run(capsys, ["fpt", "--override", "position.horizon_days=%r" % 47.3,
                               "--override", "position.horizon_years=%r" % (47.3 / 365.0)])
    assert code == 0


def test_negative_costs_are_config_errors(capsys):
    for key in ("sim.borrow_fee_frac", "sim.gas_cost"):
        code, _, err = _run(capsys, ["simulate", "--paths", "50", "--override", key + "=-1"])
        assert code == 1
        assert "%s must be nonnegative" % key.split(".")[1] in err


def _no_draws(*args, **kw):
    raise AssertionError("paths drawn before the scenario was validated")


@pytest.mark.parametrize("argv, names", [
    (["--override", "rates.r_a=nan"], "rates.r_a"),
    (["--override", "market.mu_a=nan"], "market.mu_a"),
    (["--override", "jump.mu_j=nan"], "jump.mu_j"),
    (["--override", "jump.lambda=nan"], "jump.lambda"),
    (["--override", "sim.gas_cost=inf"], "sim.gas_cost"),
    (["--override", "sim.claim_interval_days=nan"], "sim.claim_interval_days"),
    (["--override", "sim.dt_days=inf"], "sim.dt_days"),
    (["--override", "position.horizon_days=inf"], "position.horizon_days"),
    (["--override", "sim.rebalance=threshold(nan)"], "threshold(nan)"),
    (["--override", "sim.rebalance=periodic(inf)"], "periodic(inf)"),
    (["--override", "sim.rebalance=threshold(abc)"], "threshold(abc)"),
    (["--override", "sim.rebalance=periodic(1/0)"], "periodic(1/0)"),
    (["--seed", "-1"], "seed must be nonnegative"),
])
def test_non_finite_malformed_and_negative_inputs_are_config_errors(capsys, monkeypatch,
                                                                    argv, names):
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, ["simulate", "--paths", "50"] + argv)
    assert (code, out) == (1, "")
    assert err.startswith("configuration error:") and names in err


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "cv"], ["rebalance"],
                                     ["reproduce", "jumps"], ["reproduce", "table4"]])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_config_errors(capsys, monkeypatch, command, workers):
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, command + ["--paths", "100", "--workers", workers])
    assert (code, out) == (1, "")
    assert err.startswith("configuration error: --workers %s" % workers)


# ---------------------------------------------------------------------------
# sweeps, rebalance, reproduce

def test_sweep_custom_axis(capsys):
    code, out, _ = _run(capsys, ["sweep", "--axis", "rates.r_b",
                                 "--values", "0.10,0.15", "--paths", "200"])
    assert code == 0
    assert out.splitlines()[1].startswith("rates.r_b,h**,SR")
    assert len(out.strip().splitlines()) == 4


def test_sweep_custom_axis_requires_values(capsys):
    code, _, err = _run(capsys, ["sweep", "--axis", "rates.r_b", "--paths", "200"])
    assert code == 1
    assert "--values is required" in err


def test_sweep_shortcut_axis(capsys, monkeypatch):
    # the built-in sweep is a reproduce target; sweep takes its shortcut only
    # with --values, as the name of the key it varies
    code, out, _ = _run(capsys, ["reproduce", "apr", "--paths", "200"])
    assert code == 0
    assert "R/V_0,h**,SR,Remark" in out
    assert "Calibrated value" in out
    code, out, _ = _run(capsys, ["sweep", "--axis", "apr", "--values", "0.3,0.5",
                                 "--paths", "200"])
    assert code == 0
    assert out.splitlines()[1].startswith("rates.reward_rate,h**,SR")
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, ["sweep", "--axis", "apr", "--paths", "200"])
    assert (code, out) == (1, "")
    assert "--values is required" in err and "reproduce apr|vol|penalty|cv" in err


@pytest.mark.parametrize("axis", ["market.vol_scale", "rates.r_b"])
def test_non_finite_sweep_value_is_config_error(capsys, monkeypatch, axis):
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, ["sweep", "--axis", axis, "--values", "1,inf",
                                   "--paths", "200"])
    assert (code, out) == (1, "")
    assert "cannot parse --values for %s: expected a finite number" % axis in err


@pytest.mark.parametrize("axis, values", [
    ("position.horizon_days", "30,60"),
    ("sim.dt_days", "0.5,1"),
    ("sim.seed", "1,2"),
])
def test_sweep_any_scenario_key(capsys, axis, values):
    # a 30-day base keeps the draws small; the horizon axis overrides it
    code, out, err = _run(capsys, ["sweep", "--axis", axis, "--values", values, "--paths", "200",
                                   "--override", "position.horizon_days=30"])
    assert code == 0, err
    lines = out.splitlines()
    assert lines[1].startswith(axis + ",h**,SR")
    assert [line.split(",")[0] for line in lines[2:]] == values.split(",")


@pytest.mark.parametrize("axis, values, hint", [
    ("position.h", "0.3,0.6", "the h grid sets h"),
    ("position.horizon_years", "0.25", "sweep that key"),
])
def test_dead_sweep_axes_are_config_errors(capsys, monkeypatch, axis, values, hint):
    def boom(*args, **kw):
        raise AssertionError("paths drawn for an axis that cannot be swept")

    monkeypatch.setattr(mc, "_generate_block", boom)
    code, out, err = _run(capsys, ["sweep", "--axis", axis, "--values", values,
                                   "--paths", "200"])
    assert code == 1 and out == ""
    assert "cannot sweep %s" % axis in err and hint in err
    if axis == "position.horizon_years":
        assert "position.horizon_days" in err


@pytest.mark.parametrize("axis, good, bad", [
    ("rates.r_b", "0.1", "-0.5"),
    ("sim.liq_penalty_frac", "0.1", "2"),
    ("position.l_max", "0.7", "1.5"),
    ("market.rho", "0.5", "1.5"),
])
def test_bad_sweep_value_is_config_error_before_any_draw(capsys, monkeypatch, axis, good, bad):
    def boom(*args, **kw):
        raise AssertionError("paths drawn before the sweep was validated")

    monkeypatch.setattr(mc, "_generate_block", boom)
    code, out, err = _run(capsys, ["sweep", "--axis", axis, "--values", good + "," + bad,
                                   "--paths", "200"])
    assert code == 1
    assert out == ""
    assert "%s = %r" % (axis, float(bad)) in err


@pytest.mark.parametrize("argv, named", [
    (["--axis", "position.horizon_days", "--values", "90,90.5"], "position.horizon_days = 90.5"),
    (["--axis", "sim.dt_days", "--values", "0.5,1/3", "--override", "position.horizon_days=90.5"],
     "sim.dt_days = %r" % (1 / 3)),
])
def test_sweep_checks_each_path_grid_before_any_draw(capsys, monkeypatch, argv, named):
    # the good value comes first: its paths must not be drawn before the bad
    # value's grid is rejected, and the error names the swept key and value
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, ["sweep", "--paths", "200"] + argv)
    assert (code, out) == (1, "")
    assert "sweep value %s: dt_days = " % named in err
    assert "does not divide horizon_days = 90.5" in err


def test_rebalance_table(capsys):
    code, out, _ = _run(capsys, ["rebalance", "--paths", "300", "--h", "0.6"])
    assert code == 0
    assert "Strategy,E[ROE]" in out
    assert "Every 30 days" in out and "Threshold 10pp" in out


@pytest.mark.parametrize("h", ["1.5", "-0.5", "nan"])
def test_rebalance_rejects_an_invalid_h(capsys, monkeypatch, h):
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, ["rebalance", "--paths", "300", "--h", h])
    assert (code, out) == (1, "")
    assert "--h %r" % float(h) in err and "h must lie in [0,1]" in err


def test_rebalance_on_jump_paths_is_tagged_mc_jump(capsys):
    code, out, _ = _run(capsys, ["rebalance", "--scenario", "jumps", "--paths", "400"])
    assert code == 0
    assert " engine=mc_jump " in out.splitlines()[0]


def test_jumps_tables(capsys):
    code, out, _ = _run(capsys, ["reproduce", "jumps", "--paths", "200"])
    assert code == 0
    assert "SR (GBM)" in out and "rho_J" in out
    assert "unmatched" in out


def test_reproduce_named_target(capsys, tmp_path):
    code, out, _ = _run(capsys, ["reproduce", "liqstats", "--paths", "300",
                                 "--out", str(tmp_path)])
    assert code == 0
    assert "n_paths=300" in out
    assert (tmp_path / "liquidation_stats.csv").exists()


def test_reproduce_robustness_honours_paths_and_seed(capsys):
    code, out, _ = _run(capsys, ["reproduce", "robustness", "--paths", "500", "--seed", "7"])
    assert code == 0
    assert out.startswith("# seed=7 n_paths=500 ")


def test_reproduce_robustness_honours_position_and_jumps(capsys):
    # every pair takes the caller's position and jump keys, not only its sim keys
    rows = {}
    for extra in ([], ["--override", "position.horizon_days=30"]):
        code, out, _ = _run(capsys, ["reproduce", "robustness", "--paths", "200"] + extra)
        assert code == 0
        rows[len(extra)] = out.splitlines()[1:]
    assert rows[0] != rows[2]
    code, out, _ = _run(capsys, ["reproduce", "robustness", "--scenario", "jumps",
                                 "--paths", "200"])
    assert code == 0
    assert " engine=mc_jump " in out.splitlines()[0]


@pytest.mark.parametrize("argv, named", [
    (["jumps", "--override", "market.sigma_a=0.2"], "rho_J = 0.80 matched jumps"),
    (["robustness", "--scenario", "jumps", "--override", "jump.sigma_j=0.37"], "eth_arb"),
])
def test_reproduce_names_the_scenario_it_rejects_before_any_draw(capsys, monkeypatch, argv,
                                                                 named):
    # the base is valid, but a scenario the target builds from it has matched
    # jumps that use up leg a's variance: no path is drawn, and the one error
    # line names that scenario
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, ["reproduce", "--paths", "200"] + argv)
    assert (code, out) == (1, "")
    assert err == ("configuration error: %s: variance matching infeasible: "
                   "sigma_a^2 <= lambda*(mu_j^2 + sigma_j^2)\n" % named)


@pytest.mark.parametrize("argv", [
    ["reproduce", "table4", "--paths", "50"],
    ["sweep", "--axis", "cv", "--values", "1.2,2", "--paths", "50"],
    ["fpt", "--h", "0.5"],
    ["rebalance", "--h", "0.5", "--paths", "50"],
    ["analytic"],
])
def test_a_run_is_not_checked_at_a_hedge_ratio_it_does_not_run(capsys, argv):
    # position.h = 0.9 would start at LTV 0.90 >= l_max, but none of these
    # reads it: each runs its own h grid, its --h, or the closed form
    code, out, err = _run(capsys, argv + ["--override", "position.h=0.9",
                                          "--override", "position.c_over_v0=1"])
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("argv", [
    ["reproduce", "liqstats", "--override", "position.c_over_v0=1.2"],
    ["simulate", "--override", "position.h=1", "--override", "position.c_over_v0=1.2"],
])
def test_a_run_whose_hedge_ratios_all_start_past_l_max_is_refused(capsys, monkeypatch, argv):
    # liqstats runs at h = 1 alone and simulate at position.h: LTV_0 = 1 / 1.2
    monkeypatch.setattr(mc, "_generate_block", _no_draws)
    code, out, err = _run(capsys, argv + ["--paths", "50"])
    assert (code, out) == (1, "")
    assert err == "configuration error: baseline: initial LTV 0.83 ≥ l_max\n"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_simulates(capsys, preset):
    code, out, err = _run(capsys, ["simulate", "--scenario", preset, "--paths", "64"])
    assert code == 0, err
    assert out.startswith("# seed=42 n_paths=64 ")


@pytest.mark.parametrize("name", sorted(list(TARGETS) + [a for t in TARGETS.values()
                                                          for a in t.aliases]))
def test_every_target_name_dispatches(capsys, monkeypatch, name):
    # each name and alias reaches its runner with the resolved scenario; the
    # runners themselves are exercised in test_experiments and test_acceptance
    key = next(n for n, t in TARGETS.items() if name == n or name in t.aliases)
    seen = []

    def run(base, n_workers):
        seen.append((base, n_workers))
        return [Table(name="stub", columns=["x"], rows=[[1.0]],
                      provenance={"seed": base.sim.seed, "n_paths": base.sim.n_paths,
                                  "engine": "-", "config": "-"})]

    monkeypatch.setitem(TARGETS, key, TARGETS[key]._replace(run=run))
    code, out, _ = _run(capsys, ["reproduce", name, "--paths", "200", "--seed", "3",
                                 "--workers", "2"])
    assert code == 0
    (base, n_workers), = seen
    assert (base.sim.n_paths, base.sim.seed, n_workers) == (200, 3, 2)
    assert out.startswith("# seed=3 n_paths=200 ")
    # with no flags the target runs its own preset: table5 the 50k-path one
    seen.clear()
    assert _run(capsys, ["reproduce", name])[0] == 0
    (base, n_workers), = seen
    preset = "table5" if key == "table5" else "baseline"
    assert scenario_hash(base) == scenario_hash(get_preset(preset))


@pytest.mark.parametrize("flags, preset, overrides", [
    # flags without --scenario keep the target's preset: table5's 50k paths
    (["--seed", "7"], "table5", ["sim.seed=7"]),
    (["--scenario", "baseline"], "baseline", []),
])
def test_reproduce_starts_from_scenario_else_the_target_preset(capsys, monkeypatch, flags,
                                                               preset, overrides):
    seen = []

    def run(base, n_workers):
        seen.append(base)
        return []

    monkeypatch.setitem(TARGETS, "table5", TARGETS["table5"]._replace(run=run))
    assert _run(capsys, ["reproduce", "table5"] + flags)[0] == 0
    (base,) = seen
    assert scenario_hash(base) == scenario_hash(apply_overrides(get_preset(preset), overrides))
    assert base.sim.n_paths == {"table5": 50000, "baseline": 30000}[preset]


def test_apr_sweep_marks_the_calibrated_rate(capsys):
    code, out, _ = _run(capsys, ["reproduce", "apr", "--paths", "200",
                                 "--override", "rates.reward_rate=0.40"])
    assert code == 0
    rows = {line.split(",")[0]: line for line in out.splitlines()[2:]}
    assert rows["40"].endswith(",Calibrated value")
    assert not rows["54"].endswith(",Calibrated value")


def test_reproduce_unknown_target(capsys):
    code, _, err = _run(capsys, ["reproduce", "tableZ", "--paths", "300"])
    assert code == 1
    assert "unknown reproduction target" in err


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_from_price_files(capsys, tmp_path):
    rng = np.random.default_rng(3)
    pa = np.exp(np.cumsum(0.9 / np.sqrt(365.0) * rng.standard_normal(500)))
    pb = np.exp(np.cumsum(1.1 / np.sqrt(365.0) * rng.standard_normal(500)))
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_prices(fa, pa)
    _write_prices(fb, pb)
    code, out, _ = _run(capsys, ["calibrate", str(fa), str(fb)])
    assert code == 0
    assert "observations = 500" in out
    sigma_a = float(out.split("sigma_a      = ")[1].split()[0])
    assert 0.7 < sigma_a < 1.1
    assert "overrides: market.sigma_a=" in out


def test_calibrate_rejects_misaligned_dates(capsys, tmp_path):
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_prices(fa, [1.0, 1.1, 1.2])
    _write_prices(fb, [1.0, 1.1, 1.2], start="2024-01-02")
    code, _, err = _run(capsys, ["calibrate", str(fa), str(fb)])
    assert code == 1
    assert "not date-aligned" in err and "row 2" in err


@pytest.mark.parametrize("days, row", [
    ([2 * i for i in range(40)], 3),  # every other day
    (list(range(20)) + list(range(19, 39)), 22),  # a day twice
    (list(range(39, -1, -1)), 3),  # newest first
])
def test_calibrate_refuses_dates_that_are_not_consecutive_days(capsys, tmp_path, days, row):
    # the two files agree date for date, so only the daily rule refuses them
    rng = np.random.default_rng(5)
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for path in paths:
        _write_prices(path, np.exp(0.05 * rng.standard_normal(len(days))), days=days)
    code, out, err = _run(capsys, ["calibrate"] + paths)
    assert (code, out) == (1, "")
    assert err.startswith("configuration error: %s:%d: date " % (paths[0], row))


def test_calibrate_missing_file_is_config_error(capsys, tmp_path):
    fa = tmp_path / "a.csv"
    _write_prices(fa, [1.0, 1.1, 1.2])
    code, _, err = _run(capsys, ["calibrate", str(fa), str(tmp_path / "nope.csv")])
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize("argv", [
    ["rebalance", "--scenario", "jumps"],
    ["sweep", "--axis", "cv", "--values", "1.5,3"],
    ["simulate", "--override", "sim.rebalance=periodic(2)"],
])
def test_worker_count_does_not_change_bytes(capsys, argv):
    # three blocks of paths: worker processes each draw whole blocks and run
    # every kernel pass on them
    common = ["--paths", str(2 * mc.BLOCK + 100), "--override", "position.horizon_days=4"]
    outs = [_run(capsys, argv + common + ["--workers", w]) for w in ("1", "2")]
    assert outs[0][0] == 0 and outs[0] == outs[1]


_THREE_BLOCKS = ["rebalance", "--scenario", "jumps", "--paths", str(2 * mc.BLOCK + 100),
                 "--override", "position.horizon_days=4"]


def test_workers_are_joined_when_the_run_ends(capsys, two_cpus):
    assert _run(capsys, _THREE_BLOCKS + ["--workers", "2"])[0] == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error, code", [(ScenarioError, 1), (ValueError, 2)])
def test_worker_errors_read_as_in_one_process(capsys, monkeypatch, two_cpus, error, code):
    # a step loop that raises in a worker ends the run with the message and
    # the exit code of the same failure in one process, and leaves no worker
    def fail(rel_a, *args):
        raise error("no pass over %d paths" % len(rel_a))

    monkeypatch.setattr(mc, "_step_loop", fail)
    outs = [_run(capsys, _THREE_BLOCKS + ["--workers", w]) for w in ("1", "2")]
    assert multiprocessing.active_children() == []
    assert outs[0] == outs[1]
    assert outs[0][0] == code and "no pass over %d paths" % mc.BLOCK in outs[0][2]


@pytest.mark.parametrize("cpus, size", [(64, 4), (3, 3), (1, None)])
def test_process_count_is_bounded(capsys, monkeypatch, cpus, size):
    # --workers 1000000 at 30k paths: one process per block (4) and per usable
    # CPU at most, and at one, no pool and no multiprocessing import. The pool
    # records its size and runs in this process: none is started
    sizes = []

    def pool(max_workers, mp_context, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(mc, "_block_fn", None)
    if size is None:
        monkeypatch.setitem(sys.modules, "multiprocessing", None)  # importing it fails
    argv = ["sweep", "--axis", "cv", "--values", "1.8,3", "--paths", "30000",
            "--override", "position.horizon_days=2"]
    outs = [_run(capsys, argv + ["--workers", w]) for w in ("1000000", "1")]
    assert outs[0][0] == 0 and outs[0] == outs[1]
    assert sizes == ([size] if size else [])


# ---------------------------------------------------------------------------
# README

def test_readme_usage_names_only_real_subcommands():
    # every `ammhedge ...` line of the README's shell blocks names a subcommand
    # of the parser and parses as written
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("ammhedge ")]
    parser = build_parser()
    commands, = (a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert {argv[1] for argv in lines} >= {"analytic", "simulate", "sweep", "reproduce"}
    for argv in lines:
        assert argv[1] in commands, argv
        parser.parse_args(argv[1:])
