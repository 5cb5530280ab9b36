"""End-to-end command line tests run in process through main()."""

import datetime

import numpy as np
import pytest

import ammhedge.montecarlo as mc
from ammhedge.cli import SEED_ENV, main
from ammhedge.config_domain import scenario_hash
from ammhedge.experiments import PRESETS, TARGETS, Table, get_preset


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_prices(path, prices, start="2024-01-01"):
    d0 = datetime.date.fromisoformat(start)
    with open(path, "w") as fh:
        fh.write("date,price\n")
        for i, p in enumerate(prices):
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


def test_seed_resolution_order(capsys, monkeypatch):
    _, out_default, _ = _run(capsys, ["simulate", "--paths", "50"])
    assert out_default.startswith("# seed=42 ")
    monkeypatch.setenv(SEED_ENV, "9")
    _, out_env, _ = _run(capsys, ["simulate", "--paths", "50"])
    assert out_env.startswith("# seed=9 ")
    _, out_flag, _ = _run(capsys, ["simulate", "--paths", "50", "--seed", "5"])
    assert out_flag.startswith("# seed=5 ")  # flag beats the environment


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


def test_invalid_parameter_is_config_error(capsys):
    code, _, err = _run(capsys, ["simulate", "--paths", "50",
                                 "--override", "market.rho=1.5"])
    assert code == 1
    assert "configuration error" in err and "rho" in err


def test_runtime_failure_exits_two(capsys):
    # a valid calibration whose unhedged P&L has no positive mean: no Sharpe optimum
    code, _, err = _run(capsys, ["analytic", "--override", "rates.reward_rate=0",
                                 "--override", "rates.r_f=0"])
    assert code == 2
    assert err.startswith("error:") and "mu0" in err


def test_step_that_does_not_divide_horizon_is_config_error(capsys):
    argv = ["--override", "position.horizon_days=91", "--override", "sim.dt_days=2"]
    code, _, err = _run(capsys, ["simulate", "--paths", "50"] + argv)
    assert code == 1
    assert "dt_days = 2 does not divide horizon_days = 91" in err
    # the closed form needs no grid
    assert _run(capsys, ["analytic"] + argv)[0] == 0


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
    monkeypatch.setattr(mc, "generate_path_matrix", _no_draws)
    code, out, err = _run(capsys, ["simulate", "--paths", "50"] + argv)
    assert (code, out) == (1, "")
    assert err.startswith("configuration error:") and names in err


# ---------------------------------------------------------------------------
# sweeps, rebalance, jumps, reproduce

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


def test_sweep_shortcut_axis(capsys):
    code, out, _ = _run(capsys, ["sweep", "--axis", "apr", "--paths", "200"])
    assert code == 0
    assert "R/V_0,h**,SR,Remark" in out
    assert "Calibrated value" in out


@pytest.mark.parametrize("axis", ["market.vol_scale", "rates.r_b"])
def test_non_finite_sweep_value_is_config_error(capsys, monkeypatch, axis):
    monkeypatch.setattr(mc, "generate_path_matrix", _no_draws)
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

    monkeypatch.setattr(mc, "generate_path_matrix", boom)
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

    monkeypatch.setattr(mc, "generate_path_matrix", boom)
    code, out, err = _run(capsys, ["sweep", "--axis", axis, "--values", good + "," + bad,
                                   "--paths", "200"])
    assert code == 1
    assert out == ""
    assert "%s = %r" % (axis, float(bad)) in err


def test_rebalance_table(capsys):
    code, out, _ = _run(capsys, ["rebalance", "--paths", "300", "--h", "0.6"])
    assert code == 0
    assert "Strategy,E[ROE]" in out
    assert "Every 30 days" in out and "Threshold 10pp" in out


@pytest.mark.parametrize("h", ["1.5", "-0.5", "nan"])
def test_rebalance_rejects_an_invalid_h(capsys, monkeypatch, h):
    monkeypatch.setattr(mc, "generate_path_matrix", _no_draws)
    code, out, err = _run(capsys, ["rebalance", "--paths", "300", "--h", h])
    assert (code, out) == (1, "")
    assert "--h %r" % float(h) in err and "h must lie in [0,1]" in err


def test_rebalance_on_jump_paths_is_tagged_mc_jump(capsys):
    code, out, _ = _run(capsys, ["rebalance", "--scenario", "jumps", "--paths", "400"])
    assert code == 0
    assert " engine=mc_jump " in out.splitlines()[0]


def test_jumps_tables(capsys):
    code, out, _ = _run(capsys, ["jumps", "--paths", "200"])
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


def test_calibrate_missing_file_is_config_error(capsys, tmp_path):
    fa = tmp_path / "a.csv"
    _write_prices(fa, [1.0, 1.1, 1.2])
    code, _, err = _run(capsys, ["calibrate", str(fa), str(tmp_path / "nope.csv")])
    assert code == 1
    assert "configuration error" in err
