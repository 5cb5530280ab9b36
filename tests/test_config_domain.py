import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ammhedge import config_domain as cd


def test_baseline_passes_validation():
    scn = cd.baseline_scenario()
    assert cd.validate_scenario(scn) == []


def test_rho_boundary_message():
    m = cd.MarketParams(sigma_a=0.9, sigma_b=1.0, rho=1.0)
    scn = cd.baseline_scenario()
    errs = cd.validate(m, scn.rates, scn.position)
    assert errs == ["rho must lie strictly inside (-1,1)"]


def test_initial_ltv_message():
    scn = cd.baseline_scenario()
    pos = dataclasses.replace(scn.position, h=0.9, c_over_v0=1.0)
    errs = cd.validate(scn.market, scn.rates, pos)
    assert errs == ["initial LTV 0.90 ≥ l_max"]


def test_single_field_boundary_gives_single_message():
    scn = cd.baseline_scenario()
    cases = [
        (dataclasses.replace(scn.market, sigma_a=0.0), scn.rates, scn.position),
        (dataclasses.replace(scn.market, sigma_b=-0.1), scn.rates, scn.position),
        (scn.market, dataclasses.replace(scn.rates, r_a=-0.01), scn.position),
        (scn.market, dataclasses.replace(scn.rates, r_f=-1.0), scn.position),
        (scn.market, scn.rates, dataclasses.replace(scn.position, v0=0.0)),
        (scn.market, scn.rates, dataclasses.replace(scn.position, h=1.5)),
        (scn.market, scn.rates, dataclasses.replace(scn.position, l_max=1.0)),
        (scn.market, scn.rates, dataclasses.replace(scn.position, horizon_days=0.0)),
    ]
    for market, rates, pos in cases:
        errs = cd.validate(market, rates, pos)
        assert len(errs) == 1, errs


def test_validation_collects_every_violation():
    scn = cd.baseline_scenario()
    m = dataclasses.replace(scn.market, sigma_a=-1.0, rho=2.0)
    pos = dataclasses.replace(scn.position, h=-0.2, v0=0.0)
    errs = cd.validate(m, scn.rates, pos)
    assert len(errs) == 4


def test_negative_costs_rejected():
    sim = cd.SimConfig(n_paths=10, borrow_fee_frac=-0.001, gas_cost=-1.0)
    assert cd.validate_sim(sim) == ["borrow_fee_frac must be nonnegative",
                                    "gas_cost must be nonnegative"]
    assert cd.validate_sim(cd.SimConfig(n_paths=10, borrow_fee_frac=0.0, gas_cost=0.0)) == []


@pytest.mark.parametrize("dt_days, changes, error", [
    # claims would fire every 28 days (3 in 90), not every 14 (6)
    (0.4, {}, "dt_days = 0.4 is neither a whole number of days nor 1/k of a day"),
    # claims would fire every 9 days (10 in 90), not every 10 (9)
    (3.0, {"claim_interval_days": 10.0},
     "claim_interval_days = 10 is not a whole number of days divisible by dt_days = 3"),
    (1.0 / 3.0, {"claim_interval_days": 3.5},
     "claim_interval_days = 3.5 is not a whole number of days divisible by dt_days = 0.333333"),
    (3.0, {"claim_interval_days": 9.0, "rebalance": "periodic(10)"},
     "rebalance = periodic(10) is not a whole number of days divisible by dt_days = 3"),
    (0.25, {"rebalance": "periodic(7.5)"},
     "rebalance = periodic(7.5) is not a whole number of days divisible by dt_days = 0.25"),
    # each within tolerance of 14 days and of 1/3 day, but 42 steps of the
    # step miss the interval by more than it: the kernel has no claim stride
    (0.33333366, {"claim_interval_days": 13.99999},
     "claim_interval_days = 14 is not a whole number of days divisible by dt_days = 0.333334"),
])
def test_event_cadence_must_fit_the_grid(dt_days, changes, error):
    assert cd.validate_sim(cd.SimConfig(n_paths=10, dt_days=dt_days, **changes)) == [error]


def test_negative_seed_rejected():
    assert cd.validate_sim(cd.SimConfig(n_paths=10, seed=-1)) == ["seed must be nonnegative"]
    assert cd.validate_sim(cd.SimConfig(n_paths=10, seed=0)) == []


def test_baseline_cadences_are_valid():
    for dt_days in (1.0 / 3.0, 0.25, 1.0, 2.0):
        for rule in ("none", "threshold(15)", "periodic(14)", "periodic(30)"):
            sim = cd.SimConfig(n_paths=10, dt_days=dt_days, rebalance=rule)
            assert cd.validate_sim(sim) == [], (dt_days, rule)
    assert cd.validate_sim(cd.SimConfig(n_paths=10, dt_days=3.0, claim_interval_days=0.0)) == []


def test_horizon_years_is_derived():
    scn = cd.apply_overrides(cd.baseline_scenario(), ["position.horizon_days=30"])
    assert scn.position.horizon_days == 30.0
    assert scn.position.horizon_years == 30.0 / cd.DAYS_PER_YEAR
    assert cd.baseline_scenario().position.horizon_years == 90.0 / 365.0
    assert cd.validate_scenario(scn) == []


def test_consistent_horizon_years_is_accepted():
    # both keys, years as days / 365 in repr form
    for days in (30.0, 91.25, 180.0, 47.3):
        scn = cd.apply_overrides(cd.baseline_scenario(), [
            "position.horizon_days=%r" % days,
            "position.horizon_years=%r" % (days / cd.DAYS_PER_YEAR)])
        assert scn.position.horizon_days == days
    from_text = cd.parse_scenario("position.horizon_years = 0.25\nposition.horizon_days = 91.25\n")
    assert from_text.position.horizon_years == 0.25


def test_conflicting_horizon_years_is_rejected():
    for pairs in (["position.horizon_years=0.3"],
                  ["position.horizon_days=30", "position.horizon_years=0.25"]):
        with pytest.raises(cd.ScenarioError) as err:
            cd.apply_overrides(cd.baseline_scenario(), pairs)
        assert "position.horizon_years" in str(err.value)
        assert "position.horizon_days" in str(err.value)
    with pytest.raises(cd.ScenarioError, match="disagrees"):
        cd.parse_scenario("position.horizon_years = 0.25\n")


def test_jump_variance_matching_infeasible():
    scn = cd.baseline_scenario()
    jump = cd.JumpParams(lam=50.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8)
    errs = cd.validate_jump(jump, scn.market)
    assert any("variance matching infeasible" in e for e in errs)
    ok = cd.validate_jump(cd.JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8),
                          scn.market)
    assert ok == []


def test_parse_rebalance():
    assert cd.parse_rebalance("none") == ("none", 0.0)
    assert cd.parse_rebalance("threshold(15)") == ("threshold", 15.0)
    assert cd.parse_rebalance("periodic(30)") == ("periodic", 30.0)
    assert cd.parse_rebalance("Threshold(7.5)") == ("threshold", 7.5)
    with pytest.raises(cd.ScenarioError):
        cd.parse_rebalance("weekly")
    with pytest.raises(cd.ScenarioError):
        cd.parse_rebalance("threshold(0)")
    for bad in ("threshold(nan)", "periodic(inf)", "threshold(abc)", "periodic(1/0)"):
        with pytest.raises(cd.ScenarioError, match="number"):
            cd.parse_rebalance(bad)


# ---------------------------------------------------------------------------
# market estimation

def _gbm_series(n_days, sigma_a, sigma_b, rho, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, n_days))
    ra = sigma_a / math.sqrt(365.0) * z[0]
    rb = sigma_b / math.sqrt(365.0) * (rho * z[0] + math.sqrt(1 - rho * rho) * z[1])
    pa = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(ra)]))
    pb = 50.0 * np.exp(np.concatenate([[0.0], np.cumsum(rb)]))
    return pa, pb


def test_estimate_recovers_generator_params():
    pa, pb = _gbm_series(10000, 0.9, 0.9, 0.7, seed=11)
    m = cd.estimate_market_params(pa, pb)
    assert abs(m.sigma_a - 0.9) < 0.03
    assert abs(m.sigma_b - 0.9) < 0.03
    assert abs(m.rho - 0.7) < 0.03
    assert m.mu_a == 0.0 and m.mu_b == 0.0


def test_estimate_rescale_invariance():
    pa, pb = _gbm_series(500, 0.8, 1.1, 0.5, seed=3)
    m1 = cd.estimate_market_params(pa, pb)
    m2 = cd.estimate_market_params(pa * 1000.0, pb * 1e-6)
    assert math.isclose(m1.sigma_a, m2.sigma_a, rel_tol=1e-12)
    assert math.isclose(m1.sigma_b, m2.sigma_b, rel_tol=1e-12)
    assert math.isclose(m1.rho, m2.rho, rel_tol=1e-12)


def test_estimate_doubled_returns_double_sigma():
    pa, pb = _gbm_series(400, 0.9, 1.0, 0.6, seed=5)
    m1 = cd.estimate_market_params(pa, pb)
    # squaring prices doubles every log return
    m2 = cd.estimate_market_params(pa ** 2, pb ** 2)
    assert math.isclose(m2.sigma_a, 2.0 * m1.sigma_a, rel_tol=1e-12)
    assert math.isclose(m2.sigma_b, 2.0 * m1.sigma_b, rel_tol=1e-12)
    assert math.isclose(m2.rho, m1.rho, rel_tol=1e-12)


def test_estimate_degenerate_series():
    flat = np.full(40, 10.0)
    m = cd.estimate_market_params(flat, flat)
    assert m.sigma_a == 0.0 and m.rho == 0.0
    scn = cd.baseline_scenario()
    assert cd.validate(m, scn.rates, scn.position) != []

    pa, _ = _gbm_series(100, 0.9, 1.0, 0.5, seed=1)
    m_same = cd.estimate_market_params(pa, pa)
    assert math.isclose(m_same.rho, 1.0, abs_tol=1e-12)


def test_estimate_input_errors():
    pa, pb = _gbm_series(100, 0.9, 1.0, 0.5, seed=2)
    with pytest.raises(ValueError):
        cd.estimate_market_params(pa[:20], pb[:20])
    with pytest.raises(ValueError):
        cd.estimate_market_params(pa, pb[:-1])
    bad = pa.copy()
    bad[5] = 0.0
    with pytest.raises(ValueError):
        cd.estimate_market_params(bad, pb)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("leg", [0, 1])
def test_estimate_refuses_non_finite_prices(bad, leg):
    series = list(_gbm_series(40, 0.9, 1.0, 0.5, seed=4))
    series[leg][17] = bad
    with pytest.raises(ValueError, match="finite and strictly positive"):
        cd.estimate_market_params(*series)


def test_read_price_csv(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text("date,price\n2025-01-01,10.5\n2025-01-02,11.0\n")
    dates, prices = cd.read_price_csv(f)
    assert len(dates) == 2 and prices == [10.5, 11.0]
    assert dates[0].isoformat() == "2025-01-01"

    bad = tmp_path / "bad.csv"
    bad.write_text("time,close\n2025-01-01,10.5\n")
    with pytest.raises(ValueError):
        cd.read_price_csv(bad)


# ---------------------------------------------------------------------------
# scenario files and overrides

def test_parse_scenario_fractions_and_comments():
    scn = cd.parse_scenario(
        "# comment line\n"
        "sim.dt_days = 1/3   # three steps per day\n"
        "market.rho = 0.5\n"
        "\n")
    assert math.isclose(scn.sim.dt_days, 1.0 / 3.0)
    assert scn.market.rho == 0.5
    assert scn.market.sigma_a == 0.922  # untouched keys fall back to baseline


def test_parse_scenario_reports_all_unknown_keys():
    with pytest.raises(cd.ScenarioError) as exc:
        cd.parse_scenario("foo.bar = 1\nmarket.rho = 0.5\nbaz.qux = 2\n")
    msg = str(exc.value)
    assert "foo.bar" in msg and "baz.qux" in msg


def test_parse_scenario_bad_lines_carry_line_numbers():
    with pytest.raises(cd.ScenarioError) as exc:
        cd.parse_scenario("market.rho = 0.5\nnot a kv line\nsim.n_paths = x\n")
    msg = str(exc.value)
    assert "line 2" in msg and "line 3" in msg


def test_jump_block_only_built_when_jump_keys_present():
    assert cd.baseline_scenario().jump is None
    scn = cd.parse_scenario("jump.lambda = 2.0\n")
    assert scn.jump is not None
    assert scn.jump.lam == 2.0
    assert scn.jump.mu_j == -0.05  # unset jump keys fall back to defaults


def test_override_equals_editing_file(tmp_path):
    f = tmp_path / "s.cfg"
    f.write_text("market.rho = 0.5\nsim.n_paths = 123\n")
    from_file = cd.load_scenario(f)
    overridden = cd.apply_overrides(cd.baseline_scenario(),
                                    ["market.rho=0.5", "sim.n_paths=123"])
    assert cd.scenario_values(from_file) == cd.scenario_values(overridden)
    assert cd.scenario_hash(from_file) == cd.scenario_hash(overridden)


_FLOAT_KEYS = sorted(k for k, p in cd._KEY_PARSERS.items() if p is cd._parse_number)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(_FLOAT_KEYS),
       text=st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity", "1e400", "-1e999",
                             "1/0", "0/0", "abc", "1/x", "", "inf/2"]))
def test_non_finite_and_malformed_numbers_are_rejected(key, text):
    with pytest.raises(cd.ScenarioError, match="override %s: expected a" % key):
        cd.apply_overrides(cd.baseline_scenario(), ["%s=%s" % (key, text)])
    with pytest.raises(cd.ScenarioError, match="line 1: key %s: expected a" % key):
        cd.parse_scenario("%s = %s\n" % (key, text))


def test_override_bad_pairs():
    scn = cd.baseline_scenario()
    with pytest.raises(cd.ScenarioError):
        cd.apply_overrides(scn, ["market.rho"])
    with pytest.raises(cd.ScenarioError):
        cd.apply_overrides(scn, ["nope=1"])


def test_values_roundtrip():
    scn = cd.parse_scenario("jump.rho_j = 0.3\nsim.rebalance = threshold(15)\n")
    rebuilt = cd.parse_scenario("", base=cd.scenario_values(scn))
    assert cd.scenario_values(rebuilt) == cd.scenario_values(scn)


def test_scenario_hash_tracks_content():
    a = cd.baseline_scenario()
    b = cd.apply_overrides(a, ["market.rho=0.73"])
    assert cd.scenario_hash(a) != cd.scenario_hash(b)
    assert cd.scenario_hash(a) == cd.scenario_hash(cd.baseline_scenario())
    assert len(cd.scenario_hash(a)) == 12


_NUMBERS = st.floats(0.01, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(values=st.fixed_dictionaries({
    "market.sigma_a": _NUMBERS, "market.rho": st.floats(-0.99, 0.99),
    "rates.reward_rate": _NUMBERS, "position.c_over_v0": _NUMBERS,
    "position.horizon_days": st.floats(1.0, 720.0),
    "sim.n_paths": st.integers(1, 10 ** 6), "sim.seed": st.integers(0, 2 ** 32),
    "sim.rebalance": st.sampled_from(["none", "threshold(15)", "periodic(14)"]),
    "sim.include_tx_costs": st.booleans(),
}), jumps=st.booleans())
def test_scenario_text_roundtrips(values, jumps):
    text = "".join("%s = %s\n" % kv for kv in values.items())
    if jumps:
        text += "jump.lambda = 2.5\njump.variance_matched = false\n"
    scn = cd.parse_scenario(text)
    flat = cd.scenario_values(scn)
    assert flat["position.horizon_years"] == values["position.horizon_days"] / cd.DAYS_PER_YEAR
    again = cd.parse_scenario("".join("%s = %s\n" % kv for kv in flat.items()))
    assert cd.scenario_values(again) == flat
    assert cd.scenario_hash(again) == cd.scenario_hash(scn)
    pairs = ["%s=%s" % kv for kv in flat.items()]
    assert cd.apply_overrides(cd.baseline_scenario("custom"), pairs) == scn


# ---------------------------------------------------------------------------
# the records are the schema

FROZEN_PRESET_HASHES = {
    "baseline": "ef72a8db5210", "table5": "ca0f300bcabd", "sec46": "9a3eca46f94c",
    "jumps": "2151aadf3a84", "sol_ray": "250bb60ac501", "sol_jup": "ca53472fa5fe",
    "eth_arb": "e1a08beb2155",
}

FROZEN_KEY_TYPES = {
    "market.sigma_a": float, "market.sigma_b": float, "market.rho": float,
    "market.mu_a": float, "market.mu_b": float,
    "rates.r_a": float, "rates.r_b": float, "rates.reward_rate": float, "rates.r_f": float,
    "position.v0": float, "position.c_over_v0": float, "position.h": float,
    "position.l_max": float, "position.horizon_days": float, "position.horizon_years": float,
    "sim.n_paths": int, "sim.dt_days": float, "sim.claim_interval_days": float,
    "sim.liq_penalty_frac": float, "sim.borrow_fee_frac": float, "sim.gas_cost": float,
    "sim.rebalance": str, "sim.seed": int, "sim.include_tx_costs": bool,
    "jump.lambda": float, "jump.mu_j": float, "jump.sigma_j": float, "jump.rho_j": float,
    "jump.variance_matched": bool,
}


def test_preset_hashes_are_frozen():
    from ammhedge.experiments import PRESETS, get_preset
    assert {name: cd.scenario_hash(get_preset(name)) for name in PRESETS} == FROZEN_PRESET_HASHES


def test_record_defaults_are_the_baseline():
    from ammhedge.experiments import get_preset
    scn = cd.Scenario(market=cd.MarketParams(), rates=cd.RateParams(),
                      position=cd.PositionParams(), sim=cd.SimConfig())
    assert cd.scenario_hash(scn) == FROZEN_PRESET_HASHES["baseline"]
    assert cd.JumpParams() == get_preset("jumps").jump


def test_scenario_keys_and_types_are_frozen():
    assert cd.SCENARIO_KEYS == tuple(sorted(FROZEN_KEY_TYPES))
    assert len(cd.SCENARIO_KEYS) == 29
    for key, kind in FROZEN_KEY_TYPES.items():
        value = cd._KEY_PARSERS[key]({float: "0.25", int: "7", str: "none", bool: "true"}[kind])
        assert type(value) is kind, key
    # every key a record takes has a default, so any subset of keys builds
    for _, record in cd._SECTIONS:
        assert all(f.default is not dataclasses.MISSING for f in dataclasses.fields(record)
                   if f.init), record
    jumps = cd.parse_scenario("jump.rho_j = 0.3\n")
    assert set(cd.scenario_values(jumps)) == set(FROZEN_KEY_TYPES)


@pytest.mark.parametrize("build, key", [
    (lambda: cd.validate(cd.MarketParams(), cd.RateParams(r_a=math.nan), cd.PositionParams()),
     "rates.r_a"),
    (lambda: cd.validate(cd.MarketParams(mu_b=math.inf), cd.RateParams(), cd.PositionParams()),
     "market.mu_b"),
    (lambda: cd.validate_jump(cd.JumpParams(lam=math.nan), cd.MarketParams()), "jump.lambda"),
    (lambda: cd.validate_jump(cd.JumpParams(mu_j=-math.inf, variance_matched=False),
                              cd.MarketParams()), "jump.mu_j"),
    (lambda: cd.validate_sim(cd.SimConfig(dt_days=math.inf)), "sim.dt_days"),
    (lambda: cd.validate_sim(cd.SimConfig(claim_interval_days=math.inf)),
     "sim.claim_interval_days"),
    (lambda: cd.validate_sim(cd.SimConfig(borrow_fee_frac=math.nan)), "sim.borrow_fee_frac"),
])
def test_records_built_in_code_meet_the_number_guard(build, key):
    # the parser refuses nan and inf in text; records built directly must not slip past
    assert "%s must be a finite number" % key in build()
