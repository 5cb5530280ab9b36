import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ammhedge import analytics as an, liquidation_fpt as fpt
from ammhedge.config_domain import MarketParams, RateParams, parse_scenario

# quarter-year horizon; closed-form reference values below are frozen from
# independent scalar evaluation of the formulas
QUARTER = parse_scenario("position.horizon_years = 0.25\n"
                         "position.horizon_days = 91.25\n")
MARKET, RATES, POS = QUARTER.market, QUARTER.rates, QUARTER.position

PHI = 0.07324186
V_GG = 0.233056908206425
V_AA = 0.243114048245848
V_GA = 0.237615085891799
MU0 = 0.136856153063014
COST = 0.0225
H_MV = 0.977381141099306
H_STAR = 0.976723347265299


def test_lp_decay_rate():
    assert abs(an.compute_phi(MARKET) - PHI) < 1e-12
    flat = MarketParams(sigma_a=0.5, sigma_b=0.5, rho=0.0)
    assert abs(an.compute_phi(flat) - 0.0625) < 1e-15
    locked = MarketParams(sigma_a=0.7, sigma_b=0.7, rho=1.0)
    assert an.compute_phi(locked) == 0.0


def test_joint_mgf_exponent():
    assert an.joint_mgf_exponent(1.0, 0.0, MARKET, 0.25) == 0.0
    assert abs(an.joint_mgf_exponent(1.0, 1.0, MARKET, 0.25) - 0.17990064) < 1e-12
    locked = MarketParams(sigma_a=0.7, sigma_b=0.7, rho=1.0)
    assert abs(an.joint_mgf_exponent(0.5, 0.5, locked, 1.0)) < 1e-15


def test_moment_oracle_against_sample_means():
    # exp(exponent) must match the sample mean of pa^a pb^b within 3 SE
    rng = np.random.default_rng(20240915)
    n = 1_000_000
    for _ in range(20):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        sa, sb = rng.uniform(0.2, 1.2, size=2)
        rho = rng.uniform(-0.9, 0.9)
        t = rng.uniform(0.05, 0.5)
        market = MarketParams(sigma_a=sa, sigma_b=sb, rho=rho)
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
        la = -0.5 * sa * sa * t + sa * math.sqrt(t) * z1
        lb = -0.5 * sb * sb * t + sb * math.sqrt(t) * z2
        sample = np.exp(a * la + b * lb)
        mean = float(np.mean(sample))
        se = float(np.std(sample, ddof=1)) / math.sqrt(n)
        expected = math.exp(an.joint_mgf_exponent(a, b, market, t))
        assert abs(mean - expected) < 3.0 * se + 1e-12, (a, b, sa, sb, rho, t)


def test_variance_components_frozen_values():
    m = an.variance_components(MARKET, 0.25)
    assert abs(m.phi - PHI) < 1e-12
    assert math.isclose(m.v_gg, V_GG, rel_tol=1e-12)
    assert math.isclose(m.v_aa, V_AA, rel_tol=1e-12)
    assert math.isclose(m.v_ga, V_GA, rel_tol=1e-12)


def test_variance_components_vanish_at_zero_horizon():
    m = an.variance_components(MARKET, 1e-12)
    assert abs(m.v_gg) < 1e-9 and abs(m.v_aa) < 1e-9 and abs(m.v_ga) < 1e-9


@settings(max_examples=200, deadline=None)
@given(m=st.builds(MarketParams, sigma_a=st.floats(0.05, 2.0), sigma_b=st.floats(0.05, 2.0),
                   rho=st.floats(-0.95, 0.95)),
       t=st.floats(0.02, 2.0))
def test_variance_components_from_moment_exponents(m, t):
    # rebuild each component from E[pa^a pb^b] building blocks, in an order
    # of its own; every term is at most E[(pa + pb)^2], so the two orders
    # agree to a few ulp of that
    mom = an.variance_components(m, t)
    e = lambda a, b: math.exp(an.joint_mgf_exponent(a, b, m, t))
    e_g = e(0.5, 0.5)
    v_gg = e(1.0, 1.0) - e_g * e_g
    v_aa = 0.25 * (e(2.0, 0.0) + e(0.0, 2.0) + 2.0 * e(1.0, 1.0)) - 1.0
    v_ga = 0.5 * (e(1.5, 0.5) + e(0.5, 1.5)) - e_g
    tol = 1e-15 * (e(2.0, 0.0) + e(0.0, 2.0) + 2.0 * e(1.0, 1.0))
    assert math.isclose(mom.v_gg, v_gg, rel_tol=1e-13, abs_tol=tol)
    assert math.isclose(mom.v_aa, v_aa, rel_tol=1e-13, abs_tol=tol)
    assert math.isclose(mom.v_ga, v_ga, rel_tol=1e-13, abs_tol=tol)
    # the first-passage bound's matched vol and v_aa both give log E[A_T^2]:
    # 1 + v_aa and (4 E[A_T^2]) / 4 round alike, so they agree to a few ulp
    assert math.isclose(fpt.sigma_tilde(m, t) ** 2 * t, math.log1p(mom.v_aa), rel_tol=1e-14)
    # the pool decay rate is the same cumulant at one year
    assert an.compute_phi(m) == -an.joint_mgf_exponent(0.5, 0.5, m, 1.0)


def test_variance_components_against_simulation():
    rng = np.random.default_rng(77)
    n = 1_000_000
    t = 0.25
    sa, sb, rho = MARKET.sigma_a, MARKET.sigma_b, MARKET.rho
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    pa = np.exp(-0.5 * sa * sa * t + sa * math.sqrt(t) * z1)
    pb = np.exp(-0.5 * sb * sb * t + sb * math.sqrt(t) * z2)
    g = np.sqrt(pa * pb)
    arith = 0.5 * (pa + pb)
    m = an.variance_components(MARKET, t)
    assert abs(np.var(g) - m.v_gg) / m.v_gg < 0.01
    assert abs(np.var(arith) - m.v_aa) / m.v_aa < 0.01
    cov = float(np.cov(g, arith)[0, 1])
    assert abs(cov - m.v_ga) / m.v_ga < 0.01


def test_pnl_decomposition_frozen_values():
    d = an.pnl_decomposition(MARKET, RATES, POS)
    assert math.isclose(d.mu0, MU0, rel_tol=1e-12)
    assert math.isclose(d.c, COST, rel_tol=1e-15)
    # reward plus collateral yield piece: 0.54/4 + 2 * 0.04/4
    decay = POS.v0 * (math.exp(-an.compute_phi(MARKET) * 0.25) - 1.0)
    assert math.isclose(d.mu0 - decay, 0.155, rel_tol=1e-12)


def test_pnl_decomposition_degenerate_zero():
    locked = MarketParams(sigma_a=0.7, sigma_b=0.7, rho=1.0)
    rates = RateParams(r_a=0.0, r_b=0.0, reward_rate=0.0, r_f=0.0)
    d = an.pnl_decomposition(locked, rates, POS)
    assert d.mu0 == 0.0 and d.c == 0.0


def test_sharpe_reference_points():
    assert abs(an.sharpe(0.6, MARKET, RATES, POS) - 0.65) < 0.01
    assert abs(an.sharpe(0.0, MARKET, RATES, POS) - 0.28) < 0.01


def test_sharpe_scale_invariance():
    big = dataclasses.replace(POS, v0=1000.0)
    for h in (0.0, 0.4, 0.9):
        assert math.isclose(an.sharpe(h, MARKET, RATES, POS),
                            an.sharpe(h, MARKET, RATES, big), rel_tol=1e-12)


def test_sharpe_zero_variance_raises():
    # perfectly correlated equal vols collapse pool and hold at h = 1
    locked = MarketParams(sigma_a=0.7, sigma_b=0.7, rho=1.0)
    with pytest.raises(ValueError):
        an.sharpe(1.0, locked, RATES, POS)


def test_h_star_frozen_value_and_ratio():
    h = an.h_star(MARKET, RATES, POS)
    assert math.isclose(h, H_STAR, rel_tol=1e-12)
    num = MU0 * V_GA - COST * V_GG
    den = MU0 * V_AA - COST * V_GA
    assert abs(num - 0.0273) < 5e-5 and abs(den - 0.0279) < 5e-5
    assert math.isclose(h, num / den, rel_tol=1e-10)


def test_h_min_variance_frozen_value():
    assert math.isclose(an.h_min_variance(MARKET, POS), H_MV, rel_tol=1e-12)


def test_h_star_cost_free_equals_h_mv_exactly():
    free = RateParams(r_a=0.0, r_b=0.0, reward_rate=RATES.reward_rate, r_f=RATES.r_f)
    assert an.h_star(MARKET, free, POS) == an.h_min_variance(MARKET, POS)


def test_h_star_approaches_h_mv_monotonically():
    gaps = []
    for scale in (1.0, 0.3, 0.1, 0.03, 0.01):
        rates = RateParams(r_a=RATES.r_a * scale, r_b=RATES.r_b * scale,
                           reward_rate=RATES.reward_rate, r_f=RATES.r_f)
        gaps.append(abs(an.h_star(MARKET, rates, POS) - H_MV))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_h_star_infeasible_when_unprofitable():
    rates = RateParams(r_a=0.03, r_b=0.15, reward_rate=0.0, r_f=0.0)
    d = an.pnl_decomposition(MARKET, rates, POS)
    assert d.mu0 < 0.0
    with pytest.raises(ValueError, match="not positive"):
        an.h_star(MARKET, rates, POS)


def test_first_order_condition_on_fine_grid():
    h_opt = an.h_star(MARKET, RATES, POS)
    sr_opt = an.sharpe(h_opt, MARKET, RATES, POS)
    grid = np.arange(0.0, 1.0005, 0.001)
    best = max(an.sharpe(float(h), MARKET, RATES, POS) for h in grid)
    assert sr_opt >= best - 1e-12


def test_variance_convex_with_minimum_at_h_mv():
    m = an.variance_components(MARKET, 0.25)
    grid = np.arange(0.0, 1.0001, 0.01)
    var = np.array([an.pnl_variance(float(h), m) for h in grid])
    second_diff = var[2:] - 2.0 * var[1:-1] + var[:-2]
    assert np.all(second_diff > 0.0)
    v_at = an.pnl_variance(H_MV, m)
    assert an.pnl_variance(H_MV + 0.01, m) >= v_at
    assert an.pnl_variance(H_MV - 0.01, m) >= v_at


def test_second_order_condition():
    h_opt = an.h_star(MARKET, RATES, POS)
    assert an.verify_soc(h_opt, MARKET, RATES, POS)

    free = RateParams(r_a=0.0, r_b=0.0, reward_rate=RATES.reward_rate, r_f=RATES.r_f)
    for h in (0.1, 0.5, 1.0):
        assert an.verify_soc(h, MARKET, free, POS)

    # heavy borrow cost with thin edge turns the numerator positive at low h
    decay = POS.v0 * (math.exp(-an.compute_phi(MARKET) * 0.25) - 1.0)
    reward = (0.01 * MU0 - decay) / 0.25
    heavy = RateParams(r_a=3.0, r_b=15.0, reward_rate=reward, r_f=0.0)
    d = an.pnl_decomposition(MARKET, heavy, POS)
    assert math.isclose(d.mu0, 0.01 * MU0, rel_tol=1e-9)
    assert math.isclose(d.c, 100.0 * COST, rel_tol=1e-12)
    assert not an.verify_soc(0.3, MARKET, heavy, POS)
