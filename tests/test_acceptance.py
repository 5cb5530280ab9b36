"""Acceptance battery: every headline result at a fixed tolerance.

One test per claim, so a -v run reads as a pass/fail checklist. Reference
values are frozen for the baseline calibration (sigma_A = 92.2%,
sigma_B = 108.4%, rho = 0.72, reward APR 54%, 2x collateral, 90 days).
The runners stream their own 30k baseline paths; the engine property suite
reads the same paths as one shared matrix.
"""

import math
import time

import pytest

import ammhedge.analytics as an
import ammhedge.experiments as exp
import ammhedge.liquidation_fpt as fpt
import ammhedge.montecarlo as mc
from ammhedge.config_domain import DAYS_PER_YEAR

from conftest import generate_path_matrix, scaled, streamed_paths


@pytest.fixture(scope="module")
def base_scn():
    return exp.get_preset("baseline")


@pytest.fixture(scope="module")
def quarter_scn():
    return exp.get_preset("sec46")


@pytest.fixture(scope="module")
def base_paths(base_scn):
    pos, sim = base_scn.position, base_scn.sim
    return generate_path_matrix(base_scn.market, None, pos.horizon_days,
                                   sim.dt_days, sim.n_paths, sim.seed)


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_constants_and_speed(quarter_scn):
    m, r, pos = quarter_scn.market, quarter_scn.rates, quarter_scn.position
    mom = an.variance_components(m, pos.horizon_years)
    dec = an.pnl_decomposition(m, r, pos)

    assert abs(an.compute_phi(m) - 0.0732) < 5e-4
    assert abs(mom.v_gg - 0.2331) < 5e-4
    assert abs(mom.v_aa - 0.2431) < 5e-4
    assert abs(mom.v_ga - 0.2376) < 5e-4
    assert abs(dec.mu0 - 0.1369) < 5e-4  # v0 = 1, so these are per-dollar
    assert abs(dec.c - 0.0225) < 5e-4
    assert abs(an.h_min_variance(m, pos) - 0.977) < 5e-4
    assert abs(an.h_star(m, r, pos) - 0.977) < 5e-4

    n = 200
    t0 = time.perf_counter()
    for _ in range(n):
        an.variance_components(m, pos.horizon_years)
        an.pnl_decomposition(m, r, pos)
        an.h_min_variance(m, pos)
        an.h_star(m, r, pos)
    per_eval = (time.perf_counter() - t0) / n
    assert per_eval < 1e-3, "closed form took %.3g s per evaluation" % per_eval


def test_sharpe_curve_matches_reference_table(quarter_scn):
    # the reference table was printed from constants rounded to 4 decimals,
    # so reproduce it the same way: round first, then apply the formulas
    m, r, pos = quarter_scn.market, quarter_scn.rates, quarter_scn.position
    mom = an.variance_components(m, pos.horizon_years)
    dec = an.pnl_decomposition(m, r, pos)
    v_gg, v_aa, v_ga = round(mom.v_gg, 4), round(mom.v_aa, 4), round(mom.v_ga, 4)
    mu0, c = round(dec.mu0, 4), round(dec.c, 4)

    h_opt = (mu0 * v_ga - c * v_gg) / (mu0 * v_aa - c * v_ga)
    grid = (0.0, 0.30, 0.50, 0.60, 0.70, 0.80, h_opt, 1.00)
    ref = (0.28, 0.39, 0.53, 0.65, 0.87, 1.29, 3.88, 3.62)
    for h, want in zip(grid, ref):
        sr = (mu0 - c * h) / math.sqrt(v_gg - 2.0 * h * v_ga + h * h * v_aa)
        assert abs(sr - want) <= 0.01, "SR(h=%.4f) = %.4f vs %.2f" % (h, sr, want)


def test_analytic_liquidation_curve_matches_reference(base_scn):
    ref = {0.30: 0.01, 0.40: 0.13, 0.50: 0.66, 0.60: 2.05,
           0.70: 4.82, 0.80: 9.34, 1.00: 24.18}
    for h, want in ref.items():
        got = fpt.liquidation_probability(h, base_scn.market, base_scn.position) * 100.0
        tol = 0.25 if h == 1.00 else 0.10
        assert abs(got - want) <= tol, "P(liq, h=%.2f) = %.3f%% vs %.2f%%" % (h, got, want)


# ---------------------------------------------------------------------------
# simulation vs analytics

def test_mc_liquidation_agrees_with_analytic_bound():
    scn = exp.get_preset("table5")
    t0 = time.perf_counter()
    t = exp.run_analytic_vs_mc(scn)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, "table took %.1f s" % elapsed

    n = t.provenance["n_paths"]
    assert n == 50000
    no_claims, claims = t.extra["no_claims"], t.extra["claims"]
    for h in t.extra["grid"]:
        ana = fpt.liquidation_probability(h, scn.market, scn.position) * 100.0
        p_no = no_claims[h].p_liq * 100.0
        if h <= 0.70:
            assert abs(p_no - ana) < 0.30, \
                "h=%.2f: MC %.3f%% vs analytic %.3f%%" % (h, p_no, ana)
        if h >= 0.50:
            # claims retire debt pathwise, so the paired difference is clean
            d = no_claims[h].p_liq - claims[h].p_liq
            se_d = math.sqrt(max(d * (1.0 - d), 0.0) / n)
            assert d > 2.0 * se_d, \
                "h=%.2f: claim benefit %.4fpp vs 2se %.4fpp" % (h, d * 100, 2e2 * se_d)


def test_hedge_grid_headline_statistics(base_scn):
    t = exp.run_hedge_grid(base_scn)
    stats = t.extra["stats"]
    assert abs(stats[0.60].sr_raw - 0.931) <= 0.05
    assert abs(stats[0.65].sr_raw - 0.951) <= 0.05
    assert abs(stats[1.00].sr_raw - (-0.03)) <= 0.06
    assert abs(stats[0.60].p_liq * 100.0 - 1.4) <= 0.4
    assert abs(stats[1.00].p_liq * 100.0 - 19.2) <= 0.8
    assert exp.argmax_h(t.extra["grid"], stats) in (0.60, 0.65)
    # the tail risk cliff between 70% and 80% hedging
    assert stats[0.80].var5_pp <= stats[0.70].var5_pp - 10.0


def test_full_hedge_liquidation_outcomes(base_scn):
    t = exp.run_liquidation_stats(base_scn)
    st_no, st_cl = t.extra["no_claims"], t.extra["claims"]
    assert abs(st_no.p_liq * 100.0 - 23.0) <= 1.0
    assert abs(st_cl.p_liq * 100.0 - 19.2) <= 1.0
    assert abs(st_no.mean_max_ltv * 100.0 - 70.2) <= 1.5
    benefit = (st_no.p_liq - st_cl.p_liq) * 100.0
    assert 2.0 <= benefit <= 6.0, "claim benefit %.2fpp" % benefit


def test_jump_stress_optimum_and_sharpe_windows(base_scn):
    out = exp.run_jump_stress(base_scn)
    per_scn = out["jump_stress"].extra["per_scenario"]
    for combo in ((0.80, True), (0.30, True), (0.80, False), (0.30, False)):
        h_opt, _ = per_scn[combo]
        assert h_opt == 0.65, "rho_j=%.2f matched=%s picked h=%.2f" % (*combo, h_opt)
    sr_matched = per_scn[(0.80, True)][1][0.65].sr_raw
    sr_unmatched = per_scn[(0.80, False)][1][0.65].sr_raw
    assert abs(sr_matched - 0.94) <= 0.05
    assert 0.75 <= sr_unmatched <= 0.89


def test_rebalancing_improves_sharpe_in_order(base_scn):
    t = exp.run_rebalancing_comparison(base_scn)
    stats = t.extra["stats"]
    order = ["No rebalance", "Threshold 20pp", "Threshold 15pp", "Threshold 10pp"]
    hd = base_scn.position.horizon_days
    for prev, nxt in zip(order, order[1:]):
        se = max(exp._sr_se(stats[prev], hd), exp._sr_se(stats[nxt], hd))
        assert stats[nxt].sr_raw >= stats[prev].sr_raw - se, \
            "%s (%.3f) vs %s (%.3f)" % (nxt, stats[nxt].sr_raw, prev, stats[prev].sr_raw)
    assert abs(stats["Threshold 15pp"].sr_raw - 1.148) <= 0.07
    assert stats["Every 30 days"].avg_rebalances == 3.0


# ---------------------------------------------------------------------------
# structural properties

def test_engine_property_suite(base_scn, base_paths):
    m, pos = base_scn.market, base_scn.position
    rel_a, rel_b = base_paths
    n = rel_a.shape[0]

    # terminal prices are martingales under the zero-drift calibration
    for leg in (rel_a[:, -1], rel_b[:, -1]):
        se = leg.std(ddof=1) / math.sqrt(n)
        assert abs(leg.mean() - 1.0) < 3.0 * se

    # sampled joint moment vs the closed-form exponent, 3 SE window
    prod = rel_a[:, -1] * rel_b[:, -1]
    want = math.exp(an.joint_mgf_exponent(1.0, 1.0, m, pos.horizon_years))
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - want) < 3.0 * se

    # closed-form P&L variance is convex in h with its minimum at h_mv
    mom = an.variance_components(m, pos.horizon_years)
    grid = [0.05 * i for i in range(21)]
    var = [an.pnl_variance(h, mom) for h in grid]
    second = [var[i + 1] - 2.0 * var[i] + var[i - 1] for i in range(1, len(var) - 1)]
    assert all(d > 0 for d in second)
    h_mv = an.h_min_variance(m, pos)
    assert min(grid, key=lambda h: an.pnl_variance(h, mom)) == pytest.approx(h_mv, abs=0.05)

    # liquidation risk grows with the hedge ratio, analytically and in MC
    probs = [fpt.liquidation_probability(h, m, pos) for h in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    hs = (0.4, 0.6, 0.8, 1.0)
    stats, = exp._score([scaled(base_scn, 4000)], hs)  # the first 4000 of these paths
    mc_liq = [stats[h].p_liq for h in hs]
    assert all(b >= a for a, b in zip(mc_liq, mc_liq[1:]))

    # the safe-ratio bisection brackets its root
    hb = fpt.h_bar(0.05, m, pos)
    assert fpt.liquidation_probability(hb - 1e-6, m, pos) <= 0.05
    assert fpt.liquidation_probability(hb + 1e-3, m, pos) > 0.05

    # path generation is invariant to the worker count
    a1, b1 = streamed_paths(m, None, 90.0, 1.0, 2 * mc.BLOCK + 100, 42, n_workers=1)
    a3, b3 = streamed_paths(m, None, 90.0, 1.0, 2 * mc.BLOCK + 100, 42, n_workers=3)
    assert (a1 == a3).all() and (b1 == b3).all()


# ---------------------------------------------------------------------------
# sensitivity sweeps

def test_sensitivity_optima_track_reference(base_scn):
    step = 5.0 + 1e-9

    apr = exp.reproduce("apr", base_scn)[0]
    for row, want in zip(apr.rows, (0.0, 40.0, 50.0, 60.0, 60.0, 70.0, 70.0)):
        assert abs(row[1] - want) <= step, "apr %.0f%%: h=%.0f vs %.0f" % (row[0], row[1], want)
    assert apr.rows[0][2] <= 0.05  # 10% reward APR cannot carry the costs

    vol = exp.reproduce("vol", base_scn)[0]
    for row, want in zip(vol.rows, (70.0, 60.0, 50.0)):
        assert abs(row[3] - want) <= step, "vol %s: h=%.0f vs %.0f" % (row[0], row[3], want)

    pen = exp.reproduce("penalty", base_scn)[0]
    for row, want in zip(pen.rows, (80.0, 65.0, 60.0)):
        assert abs(row[1] - want) <= step, "penalty %.0f%%: h=%.0f vs %.0f" % (row[0], row[1], want)

    cv = exp.reproduce("cv", base_scn)[0]
    for row, want in zip(cv.rows, (30.0, 50.0, 60.0, 65.0, 80.0, 80.0, 90.0, 100.0)):
        assert abs(row[1] - want) <= step, "cv %.1f: h=%.0f vs %.0f" % (row[0], row[1], want)
