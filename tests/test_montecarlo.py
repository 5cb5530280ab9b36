"""Path engine tests: determinism, distributional oracles, accounting parity."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ammhedge.montecarlo as mc
from ammhedge.config_domain import (DAYS_PER_YEAR, JumpParams, MarketParams, PositionParams,
                                    RateParams, ScenarioError, SimConfig, validate_sim)

from scalar_oracle import simulate_path

# hand-derived flat-market ROE: T * (reward - h*(r_a+r_b)/2 + cv*r_f) / pi0
FLAT_PATH_ROE = 0.058150684932


def _flat_paths(baseline, n=1):
    steps = int(round(baseline.position.horizon_days / baseline.sim.dt_days))
    return np.ones((n, steps + 1)), np.ones((n, steps + 1))


# ---------------------------------------------------------------------------
# path generation

def test_path_matrix_shape_and_start(baseline):
    m = baseline.market
    a, b = mc.generate_path_matrix(m, None, 90.0, 1.0 / 3.0, 100, seed=1)
    assert a.shape == b.shape == (100, 271)
    assert np.all(a[:, 0] == 1.0) and np.all(b[:, 0] == 1.0)
    assert np.all(a > 0) and np.all(b > 0)


def test_same_seed_reproduces_paths(baseline):
    m = baseline.market
    a1, b1 = mc.generate_path_matrix(m, None, 90.0, 1.0, 500, seed=11)
    a2, b2 = mc.generate_path_matrix(m, None, 90.0, 1.0, 500, seed=11)
    a3, _ = mc.generate_path_matrix(m, None, 90.0, 1.0, 500, seed=12)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, a3)


def test_worker_count_does_not_change_paths(baseline):
    m = baseline.market
    a1, b1 = mc.generate_path_matrix(m, None, 90.0, 1.0, 20000, seed=3, n_workers=1)
    a4, b4 = mc.generate_path_matrix(m, None, 90.0, 1.0, 20000, seed=3, n_workers=4)
    assert np.array_equal(a1, a4) and np.array_equal(b1, b4)


def test_path_count_prefix_property(baseline):
    # growing n_paths must extend the sample, not reshuffle it
    m = baseline.market
    a_small, b_small = mc.generate_path_matrix(m, None, 90.0, 1.0, 9000, seed=3)
    a_big, b_big = mc.generate_path_matrix(m, None, 90.0, 1.0, 20000, seed=3)
    assert np.array_equal(a_big[:9000], a_small)
    assert np.array_equal(b_big[:9000], b_small)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * mc.BLOCK + 300), workers=st.sampled_from([1, 2]),
       seed=st.integers(0, 3))
def test_paths_are_prefix_and_worker_invariant(baseline, n, workers, seed):
    # two days at a third of a day: full 8192-path blocks stay cheap
    m = baseline.market
    a_ref, b_ref = mc.generate_path_matrix(m, None, 2.0, 1.0 / 3.0, 3 * mc.BLOCK, seed)
    a, b = mc.generate_path_matrix(m, None, 2.0, 1.0 / 3.0, n, seed, n_workers=workers)
    assert np.array_equal(a, a_ref[:n]) and np.array_equal(b, b_ref[:n])


def test_zero_intensity_jump_is_plain_gbm(baseline):
    m = baseline.market
    off = JumpParams(lam=0.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8)
    a0, b0 = mc.generate_path_matrix(m, None, 90.0, 1.0, 300, seed=5)
    a1, b1 = mc.generate_path_matrix(m, off, 90.0, 1.0, 300, seed=5)
    assert np.array_equal(a0, a1) and np.array_equal(b0, b1)


def _reference_block(market, jump, steps, dt_days, seed, block_idx):
    """Plain out-of-place generator for one block: the bit-identity oracle."""
    dt_y = dt_days / DAYS_PER_YEAR
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
    za = rng.standard_normal((mc.BLOCK, steps))
    zb = rng.standard_normal((mc.BLOCK, steps))
    zb = market.rho * za + math.sqrt(1.0 - market.rho * market.rho) * zb
    sd_a, sd_b = market.sigma_a, market.sigma_b
    extra_a = extra_b = 0.0
    if jump is not None and jump.lam > 0:
        if jump.variance_matched:
            jump_var = jump.lam * (jump.mu_j ** 2 + jump.sigma_j ** 2)
            sd_a = math.sqrt(sd_a * sd_a - jump_var)
            sd_b = math.sqrt(sd_b * sd_b - jump_var)
        rng_j = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx, 2)))
        shape = (mc.BLOCK, steps)
        kc = rng_j.poisson(jump.lam * jump.rho_j * dt_y, shape)
        ea = rng_j.standard_normal(shape)
        ka = kc + rng_j.poisson(jump.lam * (1.0 - jump.rho_j) * dt_y, shape)
        eb = rng_j.standard_normal(shape)
        kb = kc + rng_j.poisson(jump.lam * (1.0 - jump.rho_j) * dt_y, shape)
        kappa = math.exp(jump.mu_j + 0.5 * jump.sigma_j ** 2) - 1.0
        extra_a = jump.mu_j * ka + jump.sigma_j * np.sqrt(ka) * ea - jump.lam * kappa * dt_y
        extra_b = jump.mu_j * kb + jump.sigma_j * np.sqrt(kb) * eb - jump.lam * kappa * dt_y
    inc_a = (market.mu_a - 0.5 * sd_a * sd_a) * dt_y + sd_a * math.sqrt(dt_y) * za + extra_a
    inc_b = (market.mu_b - 0.5 * sd_b * sd_b) * dt_y + sd_b * math.sqrt(dt_y) * zb + extra_b
    rel_a = np.empty((mc.BLOCK, steps + 1))
    rel_b = np.empty((mc.BLOCK, steps + 1))
    rel_a[:, 0] = 1.0
    rel_b[:, 0] = 1.0
    np.exp(np.cumsum(inc_a, axis=1), out=rel_a[:, 1:])
    np.exp(np.cumsum(inc_b, axis=1), out=rel_b[:, 1:])
    return rel_a, rel_b


@pytest.mark.parametrize("jump", [
    None,
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=True),
])
def test_path_matrix_matches_out_of_place_reference(baseline, jump):
    # production grid (270 steps), a partial second block, one and two workers
    m = baseline.market
    n = mc.BLOCK + 777
    blocks = [_reference_block(m, jump, 270, 1.0 / 3.0, 17, bi) for bi in range(2)]
    ref_a = np.vstack([blk[0] for blk in blocks])[:n]
    ref_b = np.vstack([blk[1] for blk in blocks])[:n]
    for workers in (1, 2):
        a, b = mc.generate_path_matrix(m, jump, 90.0, 1.0 / 3.0, n, seed=17, n_workers=workers)
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b), workers


def test_path_matrix_is_column_major(baseline):
    a, b = mc.generate_path_matrix(baseline.market, None, 30.0, 1.0, 50, seed=1)
    assert a.flags.f_contiguous and b.flags.f_contiguous


def test_grid_must_divide_horizon(baseline):
    with pytest.raises(ValueError, match="does not divide"):
        mc.generate_path_matrix(baseline.market, None, 90.0, 0.7, 10, seed=1)
    # a configuration error: the CLI reports it with exit status 1
    with pytest.raises(ScenarioError, match="0.333333 does not divide horizon_days = 91.25"):
        mc.generate_path_matrix(baseline.market, None, 91.25, 1.0 / 3.0, 10, seed=1)


def test_log_increment_moments(baseline):
    m = baseline.market
    n = 65536
    a, b = mc.generate_path_matrix(m, None, 1.0, 1.0, n, seed=21)
    la = np.log(a[:, 1])
    lb = np.log(b[:, 1])
    dt_y = 1.0 / DAYS_PER_YEAR

    for x, sig in ((la, m.sigma_a), (lb, m.sigma_b)):
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - (-0.5 * sig * sig * dt_y)) < 3.0 * se
        assert x.std(ddof=1) * math.sqrt(DAYS_PER_YEAR) == pytest.approx(sig, rel=0.01)
    assert np.corrcoef(la, lb)[0, 1] == pytest.approx(m.rho, abs=0.01)


def test_perfect_correlation_links_legs():
    m = MarketParams(sigma_a=0.8, sigma_b=1.2, rho=1.0)
    a, b = mc.generate_path_matrix(m, None, 1.0, 1.0, 2000, seed=2)
    dt_y = 1.0 / DAYS_PER_YEAR
    # one shared driver: centered log returns are proportional across legs
    ca = np.log(a[:, 1]) + 0.5 * m.sigma_a ** 2 * dt_y
    cb = np.log(b[:, 1]) + 0.5 * m.sigma_b ** 2 * dt_y
    assert np.allclose(ca * m.sigma_b, cb * m.sigma_a, atol=1e-13)


def test_jump_overlay_variance_and_martingale(baseline):
    m = baseline.market
    n = 65536
    t_y = 90.0 / DAYS_PER_YEAR

    def terminal(jump):
        a, b = mc.generate_path_matrix(m, jump, 90.0, 1.0, n, seed=33)
        return a[:, -1], b[:, -1]

    matched = JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8,
                         variance_matched=True)
    raw = dataclasses.replace(matched, variance_matched=False)

    a_g, b_g = terminal(None)
    a_m, b_m = terminal(matched)
    a_r, _ = terminal(raw)

    # compensated drift keeps every variant a martingale
    for x in (a_g, b_g, a_m, b_m, a_r):
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - 1.0) < 3.0 * se

    # variance matching holds the terminal log variance at the GBM level
    assert np.log(a_m).var(ddof=1) == pytest.approx(m.sigma_a ** 2 * t_y, rel=0.02)
    assert np.log(b_m).var(ddof=1) == pytest.approx(m.sigma_b ** 2 * t_y, rel=0.02)
    # without matching the jumps add lam*T*(mu_j^2 + sigma_j^2) on top
    assert np.log(a_r).var(ddof=1) > m.sigma_a ** 2 * t_y * 1.08


# ---------------------------------------------------------------------------
# accounting

def test_flat_path_accounting_oracle(baseline):
    rel_a, rel_b = _flat_paths(baseline)
    batch = mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                              baseline.position, baseline.sim)
    assert batch.roe_raw[0] == pytest.approx(FLAT_PATH_ROE, abs=1e-10)
    assert batch.roe[0] == batch.roe_raw[0]  # costs off by default
    assert not batch.liquidated[0] and math.isnan(batch.liq_time_days[0])
    assert batch.n_claims[0] == 6  # every 14 days inside 90
    assert batch.n_rebalances[0] == 0
    assert 0.30 < batch.max_ltv[0] < 0.31
    assert batch.tx_cost_paid[0] == pytest.approx(0.003 * 0.6, abs=1e-15)
    assert batch.roe_raw[0] - batch.roe_tx[0] == pytest.approx(0.0018 / 2.4, abs=1e-15)

    one = simulate_path(rel_a[0], rel_b[0], baseline.rates, baseline.position, baseline.sim)
    assert one["roe"] == pytest.approx(batch.roe[0], abs=1e-12)
    assert one["max_ltv"] == pytest.approx(batch.max_ltv[0], abs=1e-12)


def test_immediate_crash_pays_flat_penalty(baseline):
    # both tokens double on the first step at full hedge: instant breach
    pos = dataclasses.replace(baseline.position, h=1.0)
    rel_a, rel_b = _flat_paths(baseline)
    rel_a[:, 1:] = 2.0
    rel_b[:, 1:] = 2.0
    batch = mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                              pos, baseline.sim)
    assert batch.liquidated[0]
    assert batch.liq_time_days[0] == pytest.approx(baseline.sim.dt_days, abs=1e-12)
    assert batch.roe_raw[0] == -0.2  # penalty*coll / pi0 exactly
    one = simulate_path(rel_a[0], rel_b[0], baseline.rates, pos, baseline.sim)
    assert one["liquidated"] and one["roe"] == -0.2
    assert one["liq_time_days"] == pytest.approx(baseline.sim.dt_days, abs=1e-12)


def test_breached_paths_keep_diagnostics_but_stop_rebalancing(baseline):
    pos = dataclasses.replace(baseline.position, h=1.0)
    sim = dataclasses.replace(baseline.sim, rebalance="periodic(30)")
    rel_a, rel_b = _flat_paths(baseline, n=2)
    rel_a[0, 1:] = 2.0
    rel_b[0, 1:] = 2.0
    rel_a[0, 2:] = 3.0  # keeps climbing after the breach
    rel_b[0, 2:] = 3.0
    batch = mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates, pos, sim)
    assert batch.liquidated[0] and not batch.liquidated[1]
    assert batch.max_ltv[0] > 1.4  # post-breach excursion still tracked
    assert batch.n_rebalances[0] == 0  # no trades after liquidation
    assert batch.n_rebalances[1] == 3


def test_periodic_rule_counts_rebalances(baseline):
    sim = dataclasses.replace(baseline.sim, dt_days=1.0, rebalance="periodic(30)")
    paths = mc.generate_path_matrix(baseline.market, None, 90.0, 1.0, 2000, seed=42)
    batch = mc.simulate_batch(paths[0], paths[1], baseline.market, baseline.rates,
                              baseline.position, sim)
    alive = ~batch.liquidated
    assert alive.any()
    assert np.all(batch.n_rebalances[alive] == 3)
    assert np.all(batch.n_rebalances <= 3)


@settings(max_examples=50, deadline=None)
@given(dt_days=st.sampled_from([2.0, 1.0, 0.5, 1.0 / 3.0, 0.25]), days=st.integers(1, 60),
       claim_days=st.integers(1, 40), period_days=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
def test_event_counts_are_whole_intervals(baseline, dt_days, days, claim_days, period_days, seed):
    # h = 0 carries no debt, so no path is liquidated and every event fires;
    # a 2-day step needs even spans, any 1/k-day step divides whole days
    unit = 2 if dt_days == 2.0 else 1
    horizon, claim, period = days * unit, claim_days * unit, period_days * unit
    pos = dataclasses.replace(baseline.position, h=0.0, horizon_days=float(horizon))
    steps = int(round(horizon / dt_days))
    rng = np.random.default_rng(seed)
    sd = 2.0 * math.sqrt(dt_days / DAYS_PER_YEAR)
    rel = np.ones((2, 3, steps + 1))
    rel[:, :, 1:] = np.exp(np.cumsum(sd * rng.standard_normal((2, 3, steps)), axis=2))
    for rule in ("none", "periodic(%d)" % period):
        sim = dataclasses.replace(baseline.sim, dt_days=dt_days, claim_interval_days=float(claim),
                                  rebalance=rule)
        assert validate_sim(sim) == []
        batch = mc.simulate_batch(rel[0], rel[1], baseline.market, baseline.rates, pos, sim)
        assert not batch.liquidated.any()
        assert np.all(batch.n_claims == horizon // claim)
        assert np.all(batch.n_rebalances == (horizon // period if rule != "none" else 0))


def _assert_kernel_matches_oracle(rel_a, rel_b, rates, pos, sim):
    batch = mc.simulate_batch(rel_a, rel_b, None, rates, pos, sim)
    for i in range(rel_a.shape[0]):
        one = simulate_path(rel_a[i], rel_b[i], rates, pos, sim)
        assert one["roe"] == pytest.approx(batch.roe[i], abs=1e-10), i
        assert one["liquidated"] == batch.liquidated[i], i
        if one["liquidated"]:
            assert one["liq_time_days"] == pytest.approx(batch.liq_time_days[i], abs=1e-9)
        else:
            assert one["liq_time_days"] is None and math.isnan(batch.liq_time_days[i])
        assert one["max_ltv"] == pytest.approx(batch.max_ltv[i], abs=1e-10), i
        assert one["n_rebalances"] == batch.n_rebalances[i], i
        assert one["n_claims"] == batch.n_claims[i], i
        assert one["tx_cost_paid"] == pytest.approx(batch.tx_cost_paid[i], abs=1e-12), i


@pytest.mark.parametrize("sim_changes", [
    dict(rebalance="threshold(15)"),
    dict(rebalance="periodic(30)", include_tx_costs=True, gas_cost=0.001),
])
def test_scalar_and_vector_kernels_agree(baseline, sim_changes):
    pos = dataclasses.replace(baseline.position, h=0.8)
    sim = dataclasses.replace(baseline.sim, **sim_changes)
    rel_a, rel_b = mc.generate_path_matrix(baseline.market, None, pos.horizon_days,
                                           sim.dt_days, 50, seed=7)
    _assert_kernel_matches_oracle(rel_a, rel_b, baseline.rates, pos, sim)


def _volatile_paths(seed, n, steps, dt_days):
    rng = np.random.default_rng(seed)
    sd = 4.0 * math.sqrt(dt_days / DAYS_PER_YEAR)
    rel = np.ones((2, n, steps + 1))
    rel[:, :, 1:] = np.exp(np.cumsum(sd * rng.standard_normal((2, n, steps)) - 0.5 * sd * sd,
                                     axis=2))
    return rel[0], rel[1]


@settings(max_examples=40, deadline=None)
@given(h=st.floats(0.0, 1.0), cv=st.floats(1.3, 4.0), seed=st.integers(0, 2 ** 16),
       dt_days=st.sampled_from([2.0, 1.0, 0.5, 1.0 / 3.0, 0.25]),
       claim_days=st.sampled_from([0.0, 4.0, 6.0, 14.0]),
       rule=st.sampled_from(["none", "threshold(5)", "threshold(15)", "periodic(2)",
                             "periodic(6)"]),
       gas=st.sampled_from([0.0, 0.001]), tx=st.booleans())
def test_kernel_matches_scalar_oracle(baseline, h, cv, seed, dt_days, claim_days, rule,
                                      gas, tx):
    # volatile random-walk paths over 24 days, so claims, rebalances and
    # liquidations all occur; every interval here is whole days of whole steps
    pos = dataclasses.replace(baseline.position, h=h, c_over_v0=cv, horizon_days=24.0)
    sim = dataclasses.replace(baseline.sim, dt_days=dt_days, claim_interval_days=claim_days,
                              rebalance=rule, gas_cost=gas, include_tx_costs=tx)
    rel_a, rel_b = _volatile_paths(seed, 8, int(round(24.0 / dt_days)), dt_days)
    rates = RateParams(r_a=0.05, r_b=0.20, reward_rate=0.6, r_f=0.04)
    _assert_kernel_matches_oracle(rel_a, rel_b, rates, pos, sim)


def _assert_variants_match_single_passes(rel_a, rel_b, market, rates, pos, sim, variants):
    shared = mc.simulate_batch(rel_a, rel_b, market, rates, pos, sim, variants=variants)
    assert len(shared.pi0) == len(variants)
    for (cv, pen), row in zip(variants, shared.rows()):
        alone = mc.simulate_batch(rel_a, rel_b, market, rates,
                                  dataclasses.replace(pos, c_over_v0=cv),
                                  dataclasses.replace(sim, liq_penalty_frac=pen))
        got, want = dataclasses.asdict(row), dataclasses.asdict(alone)
        for name, value in want.items():
            assert np.array_equal(got[name], value, equal_nan=True), (cv, pen, name)
        assert type(row.pi0) is float
    return shared


@settings(max_examples=40, deadline=None)
@given(h=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16),
       variants=st.lists(st.tuples(st.floats(1.3, 4.0) | st.just(2.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=4),
       claim_days=st.sampled_from([0.0, 2.0, 4.0, 14.0]),
       gas=st.sampled_from([0.0, 0.001]), tx=st.booleans())
def test_shared_pass_matches_single_passes(baseline, h, seed, variants, claim_days, gas, tx):
    # 1-4 (C/V0, penalty) pairs, C/V0 repeating now and then, on volatile
    # 24-day paths so that breaches at some collaterals and not others occur
    pos = dataclasses.replace(baseline.position, h=h, horizon_days=24.0)
    sim = dataclasses.replace(baseline.sim, dt_days=0.5, claim_interval_days=claim_days,
                              gas_cost=gas, include_tx_costs=tx)
    rel_a, rel_b = _volatile_paths(seed, 32, 48, 0.5)
    rates = RateParams(r_a=0.05, r_b=0.20, reward_rate=0.6, r_f=0.04)
    _assert_variants_match_single_passes(rel_a, rel_b, baseline.market, rates, pos, sim,
                                         variants)


@pytest.mark.parametrize("rule", ["threshold(15)", "periodic(14)"])
def test_rebalancing_pass_shares_only_the_penalty(baseline, rule):
    pos = dataclasses.replace(baseline.position, h=0.8)
    sim = dataclasses.replace(baseline.sim, rebalance=rule)
    rel_a, rel_b = _volatile_paths(3, 200, 270, sim.dt_days)
    shared = _assert_variants_match_single_passes(
        rel_a, rel_b, baseline.market, baseline.rates, pos, sim, [(1.8, 0.1), (1.8, 0.3)])
    assert shared.liquidated.any() and shared.n_rebalances.any()
    # C/V0 gates the trigger: a rebalancing pass cannot share it
    with pytest.raises(ValueError, match="one c_over_v0"):
        mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates, pos, sim,
                          variants=[(1.8, 0.1), (3.0, 0.1)])


@pytest.mark.parametrize("rule", ["none", "threshold(15)", "periodic(14)"])
def test_kernel_is_layout_independent(baseline, rule):
    pos = dataclasses.replace(baseline.position, h=0.8)
    sim = dataclasses.replace(baseline.sim, rebalance=rule)
    rel_a, rel_b = mc.generate_path_matrix(baseline.market, None, pos.horizon_days,
                                           sim.dt_days, 2000, seed=7)
    results = [mc.simulate_batch(order(rel_a), order(rel_b), baseline.market, baseline.rates,
                                 pos, sim)
               for order in (np.ascontiguousarray, np.asfortranarray)]
    c_res, f_res = (dataclasses.asdict(r) for r in results)
    assert c_res["liquidated"].any()
    for name, value in c_res.items():
        assert np.array_equal(value, f_res[name], equal_nan=True), name


def _dyadic_paths(seed, n, steps):
    # PCG64 integer draws pick per-step factors 1 + k/64, k in -6..6, and
    # np.cumprod multiplies them up: no exp or log, whose SIMD builds can
    # differ across CPUs, so the paths are the same bits on every platform
    rng = np.random.Generator(np.random.PCG64(seed))
    k = rng.integers(-6, 7, size=(2, n, steps))
    rel = np.ones((2, n, steps + 1))
    rel[:, :, 1:] = np.cumprod(1.0 + k / 64.0, axis=2)
    return rel[0], rel[1]


# sha256 of every BatchResult field over h in (0.3, 0.6, 0.9), claims off and
# on, gas off and on, frozen from the kernel as it stood before the lean step
# loop; any speedup of the kernel must leave each field's bits as they are
KERNEL_DIGESTS = {
    "none": "57f8d0932506f19863206b77ede58db9fa94c53cfc15122d2174173f8d4a9fcb",
    "threshold(10)": "e5f8eb3f5d4436a7bc30fcfd36dbeb520cfb8b02a028ffd955d900227f38b817",
    "periodic(6)": "00591e9aae2164787802f6aa63c83f892f290ef37445834b5941ce19013363ba",
}


@pytest.mark.parametrize("rule", list(KERNEL_DIGESTS))
def test_kernel_fields_match_frozen_digest(rule):
    # the no-rebalance pass scores three (C/V0, penalty) variants at once
    variants = [(1.5, 0.2), (2.5, 0.1), (1.5, 0.4)] if rule == "none" else None
    rel_a, rel_b = _dyadic_paths(2024, 64, 48)
    rates = RateParams(r_a=0.05, r_b=0.20, reward_rate=0.6, r_f=0.04)
    digest, liquidated = hashlib.sha256(), 0
    for h in (0.3, 0.6, 0.9):
        for claim_days in (0.0, 2.0):
            for gas in (0.0, 0.001):
                pos = PositionParams(v0=1.0, c_over_v0=1.5, h=h, l_max=0.8, horizon_days=24.0)
                sim = SimConfig(n_paths=64, dt_days=0.5, claim_interval_days=claim_days,
                                liq_penalty_frac=0.2, borrow_fee_frac=0.003, gas_cost=gas,
                                rebalance=rule, include_tx_costs=True)
                batch = mc.simulate_batch(rel_a, rel_b, None, rates, pos, sim,
                                          variants=variants)
                liquidated += int(np.sum(batch.liquidated))
                for f in dataclasses.fields(batch):
                    v = np.asarray(getattr(batch, f.name))
                    digest.update(("%s %s %s;" % (f.name, v.dtype.str, v.shape)).encode())
                    digest.update(np.ascontiguousarray(v).tobytes())
    assert liquidated > 0
    assert digest.hexdigest() == KERNEL_DIGESTS[rule]


COLLATERALS = st.floats(1e-200, 1e200)
LTV_CAPS = st.floats(1e-9, 1.0, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(coll=COLLATERALS, l_max=LTV_CAPS)
def test_breach_level_is_the_least_breaching_debt(coll, l_max):
    level = mc._breach_level(coll, l_max)
    assert level / coll >= l_max
    assert math.nextafter(level, -math.inf) / coll < l_max


@settings(max_examples=300, deadline=None)
@given(coll=COLLATERALS, l_max=LTV_CAPS, ulps=st.integers(-4, 4),
       ratio=st.floats(0.0, 2.0), anywhere=st.floats(allow_nan=False))
def test_debt_level_test_equals_the_ltv_test(coll, l_max, ulps, ratio, anywhere):
    # near the level, around the cap, and at any double: D >= L iff fl(D / C) >= l_max
    level = mc._breach_level(coll, l_max)
    near = level
    for _ in range(abs(ulps)):
        near = math.nextafter(near, math.copysign(math.inf, ulps))
    for debt in (near, ratio * l_max * coll, anywhere):
        assert (debt >= level) == (debt / coll >= l_max), debt
    debts = np.array([near, ratio * l_max * coll, anywhere])
    with np.errstate(over="ignore"):  # a quotient past the largest double is inf
        assert np.array_equal(debts >= level, debts / coll >= l_max)


@pytest.mark.parametrize("cv, l_max", [(1.3, 0.75), (1.3, 0.95), (1.4, 0.6), (2.0, 0.8)])
def test_kernel_breaches_at_the_exact_level(cv, l_max):
    # no rates, claims or rebalancing: at h = 0.5 a one-step path to 2D on
    # both legs carries a debt of exactly D. In the first three cases
    # l_max * C is one ulp off the level, so a D >= l_max * C test would flip
    level = mc._breach_level(cv, l_max)
    debts = np.array([level, math.nextafter(level, -math.inf), l_max * cv])
    rel = np.ones((3, 2))
    rel[:, 1] = 2.0 * debts
    pos = PositionParams(v0=1.0, c_over_v0=cv, h=0.5, l_max=l_max, horizon_days=1.0)
    sim = SimConfig(n_paths=3, dt_days=1.0, claim_interval_days=0.0)
    batch = mc.simulate_batch(rel, rel, None, RateParams(0.0, 0.0, 0.0, 0.0), pos, sim)
    assert np.array_equal(batch.liquidated, debts / cv >= l_max)
    assert list(batch.liquidated[:2]) == [True, False]
    assert np.array_equal(batch.max_ltv, debts / cv)


@settings(max_examples=200, deadline=None)
@given(coll=COLLATERALS, debts=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40))
def test_max_ltv_is_the_max_debt_over_collateral(coll, debts):
    debts = np.array(debts)
    with np.errstate(over="ignore"):  # a quotient past the largest double is inf
        assert np.max(debts / coll) == np.max(debts) / coll


def test_batch_rejects_mismatched_grid(baseline):
    rel_a, rel_b = mc.generate_path_matrix(baseline.market, None, 90.0, 1.0, 3, seed=1)
    with pytest.raises(ValueError, match="does not match sim.dt_days"):
        mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                          baseline.position, baseline.sim)


def test_claim_interval_below_grid_step_rejected(baseline):
    sim = dataclasses.replace(baseline.sim, claim_interval_days=0.1)
    rel_a, rel_b = _flat_paths(baseline)
    with pytest.raises(ValueError, match="claim_interval_days"):
        mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                          baseline.position, sim)


def test_rebalance_rule_state_transitions(baseline):
    # two daily steps, no rates, claims or fees, so the P&L is pure accounting
    pos = dataclasses.replace(baseline.position, horizon_days=2.0)
    sim = dataclasses.replace(baseline.sim, dt_days=1.0, claim_interval_days=0.0,
                              borrow_fee_frac=0.0, rebalance="threshold(15)")
    rates = RateParams(r_a=0.0, r_b=0.0, reward_rate=0.0, r_f=0.0)
    rel_a = np.array([[1.0, 1.4, 1.4], [1.0, 2.25, 2.25]])
    rel_b = np.ones((2, 3))
    batch = mc.simulate_batch(rel_a, rel_b, None, rates, pos, sim)
    # A at 1.4 leaves both legs' hedge ratios (0.71, 0.51) inside 0.60 +- 0.15
    assert batch.n_rebalances[0] == 0
    assert batch.roe_raw[0] == pytest.approx((1.4 ** 0.5 + 2.0 - 0.72 - 2.4) / 2.4, abs=1e-15)
    # A at 2.25 puts leg A at 0.90: one reset of both debts to h * lp = 0.6 * 1.5,
    # booking gross - h * lp = 0.975 - 0.9 to cash; at target, day 2 stays put
    assert batch.n_rebalances[1] == 1
    assert batch.roe_raw[1] == pytest.approx((1.5 + 0.075 + 2.0 - 0.9 - 2.4) / 2.4, abs=1e-15)


# ---------------------------------------------------------------------------
# aggregation and output

def _mk_batch(roes, liq, ltv, reb, tx=0.0, pi0=2.4):
    roe = np.array(roes)
    return mc.BatchResult(
        roe=roe, roe_raw=roe, roe_tx=roe - tx / pi0, liquidated=np.array(liq),
        liq_time_days=np.where(liq, 40.0, np.nan), max_ltv=np.array(ltv),
        n_rebalances=np.array(reb), n_claims=np.zeros(len(roes), dtype=np.int64),
        tx_cost_paid=np.full(len(roes), tx), pi0=pi0)


def test_aggregate_matches_numpy_reductions():
    roes = [0.10, -0.02, 0.04, -0.20]
    batch = _mk_batch(roes, liq=[False, False, False, True], ltv=[0.4, 0.5, 0.6, 0.9],
                      reb=[1, 2, 3, 7])
    agg = mc.aggregate(batch, 90.0)
    arr = np.array(roes)
    assert agg.e_roe_pp == pytest.approx(arr.mean() * 100.0)
    assert agg.std_pp == pytest.approx(arr.std(ddof=1) * 100.0)
    assert agg.p_loss == 0.5
    assert agg.p_liq == 0.25
    assert agg.avg_rebalances == 2.0  # liquidated path excluded
    assert agg.var5_pp == pytest.approx(np.percentile(arr, 5.0) * 100.0)
    assert agg.p95_max_ltv == pytest.approx(np.percentile([0.4, 0.5, 0.6, 0.9], 95.0))
    ann = math.sqrt(DAYS_PER_YEAR / 90.0)
    assert agg.sr_raw == pytest.approx(arr.mean() / arr.std(ddof=1) * ann)
    assert agg.n_paths == 4

    # the funding hurdle only shifts the numerator
    agg_rf = mc.aggregate(batch, 90.0, r_f=0.04)
    want = (arr.mean() - 0.04 * 90.0 / DAYS_PER_YEAR) / arr.std(ddof=1) * ann
    assert agg_rf.sr_raw == pytest.approx(want)


def test_aggregate_cost_basis_needs_equity_base():
    batch = _mk_batch([0.05, -0.01], liq=[False, False], ltv=[0.4, 0.4], reb=[0, 0],
                      tx=0.0018)
    agg = mc.aggregate(batch, 90.0)
    shifted = np.array([0.05, -0.01]) - 0.0018 / 2.4
    ann = math.sqrt(DAYS_PER_YEAR / 90.0)
    assert agg.sr_tx == pytest.approx(shifted.mean() / shifted.std(ddof=1) * ann)
    assert agg.sr_raw == pytest.approx(np.mean([0.05, -0.01]) / np.std([0.05, -0.01], ddof=1) * ann)


def test_aggregate_degenerate_samples(baseline):
    # a single path or a zero-variance sample reports NaN dispersion stats
    rel_a, rel_b = _flat_paths(baseline)
    batch = mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                              baseline.position, baseline.sim)
    agg1 = mc.aggregate(batch, 90.0)
    assert math.isnan(agg1.std_pp) and math.isnan(agg1.sr_raw)
    assert agg1.e_roe_pp == pytest.approx(FLAT_PATH_ROE * 100.0, abs=1e-8)

    rel_a2, rel_b2 = _flat_paths(baseline, n=2)
    batch2 = mc.simulate_batch(rel_a2, rel_b2, baseline.market, baseline.rates,
                               baseline.position, baseline.sim)
    agg2 = mc.aggregate(batch2, 90.0)
    assert agg2.std_pp == 0.0 and math.isnan(agg2.sr_raw)


def test_run_scenario_accepts_prebuilt_paths(small_scn, small_paths):
    direct = mc.run_scenario(small_scn, paths=small_paths)
    regenerated = mc.run_scenario(small_scn)
    assert direct == regenerated


def test_write_path_dump_roundtrip(tmp_path, baseline):
    pos = dataclasses.replace(baseline.position, h=1.0)
    rel_a, rel_b = _flat_paths(baseline, n=2)
    rel_a[1, 1:] = 2.0
    rel_b[1, 1:] = 2.0
    batch = mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                              pos, baseline.sim)
    out = tmp_path / "paths.csv"
    mc.write_path_dump(batch, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path_id,roe,liquidated,liq_day,max_ltv,n_rebalances"
    assert len(lines) == 3
    f0 = lines[1].split(",")
    f1 = lines[2].split(",")
    assert f0[0] == "0" and f1[0] == "1"
    assert f0[2] == "0" and f0[3] == ""  # survivor: no liquidation day
    assert f1[2] == "1" and float(f1[3]) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert float(f1[1]) == pytest.approx(batch.roe[1], rel=1e-9)
