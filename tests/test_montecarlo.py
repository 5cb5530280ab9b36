"""Path engine tests: determinism, distributional oracles, accounting parity."""

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ammhedge.montecarlo as mc
from ammhedge.analytics import pnl_decomposition, pnl_variance, variance_components
from ammhedge.config_domain import (DAYS_PER_YEAR, JumpParams, MarketParams, PositionParams,
                                    RateParams, Scenario, ScenarioError, SimConfig,
                                    validate_scenario, validate_sim)
from ammhedge.experiments import PRESETS, get_preset

from conftest import generate_path_matrix, streamed_paths
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
    a, b = generate_path_matrix(m, None, 90.0, 1.0 / 3.0, 100, seed=1)
    assert a.shape == b.shape == (100, 271)
    assert np.all(a[:, 0] == 1.0) and np.all(b[:, 0] == 1.0)
    assert np.all(a > 0) and np.all(b > 0)


def test_same_seed_reproduces_paths(baseline):
    m = baseline.market
    a1, b1 = generate_path_matrix(m, None, 90.0, 1.0, 500, seed=11)
    a2, b2 = generate_path_matrix(m, None, 90.0, 1.0, 500, seed=11)
    a3, _ = generate_path_matrix(m, None, 90.0, 1.0, 500, seed=12)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, a3)


def test_worker_count_does_not_change_paths(baseline):
    m = baseline.market
    a1, b1 = streamed_paths(m, None, 90.0, 1.0, 20000, seed=3, n_workers=1)
    a4, b4 = streamed_paths(m, None, 90.0, 1.0, 20000, seed=3, n_workers=4)
    assert np.array_equal(a1, a4) and np.array_equal(b1, b4)


def test_block_map_runs_in_order_in_worker_processes(two_cpus):
    # fn is a closure: it reaches the workers through the fork
    parent = os.getpid()
    got = list(mc._map_blocks(lambda bi: (bi, os.getpid() != parent), 5, 2))
    assert got == [(bi, True) for bi in range(5)]
    assert multiprocessing.active_children() == []


def test_abandoned_block_map_leaves_no_worker(two_cpus):
    blocks = mc._map_blocks(lambda bi: bi * bi, 5, 2)
    assert next(blocks) == 0
    blocks.close()  # the consumer stops early
    assert multiprocessing.active_children() == []


def test_path_count_prefix_property(baseline):
    # growing n_paths must extend the sample, not reshuffle it
    m = baseline.market
    a_small, b_small = generate_path_matrix(m, None, 90.0, 1.0, 9000, seed=3)
    a_big, b_big = generate_path_matrix(m, None, 90.0, 1.0, 20000, seed=3)
    assert np.array_equal(a_big[:9000], a_small)
    assert np.array_equal(b_big[:9000], b_small)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * mc.BLOCK + 300), workers=st.sampled_from([1, 2]),
       seed=st.integers(0, 3))
def test_paths_are_prefix_and_worker_invariant(baseline, n, workers, seed):
    # two days at a third of a day: full 8192-path blocks stay cheap
    m = baseline.market
    a_ref, b_ref = generate_path_matrix(m, None, 2.0, 1.0 / 3.0, 3 * mc.BLOCK, seed)
    a, b = streamed_paths(m, None, 2.0, 1.0 / 3.0, n, seed, n_workers=workers)
    assert np.array_equal(a, a_ref[:n]) and np.array_equal(b, b_ref[:n])


def test_zero_intensity_jump_is_plain_gbm(baseline):
    m = baseline.market
    off = JumpParams(lam=0.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8)
    a0, b0 = generate_path_matrix(m, None, 90.0, 1.0, 300, seed=5)
    a1, b1 = generate_path_matrix(m, off, 90.0, 1.0, 300, seed=5)
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


# a partial second block: the most paths the reference tests below draw
_REFERENCE_ROWS = mc.BLOCK + 777


@functools.lru_cache(maxsize=None)
def _reference_paths(market, jump, steps):
    """The first _REFERENCE_ROWS paths of the two seed-17 _reference_blocks on
    a third-of-a-day grid, stacked and read-only: built once per (market, jump,
    steps), as several tests below compare against the same ones."""
    first, second = (_reference_block(market, jump, steps, 1.0 / 3.0, 17, bi) for bi in range(2))
    refs = tuple(np.concatenate((first[leg], second[leg][:_REFERENCE_ROWS - mc.BLOCK]))
                 for leg in (0, 1))
    for ref in refs:
        ref.flags.writeable = False
    return refs


@pytest.fixture(scope="module", autouse=True)
def _drop_reference_paths():
    # about 39 MB per 270-step reference: hold them for this module's tests only
    yield
    _reference_paths.cache_clear()


@pytest.mark.parametrize("jump", [
    None,
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=True),
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.3, variance_matched=False),
    # one stream at intensity 0: no common, then no idiosyncratic counts
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.0, variance_matched=False),
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=1.0, variance_matched=False),
    JumpParams(lam=30.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=False),
    # mu_J = -sigma_J^2 / 2: the compensator is 0
    JumpParams(lam=4.0, mu_j=-0.125, sigma_j=0.5, rho_j=0.8, variance_matched=False),
])
def test_path_matrix_matches_out_of_place_reference(baseline, jump):
    # production grid (270 steps), a partial second block, one and two workers
    m = baseline.market
    n = _REFERENCE_ROWS
    ref_a, ref_b = _reference_paths(m, jump, 270)
    for workers in (1, 2):
        a, b = streamed_paths(m, jump, 90.0, 1.0 / 3.0, n, seed=17, n_workers=workers)
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b), workers


def test_dense_jump_merge_matches_out_of_place_reference(baseline):
    # lam = 2000 per year: most kept entries carry a count, so both legs take
    # the dense merge, in a full block and a cut one
    m = baseline.market
    jump = JumpParams(lam=2000.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=False)
    ref_a, ref_b = _reference_paths(m, jump, 30)
    a, b = generate_path_matrix(m, jump, 10.0, 1.0 / 3.0, _REFERENCE_ROWS, seed=17)
    assert np.array_equal(a, ref_a)
    assert np.array_equal(b, ref_b)


_SEAM_JUMPS = [
    None,
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=True),
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.3, variance_matched=False),
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.0, variance_matched=False),
    JumpParams(lam=4.0, mu_j=-0.05, sigma_j=0.15, rho_j=1.0, variance_matched=False),
    JumpParams(lam=30.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=False),
    JumpParams(lam=4.0, mu_j=-0.125, sigma_j=0.5, rho_j=0.8, variance_matched=False),
    JumpParams(lam=2000.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=False),
]


@pytest.mark.parametrize("steps", [270, 30])
@pytest.mark.parametrize("jump", _SEAM_JUMPS)
def test_draw_chunk_seams_match_out_of_place_reference(baseline, jump, steps):
    # a block is drawn in chunks of rows and its arithmetic runs on tiles of
    # columns, both sized from _DRAW_ELEMENTS: cut blocks of 1 and 400 rows
    # and one row either side of a chunk edge, at the module's size and at a
    # few rows' worth, with ragged last chunks and tiles, a full block's
    # tiles one column wide, jumps on chunk edges and a cut block drawing its
    # streams' tails through the small buffer; then 400 rows on tiles of one
    # column and of 7, the last one ragged, where every tile after the first
    # starts on a carried running sum and jumps fall on tile edges; a partial
    # second block at a few rows' worth (test_path_matrix_matches_out_of_
    # place_reference holds it at the module's size, in worker processes
    # too, which fork after the patch below and so draw at its size)
    m = baseline.market
    ref_a, ref_b = _reference_paths(m, jump, steps)

    def around_a_chunk(elements):
        chunk = min(mc.BLOCK, max(1, elements // steps))
        return {1, 400, chunk - 1, chunk + 1}

    small = 7 * steps - 1
    for elements, cuts in ((mc._DRAW_ELEMENTS, around_a_chunk(mc._DRAW_ELEMENTS)),
                           (small, around_a_chunk(small) | {_REFERENCE_ROWS}),
                           (400, {400}), (7 * 400, {400})):
        with mock.patch.object(mc, "_DRAW_ELEMENTS", elements):
            for n in sorted(cuts):
                # one block is drawn in this process whatever the worker count
                for workers in ((1, 2) if n > mc.BLOCK else (1,)):
                    a, b = streamed_paths(m, jump, steps / 3.0, 1.0 / 3.0, n,
                                          seed=17, n_workers=workers)
                    assert np.array_equal(a, ref_a[:n]), (elements, n, workers)
                    assert np.array_equal(b, ref_b[:n]), (elements, n, workers)


def _draw_peak(market, jump, steps, rows):
    """The traced peak of drawing one block cut to rows, and its buffer's bytes."""
    chunk = min(mc.BLOCK, max(1, mc._DRAW_ELEMENTS // steps))
    width = min(steps, max(1, mc._DRAW_ELEMENTS // rows))
    tracemalloc.start()
    try:
        a, b = mc._generate_block(market, jump, steps, 1.0 / 3.0, 42, 0, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == b.shape == (rows, steps + 1)
    assert a.flags.f_contiguous and b.flags.f_contiguous
    return peak, max(chunk * steps, rows * width) * 8


@pytest.mark.parametrize("jump", [None, JumpParams()])
def test_cut_block_memory_follows_its_rows(baseline, jump):
    # a 2,000-row block at 270 steps holds its two outputs and one chunk
    # buffer; drawing the streams' tails for the full block's sake must not
    # allocate block-sized arrays
    rows, steps = 2000, 270
    peak, buf = _draw_peak(baseline.market, jump, steps, rows)
    assert peak <= 2 * rows * (steps + 1) * 8 + buf + (2 << 20), peak


def test_dense_jump_block_memory_follows_its_rows(baseline):
    # at lam = 2000 per year most per-step counts are nonzero, so the counts
    # take rng.poisson and the dense merge, and each leg's overlay holds a
    # few arrays of the kept entries. They come in chunks and only the kept
    # ones stay: a 2,000-row block at 270 steps peaks within a dozen
    # (rows x steps) arrays of doubles beyond its outputs and buffer (the
    # whole-block counts, 17.7 MB each as int64, took it to 105 MiB)
    rows, steps = 2000, 270
    jump = JumpParams(lam=2000.0, mu_j=-0.05, sigma_j=0.15, rho_j=0.8, variance_matched=False)
    peak, buf = _draw_peak(baseline.market, jump, steps, rows)
    assert peak <= 2 * rows * (steps + 1) * 8 + buf + 12 * rows * steps * 8, peak


_INTENSITIES = st.one_of(st.just(0.0), st.floats(0.0, 0.3, exclude_min=True),
                         st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
                         st.floats(10.0, 30.0))


@pytest.mark.parametrize("chunk, decode_lam", [
    (mc._UNIFORM_CHUNK, mc._DECODE_LAM),
    # counts carried across many chunks, decoded over numpy's whole
    # multiplication range (0 < lam < 10)
    (16, 10.0),
])
@settings(max_examples=100, deadline=None)
@given(lam=_INTENSITIES, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2000),
       cut=st.integers(0, 2000))
def test_poisson_sparse_is_rng_poisson(chunk, decode_lam, lam, seed, n, cut):
    # the entries below kept of the whole draw, with kept anywhere up to n
    kept = min(cut, n)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_UNIFORM_CHUNK", chunk)
        mp.setattr(mc, "_DECODE_LAM", decode_lam)
        idx, counts = mc._poisson_sparse(rng, lam, n, kept)
    assert np.all(np.diff(idx) > 0) and np.all(counts > 0)
    dense = np.zeros(kept, dtype=np.int64)
    dense[idx] = counts
    assert np.array_equal(dense, ref.poisson(lam, n)[:kept])
    assert rng.random() == ref.random()  # the same uniforms were drawn


def test_path_matrix_is_column_major(baseline):
    a, b = generate_path_matrix(baseline.market, None, 30.0, 1.0, 50, seed=1)
    assert a.flags.f_contiguous and b.flags.f_contiguous


def test_grid_must_divide_horizon(baseline):
    with pytest.raises(ValueError, match="does not divide"):
        generate_path_matrix(baseline.market, None, 90.0, 0.7, 10, seed=1)
    # a configuration error: the CLI reports it with exit status 1
    with pytest.raises(ScenarioError, match="0.333333 does not divide horizon_days = 91.25"):
        generate_path_matrix(baseline.market, None, 91.25, 1.0 / 3.0, 10, seed=1)
    # a step that is not positive divides nothing, and zero is never divided by
    for dt_days in (0.0, -1.0, math.nan):
        with pytest.raises(ScenarioError, match="does not divide horizon_days = 90"):
            generate_path_matrix(baseline.market, None, 90.0, dt_days, 10, seed=1)


# the steps validate_sim accepts up to 10 days: 1/k of a day and whole days
_GRID_STEPS = [1.0 / k for k in range(1, 49)] + [float(d) for d in range(1, 11)]


@settings(max_examples=300, deadline=None)
@given(quarters=st.integers(1, 4 * 730), dt_days=st.sampled_from(_GRID_STEPS))
def test_exact_grid_steps_are_the_configured_step(quarters, dt_days):
    # the loop runs on sim.dt_days; on every exact grid of whole or quarter
    # days that is horizon / steps to the bit, the step it ran on before
    horizon_days = quarters / 4.0
    steps = mc._whole_steps(horizon_days, dt_days)
    assume(steps is not None)
    assert horizon_days / steps == dt_days


def test_log_increment_moments(baseline):
    m = baseline.market
    n = 65536
    a, b = generate_path_matrix(m, None, 1.0, 1.0, n, seed=21)
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
    a, b = generate_path_matrix(m, None, 1.0, 1.0, 2000, seed=2)
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
        a, b = generate_path_matrix(m, jump, 90.0, 1.0, n, seed=33)
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
    paths = generate_path_matrix(baseline.market, None, 90.0, 1.0, 2000, seed=42)
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
    _assert_batch_matches_oracle(batch, rel_a, rel_b, rates, pos, sim, rel_a.shape[0])


def _assert_batch_matches_oracle(batch, rel_a, rel_b, rates, pos, sim, rows):
    """The first rows paths of batch against the scalar oracle."""
    for i in range(rows):
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
    rel_a, rel_b = generate_path_matrix(baseline.market, None, pos.horizon_days,
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


@pytest.mark.parametrize("steps, dtype", [(254, np.uint8), (255, np.uint16)])
@pytest.mark.parametrize("breach", [True, False])
@pytest.mark.parametrize("rule", ["none", "periodic(1)"])
def test_breach_step_type_holds_never_past_the_last_step(baseline, steps, dtype, breach, rule):
    # one flat day-step path, whose prices jump fivefold at the last step or never
    # move: steps + 1, the mark of no breach, is 255 in a uint8 at 254 steps
    # and 256 in a uint16 at 255; daily claims count up to the last step
    pos = dataclasses.replace(baseline.position, horizon_days=float(steps))
    sim = dataclasses.replace(baseline.sim, dt_days=1.0, claim_interval_days=1.0,
                              rebalance=rule, gas_cost=0.001, include_tx_costs=True)
    rel_a, rel_b = np.ones((1, steps + 1)), np.ones((1, steps + 1))
    if breach:
        rel_a[0, -1] = rel_b[0, -1] = 5.0
    state, = mc._step_loop(rel_a, rel_b, mc._pass_record(baseline.rates, pos, sim), (pos.h,),
                           (pos.c_over_v0,))
    assert state.step.dtype == dtype
    batch = mc.simulate_batch(rel_a, rel_b, None, baseline.rates, pos, sim)
    assert batch.liquidated[0] == breach
    assert batch.n_claims[0] == steps
    _assert_kernel_matches_oracle(rel_a, rel_b, baseline.rates, pos, sim)


def _loop_and_close(rel_a, rel_b, rates, pos, sim, hs, variants):
    """Per h of hs, the BatchResult of each (C/V0, penalty) variant, closed from
    one step loop over the variants' distinct C/V0 levels."""
    cvs = tuple(dict.fromkeys(cv for cv, _ in variants))
    rec = mc._pass_record(rates, pos, sim)
    return [[mc._close(state, cvs.index(cv), rec, h, rates,
                       dataclasses.replace(pos, c_over_v0=cv),
                       dataclasses.replace(sim, liq_penalty_frac=pen)) for cv, pen in variants]
            for h, state in zip(hs, mc._step_loop(rel_a, rel_b, rec, hs, cvs))]


def _assert_variants_match_single_passes(rel_a, rel_b, market, rates, pos, sim, variants):
    shared, = _loop_and_close(rel_a, rel_b, rates, pos, sim, (pos.h,), variants)
    assert len(shared) == len(variants)
    for (cv, pen), row in zip(variants, shared):
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
    assert any(row.liquidated.any() for row in shared)
    assert any(row.n_rebalances.any() for row in shared)
    # C/V0 gates the trigger: a rebalancing pass cannot share it
    with pytest.raises(ValueError, match="one c_over_v0"):
        mc._step_loop(rel_a, rel_b, mc._pass_record(baseline.rates, pos, sim), (pos.h,),
                      (1.8, 3.0))


@pytest.mark.parametrize("rule", ["none", "threshold(15)", "periodic(14)"])
def test_kernel_is_layout_independent(baseline, rule):
    pos = dataclasses.replace(baseline.position, h=0.8)
    sim = dataclasses.replace(baseline.sim, rebalance=rule)
    rel_a, rel_b = generate_path_matrix(baseline.market, None, pos.horizon_days,
                                           sim.dt_days, 2000, seed=7)
    results = [mc.simulate_batch(order(rel_a), order(rel_b), baseline.market, baseline.rates,
                                 pos, sim)
               for order in (np.ascontiguousarray, np.asfortranarray)]
    c_res, f_res = (dataclasses.asdict(r) for r in results)
    assert c_res["liquidated"].any()
    for name, value in c_res.items():
        assert np.array_equal(value, f_res[name], equal_nan=True), name


# hedge ratios 0, 0.05, ..., 1
_MONOTONE_HS = tuple(i / 20.0 for i in range(21))


@pytest.mark.parametrize("claim_days", [None, 0.0, 1.0])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_breach_and_max_debt_are_monotone_in_h(preset, claim_days):
    # what the model promises, not a parity between two code paths: without
    # a rebalancing rule a larger h borrows more of each leg on the same
    # paths, whatever the claims repay, so each path's max debt cannot fall
    # as h grows and its first breach, at any collateral, cannot come later;
    # claims at the preset's own interval (None), never and daily
    scn = get_preset(preset)
    pos = scn.position
    sim = dataclasses.replace(scn.sim, rebalance="none")
    if claim_days is not None:
        sim = dataclasses.replace(sim, claim_interval_days=claim_days)
    rel_a, rel_b = generate_path_matrix(scn.market, scn.jump, pos.horizon_days,
                                           sim.dt_days, 256, seed=7)
    states = mc._step_loop(rel_a, rel_b, mc._pass_record(scn.rates, pos, sim), _MONOTONE_HS,
                           (1.2, pos.c_over_v0))
    step = np.array([s.step for s in states], dtype=np.int64)  # (H, K, rows)
    max_debt = np.array([s.max_debt for s in states])  # (H, rows)
    assert (np.diff(step, axis=0) <= 0).all()
    assert (np.diff(max_debt, axis=0) >= 0).all()
    assert (step[:, 1] < rel_a.shape[1]).any()  # some path breaches at the preset's C/V0


# C/V0 levels from high to low, each preset's own level put in among them
_FALLING_CVS = (6.0, 4.0, 3.0, 2.5, 2.0, 1.8, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0, 0.9)


@pytest.mark.parametrize("claim_days", [None, 0.0, 1.0])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_breach_comes_no_later_as_collateral_falls(preset, claim_days):
    # what the model promises: the debt path does not read the collateral, so
    # on one rule-free pass each path breaches a lower C/V0 no later than a
    # higher one; claims at the preset's own interval (None), never and daily
    scn = get_preset(preset)
    pos = scn.position
    sim = dataclasses.replace(scn.sim, rebalance="none")
    if claim_days is not None:
        sim = dataclasses.replace(sim, claim_interval_days=claim_days)
    cvs = tuple(sorted(set(_FALLING_CVS) | {pos.c_over_v0}, reverse=True))
    rel_a, rel_b = generate_path_matrix(scn.market, scn.jump, pos.horizon_days,
                                           sim.dt_days, 256, seed=7)
    states = mc._step_loop(rel_a, rel_b, mc._pass_record(scn.rates, pos, sim), (0.3, 0.6, 1.0),
                           cvs)
    step = np.array([s.step for s in states], dtype=np.int64)  # (H, K, rows)
    assert (np.diff(step, axis=1) <= 0).all()
    never = rel_a.shape[1]
    assert (step[:, -1] < never).any() and (step[:, 0] == never).any()


@pytest.mark.parametrize("preset", ["baseline", "sol_ray", "sec46"])
def test_mean_pnl_without_claims_or_liquidation_is_the_closed_form(preset):
    # what the model promises: with claims off, r_f = 0 and so much
    # collateral that no path can breach, E[P&L] = mu0 - c h, the closed
    # form's mean, within 4 Monte Carlo standard errors, on one block
    scn = get_preset(preset)
    scn = dataclasses.replace(
        scn, rates=dataclasses.replace(scn.rates, r_f=0.0),
        position=dataclasses.replace(scn.position, c_over_v0=100.0),
        sim=dataclasses.replace(scn.sim, claim_interval_days=0.0, rebalance="none",
                                n_paths=mc.BLOCK))
    hs = (0.0, 0.3, 0.6, 0.9)
    (_, batches), = mc._stream_passes([scn], hs)
    for h, batch in zip(hs, batches):
        assert not batch.liquidated.any()
        pnl = batch.roe_raw * batch.pi0
        d = pnl_decomposition(scn.market, scn.rates, dataclasses.replace(scn.position, h=h))
        se = pnl.std(ddof=1) / math.sqrt(len(pnl))
        assert abs(pnl.mean() - (d.mu0 - d.c * h)) < 4.0 * se, h


@pytest.mark.parametrize("preset", ["baseline", "sol_ray", "sec46"])
def test_pnl_variance_without_interest_noise_is_the_closed_form(preset):
    # what the model promises: with no interest to accrue (r_a = r_b = r_f =
    # 0), claims off and so much collateral that no path can breach, the P&L
    # variance is the closed form's V0^2 (v_GG + h^2 v_AA - 2 h v_GA), within 4
    # standard errors of the sample variance, taken from its fourth moment
    scn = get_preset(preset)
    pos = dataclasses.replace(scn.position, c_over_v0=100.0)
    scn = dataclasses.replace(
        scn, rates=dataclasses.replace(scn.rates, r_a=0.0, r_b=0.0, r_f=0.0), position=pos,
        sim=dataclasses.replace(scn.sim, claim_interval_days=0.0, rebalance="none",
                                n_paths=mc.BLOCK))
    moments = variance_components(scn.market, pos.horizon_years)
    hs = (0.0, 0.3, 0.6, 0.9)
    (_, batches), = mc._stream_passes([scn], hs)
    for h, batch in zip(hs, batches):
        assert not batch.liquidated.any()
        dev = batch.roe_raw * batch.pi0
        dev = dev - dev.mean()
        n = len(dev)
        var = dev @ dev / (n - 1)
        se = math.sqrt((np.mean(dev ** 4) - var * var) / n)
        assert abs(var - pnl_variance(h, moments, pos.v0)) < 4.0 * se, h


@functools.lru_cache(maxsize=None)
def _block_of(market, jump, horizon_days, dt_days):
    """256 paths at seed 7 on a scenario's grid, read-only, for the properties below."""
    paths = generate_path_matrix(market, jump, horizon_days, dt_days, 256, seed=7)
    for rel in paths:
        rel.flags.writeable = False
    return paths


def _with(scn, key, value):
    section, name = key.split(".")
    return dataclasses.replace(
        scn, **{section: dataclasses.replace(getattr(scn, section), **{name: value})})


# rules of each kind; threshold(15.0) is threshold(15) spelled apart
_RULES = ("none", "threshold(15)", "threshold(15.0)", "threshold(10)", "periodic(7)",
          "periodic(14)")
# each scenario key that is not a path input, with values that keep a scenario
# valid, claims on
_NON_PATH_VALUES = {
    "rates.r_a": st.floats(0.0, 0.3), "rates.r_b": st.floats(0.0, 0.3),
    "rates.reward_rate": st.floats(0.0, 1.0), "rates.r_f": st.floats(0.0, 0.1),
    "position.v0": st.sampled_from([0.5, 1.0, 2.0]), "position.c_over_v0": st.floats(1.2, 4.0),
    "position.h": st.floats(0.0, 1.0), "position.l_max": st.floats(0.6, 0.95),
    "sim.claim_interval_days": st.sampled_from([1.0, 2.0, 7.0, 14.0]),
    "sim.liq_penalty_frac": st.floats(0.0, 1.0), "sim.borrow_fee_frac": st.floats(0.0, 0.01),
    "sim.gas_cost": st.floats(0.0, 0.002), "sim.rebalance": st.sampled_from(_RULES),
    "sim.include_tx_costs": st.booleans(),
}
# the keys only _close reads (h is the pass's own)
_POST_LOOP_KEYS = ("position.h", "rates.r_f", "sim.borrow_fee_frac", "sim.gas_cost",
                   "sim.include_tx_costs", "sim.liq_penalty_frac")


@st.composite
def _claiming_scenarios(draw):
    """A preset, or the baseline market with every other key drawn, claims on
    and a drawn rule, on 256 paths."""
    preset = draw(st.sampled_from(sorted(PRESETS) + [None]))
    if preset is None:
        scn = get_preset("baseline")
        for key, values in _NON_PATH_VALUES.items():
            scn = _with(scn, key, draw(values))
        scn = _with(scn, "position.horizon_days", draw(st.sampled_from([14.0, 28.0])))
        scn = _with(scn, "sim.dt_days", draw(st.sampled_from([1.0, 0.5, 1.0 / 3.0])))
    else:
        scn = get_preset(preset)  # claims every 14 days
    scn = _with(_with(scn, "sim.rebalance", draw(st.sampled_from(_RULES))), "sim.n_paths", 256)
    assume(validate_scenario(scn) == [])
    return scn


@settings(max_examples=40, deadline=None)
@given(scn=_claiming_scenarios(), data=st.data())
def test_scenarios_with_equal_pass_records_share_the_loop_state(scn, data):
    # the sharing rule: one step loop serves every consecutive scenario whose
    # _Pass record is equal, so a key the record leaves out must not move a
    # bit of the loop's state. Change one key that is not a path input: what
    # only _close reads (and C/V0 without a rule) leaves the record as it is;
    # where the record holds, the loop states are the same bits, and the
    # changed scenario, closed from the shared pass, meets the scalar oracle,
    # which reads the scenario whole
    key = data.draw(st.sampled_from(sorted(_NON_PATH_VALUES)), label="key")
    other = _with(scn, key, data.draw(_NON_PATH_VALUES[key], label="value"))
    assume(validate_scenario(other) == [])
    rec, other_rec = (mc._pass_record(s.rates, s.position, s.sim) for s in (scn, other))
    if key in _POST_LOOP_KEYS or (key == "position.c_over_v0" and rec.kind == "none"):
        assert other_rec == rec
    if other_rec != rec:
        return
    rel_a, rel_b = _block_of(*mc._path_inputs(scn)[:4])
    hs = tuple(dict.fromkeys((scn.position.h, other.position.h)))
    cvs = tuple(dict.fromkeys((scn.position.c_over_v0, other.position.c_over_v0)))
    for got, want in zip(mc._step_loop(rel_a, rel_b, other_rec, hs, cvs),
                         mc._step_loop(rel_a, rel_b, rec, hs, cvs)):
        for name, g, w in zip(mc._LoopState._fields, got, want):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name
    with _serving([(rel_a, rel_b)]):
        streamed = list(mc._stream_passes([scn, other], hs))
    for h, batch in zip(hs, streamed[1][1]):
        _assert_batch_matches_oracle(batch, rel_a, rel_b, other.rates,
                                     dataclasses.replace(other.position, h=h), other.sim, 4)


@settings(max_examples=30, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), h=st.floats(0.0, 1.0),
       rule=st.sampled_from(["none", "threshold(10)", "periodic(14)"]),
       claim_days=st.sampled_from([0.0, 1.0, 14.0]))
def test_swapping_the_legs_leaves_each_roe(preset, h, rule, claim_days):
    # what the model promises: the legs enter the accounting alike, so swapping
    # sigma_A with sigma_B (which the kernel reads only through the paths), r_A
    # with r_B and path a with path b leaves each path's ROE as it was. Without
    # claims every sum the kernel makes over the two legs commutes, so every
    # field keeps its bits. A claim splits its repayment w, 1 - w by the legs'
    # net debts, and after the swap a leg's share is the other's 1 - w, which
    # rounds apart: each claim leaves the reserves an ulp or so of at most the
    # rewards claimed (under 1) from where they were, so the terminal debt, and
    # the ROE over pi0 > 1, move by a few ulps of numbers near 1: about 1e-15
    # each claim, and a 14-day horizon's daily claims stay far inside 1e-13
    scn = get_preset(preset)
    pos = dataclasses.replace(scn.position, h=h)
    sim = dataclasses.replace(scn.sim, rebalance=rule, claim_interval_days=claim_days)
    rel_a, rel_b = (rel[:64] for rel in _block_of(*mc._path_inputs(scn)[:4]))
    m, r = scn.market, scn.rates
    batch = mc.simulate_batch(rel_a, rel_b, m, r, pos, sim)
    swapped = mc.simulate_batch(rel_b, rel_a,
                                dataclasses.replace(m, sigma_a=m.sigma_b, sigma_b=m.sigma_a),
                                dataclasses.replace(r, r_a=r.r_b, r_b=r.r_a), pos, sim)
    if claim_days == 0:
        _assert_fields_equal(swapped, batch)
    else:
        np.testing.assert_allclose(swapped.roe, batch.roe, rtol=0, atol=1e-13)


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
    # the no-rebalance pass closes three (C/V0, penalty) variants from one loop
    # over the C/V0 levels (1.5, 2.5)
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
                if variants:
                    rows, = _loop_and_close(rel_a, rel_b, rates, pos, sim, (h,), variants)
                    # the variants stacked into the (3, 64) rows and (3,) pi0
                    # that the digest was frozen on
                    batch = {f.name: np.stack([getattr(row, f.name) for row in rows])
                             for f in dataclasses.fields(mc.BatchResult)}
                else:
                    batch = vars(mc.simulate_batch(rel_a, rel_b, None, rates, pos, sim))
                liquidated += int(np.sum(batch["liquidated"]))
                for name, value in batch.items():
                    v = np.asarray(value)
                    digest.update(("%s %s %s;" % (name, v.dtype.str, v.shape)).encode())
                    digest.update(np.ascontiguousarray(v).tobytes())
    assert liquidated > 0
    assert digest.hexdigest() == KERNEL_DIGESTS[rule]


@st.composite
def _contiguous_chunks(draw, n):
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=6, unique=True))
    edges = [0] + sorted(cuts) + [n]
    return list(zip(edges, edges[1:]))


def _serving(blocks):
    """mc._path_blocks patched to stream the given blocks, whatever it is asked for."""
    starts = np.cumsum([0] + [len(b[0]) for b in blocks])
    return mock.patch.object(mc, "_path_blocks", lambda *inputs, task, n_workers: (
        task(lo, *b) for lo, b in zip(starts, blocks)))


def _assert_fields_equal(got, want):
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name), equal_nan=True), f.name


@settings(max_examples=30, deadline=None)
@given(chunks=_contiguous_chunks(64), rule=st.sampled_from(list(KERNEL_DIGESTS)),
       h=st.sampled_from([0.3, 0.6, 0.9]), claim_days=st.sampled_from([0.0, 2.0]),
       tx=st.booleans())
def test_streamed_blocks_equal_one_whole_pass(chunks, rule, h, claim_days, tx):
    # the digest paths cut into contiguous blocks: each pass's per-path fields,
    # concatenated over the blocks, are the whole pass's bits
    rel_a, rel_b = _dyadic_paths(2024, 64, 48)
    rates = RateParams(r_a=0.05, r_b=0.20, reward_rate=0.6, r_f=0.04)
    pos = PositionParams(v0=1.0, c_over_v0=1.5, h=h, l_max=0.8, horizon_days=24.0)
    sim = SimConfig(n_paths=64, dt_days=0.5, claim_interval_days=claim_days, gas_cost=0.001,
                    rebalance=rule, include_tx_costs=tx)
    variants = [(1.5, 0.2), (2.5, 0.1), (1.5, 0.4)] if rule == "none" else []
    # one scenario per variant, then the plain one: all share one pass
    scenarios = [Scenario(MarketParams(), rates, dataclasses.replace(pos, c_over_v0=cv),
                          dataclasses.replace(sim, liq_penalty_frac=pen))
                 for cv, pen in variants] + [Scenario(MarketParams(), rates, pos, sim)]
    blocks = [(rel_a[lo:hi], rel_b[lo:hi]) for lo, hi in chunks]
    with _serving(blocks):
        streamed = list(mc._stream_passes(scenarios, (h,)))
    assert [scn for scn, _ in streamed] == scenarios
    shared, = _loop_and_close(rel_a, rel_b, rates, pos, sim, (h,),
                              [(s.position.c_over_v0, s.sim.liq_penalty_frac) for s in scenarios])
    for (scn, batches), row in zip(streamed, shared):
        got, = batches
        _assert_fields_equal(got, row)
        _assert_fields_equal(got, mc.simulate_batch(rel_a, rel_b, None, rates, scn.position,
                                                    scn.sim))


@st.composite
def _h_list_in_chunks(draw):
    hs = draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]) | st.floats(0.0, 1.0),
                       min_size=1, max_size=8))
    cuts = draw(st.lists(st.integers(1, len(hs) - 1), max_size=4, unique=True)) \
        if len(hs) > 1 else []
    edges = [0] + sorted(cuts) + [len(hs)]
    return [hs[lo:hi] for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=40, deadline=None)
@given(chunks=_h_list_in_chunks(), rule=st.sampled_from(list(KERNEL_DIGESTS)),
       claim_days=st.sampled_from([0.0, 2.0]), gas=st.sampled_from([0.0, 0.001]))
def test_stacked_chunks_equal_per_h_calls(chunks, rule, claim_days, gas):
    # any split of an h list into chunks: each chunk's step loop gives, for
    # every h, the fields of simulate_batch at that h alone, nan included
    rel_a, rel_b = _dyadic_paths(2024, 64, 48)
    rates = RateParams(r_a=0.05, r_b=0.20, reward_rate=0.6, r_f=0.04)
    pos = PositionParams(v0=1.0, c_over_v0=1.5, h=0.5, l_max=0.8, horizon_days=24.0)
    sim = SimConfig(n_paths=64, dt_days=0.5, claim_interval_days=claim_days,
                    liq_penalty_frac=0.2, borrow_fee_frac=0.003, gas_cost=gas,
                    rebalance=rule, include_tx_costs=True)
    variants = [(1.5, 0.2), (2.5, 0.1), (1.5, 0.4)] if rule == "none" else \
        [(pos.c_over_v0, sim.liq_penalty_frac)]
    for hs in chunks:
        stacked = _loop_and_close(rel_a, rel_b, rates, pos, sim, hs, variants)
        assert len(stacked) == len(hs)
        for h, got_rows in zip(hs, stacked):
            want_rows, = _loop_and_close(rel_a, rel_b, rates, dataclasses.replace(pos, h=h), sim,
                                         (h,), variants)
            assert len(got_rows) == len(want_rows) == len(variants)
            for got, want in zip(got_rows, want_rows):
                for f in dataclasses.fields(want):
                    g, w = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
                    assert g.dtype == w.dtype and g.shape == w.shape, f.name
                    assert np.array_equal(g, w, equal_nan=True), f.name


def test_streamed_pass_keeps_what_aggregate_reads(baseline):
    rel_a, rel_b = _volatile_paths(5, 40, 90, baseline.sim.dt_days)
    pos = dataclasses.replace(baseline.position, horizon_days=30.0)
    for tx in (False, True):
        sim = dataclasses.replace(baseline.sim, include_tx_costs=tx)
        blocks = [(rel_a[:25], rel_b[:25]), (rel_a[25:], rel_b[25:])]
        with _serving(blocks):
            (_, batches), = mc._stream_passes(
                [dataclasses.replace(baseline, position=pos, sim=sim)], (pos.h,))
        got, = batches
        want = mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates, pos, sim)
        assert got.roe is (got.roe_tx if tx else got.roe_raw)
        _assert_fields_equal(got, want)
        assert mc.aggregate(got, 30.0) == mc.aggregate(want, 30.0)


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
    rel_a, rel_b = generate_path_matrix(baseline.market, None, 90.0, 1.0, 3, seed=1)
    with pytest.raises(ValueError, match="does not match sim.dt_days"):
        mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates,
                          baseline.position, baseline.sim)


@pytest.mark.parametrize("changes, message", [
    # gas would be booked as income
    ({"gas_cost": -0.001}, "gas_cost must be nonnegative"),
    # 30 whole steps of a quarter day, but not whole days
    ({"dt_days": 0.25, "rebalance": "periodic(7.5)"},
     "rebalance = periodic(7.5) is not a whole number of days divisible by dt_days = 0.25"),
])
def test_batch_rejects_what_validate_sim_rejects(baseline, changes, message):
    sim = dataclasses.replace(baseline.sim, **changes)
    assert validate_sim(sim) == [message]
    rel_a, rel_b = _flat_paths(dataclasses.replace(baseline, sim=sim))
    with pytest.raises(ScenarioError) as err:
        mc.simulate_batch(rel_a, rel_b, baseline.market, baseline.rates, baseline.position, sim)
    assert str(err.value) == message


def test_run_scenario_checks_variance_matching_before_any_draw(monkeypatch):
    # matched jumps that use up leg a's variance: the scenario is rejected by
    # its name before a block is drawn, not met as a sqrt of a negative there
    def boom(*args, **kw):
        raise AssertionError("paths drawn before the scenario was checked")

    scn = get_preset("jumps")
    scn = dataclasses.replace(scn, market=dataclasses.replace(scn.market, sigma_a=0.2))
    monkeypatch.setattr(mc, "_generate_block", boom)
    with pytest.raises(ScenarioError, match=r"^jumps: variance matching infeasible: sigma_a"):
        mc.run_scenario(scn)


class _Drawn(Exception):
    """A block was asked for: the run passed its check."""


@settings(max_examples=150, deadline=None)
@given(grid=st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.5, 1.0, math.nan])),
                     max_size=4),
       cvs=st.lists(st.one_of(st.floats(0.5, 4.0), st.just(1.0)), min_size=1, max_size=3),
       l_max=st.one_of(st.floats(0.05, 0.95), st.just(0.5)))
def test_a_run_is_refused_exactly_when_none_of_its_hedge_ratios_can_start(baseline, grid, cvs,
                                                                         l_max):
    # the rule, stated apart from the code: a nonempty grid of h in [0, 1]
    # whose least h starts below l_max at every C/V0; grid points above the
    # cap still run
    def drawn(*args, **kw):
        raise _Drawn

    scenarios = [dataclasses.replace(baseline, position=dataclasses.replace(
        baseline.position, c_over_v0=cv, l_max=l_max)) for cv in cvs]
    bad = [h for h in grid if not 0.0 <= h <= 1.0]
    refused = not grid or bad or any(min(grid) / cv >= l_max for cv in cvs)
    with mock.patch.object(mc, "_generate_block", drawn):
        with pytest.raises(ScenarioError if refused else _Drawn) as err:
            list(mc._stream_passes(scenarios, tuple(grid)))
    if grid and bad:
        assert str(err.value) == "h = %g in the h grid: h must lie in [0,1]" % bad[0]


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
