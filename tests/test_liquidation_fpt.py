"""Liquidation-bound checks: frozen closed-form values plus structural properties."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

import ammhedge.analytics as an
import ammhedge.liquidation_fpt as fpt
from ammhedge.config_domain import MarketParams, PositionParams, RateParams

# moment-matched single-factor vol for the baseline market, both horizon conventions
SIGMA_TILDE_90D = 0.932961565920489
SIGMA_TILDE_QUARTER = 0.932994235201385

# barrier-crossing probabilities (percent) over the baseline 90-day window
P_LIQ_PCT = {
    0.3: 0.012781,
    0.4: 0.135290,
    0.5: 0.659105,
    0.6: 2.054666,
    0.7: 4.825047,
    0.8: 9.351744,
    1.0: 24.188159,
}


def test_sigma_tilde_frozen_values(baseline):
    m = baseline.market
    st = fpt.sigma_tilde(m, baseline.position.horizon_years)
    assert math.isclose(st, SIGMA_TILDE_90D, rel_tol=1e-12)
    assert math.isclose(fpt.sigma_tilde(m, 0.25), SIGMA_TILDE_QUARTER, rel_tol=1e-12)


def test_sigma_tilde_small_t_limit(baseline):
    m = baseline.market
    inst = math.sqrt(
        (m.sigma_a ** 2 + m.sigma_b ** 2 + 2.0 * m.rho * m.sigma_a * m.sigma_b) / 4.0
    )
    assert fpt.sigma_tilde(m, 1e-6) == pytest.approx(inst, abs=1e-5)
    # convexity of exp makes the matched vol exceed the instantaneous one
    assert fpt.sigma_tilde(m, 0.5) > inst


def test_sigma_tilde_collapses_for_identical_assets():
    m = MarketParams(sigma_a=0.9, sigma_b=0.9, rho=1.0)
    # both tokens share one driver, so the basket is a plain GBM again
    assert abs(fpt.sigma_tilde(m, 0.25) - 0.9) < 1e-14


def test_fpt_inputs_fields(baseline):
    pos = baseline.position
    fi = fpt.fpt_inputs(0.5, baseline.market, pos)
    assert fi.ltv0 == 0.5 / pos.c_over_v0
    assert fi.barrier_log == pytest.approx(math.log(3.2), abs=1e-12)
    assert fi.nu == -0.5 * fi.sigma_tilde * fi.sigma_tilde
    assert fi.t_years == pos.horizon_years


def test_fpt_inputs_round_barriers(baseline):
    b4 = fpt.fpt_inputs(0.4, baseline.market, baseline.position).barrier_log
    b8 = fpt.fpt_inputs(0.8, baseline.market, baseline.position).barrier_log
    assert b4 == pytest.approx(math.log(4.0), abs=1e-12)
    assert b8 == pytest.approx(math.log(2.0), abs=1e-12)


def test_crossing_probability_frozen_table(baseline):
    for h, pct in P_LIQ_PCT.items():
        got = fpt.liquidation_probability(h, baseline.market, baseline.position) * 100.0
        assert got == pytest.approx(pct, abs=1e-5), h


def test_crossing_probability_edges(baseline):
    m, pos = baseline.market, baseline.position
    assert fpt.liquidation_probability(0, m, pos) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        fpt.liquidation_probability(-0.1, m, pos)
    # starting at or above the liquidation threshold is certain loss
    assert fpt.liquidation_probability(1.6, m, pos) == 1.0
    assert fpt.liquidation_probability(2.0, m, pos) == 1.0


def test_crossing_probability_monotone(baseline):
    m, pos = baseline.market, baseline.position
    grid = [0.05 + 0.05 * i for i in range(31)]
    probs = [fpt.liquidation_probability(h, m, pos) for h in grid]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    # longer windows give the barrier more chances
    by_t = [
        fpt.liquidation_probability(0.6, m, dataclasses.replace(pos, horizon_days=days))
        for days in (36.5, 91.25, 182.5)
    ]
    assert by_t[0] < by_t[1] < by_t[2]


def test_safe_ratio_matches_frozen_value(baseline):
    hb = fpt.h_bar(0.05, baseline.market, baseline.position)
    assert hb == pytest.approx(0.7048, abs=5e-4)


def test_safe_ratio_inverts_crossing_probability(baseline):
    # feeding back P(0.70) must recover h = 0.70 up to bisection tolerance
    alpha = P_LIQ_PCT[0.7] / 100.0
    hb = fpt.h_bar(alpha, baseline.market, baseline.position)
    assert hb == pytest.approx(0.70, abs=1e-3)


def test_safe_ratio_brackets_the_constraint(baseline):
    m, pos = baseline.market, baseline.position
    for alpha in (0.02, 0.05, 0.10):
        hb = fpt.h_bar(alpha, m, pos)
        # the midpoint return can overshoot the root by the bisection tolerance
        assert fpt.liquidation_probability(hb - 1e-6, m, pos) <= alpha
        assert fpt.liquidation_probability(hb + 1e-3, m, pos) > alpha


def test_safe_ratio_loose_constraint_returns_cap(baseline):
    # P(1.0) is ~24%, so a 90% budget never binds and the cap comes back
    assert fpt.h_bar(0.90, baseline.market, baseline.position) == 1.0


def test_safe_ratio_rejects_bad_alpha(baseline):
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="alpha"):
            fpt.h_bar(alpha, baseline.market, baseline.position)


def test_safe_ratio_shrinks_with_alpha(baseline):
    m, pos = baseline.market, baseline.position
    assert fpt.h_bar(0.01, m, pos) < fpt.h_bar(0.05, m, pos) < fpt.h_bar(0.20, m, pos)


def test_constrained_optimum_binding(baseline):
    m, r, pos = baseline.market, baseline.rates, baseline.position
    hds = fpt.h_double_star(0.01, m, r, pos)
    assert hds == fpt.h_bar(0.01, m, pos)
    assert hds < min(max(an.h_star(m, r, pos), 0.0), 1.0)


def test_constrained_optimum_slack(baseline):
    # with 5x collateral the risk budget never binds and the Sharpe optimum wins
    pos5 = dataclasses.replace(baseline.position, c_over_v0=5.0)
    hs = min(max(an.h_star(baseline.market, baseline.rates, pos5), 0.0), 1.0)
    assert fpt.liquidation_probability(hs, baseline.market, pos5) < 0.05
    hds = fpt.h_double_star(0.05, baseline.market, baseline.rates, pos5)
    assert hds == hs
    assert 0.9 < hds < 1.0


# ---------------------------------------------------------------------------
# properties over random calibrations

_MARKETS = st.builds(MarketParams, sigma_a=st.floats(0.05, 2.0), sigma_b=st.floats(0.05, 2.0),
                     rho=st.floats(-0.95, 0.95))
_POSITIONS = st.builds(PositionParams, v0=st.just(1.0), c_over_v0=st.floats(1.05, 6.0),
                       h=st.just(0.0), l_max=st.floats(0.3, 0.95),
                       horizon_days=st.floats(1.0, 730.0))


@settings(max_examples=50, deadline=None)
@given(m=_MARKETS, pos=_POSITIONS, h1=st.floats(0.0, 1.0), dh=st.floats(0.0, 1.0))
def test_crossing_probability_is_a_monotone_probability(m, pos, h1, dh):
    p1 = fpt.liquidation_probability(h1, m, pos)
    p2 = fpt.liquidation_probability(h1 + dh, m, pos)
    assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
    assert p1 <= p2


@settings(max_examples=50, deadline=None)
@given(m=_MARKETS, pos=_POSITIONS, alpha=st.floats(0.001, 0.5))
def test_safe_ratio_brackets_its_root(m, pos, alpha):
    tol = 1e-6
    hb = fpt.h_bar(alpha, m, pos, tol=tol)
    cap = min(1.0, pos.l_max * pos.c_over_v0)
    assert 0.0 < hb <= cap
    assert fpt.liquidation_probability(max(hb - tol, 0.0), m, pos) <= alpha
    # either the budget never binds below the cap, or one step up breaks it
    assert (hb == pytest.approx(cap, rel=1e-8)
            or fpt.liquidation_probability(hb + tol, m, pos) > alpha)


def _norm_cdf(x):
    # erfc keeps absolute error ~1e-16 in the tails, well under the 1e-9 we need
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _old_probability(h, market, pos):
    # the probability as it stood before h_bar shared one evaluator: every
    # call rebuilds the h-free terms through fpt_inputs
    if h == 0:
        return 0.0
    fi = fpt.fpt_inputs(h, market, pos)
    if fi.ltv0 >= pos.l_max:
        return 1.0
    s2t = fi.sigma_tilde * fi.sigma_tilde * fi.t_years
    sd = math.sqrt(s2t)
    b = fi.barrier_log
    return (_norm_cdf((-b - 0.5 * s2t) / sd)
            + (fi.ltv0 / pos.l_max) * _norm_cdf((-b + 0.5 * s2t) / sd))


def _old_h_bar(alpha, market, pos, tol=1e-6):
    hi = min(1.0, pos.l_max * pos.c_over_v0 * (1.0 - 1e-9))
    if _old_probability(hi, market, pos) <= alpha:
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _old_probability(mid, market, pos) <= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=100, deadline=None)
@given(m=_MARKETS, pos=_POSITIONS, alpha=st.floats(0.001, 0.5), h=st.floats(0.0, 1.0),
       rates=st.builds(RateParams, r_a=st.floats(0.0, 0.3), r_b=st.floats(0.0, 0.3),
                       reward_rate=st.floats(0.05, 1.5), r_f=st.floats(0.0, 0.1)))
def test_shared_evaluator_equals_the_old_bisection(m, pos, alpha, h, rates):
    assert fpt.liquidation_probability(h, m, pos) == _old_probability(h, m, pos)
    assert fpt.h_bar(alpha, m, pos) == _old_h_bar(alpha, m, pos)
    try:
        hs = min(max(an.h_star(m, rates, pos), 0.0), 1.0)
    except ValueError:
        return  # no interior optimum for this draw
    assert fpt.h_double_star(alpha, m, rates, pos) == min(hs, _old_h_bar(alpha, m, pos))


# ---------------------------------------------------------------------------
# the tolerance contract and the calibration caches

@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_safe_ratio_rejects_a_tolerance_that_is_not_finite_and_positive(baseline, tol):
    with pytest.raises(ValueError, match="tol"):
        fpt.h_bar(0.05, baseline.market, baseline.position, tol=tol)


def _count_evaluations(monkeypatch, limit=math.inf):
    """Record every probability evaluation in the returned list, failing past
    limit, and empty the h_bar cache so that the next call bisects."""
    evals = []
    real = fpt._probability

    def counting(market, pos):
        prob = real(market, pos)

        def counted(h):
            evals.append(h)
            assert len(evals) < limit, "the bisection does not stop"
            return prob(h)
        return counted

    monkeypatch.setattr(fpt, "_probability", counting)
    fpt._h_bar.cache_clear()
    return evals


def test_safe_ratio_below_the_gap_of_adjacent_doubles_terminates(baseline, monkeypatch):
    # a tol under the ulp of the root used to spin forever; the bisection now
    # stops when no double lies strictly between its brackets, some 55 halvings
    # from [0, 1], so a run past 200 evaluations is a failure, not a hang
    m, pos = baseline.market, baseline.position
    evals = _count_evaluations(monkeypatch, limit=200)
    hb = fpt.h_bar(0.05, m, pos, tol=1e-300)
    assert evals
    assert hb == pytest.approx(0.7048, abs=5e-4)
    assert fpt.liquidation_probability(math.nextafter(hb, 0.0), m, pos) <= 0.05
    assert fpt.liquidation_probability(math.nextafter(hb, 1.0), m, pos) > 0.05


def _twin(rec):
    """An equal record that is another object, every float zero of its
    fields carrying the other sign."""
    flip = {f.name: -v for f in dataclasses.fields(rec)
            if f.init and isinstance(v := getattr(rec, f.name), float) and v == 0.0}
    return dataclasses.replace(rec, **flip)


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


@settings(max_examples=100, deadline=None)
@given(m=st.builds(MarketParams, sigma_a=st.floats(0.05, 2.0), sigma_b=st.floats(0.05, 2.0),
                   rho=st.one_of(_SIGNED_ZERO, st.floats(-0.95, 0.95))),
       pos=_POSITIONS, alpha=st.floats(0.001, 0.5),
       rates=st.builds(RateParams, r_a=st.one_of(_SIGNED_ZERO, st.floats(0.0, 0.3)),
                       r_b=st.one_of(_SIGNED_ZERO, st.floats(0.0, 0.3)),
                       reward_rate=st.floats(0.05, 1.5),
                       r_f=st.one_of(_SIGNED_ZERO, st.floats(0.0, 0.1))),
       tol=st.sampled_from([1e-6, 1e-9, 1e-3]), by_keyword=st.booleans())
def test_cached_sizing_equals_a_fresh_evaluation(m, pos, alpha, rates, tol, by_keyword):
    # the twins hit the entries the originals made; a fresh evaluation of the
    # twins must give the same bits
    tm, tr, tp = _twin(m), _twin(rates), _twin(pos)
    assert (tm, tr, tp) == (m, rates, pos) and tm is not m and tp is not pos
    hb = fpt.h_bar(alpha, m, pos, tol=tol) if by_keyword else fpt.h_bar(alpha, m, pos, tol)
    fresh_hb = fpt._h_bar.__wrapped__(alpha, tm, tp, tol)
    assert hb.hex() == fresh_hb.hex() == fpt.h_bar(alpha, tm, tp, tol).hex()
    try:
        hs = an.h_star(m, rates, pos)
    except ValueError:
        # a raise is not cached: the twins raise again
        with pytest.raises(ValueError):
            an.h_star(tm, tr, tp)
        return
    fresh_hs = an._h_star.__wrapped__(tm, tr, tp)
    assert hs.hex() == fresh_hs.hex() == an.h_star(tm, tr, tp).hex()
    # h_double_star bisects at the default tolerance
    want = min(min(max(fresh_hs, 0.0), 1.0), fpt._h_bar.__wrapped__(alpha, tm, tp, 1e-6))
    assert fpt.h_double_star(alpha, tm, tr, tp).hex() == want.hex()


def test_constrained_optimum_after_safe_ratio_evaluates_no_probability(baseline, monkeypatch):
    m, r, pos = baseline.market, baseline.rates, baseline.position
    evals = _count_evaluations(monkeypatch)
    hb = fpt.h_bar(0.05, m, pos)
    assert len(evals) > 20  # the cold call bisects
    evals.clear()
    assert fpt.h_double_star(0.05, m, r, pos) == min(min(max(an.h_star(m, r, pos), 0.0), 1.0), hb)
    assert evals == []


def test_a_raise_is_not_cached():
    # no reward and no supply rate: mu0 < 0, so h* is undefined on every call
    rates = RateParams(reward_rate=0.0, r_f=0.0)
    kept = an._h_star.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="mu0"):
            an.h_star(MarketParams(), rates, PositionParams())
    assert an._h_star.cache_info().currsize == kept
