"""Liquidation risk bounds via a moment-matched first-passage approximation.

The LTV numerator is h V0 (pA + pB)/2, a sum of two correlated lognormals.
We match its first two moments with a single lognormal, which turns the
barrier-crossing question into a textbook GBM first-passage problem with
drift nu = -sigma_tilde^2 / 2 and a reflection-style closed form.

h_bar(alpha) bisects that probability to tol, which must be finite and
positive; the loop also ends once no double lies strictly between the
brackets, so any such tol terminates. Like analytics.h_star, h_bar is cached
per calibration (alpha, market, pos, tol), so h_double_star after h_bar, or
after h_star, reuses those evaluations and returns the same bits as a fresh
one. Errors are raised afresh on every call, never cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .analytics import _CALIBRATION_CACHE, h_star, joint_mgf_exponent
from .config_domain import MarketParams, PositionParams, RateParams

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FptInputs:
    ltv0: float
    barrier_log: float
    sigma_tilde: float
    nu: float
    t_years: float


def sigma_tilde(market: MarketParams, t_years) -> float:
    """Annualized vol of the single GBM matched to the debt factor (pA + pB)/2.

    sigma_tilde^2 = (1/t) log E[((pA + pB)/2)^2], from joint_mgf_exponent. As
    t -> 0 this approaches the instantaneous portfolio variance
    (sa^2 + sb^2 + 2 rho sa sb)/4.
    """
    k, t = joint_mgf_exponent, t_years
    num = (math.exp(k(2.0, 0.0, market, t)) + math.exp(k(0.0, 2.0, market, t))
           + 2.0 * math.exp(k(1.0, 1.0, market, t)))
    return math.sqrt(math.log(num / 4.0) / t)


def fpt_inputs(h, market: MarketParams, pos: PositionParams) -> FptInputs:
    ltv0 = h / pos.c_over_v0
    st = sigma_tilde(market, pos.horizon_years)
    barrier = math.log(pos.l_max / ltv0) if ltv0 > 0 else math.inf
    return FptInputs(ltv0=ltv0, barrier_log=barrier, sigma_tilde=st,
                     nu=-0.5 * st * st, t_years=pos.horizon_years)


@functools.lru_cache(maxsize=_CALIBRATION_CACHE)
def _probability(market: MarketParams, pos: PositionParams):
    """liquidation_probability(., market, pos) as a function of h alone, cached per
    (market, pos): the moment-matched vol, s2t and sd depend on neither h nor alpha."""
    st = sigma_tilde(market, pos.horizon_years)
    s2t = st * st * pos.horizon_years
    sd = math.sqrt(s2t)
    half_s2t = 0.5 * s2t
    l_max, c_over_v0 = pos.l_max, pos.c_over_v0
    erfc, log = math.erfc, math.log

    def prob(h):
        if h == 0:
            return 0.0
        if h < 0:
            raise ValueError("h must be nonnegative")
        ltv0 = h / c_over_v0
        if ltv0 >= l_max:
            return 1.0
        b = log(l_max / ltv0) if ltv0 > 0 else math.inf
        # Phi(x) = 0.5 erfc(-x / sqrt 2) at x = (-b -/+ s2t/2) / sd: erfc keeps
        # absolute error ~1e-16 in the tails, and negating x is exact, so
        # (b +/- s2t/2) / sd has its bits
        return (0.5 * erfc((b + half_s2t) / sd / _SQRT2)
                + (ltv0 / l_max) * (0.5 * erfc((b - half_s2t) / sd / _SQRT2)))

    return prob


def liquidation_probability(h, market: MarketParams, pos: PositionParams) -> float:
    """P(max LTV over [0,T] reaches l_max) under the matched-GBM approximation.

    Monotone increasing in h. h = 0 carries no debt, so 0; an infeasible
    start (LTV0 >= l_max) is trivially 1.
    """
    return _probability(market, pos)(h)


def h_bar(alpha, market: MarketParams, pos: PositionParams, tol=1e-6) -> float:
    """Largest h in (0, min(1, l_max * C/V0)] with liquidation probability <= alpha.

    Bisection on the monotone probability to a bracket of width tol (finite
    and positive); returns the upper bracket when the constraint does not
    bind there. Cached per (alpha, market, pos, tol).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    return _h_bar(alpha, market, pos, tol)


@functools.lru_cache(maxsize=_CALIBRATION_CACHE)
def _h_bar(alpha, market, pos, tol):
    prob = _probability(market, pos)
    # keep LTV0 strictly below l_max at the bracket end
    hi = min(1.0, pos.l_max * pos.c_over_v0 * (1.0 - 1e-9))
    if prob(hi) <= alpha:
        return hi
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles: a tol below their gap
        if prob(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def h_double_star(alpha, market: MarketParams, rates: RateParams, pos: PositionParams) -> float:
    """Constrained optimum: min of the clamped Sharpe maximizer and h_bar(alpha),
    both taken from the calibration caches when asked for before."""
    hs = min(max(h_star(market, rates, pos), 0.0), 1.0)
    return min(hs, h_bar(alpha, market, pos))
