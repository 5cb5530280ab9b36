"""Closed-form layer for a borrow-hedged constant-product LP position.

Under zero-drift correlated GBM the pool value is G_T = V0 * sqrt(pA pB) and
the hedged short leg is worth h * V0 * (pA + pB)/2. Every moment needed for
the mean/variance of terminal P&L has a closed form, which makes the Sharpe
ratio an explicit function of the hedge ratio h and its maximizer a ratio of
two linear forms.

h_star is cached per calibration: the records are frozen, so equal records
give the same value, and a caller that asks again (h_double_star for each
risk budget) gets the first evaluation back, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .config_domain import MarketParams, PositionParams, RateParams

# calibrations kept by the h_star and h_bar caches, least recently used first out
_CALIBRATION_CACHE = 256


@dataclass(frozen=True)
class MomentSet:
    """Variance/covariance components of G = sqrt(pA pB) and A = (pA + pB)/2."""

    phi: float
    v_gg: float
    v_aa: float
    v_ga: float


@dataclass(frozen=True)
class PnlDecomposition:
    """Expected P&L split: mu0 is h-independent, c is the borrow-cost slope."""

    mu0: float
    c: float


def joint_mgf_exponent(a, b, market: MarketParams, t_years):
    """log E[pA^a pB^b] for zero-drift correlated GBM at horizon t_years; the only
    reader of the price model here or in liquidation_fpt, whose moments are sums of its exp."""
    sa, sb = market.sigma_a, market.sigma_b
    return 0.5 * (a * (a - 1.0) * (sa * sa) + b * (b - 1.0) * (sb * sb)
                  + 2.0 * a * b * (market.rho * sa * sb)) * t_years


def compute_phi(market: MarketParams) -> float:
    # pool decay rate: E[G_t] = V0 * exp(-phi t)
    return -joint_mgf_exponent(0.5, 0.5, market, 1.0)


def variance_components(market: MarketParams, t_years) -> MomentSet:
    """Exact variance decomposition of pool vs 50/50 hold at horizon t_years.

    All three components are dimensionless (relative to V0^2) and vanish as
    t -> 0. Each is a sum of E[pA^a pB^b] = exp(joint_mgf_exponent(a, b)).
    """
    k, t = joint_mgf_exponent, t_years
    k_g = k(0.5, 0.5, market, t)  # log E[G_t / V0]
    e_11 = math.exp(k(1.0, 1.0, market, t))
    v_gg = e_11 - math.exp(2.0 * k_g)
    v_aa = 0.25 * (math.exp(k(2.0, 0.0, market, t)) + math.exp(k(0.0, 2.0, market, t))
                   + 2.0 * e_11 - 4.0)
    v_ga = 0.5 * (math.exp(k(1.5, 0.5, market, t)) + math.exp(k(0.5, 1.5, market, t))
                  - 2.0 * math.exp(k_g))
    return MomentSet(phi=compute_phi(market), v_gg=v_gg, v_aa=v_aa, v_ga=v_ga)


def pnl_decomposition(market: MarketParams, rates: RateParams, pos: PositionParams) -> PnlDecomposition:
    """mu0 = V0 (e^{-phi T} - 1) + R T + C r_f T and c = (V0/2)(r_a + r_b) T."""
    t = pos.horizon_years
    phi = compute_phi(market)
    v0 = pos.v0
    mu0 = v0 * (math.exp(-phi * t) - 1.0) + rates.reward_rate * v0 * t \
        + pos.c_over_v0 * v0 * rates.r_f * t
    c = 0.5 * v0 * (rates.r_a + rates.r_b) * t
    return PnlDecomposition(mu0=mu0, c=c)


def pnl_variance(h, moments: MomentSet, v0=1.0):
    """Var of terminal P&L at hedge ratio h, in numeraire^2."""
    return v0 * v0 * (moments.v_gg + h * h * moments.v_aa - 2.0 * h * moments.v_ga)


def sharpe(h, market: MarketParams, rates: RateParams, pos: PositionParams) -> float:
    """One-period dollar Sharpe (mu0 - c h) / (V0 sqrt(v_gg + h^2 v_aa - 2 h v_ga)).

    Scale invariant in V0 when C/V0 and R/V0 are held fixed. Not annualized;
    the simulator's summary statistics carry the annualized flavor.
    """
    m = variance_components(market, pos.horizon_years)
    d = pnl_decomposition(market, rates, pos)
    var_h = pnl_variance(h, m, pos.v0)
    if var_h <= 0.0:
        raise ValueError("P&L variance at h = %g is not positive" % h)
    return (d.mu0 - d.c * h) / math.sqrt(var_h)


def h_star(market: MarketParams, rates: RateParams, pos: PositionParams) -> float:
    """Unconstrained Sharpe maximizer h* = (mu0 v_ga - c v_gg)/(mu0 v_aa - c v_ga).

    Returned unclamped; values outside [0,1] are the caller's problem. Raises
    when mu0 <= 0 (the position is not profitable even unhedged, so the
    first-order condition has no admissible root). The value is cached per
    (market, rates, pos); a raise is not, so it repeats on every call.
    """
    return _h_star(market, rates, pos)


@functools.lru_cache(maxsize=_CALIBRATION_CACHE)
def _h_star(market, rates, pos):
    m = variance_components(market, pos.horizon_years)
    d = pnl_decomposition(market, rates, pos)
    if d.mu0 <= 0.0:
        raise ValueError(
            "mu0 = %.6g <= 0: expected P&L at h = 0 is not positive, Sharpe optimum undefined" % d.mu0)
    if d.c == 0.0:
        return m.v_ga / m.v_aa  # cost-free limit, kept exact
    denom = d.mu0 * m.v_aa - d.c * m.v_ga
    if denom <= 0.0:
        raise ValueError("degenerate first-order condition: mu0 v_aa - c v_ga = %.6g <= 0" % denom)
    return (d.mu0 * m.v_ga - d.c * m.v_gg) / denom


def h_min_variance(market: MarketParams, pos: PositionParams) -> float:
    """Variance-minimizing hedge ratio v_ga / v_aa (the c = 0 limit of h*)."""
    m = variance_components(market, pos.horizon_years)
    return m.v_ga / m.v_aa


def verify_soc(h, market: MarketParams, rates: RateParams, pos: PositionParams) -> bool:
    """Sign of the second-order-condition numerator at h; True means concave there."""
    m = variance_components(market, pos.horizon_years)
    d = pnl_decomposition(market, rates, pos)
    var_h = pnl_variance(h, m, pos.v0)
    mu_h = d.mu0 - d.c * h
    return 2.0 * d.c * d.c * var_h - 2.0 * mu_h * mu_h * pos.v0 * pos.v0 * m.v_aa < 0.0
