"""Scalar reference for montecarlo.simulate_batch: one path, plain floats.
Events are timed in days rather than step strides, and collateral accrues
interest step by step rather than in closed form."""

import math

from ammhedge.config_domain import DAYS_PER_YEAR, parse_rebalance


def _on_multiple(day, interval):
    return abs(day / interval - round(day / interval)) < 1e-9


def simulate_path(rel_a, rel_b, rates, pos, sim):
    """Outcome of one path of price relatives (index 0 is 1.0) as a dict."""
    steps = len(rel_a) - 1
    dt = pos.horizon_days / steps
    dt_y = dt / DAYS_PER_YEAR
    v0, h = pos.v0, pos.h
    coll = coll0 = pos.c_over_v0 * v0
    kind, par = parse_rebalance(sim.rebalance)
    da = db = h * v0 / 2.0
    res_a = res_b = pending = cash = interest = 0.0
    liq, liq_day, max_ltv, n_reb, n_claims = False, None, h * v0 / coll0, 0, 0
    for t in range(1, steps + 1):
        a, b, day = float(rel_a[t]), float(rel_b[t]), t * dt
        interest += (da * a * rates.r_a + db * b * rates.r_b) * dt_y
        coll += coll0 * rates.r_f * dt_y
        pending += rates.reward_rate * v0 * dt_y
        if sim.claim_interval_days > 0 and _on_multiple(day, sim.claim_interval_days):
            va, vb = max(da * a - res_a, 0.0), max(db * b - res_b, 0.0)
            repay = min(pending, va + vb)
            w = va / (va + vb) if va + vb > 0 else 0.5
            res_a += repay * w
            res_b += repay * (1.0 - w)
            cash += pending - repay
            pending = 0.0
            n_claims += not liq
        ltv = (max(da * a - res_a, 0.0) + max(db * b - res_b, 0.0) + interest) / coll0
        max_ltv = max(max_ltv, ltv)
        if not liq and ltv >= pos.l_max:
            liq, liq_day = True, day
        if liq or kind == "none":
            continue
        lp = v0 * math.sqrt(a * b)
        if kind == "periodic":
            fire = _on_multiple(day, par)
        else:
            drift = max(abs(da * a / (lp / 2.0) - h), abs(db * b / (lp / 2.0) - h))
            fire = _on_multiple(day, 1.0) and drift > par / 100.0
        if fire:
            cash += da * a + db * b - h * lp
            da, db = h * lp / (2.0 * a), h * lp / (2.0 * b)
            n_reb += 1
    a, b = float(rel_a[-1]), float(rel_b[-1])
    debt = max(da * a - res_a, 0.0) + max(db * b - res_b, 0.0)
    pi0 = coll0 + (1.0 - h) * v0
    pnl = -sim.liq_penalty_frac * coll0 if liq else \
        v0 * math.sqrt(a * b) + pending + cash + coll - debt - interest - pi0
    tx = sim.borrow_fee_frac * h * v0 + sim.gas_cost * (n_claims + n_reb)
    return {"roe": (pnl - tx if sim.include_tx_costs else pnl) / pi0, "liquidated": liq,
            "liq_time_days": liq_day, "max_ltv": max_ltv, "n_rebalances": n_reb,
            "n_claims": n_claims, "tx_cost_paid": tx}
