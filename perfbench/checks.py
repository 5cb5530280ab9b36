"""Correctness checkers, written apart from the program.

Nothing here imports ammhedge. The closed form is rebuilt from the joint
lognormal moment generating function of the two price relatives, the
optimum is tested against its own first-order condition, and the
liquidation probability comes from the reflection formula for the running
maximum of a drifted Brownian motion. The table checkers parse the CLI's CSV
text and test properties that any correct run must have; none compares
against a stored copy of an earlier output.

Every checker returns a list of problems; an empty list means the output
passed.
"""

import hashlib
import math
from typing import NamedTuple

DAYS_PER_YEAR = 365.0

# The paper's baseline calibration (SUI/NS, 90 days) used by both CLI workloads.
BASE = dict(sigma_a=0.922, sigma_b=1.084, rho=0.72, r_f=0.04, l_max=0.80,
            horizon_days=90.0)
# Paper's C/V0 sensitivity row: C/V0 -> h** in percent.
PAPER_CV_ROW = {1.2: 30.0, 1.5: 50.0, 1.8: 60.0, 2.0: 65.0, 2.5: 80.0, 3.0: 80.0,
                4.0: 90.0, 5.0: 100.0}
# h** may sit this far from the paper's row at the benchmark's 30k paths
# (see README: observed spread over seeds).
H_TOL_PP = 15.0
P_LIQ_SE_MULT = 4.0     # binomial standard errors allowed above the FPT value
REBALANCE_LABELS = ("No rebalance", "Threshold 20pp", "Threshold 15pp",
                    "Threshold 10pp", "Every 14 days", "Every 30 days")


class Calibration(NamedTuple):
    sigma_a: float
    sigma_b: float
    rho: float
    r_a: float
    r_b: float
    reward_rate: float
    r_f: float
    v0: float
    c_over_v0: float
    h: float
    l_max: float
    horizon_days: float
    horizon_years: float
    jumps: bool = False


# ---------------------------------------------------------------------------
# closed form from the joint lognormal MGF

def mgf(a, b, sa, sb, rho, t):
    """E[pA^a pB^b] for driftless correlated GBM relatives started at 1."""
    var = (a * sa) ** 2 + (b * sb) ** 2 + 2.0 * a * b * rho * sa * sb
    mean = -0.5 * (a * sa * sa + b * sb * sb)
    return math.exp((mean + 0.5 * var) * t)


def moments(cal):
    """(E[G], Var G, Var A, Cov(G, A)) for G = sqrt(pA pB), A = (pA + pB)/2."""
    sa, sb, rho, t = cal.sigma_a, cal.sigma_b, cal.rho, cal.horizon_years
    e_g = mgf(0.5, 0.5, sa, sb, rho, t)
    e_g2 = mgf(1.0, 1.0, sa, sb, rho, t)
    e_a2 = 0.25 * (mgf(2.0, 0.0, sa, sb, rho, t) + mgf(0.0, 2.0, sa, sb, rho, t)
                   + 2.0 * mgf(1.0, 1.0, sa, sb, rho, t))
    e_ga = 0.5 * (mgf(1.5, 0.5, sa, sb, rho, t) + mgf(0.5, 1.5, sa, sb, rho, t))
    return e_g, e_g2 - e_g * e_g, e_a2 - 1.0, e_ga - e_g


def mean_terms(cal):
    """(mu0, c): expected P&L at h = 0 and its slope in h, per the model."""
    e_g = moments(cal)[0]
    t, v0 = cal.horizon_years, cal.v0
    mu0 = v0 * (e_g - 1.0) + cal.reward_rate * v0 * t + cal.c_over_v0 * v0 * cal.r_f * t
    return mu0, 0.5 * v0 * (cal.r_a + cal.r_b) * t


def denom_and_mu0(cal):
    _, v_gg, v_aa, v_ga = moments(cal)
    mu0, c = mean_terms(cal)
    return mu0 * v_aa - c * v_ga, mu0


def foc_residual(h, cal):
    """d/dh of (mu0 - c h) / sqrt(V(h)), times V^(3/2); zero at the optimum.

    Returned with the sum of the absolute values of its terms, the scale of
    its rounding error: V(h) can cancel to a tiny number near h = 1.
    """
    _, v_gg, v_aa, v_ga = moments(cal)
    mu0, c = mean_terms(cal)
    var = v_gg + h * h * v_aa - 2.0 * h * v_ga
    slope = h * v_aa - v_ga
    res = -c * var - (mu0 - c * h) * slope
    scale = (abs(c) * (v_gg + h * h * v_aa + abs(2.0 * h * v_ga))
             + (abs(mu0) + abs(c * h)) * (abs(h * v_aa) + abs(v_ga)))
    return res, scale


def variance_condition(h, cal):
    """How much V(h) = v_GG + h^2 v_AA - 2h v_GA cancels: sum of |terms| / V."""
    _, v_gg, v_aa, v_ga = moments(cal)
    var = v_gg + h * h * v_aa - 2.0 * h * v_ga
    return (v_gg + h * h * v_aa + abs(2.0 * h * v_ga)) / var


def sharpe(h, cal):
    _, v_gg, v_aa, v_ga = moments(cal)
    mu0, c = mean_terms(cal)
    return (mu0 - c * h) / (cal.v0 * math.sqrt(v_gg + h * h * v_aa - 2.0 * h * v_ga))


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def p_liq_fpt(h, c_over_v0, l_max, sa, sb, rho, t):
    """P(sup LTV >= l_max) for LTV0 e^{X}, X = nu t + s W with nu = -s^2/2.

    s is matched to the second moment of A = (pA + pB)/2, so s^2 t =
    ln E[A^2]. Reflection: P(sup_{u<=t} X >= b) = Phi((nu t - b)/(s sqrt t))
    + exp(2 nu b / s^2) Phi((-b - nu t)/(s sqrt t)).
    """
    if h <= 0.0:
        return 0.0
    ltv0 = h / c_over_v0
    if ltv0 >= l_max:
        return 1.0
    e_a2 = 0.25 * (mgf(2.0, 0.0, sa, sb, rho, t) + mgf(0.0, 2.0, sa, sb, rho, t)
                   + 2.0 * mgf(1.0, 1.0, sa, sb, rho, t))
    s2 = math.log(e_a2) / t
    nu = -0.5 * s2
    b = math.log(l_max / ltv0)
    sd = math.sqrt(s2 * t)
    return _phi((nu * t - b) / sd) + math.exp(2.0 * nu * b / s2) * _phi((-b - nu * t) / sd)


def p_liq_cal(h, cal):
    return p_liq_fpt(h, cal.c_over_v0, cal.l_max, cal.sigma_a, cal.sigma_b, cal.rho,
                     cal.horizon_years)


def h_cap(cal):
    """Upper end of the h_bar search: full hedge, or LTV0 just below l_max."""
    return min(1.0, cal.l_max * cal.c_over_v0 * (1.0 - 1e-9))


def _close(got, want, rel=1e-9, abs_=1e-12):
    return abs(got - want) <= max(abs_, rel * abs(want))


def check_sizing(record, cal):
    """One sizing: h*, SR, P(liq) at clamp(h*), and per alpha h_bar and h**."""
    probs = []
    if record["errors"]:
        probs.append("validate_scenario rejected a feasible calibration: %s" % record["errors"])
    hs = record["h_star"]
    res, scale = foc_residual(hs, cal)
    if not abs(res) <= 1e-9 * scale:
        probs.append("h* = %r misses the first-order condition (residual %.3g of %.3g)"
                     % (hs, res, scale))
    hc = min(max(hs, 0.0), 1.0)
    # SR inherits the relative rounding error of V(h), amplified by its cancellation
    if not _close(record["sr"], sharpe(hc, cal), rel=1e-9 + 1e-13 * variance_condition(hc, cal)):
        probs.append("SR(%r) = %r, expected %r" % (hc, record["sr"], sharpe(hc, cal)))
    if not _close(record["p_liq"], p_liq_cal(hc, cal), abs_=1e-15):
        probs.append("P(liq, %r) = %r, expected %r" % (hc, record["p_liq"], p_liq_cal(hc, cal)))
    cap = h_cap(cal)
    for alpha, hb, hdd in record["alphas"]:
        if abs(hb - cap) <= 1e-12:
            if p_liq_cal(cap, cal) > alpha:
                probs.append("h_bar(%g) sits at the cap but P(cap) = %r > alpha"
                             % (alpha, p_liq_cal(cap, cal)))
        elif not (0.0 < hb < cap and p_liq_cal(hb - 2e-6, cal) <= alpha < p_liq_cal(hb + 2e-6, cal)):
            probs.append("h_bar(%g) = %r does not bracket alpha (P = %r .. %r)"
                         % (alpha, hb, p_liq_cal(hb - 2e-6, cal), p_liq_cal(hb + 2e-6, cal)))
        want = min(hc, hb)
        if not abs(hdd - want) <= 1e-12:
            probs.append("h**(%g) = %r, expected min(clamp(h*), h_bar) = %r" % (alpha, hdd, want))
    return probs


# ---------------------------------------------------------------------------
# CLI tables

def parse_table(text):
    """(provenance dict, column names, rows of cell strings) of one CSV table."""
    lines = text.rstrip("\n").split("\n")
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing provenance line")
    prov = dict(kv.split("=", 1) for kv in lines[0][2:].split())
    if len(lines) < 2:
        raise ValueError("missing header line")
    cols = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    if any(len(r) != len(cols) for r in rows):
        raise ValueError("ragged rows")
    return prov, cols, rows


def se_sr(sr, n, horizon_days):
    """Asymptotic standard error of an annualized Sharpe estimate (iid returns):
    sqrt((1 + SR_T^2 / 2) / n) * sqrt(365 / T) with SR_T the per-horizon ratio."""
    ann = math.sqrt(DAYS_PER_YEAR / horizon_days)
    per = sr / ann
    return math.sqrt((1.0 + 0.5 * per * per) / n) * ann


def _se_window(sr_text, n, horizon_days):
    """Range of se(SR) over every SR that rounds to the printed value."""
    half = 0.5 * 10.0 ** -len(sr_text.split(".")[1]) if "." in sr_text else 0.5
    sr = float(sr_text)
    ses = [se_sr(sr + d, n, horizon_days) for d in (-half, 0.0, half)]
    return min(ses), max(ses)


def _check_provenance(prov, seed, n_paths):
    probs = []
    if prov.get("seed") != str(seed):
        probs.append("provenance seed %r, expected %d" % (prov.get("seed"), seed))
    if prov.get("n_paths") != str(n_paths):
        probs.append("provenance n_paths %r, expected %d" % (prov.get("n_paths"), n_paths))
    return probs


def check_sweep_cv(text, seed, values, n_paths):
    """`ammhedge sweep --axis cv` table: one row per C/V0 value, in order."""
    try:
        prov, cols, rows = parse_table(text)
    except ValueError as exc:
        return ["unparseable sweep output: %s" % exc]
    want_cols = ["position.c_over_v0", "h**", "SR", "SR (+tx)", "P(liq)", "E[ROE]",
                 "Init LTV", "se(SR)"]
    if cols != want_cols:
        return ["columns %r, expected %r" % (cols, want_cols)]
    probs = _check_provenance(prov, seed, n_paths)
    if len(rows) != len(values):
        return probs + ["%d rows for %d C/V0 values" % (len(rows), len(values))]
    days = BASE["horizon_days"]
    for row, cv in zip(rows, values):
        try:
            got_cv, h, sr, sr_tx, p_liq, _, init_ltv, se = (float(x) for x in row)
        except ValueError:
            probs.append("non-numeric row %r" % (row,))
            continue
        tag = "C/V0 %g" % cv
        if got_cv != cv:
            probs.append("%s: row is for C/V0 %r" % (tag, got_cv))
        if not (0.0 <= h <= 100.0 and abs(h / 5.0 - round(h / 5.0)) < 1e-9):
            probs.append("%s: h** = %r is not on the 5pp grid" % (tag, h))
        if abs(init_ltv - h / cv) > 0.05 + 1e-9:
            probs.append("%s: Init LTV %r != h**/(C/V0) = %.4f" % (tag, init_ltv, h / cv))
        p_fpt = p_liq_fpt(h / 100.0, cv, BASE["l_max"], BASE["sigma_a"], BASE["sigma_b"],
                          BASE["rho"], days / DAYS_PER_YEAR)
        cap = 100.0 * (p_fpt + P_LIQ_SE_MULT * math.sqrt(p_fpt * (1.0 - p_fpt) / n_paths))
        if p_liq > cap + 0.05 + 1e-9:
            probs.append("%s: P(liq) %r%% at h** = %g exceeds the first-passage bound %.3f%%"
                         % (tag, p_liq, h, cap))
        if abs(h - PAPER_CV_ROW[cv]) > H_TOL_PP + 1e-9:
            probs.append("%s: h** = %g, paper %g (tolerance %g pp)"
                         % (tag, h, PAPER_CV_ROW[cv], H_TOL_PP))
        if sr_tx > sr:
            probs.append("%s: SR (+tx) %r above cost-free SR %r" % (tag, sr_tx, sr))
        lo, hi = _se_window(row[2], n_paths, days)
        if not lo - 0.0005 - 1e-12 <= se <= hi + 0.0005 + 1e-12:
            probs.append("%s: se(SR) %r, formula gives %.5f..%.5f" % (tag, se, lo, hi))
    return probs


def check_rebalance(text, seed, n_paths):
    """`ammhedge rebalance` table: cadence counts, threshold ordering, SR and se(SR)."""
    try:
        prov, cols, rows = parse_table(text)
    except ValueError as exc:
        return ["unparseable rebalance output: %s" % exc]
    want_cols = ["Strategy", "E[ROE]", "Std", "SR", "P(liq)", "Avg rebal.", "Cost", "se(SR)"]
    if cols != want_cols:
        return ["columns %r, expected %r" % (cols, want_cols)]
    probs = _check_provenance(prov, seed, n_paths)
    labels = tuple(r[0] for r in rows)
    if labels != REBALANCE_LABELS:
        return probs + ["strategies %r, expected %r" % (labels, REBALANCE_LABELS)]
    avg = {}
    horizon_days = BASE["horizon_days"]
    ann = math.sqrt(DAYS_PER_YEAR / horizon_days)
    hurdle_pp = 100.0 * BASE["r_f"] * horizon_days / DAYS_PER_YEAR
    for row in rows:
        label = row[0]
        try:
            e_roe, std, sr, p_liq, n_reb, cost, se = (float(x) for x in row[1:])
        except ValueError:
            probs.append("non-numeric row %r" % (row,))
            continue
        avg[label] = n_reb
        # SR = (E[ROE] - r_f T) / Std * sqrt(365/T), over the rounding of E and Std
        corners = [(e_roe + de - hurdle_pp) / (std + ds) * ann
                   for de in (-0.005, 0.005) for ds in (-0.005, 0.005)]
        if not min(corners) - 0.0005 - 1e-12 <= sr <= max(corners) + 0.0005 + 1e-12:
            probs.append("%s: SR %r inconsistent with E[ROE] %r and Std %r" % (label, sr, e_roe, std))
        lo, hi = _se_window(row[3], n_paths, horizon_days)
        if not lo - 0.0005 - 1e-12 <= se <= hi + 0.0005 + 1e-12:
            probs.append("%s: se(SR) %r, formula gives %.5f..%.5f" % (label, se, lo, hi))
        if not 0.0 <= p_liq <= 100.0:
            probs.append("%s: P(liq) %r outside [0, 100]" % (label, p_liq))
        if cost < 0.0:
            probs.append("%s: negative cost %r" % (label, cost))
    if len(avg) == len(REBALANCE_LABELS):
        # 90 days: periodic(14) fires on days 14..84, periodic(30) on 30, 60, 90
        for label, want in (("No rebalance", 0.0), ("Every 14 days", 6.0), ("Every 30 days", 3.0)):
            if avg[label] != want:
                probs.append("%s: Avg rebal. %r, expected exactly %r" % (label, avg[label], want))
        t10, t15, t20 = avg["Threshold 10pp"], avg["Threshold 15pp"], avg["Threshold 20pp"]
        if not t10 >= t15 >= t20:
            probs.append("threshold rebalance counts not ordered 10pp >= 15pp >= 20pp: %r, %r, %r"
                         % (t10, t15, t20))
    return probs


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_same_bytes(digests, what):
    """Determinism: every digest in the list must be equal."""
    if len(set(digests)) > 1:
        return ["%s: outputs differ between operations with the same inputs" % what]
    return []
