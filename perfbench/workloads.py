"""Inputs of the three workloads, made from the benchmark seed alone.

Nothing here imports the program: the sizing calibrations are drawn and
filtered with the benchmark's own closed form (checks.py), so the inputs do
not depend on the code under test.
"""

import random

from checks import DAYS_PER_YEAR, PAPER_CV_ROW, Calibration, denom_and_mu0

N_PATHS = 30000
CV_SUBSET = 2          # C/V0 values per sweep, drawn from the paper's eight
REBALANCE_H = 0.60
SIZING_BATCH = 2500    # calibrations sized per size_positions operation
ALPHAS = (0.01, 0.02, 0.05, 0.10)

WORKLOADS = ("sweep_cv", "rebalance_jumps", "size_positions")

# Centres of the sizing draws: the shipped presets' market and rate keys.
# (table5 differs from baseline only in its path count, so it is left out.)
PRESET_CENTRES = {
    "baseline": dict(sigma_a=0.922, sigma_b=1.084, rho=0.72, r_a=0.03, r_b=0.15,
                     reward_rate=0.54, horizon_days=90.0),
    "sec46": dict(sigma_a=0.922, sigma_b=1.084, rho=0.72, r_a=0.03, r_b=0.15,
                  reward_rate=0.54, horizon_days=91.25),
    "jumps": dict(sigma_a=0.922, sigma_b=1.084, rho=0.72, r_a=0.03, r_b=0.15,
                  reward_rate=0.54, horizon_days=90.0, jumps=True),
    "sol_ray": dict(sigma_a=0.80, sigma_b=1.10, rho=0.83, r_a=0.05, r_b=0.08,
                    reward_rate=0.40, horizon_days=90.0),
    "sol_jup": dict(sigma_a=0.80, sigma_b=1.00, rho=0.86, r_a=0.05, r_b=0.06,
                    reward_rate=0.35, horizon_days=90.0),
    "eth_arb": dict(sigma_a=0.74, sigma_b=1.03, rho=0.82, r_a=0.03, r_b=0.05,
                    reward_rate=0.30, horizon_days=90.0),
}
HORIZONS_DAYS = (30.0, 60.0, 90.0, 180.0)
L_MAX_CHOICES = (0.75, 0.80, 0.85)


def _rng(workload, seed):
    # str seeds hash with SHA-512, so the stream is the same on every platform
    return random.Random("%s/%d" % (workload, seed))


def program_seed(workload, seed):
    """The --seed handed to the program; non-negative whatever the bench seed."""
    return _rng(workload, seed).randrange(2 ** 31)


def cv_values(seed):
    rng = _rng("sweep_cv.values", seed)
    return tuple(sorted(rng.sample(sorted(PAPER_CV_ROW), CV_SUBSET)))


def cli_argv(workload, seed, workers=None):
    """argv of the one CLI command a workload operation runs."""
    s = str(program_seed(workload, seed))
    if workload == "sweep_cv":
        values = ",".join("%g" % v for v in cv_values(seed))
        return ["sweep", "--scenario", "baseline", "--axis", "cv", "--values", values,
                "--paths", str(N_PATHS), "--workers", str(workers or 1), "--seed", s]
    if workload == "rebalance_jumps":
        return ["rebalance", "--scenario", "jumps", "--h", "%.2f" % REBALANCE_H,
                "--paths", str(N_PATHS), "--workers", str(workers or 2), "--seed", s]
    raise ValueError("%s is not a CLI workload" % workload)


def _draw(rng, preset):
    c = PRESET_CENTRES[preset]
    days = c["horizon_days"] if rng.random() < 0.5 else rng.choice(HORIZONS_DAYS)
    return Calibration(
        sigma_a=c["sigma_a"] * rng.uniform(0.8, 1.25),
        sigma_b=c["sigma_b"] * rng.uniform(0.8, 1.25),
        rho=min(0.95, max(-0.5, c["rho"] + rng.uniform(-0.15, 0.10))),
        r_a=c["r_a"] * rng.uniform(0.5, 1.5),
        r_b=c["r_b"] * rng.uniform(0.5, 1.5),
        reward_rate=c["reward_rate"] * rng.uniform(0.6, 1.4),
        r_f=rng.uniform(0.0, 0.06),
        v0=1.0,
        c_over_v0=rng.uniform(1.2, 5.0),
        h=rng.uniform(0.2, 1.0),
        l_max=rng.choice(L_MAX_CHOICES),
        horizon_days=days,
        horizon_years=days / DAYS_PER_YEAR,
        jumps=bool(c.get("jumps")),
    )


def calibrations(seed, n=SIZING_BATCH):
    """n Calibrations with mu0 > 0, a regular first-order
    condition and a feasible LTV0 = h / (C/V0) < l_max, by rejection."""
    rng = _rng("size_positions", seed)
    presets = sorted(PRESET_CENTRES)
    out = []
    while len(out) < n:
        # presets in rotation, so every batch holds the same mix of them
        cal = _draw(rng, presets[len(out) % len(presets)])
        denom, mu0 = denom_and_mu0(cal)
        if mu0 > 0.0 and denom > 0.0 and cal.h / cal.c_over_v0 < cal.l_max:
            out.append(cal)
    return out


def overrides(cal):
    """Scenario override strings equal to the calibration; repr keeps floats exact."""
    pairs = ["market.sigma_a=%r" % cal.sigma_a, "market.sigma_b=%r" % cal.sigma_b,
             "market.rho=%r" % cal.rho, "rates.r_a=%r" % cal.r_a, "rates.r_b=%r" % cal.r_b,
             "rates.reward_rate=%r" % cal.reward_rate, "rates.r_f=%r" % cal.r_f,
             "position.v0=%r" % cal.v0, "position.c_over_v0=%r" % cal.c_over_v0,
             "position.h=%r" % cal.h, "position.l_max=%r" % cal.l_max,
             "position.horizon_days=%r" % cal.horizon_days,
             "position.horizon_years=%r" % cal.horizon_years]
    if cal.jumps:
        pairs += ["jump.lambda=4.0", "jump.mu_j=-0.05", "jump.sigma_j=0.15",
                  "jump.rho_j=0.8", "jump.variance_matched=true"]
    return pairs
