"""Parameter records, validation, scenario files and market calibration.

Everything downstream (analytics, first-passage bounds, the simulator) is a
pure function of these records, so they are all frozen dataclasses. Their
field defaults are the SUI/NS baseline calibration every table starts from.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

DAYS_PER_YEAR = 365.0
DEFAULT_SEED = 42


class ScenarioError(ValueError):
    """Malformed scenario file, bad key, or unparseable override."""


@dataclass(frozen=True)
class MarketParams:
    """Annualized vols, instantaneous correlation, optional drifts."""

    sigma_a: float = 0.922
    sigma_b: float = 1.084
    rho: float = 0.72
    mu_a: float = 0.0
    mu_b: float = 0.0


@dataclass(frozen=True)
class RateParams:
    """Annual borrow rates, LP reward-to-value ratio, stablecoin supply rate."""

    r_a: float = 0.03
    r_b: float = 0.15
    reward_rate: float = 0.54
    r_f: float = 0.04


@dataclass(frozen=True)
class PositionParams:
    v0: float = 1.0
    c_over_v0: float = 2.0
    h: float = 0.60
    l_max: float = 0.80
    horizon_days: float = 90.0
    # derived; a field, not a property, as every closed-form evaluation reads it
    horizon_years: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "horizon_years", self.horizon_days / DAYS_PER_YEAR)


@dataclass(frozen=True)
class JumpParams:
    """Compound-Poisson overlay on the diffusion.

    lam is the total jump intensity per year per token; a fraction rho_j of
    events is common to both tokens, the rest idiosyncratic. Jump sizes are
    lognormal, drawn independently per token even for common events. With
    variance_matched the diffusion vol is reduced so total annualized variance
    equals the plain-GBM calibration.
    """

    lam: float = 4.0
    mu_j: float = -0.05
    sigma_j: float = 0.15
    rho_j: float = 0.80
    variance_matched: bool = True


@dataclass(frozen=True)
class SimConfig:
    n_paths: int = 30000
    dt_days: float = 1.0 / 3.0
    claim_interval_days: float = 14.0
    liq_penalty_frac: float = 0.20
    borrow_fee_frac: float = 0.003
    gas_cost: float = 0.0
    rebalance: str = "none"  # none | threshold(pp) | periodic(days)
    seed: int = DEFAULT_SEED
    include_tx_costs: bool = False


@dataclass(frozen=True)
class Scenario:
    """One fully-specified run: market + rates + position + sim (+ jumps)."""

    market: MarketParams
    rates: RateParams
    position: PositionParams
    sim: SimConfig
    jump: JumpParams | None = None
    name: str = "custom"


# ---------------------------------------------------------------------------
# validation

def _non_finite(section, rec) -> list:
    """An error for each float field of a section's record that is nan or
    infinite. The parser refuses such text; this holds records built in code
    to the same guard, which the range checks below miss: x < 0 is false for nan."""
    return ["%s must be a finite number" % key for key, attr in _FLOAT_FIELDS[section]
            if not math.isfinite(getattr(rec, attr))]


def validate(market: MarketParams, rates: RateParams, pos: PositionParams) -> list:
    """Collect every violated invariant; an empty list means usable.

    Never stops at the first failure so a bad config file reports everything
    wrong with it at once.
    """
    errs = []
    if not market.sigma_a > 0:
        errs.append("sigma_a must be positive")
    if not market.sigma_b > 0:
        errs.append("sigma_b must be positive")
    if not -1.0 < market.rho < 1.0:
        errs.append("rho must lie strictly inside (-1,1)")
    for name in ("r_a", "r_b", "reward_rate", "r_f"):
        if getattr(rates, name) < 0:
            errs.append("%s must be nonnegative" % name)
    if not pos.v0 > 0:
        errs.append("v0 must be positive")
    if not pos.c_over_v0 > 0:
        errs.append("c_over_v0 must be positive")
    if not 0.0 <= pos.h <= 1.0:
        errs.append("h must lie in [0,1]")
    if not 0.0 < pos.l_max < 1.0:
        errs.append("l_max must lie in (0,1)")
    if pos.c_over_v0 > 0 and 0.0 < pos.l_max < 1.0:
        ltv0 = pos.h / pos.c_over_v0
        # feasible start requires LTV_0 strictly below the liquidation line
        if ltv0 >= pos.l_max:
            errs.append("initial LTV %.2f ≥ l_max" % ltv0)
    if not pos.horizon_days > 0:
        errs.append("horizon_days must be positive")
    return (errs + _non_finite("market", market) + _non_finite("rates", rates)
            + _non_finite("position", pos))


def _matched_variance(sigma, jump: JumpParams):
    """A leg's diffusion variance once variance-matched jumps take their share."""
    return sigma * sigma - jump.lam * (jump.mu_j ** 2 + jump.sigma_j ** 2)


def validate_jump(jump: JumpParams, market: MarketParams) -> list:
    errs = []
    if jump.lam < 0:
        errs.append("lambda must be nonnegative")
    if jump.sigma_j < 0:
        errs.append("sigma_j must be nonnegative")
    if not 0.0 <= jump.rho_j <= 1.0:
        errs.append("rho_j must lie in [0,1]")
    if jump.variance_matched and jump.lam > 0:
        for name, sig in (("sigma_a", market.sigma_a), ("sigma_b", market.sigma_b)):
            if _matched_variance(sig, jump) <= 0:
                errs.append("variance matching infeasible: %s^2 <= lambda*(mu_j^2 + sigma_j^2)" % name)
    return errs + _non_finite("jump", jump)


def _whole_steps(span, step):
    """span / step when step cuts span into n >= 1 whole steps, else None; the
    tolerance absorbs the rounding of steps such as 1/3 day. A step that is
    not positive cuts nothing."""
    if not step > 0:
        return None
    ratio = span / step
    if not math.isfinite(ratio):
        return None
    n = int(round(ratio))
    if n < 1 or abs(n * step - span) > 1e-6 * max(1.0, span):
        return None
    return n


def validate_sim(sim: SimConfig) -> list:
    """Sim settings the accounting loop honours as stated: claims and periodic
    rebalances fire on grid steps, so a step must be whole days or 1/k of a
    day, and each interval whole days made of whole steps."""
    errs = []
    if sim.n_paths < 1:
        errs.append("n_paths must be at least 1")
    if sim.seed < 0:
        errs.append("seed must be nonnegative")
    if sim.claim_interval_days < 0:
        errs.append("claim_interval_days must be nonnegative")
    if not 0.0 <= sim.liq_penalty_frac <= 1.0:
        errs.append("liq_penalty_frac must lie in [0,1]")
    if sim.borrow_fee_frac < 0:
        errs.append("borrow_fee_frac must be nonnegative")
    if sim.gas_cost < 0:
        errs.append("gas_cost must be nonnegative")
    try:
        kind, par = parse_rebalance(sim.rebalance)
    except ScenarioError as exc:
        errs.append(str(exc))
        kind, par = "none", 0.0
    dt = sim.dt_days
    if not dt > 0:
        errs.append("dt_days must be positive")
    elif _whole_steps(1.0, dt) is None and _whole_steps(dt, 1.0) is None:
        errs.append("dt_days = %g is neither a whole number of days nor 1/k of a day" % dt)
    else:
        for what, days in (("claim_interval_days = %g", sim.claim_interval_days),
                           ("rebalance = periodic(%g)", par if kind == "periodic" else 0.0)):
            # whole days, and whole steps as the kernel counts its strides
            if days > 0 and (_whole_steps(days, 1.0) is None or _whole_steps(days, dt) is None):
                errs.append((what + " is not a whole number of days divisible by dt_days = %g")
                            % (days, dt))
    return errs + _non_finite("sim", sim)


def validate_scenario(scn: Scenario) -> list:
    errs = validate(scn.market, scn.rates, scn.position)
    errs += validate_sim(scn.sim)
    if scn.jump is not None:
        errs += validate_jump(scn.jump, scn.market)
    return errs


_REBALANCE_RE = re.compile(r"(threshold|periodic)\(([^)]+)\)")


def parse_rebalance(desc):
    """'none' -> ('none', 0.0); 'threshold(15)' -> ('threshold', 15.0) in pp;
    'periodic(30)' -> ('periodic', 30.0) in days."""
    s = str(desc).strip().lower()
    if s in ("none", ""):
        return ("none", 0.0)
    m = _REBALANCE_RE.fullmatch(s)
    if m is None:
        raise ScenarioError(
            "unknown rebalance descriptor %r; expected none, threshold(pp) or periodic(days)" % (desc,))
    try:
        value = _parse_number(m.group(2))
    except ScenarioError as exc:
        raise ScenarioError("rebalance parameter in %r: %s" % (desc, exc)) from None
    if value <= 0:
        raise ScenarioError("rebalance parameter must be positive in %r" % (desc,))
    return (m.group(1), value)


# ---------------------------------------------------------------------------
# market calibration from price history

def estimate_market_params(prices_a, prices_b) -> MarketParams:
    """Annualized vols and log-return correlation from aligned daily closes.

    sigma_i = sample std (n-1) of daily log returns * sqrt(365); rho is the
    Pearson correlation of the two return series. Drifts are set to zero.
    """
    pa = np.asarray(prices_a, dtype=float)
    pb = np.asarray(prices_b, dtype=float)
    if pa.ndim != 1 or pb.ndim != 1 or pa.shape != pb.shape:
        raise ValueError("price series must be aligned: equal length, one observation per day")
    if pa.size < 30:
        raise ValueError("need at least 30 aligned daily observations, got %d" % pa.size)
    if not (np.all(np.isfinite(pa) & (pa > 0)) and np.all(np.isfinite(pb) & (pb > 0))):
        raise ValueError("prices must be finite and strictly positive")
    ra = np.diff(np.log(pa))
    rb = np.diff(np.log(pb))
    sig_a = float(np.std(ra, ddof=1)) * math.sqrt(DAYS_PER_YEAR)
    sig_b = float(np.std(rb, ddof=1)) * math.sqrt(DAYS_PER_YEAR)
    if sig_a == 0.0 or sig_b == 0.0:
        rho = 0.0  # degenerate series; validate() rejects sigma = 0 downstream
    else:
        rho = float(np.corrcoef(ra, rb)[0, 1])
    return MarketParams(sigma_a=sig_a, sigma_b=sig_b, rho=rho)


def read_price_csv(path):
    """(dates, prices) as parallel lists from a `date,price` CSV: ISO-8601
    dates, one row per consecutive day, oldest first."""
    import csv  # imported here: of all commands only calibrate reads price files
    from datetime import date, timedelta

    dates, prices = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["date", "price"]:
            raise ValueError("%s: expected header 'date,price'" % path)
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            try:
                d = date.fromisoformat(row[0].strip())
                p = float(row[1])
            except (ValueError, IndexError):
                raise ValueError("%s:%d: cannot parse row %r" % (path, lineno, row)) from None
            if dates and d != dates[-1] + timedelta(days=1):
                raise ValueError("%s:%d: date %s does not follow %s by one day"
                                 % (path, lineno, d, dates[-1]))
            dates.append(d)
            prices.append(p)
    return dates, prices


# ---------------------------------------------------------------------------
# scenario files
#
# Flat `key = value` text with dotted section prefixes and # comments.
# Omitted keys take the records' field defaults, the SUI/NS baseline, so
# preset files and --override strings only carry deltas. Unknown keys are hard
# errors (typo protection); every bad key in a file is reported at once.

def _parse_number(s):
    """A finite float; fractions such as 1/3 (for dt_days) are allowed."""
    s = str(s).strip()
    num, slash, den = s.partition("/")
    try:
        value = float(num) / float(den) if slash else float(s)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError("expected a number, got %r" % (s,)) from None
    if not math.isfinite(value):
        raise ScenarioError("expected a finite number, got %r" % (s,))
    return value


def _parse_bool(s):
    t = str(s).strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ScenarioError("expected a boolean, got %r" % (s,))


# The records are the one schema. A key is `section.field` (JumpParams.lam is
# `jump.lambda`) and its parser follows the field's annotation; parsers see
# stripped text. An init=False field is a derived key: scenario_values emits
# it, and a scenario that gives it must agree with the value derived.
_SECTIONS = (("market", MarketParams), ("rates", RateParams), ("position", PositionParams),
             ("sim", SimConfig), ("jump", JumpParams))
_RENAMED = {("jump", "lam"): "lambda"}
_TYPE_PARSERS = {"float": _parse_number, "int": int, "bool": _parse_bool, "str": str}


def _schema():
    """section -> (record, its keys, record -> their values, (key, attribute) of
    each init field, of each derived field), and key -> parser; built at import."""
    schema, parsers = {}, {}
    for section, record in _SECTIONS:
        fs = fields(record)
        keys = tuple("%s.%s" % (section, _RENAMED.get((section, f.name), f.name)) for f in fs)
        parsers.update((key, _TYPE_PARSERS[f.type]) for key, f in zip(keys, fs))
        schema[section] = (record, keys, attrgetter(*(f.name for f in fs)),
                           tuple((key, f.name) for key, f in zip(keys, fs) if f.init),
                           tuple((key, f.name) for key, f in zip(keys, fs) if not f.init))
    return schema, parsers


_SCHEMA, _KEY_PARSERS = _schema()
_DERIVED_KEYS = tuple(key for *_, derived in _SCHEMA.values() for key, _ in derived)
# section -> (key, attribute) of each float field a record is built from
_FLOAT_FIELDS = {section: tuple((key, attr) for key, attr in init
                                if _KEY_PARSERS[key] is _parse_number)
                 for section, (_, _, _, init, _) in _SCHEMA.items()}
SCENARIO_KEYS = tuple(sorted(_KEY_PARSERS))


def _build_scenario(values, name):
    """Each record from the keys given, its field defaults for the rest."""
    records = {}
    for section, (record, _, _, init, derived) in _SCHEMA.items():
        args = {attr: values[key] for key, attr in init if key in values}
        # the one optional section: any jump key turns it on, the rest default
        if section == "jump" and not args:
            continue
        records[section] = rec = record(**args)
        for key, attr in derived:
            given = values.get(key)
            if given is not None and not math.isclose(given, getattr(rec, attr), rel_tol=1e-9):
                raise ScenarioError(
                    "position.horizon_years = %r disagrees with position.horizon_days = %r "
                    "(horizon_years is derived as horizon_days / %g; give horizon_days alone)"
                    % (given, rec.horizon_days, DAYS_PER_YEAR))
    return Scenario(name=name, **records)


def scenario_values(scn: Scenario) -> dict:
    """Flatten a Scenario back into its key->value form, derived keys included."""
    v = {}
    for section, (_, keys, values_of, _, _) in _SCHEMA.items():
        rec = getattr(scn, section)
        if rec is not None:
            v.update(zip(keys, values_of(rec)))
    return v


def _scenario_from(base, entries, bad, name):
    """Parse (where, key, text) entries over the base values; report every bad one at once."""
    values = dict(base)
    # a base's derived values follow its records; only given ones are checked
    for key in _DERIVED_KEYS:
        values.pop(key, None)
    unknown = []
    for where, key, text in entries:
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            unknown.append(key)
            continue
        try:
            values[key] = parser(text)
        except (ValueError, ScenarioError) as exc:
            bad.append("%s: %s" % (where, exc))
    if unknown:
        bad.append("unknown keys: " + ", ".join(sorted(unknown)))
    if bad:
        raise ScenarioError("; ".join(bad))
    return _build_scenario(values, name)


def parse_scenario(text, name="custom", base=None):
    """Parse flat `key = value` scenario text on top of the baseline (or `base`)."""
    entries, bad = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            bad.append("line %d: expected key = value, got %r" % (lineno, raw.strip()))
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        entries.append(("line %d: key %s" % (lineno, key), key, val))
    return _scenario_from({} if base is None else base, entries, bad, name)


def load_scenario(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError("cannot read scenario file %s: %s" % (path, exc)) from None
    stem = str(path).rsplit("/", 1)[-1]
    stem = stem.rsplit(".", 1)[0]
    return parse_scenario(text, name=stem)


def apply_overrides(scn: Scenario, pairs) -> Scenario:
    """Apply `key=value` override strings; equivalent to editing the file."""
    entries, bad = [], []
    for pair in pairs:
        if "=" not in pair:
            bad.append("override %r is not key=value" % (pair,))
            continue
        key, _, val = pair.partition("=")
        key, val = key.strip(), val.strip()
        entries.append(("override " + key, key, val))
    return _scenario_from(scenario_values(scn), entries, bad, scn.name)


def scenario_hash(scn: Scenario) -> str:
    """Short stable digest of every parameter, for output provenance headers."""
    items = sorted(scenario_values(scn).items())
    blob = ";".join("%s=%r" % kv for kv in items).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def baseline_scenario(name="baseline") -> Scenario:
    return _build_scenario({}, name)
