"""Self-test of the checkers: one clean output, then copies with one planted
fault each. Every fault must be flagged, or the checker is too weak to trust.

The clean output is the operation's own output, which has just passed its
checker; the copies differ from it in one place each.
"""

import copy
import json

import checks


def _render(prov, cols, rows):
    head = "# " + " ".join("%s=%s" % kv for kv in prov.items())
    return "\n".join([head, ",".join(cols)] + [",".join(r) for r in rows]) + "\n"


def _edit(text, fn):
    prov, cols, rows = checks.parse_table(text)
    prov, rows = dict(prov), [list(r) for r in rows]
    fn(prov, cols, rows)
    return _render(prov, cols, rows)


def _set(label_or_idx, col, value):
    def fn(prov, cols, rows):
        idx = label_or_idx if isinstance(label_or_idx, int) else [r[0] for r in rows].index(label_or_idx)
        rows[idx][cols.index(col)] = value(rows[idx][cols.index(col)], rows[idx], cols)
    return fn


def _far_h(cell, row, cols):
    paper = checks.PAPER_CV_ROW[float(row[0])]
    h = paper - 40.0 if paper >= 40.0 else paper + 40.0
    row[cols.index("Init LTV")] = "%.1f" % (h / float(row[0]))
    return "%.0f" % h


def _off_grid(cell, row, cols):
    h = float(cell) + 2.5
    row[cols.index("Init LTV")] = "%.1f" % (h / float(row[0]))
    return "%.1f" % h


def sweep_faults(text):
    def seed(prov, cols, rows):
        prov["seed"] = str(int(prov["seed"]) + 1)

    def n_paths(prov, cols, rows):
        prov["n_paths"] = str(int(prov["n_paths"]) // 10)

    def drop_row(prov, cols, rows):
        rows.pop()
    return {
        "init_ltv": _edit(text, _set(0, "Init LTV", lambda c, r, k: "%.1f" % (float(c) + 1.0))),
        "p_liq_above_fpt": _edit(text, _set(0, "P(liq)", lambda c, r, k: "99.0")),
        "h_far_from_paper": _edit(text, _set(0, "h**", _far_h)),
        "h_off_grid": _edit(text, _set(0, "h**", _off_grid)),
        "se_sr": _edit(text, _set(0, "se(SR)", lambda c, r, k: "%.3f" % (float(c) + 0.01))),
        "sr_tx_above_sr": _edit(text, _set(0, "SR (+tx)",
                                           lambda c, r, k: "%.2f" % (float(r[2]) + 0.1))),
        "seed": _edit(text, seed),
        "n_paths": _edit(text, n_paths),
        "row_dropped": _edit(text, drop_row),
    }


def rebalance_faults(text):
    def seed(prov, cols, rows):
        prov["seed"] = str(int(prov["seed"]) + 1)

    def rename(prov, cols, rows):
        rows[1][0] = "Threshold 25pp"

    def order(prov, cols, rows):
        j = cols.index("Avg rebal.")
        t10 = [r for r in rows if r[0] == "Threshold 10pp"][0]
        t20 = [r for r in rows if r[0] == "Threshold 20pp"][0]
        t20[j] = "%.1f" % (float(t10[j]) + 0.5)
    return {
        "periodic14": _edit(text, _set("Every 14 days", "Avg rebal.", lambda c, r, k: "5.0")),
        "periodic30": _edit(text, _set("Every 30 days", "Avg rebal.", lambda c, r, k: "4.0")),
        "no_rebalance": _edit(text, _set("No rebalance", "Avg rebal.", lambda c, r, k: "0.1")),
        "threshold_order": _edit(text, order),
        "sr": _edit(text, _set("Threshold 15pp", "SR", lambda c, r, k: "%.3f" % (float(c) + 0.05))),
        "se_sr": _edit(text, _set("Threshold 15pp", "se(SR)",
                                  lambda c, r, k: "%.3f" % (float(c) + 0.01))),
        "p_liq_range": _edit(text, _set("No rebalance", "P(liq)", lambda c, r, k: "101.0")),
        "labels": _edit(text, rename),
        "seed": _edit(text, seed),
    }


def sizing_faults(record):
    def planted(**changes):
        rec = copy.deepcopy(record)
        for key, fn in changes.items():
            rec[key] = fn(rec[key])
        return rec

    def bump_alpha(i):
        return lambda alphas: [(a, hb + 1e-3 * (i == 1), hdd + 1e-3 * (i == 2))
                               for a, hb, hdd in alphas[:1]] + alphas[1:]
    return {
        "h_star": planted(h_star=lambda v: v + 1e-3),
        "sharpe": planted(sr=lambda v: v * 1.001),
        "p_liq": planted(p_liq=lambda v: v + 1e-4),
        "h_bar": planted(alphas=bump_alpha(1)),
        "h_double_star": planted(alphas=bump_alpha(2)),
        "validate": planted(errors=lambda v: v + ["planted"]),
    }


def missed_faults(workload, clean, ctx):
    """Names of planted faults the workload's checker failed to flag."""
    if workload == "sweep_cv":
        faults = sweep_faults(clean)
        flagged = {k: checks.check_sweep_cv(v, ctx["seed"], ctx["values"], ctx["n_paths"])
                   for k, v in faults.items()}
    elif workload == "rebalance_jumps":
        faults = rebalance_faults(clean)
        flagged = {k: checks.check_rebalance(v, ctx["seed"], ctx["n_paths"])
                   for k, v in faults.items()}
    else:
        faults = sizing_faults(clean)
        flagged = {k: checks.check_sizing(v, ctx["calibration"]) for k, v in faults.items()}
    text = clean if isinstance(clean, str) else json.dumps(clean)
    flagged["determinism"] = checks.check_same_bytes(
        [checks.digest(text), checks.digest(text[:-1] + chr(ord(text[-1]) ^ 1))], "planted")
    return sorted(k for k, probs in flagged.items() if not probs)
