"""Tracing from outside the program: wrap every public ammhedge function.

A function imported by name (`from .analytics import h_star`) is reachable
through several module namespaces, and a call through any of them must land
in the wrapper, so each function object gets one wrapper and every namespace
that holds the object gets it. Spans are folded in memory by (function,
parent function) into call count, inclusive time and child time; self time is
inclusive minus child time. A few boundaries also record counts of work done.
"""

import inspect
import resource
import threading
import time

LAYERS = ("cli", "config_domain", "analytics", "liquidation_fpt", "montecarlo", "experiments")
KERNEL = "montecarlo.simulate_batch"
PATHS = "montecarlo.generate_path_matrix"
AGGREGATE = "montecarlo.aggregate"
RENDER = "experiments.render_table"
PROB = "liquidation_fpt.liquidation_probability"
H_BAR = "liquidation_fpt.h_bar"
RULES = ("none", "threshold", "periodic")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tracer:
    def __init__(self):
        # one span stack per thread: a public function called from a worker
        # thread must not take a span of the main thread as its parent
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = {}     # (name, parent) -> [calls, inclusive s, child s]
        self.counts = {}    # counter name -> number

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def add(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]
            stack.append(frame)
            pre = _maxrss_mb() if name == PATHS else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    rec = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[1]
            if observe is not None:
                observe(self, args, kwargs, result, dt, pre)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, modules):
        """Replace every public function of `modules` in every one of their
        namespaces."""
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("ammhedge")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self.wrap("%s.%s" % (layer, obj.__name__), obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])

    def span_rows(self):
        return [{"name": n, "parent": p, "calls": c, "s": s, "self_s": s - ch}
                for (n, p), (c, s, ch) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]


def _rule(sim):
    return str(sim.rebalance).strip().lower().split("(", 1)[0] or "none"


def _observe_kernel(tr, args, kwargs, result, dt, pre):
    rel_a = args[0]
    sim = args[5] if len(args) > 5 else kwargs["sim"]
    n, m = rel_a.shape
    steps = n * (m - 1)
    rule = _rule(sim)
    tr.add("kernel.path_steps", steps)
    tr.add("kernel.mb_read", 2.0 * rel_a.nbytes / 1e6)
    tr.add("kernel.s." + rule, dt)
    tr.add("kernel.path_steps." + rule, steps)
    tr.add("kernel.liquidations", int(result.liquidated.sum()))
    tr.add("kernel.rebalances", int(result.n_rebalances.sum()))
    tr.add("kernel.claims", int(result.n_claims.sum()))


def _observe_paths(tr, args, kwargs, result, dt, pre):
    rel_a, rel_b = result
    n, m = rel_a.shape
    tr.add("paths.path_steps", n * (m - 1))
    tr.add("paths.mb_out", (rel_a.nbytes + rel_b.nbytes) / 1e6)
    tr.add("paths.maxrss_rise_mb", _maxrss_mb() - pre)


def _observe_render(tr, args, kwargs, result, dt, pre):
    tr.add("render.bytes", len(result.encode()))


_OBSERVERS = {KERNEL: _observe_kernel, PATHS: _observe_paths, RENDER: _observe_render}


def layer_of(name):
    return name.split(".", 1)[0] if name else None


def per_layer(tr):
    """The per-layer metrics of one traced operation, by name: value."""
    spans = tr.spans
    cnt = tr.counts

    def total(name):
        calls = sum(r[0] for (n, _), r in spans.items() if n == name)
        secs = sum(r[1] for (n, _), r in spans.items() if n == name)
        return calls, secs

    def self_s(layer, exclude=()):
        return sum(r[1] - r[2] for (n, _), r in spans.items()
                   if layer_of(n) == layer and n not in exclude)

    def entries(layer):
        # calls into the layer from outside it (another layer or the benchmark)
        hits = [r for (n, p), r in spans.items() if layer_of(n) == layer and layer_of(p) != layer]
        return sum(r[0] for r in hits), sum(r[1] for r in hits)

    def per_call_us(calls, secs):
        return secs / calls * 1e6 if calls else 0.0

    k_calls, k_s = total(KERNEL)
    p_calls, p_s = total(PATHS)
    a_calls, a_s = total(AGGREGATE)
    r_calls, r_s = total(RENDER)
    prob_calls, prob_s = total(PROB)
    hb_calls, hb_s = total(H_BAR)
    hb_evals = sum(r[0] for (n, p), r in spans.items() if n == PROB and p == H_BAR)
    cfg_calls, cfg_s = entries("config_domain")
    an_calls, an_s = entries("analytics")
    out = {
        "montecarlo.kernel.calls": k_calls,
        "montecarlo.kernel.s": k_s,
        "montecarlo.kernel.path_steps": cnt.get("kernel.path_steps", 0),
        "montecarlo.kernel.mb_read": cnt.get("kernel.mb_read", 0.0),
    }
    for rule in RULES:
        steps = cnt.get("kernel.path_steps." + rule, 0)
        out["montecarlo.kernel.ns_per_path_step." + rule] = (
            cnt["kernel.s." + rule] / steps * 1e9 if steps else 0.0)
    out.update({
        "montecarlo.kernel.liquidations": cnt.get("kernel.liquidations", 0),
        "montecarlo.kernel.rebalances": cnt.get("kernel.rebalances", 0),
        "montecarlo.kernel.claims": cnt.get("kernel.claims", 0),
        "montecarlo.paths.calls": p_calls,
        "montecarlo.paths.s": p_s,
        "montecarlo.paths.ns_per_path_step": (p_s / cnt["paths.path_steps"] * 1e9
                                              if cnt.get("paths.path_steps") else 0.0),
        "montecarlo.paths.mb_out": cnt.get("paths.mb_out", 0.0),
        "montecarlo.paths.maxrss_rise_mb": cnt.get("paths.maxrss_rise_mb", 0.0),
        "montecarlo.aggregate.calls": a_calls,
        "montecarlo.aggregate.s": a_s,
        "experiments.self_s": self_s("experiments", exclude=(RENDER,)),
        "experiments.render.s": r_s,
        "experiments.render.bytes": cnt.get("render.bytes", 0),
        "cli.self_s": self_s("cli"),
        "config_domain.calls": cfg_calls,
        "config_domain.us_per_call": per_call_us(cfg_calls, cfg_s),
        "analytics.calls": an_calls,
        "analytics.us_per_call": per_call_us(an_calls, an_s),
        "liquidation_fpt.prob.calls": prob_calls,
        "liquidation_fpt.prob.us_per_call": per_call_us(prob_calls, prob_s),
        "liquidation_fpt.h_bar.calls": hb_calls,
        "liquidation_fpt.h_bar.us_per_call": per_call_us(hb_calls, hb_s),
        "liquidation_fpt.h_bar.prob_evals": hb_evals / hb_calls if hb_calls else 0.0,
    })
    return out


# name -> unit, in report order; trace.overhead_s is added by run.py
PER_LAYER_UNITS = {
    "montecarlo.kernel.calls": "count",
    "montecarlo.kernel.s": "s",
    "montecarlo.kernel.path_steps": "count",
    "montecarlo.kernel.mb_read": "MB",
    "montecarlo.kernel.ns_per_path_step.none": "ns",
    "montecarlo.kernel.ns_per_path_step.threshold": "ns",
    "montecarlo.kernel.ns_per_path_step.periodic": "ns",
    "montecarlo.kernel.liquidations": "count",
    "montecarlo.kernel.rebalances": "count",
    "montecarlo.kernel.claims": "count",
    "montecarlo.paths.calls": "count",
    "montecarlo.paths.s": "s",
    "montecarlo.paths.ns_per_path_step": "ns",
    "montecarlo.paths.mb_out": "MB",
    "montecarlo.paths.maxrss_rise_mb": "MB",
    "montecarlo.aggregate.calls": "count",
    "montecarlo.aggregate.s": "s",
    "experiments.self_s": "s",
    "experiments.render.s": "s",
    "experiments.render.bytes": "bytes",
    "cli.self_s": "s",
    "config_domain.calls": "count",
    "config_domain.us_per_call": "us",
    "analytics.calls": "count",
    "analytics.us_per_call": "us",
    "liquidation_fpt.prob.calls": "count",
    "liquidation_fpt.prob.us_per_call": "us",
    "liquidation_fpt.h_bar.calls": "count",
    "liquidation_fpt.h_bar.us_per_call": "us",
    "liquidation_fpt.h_bar.prob_evals": "count/call",
    "trace.overhead_s": "s",
}
