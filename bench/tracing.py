"""Span tracer that wraps mqret's layer boundaries from outside the package.

Each wrapper replaces a function at the module attribute its caller looks it
up under, so nothing inside ``src/`` changes. Spans are kept in memory as
tuples ``(name, parent, request, t0, t1, error, info)``; the index in
``Tracer.spans`` is the span id and a parent always precedes its children.
The layer of a span is the prefix of its name before the first dot.
"""

import gzip
import json
import time

import mqret.cli
import mqret.config
import mqret.greens
import mqret.quadrature
import mqret.rates
import mqret.sweep

LAYERS = ("config", "sweep", "rates", "greens", "quadrature", "media")
SOMMERFELD = "greens.sommerfeld"
CLOSED_FORM = ("greens.bulk", "greens.image", "greens.limit_nr", "greens.limit_r")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = -1
        self._next_request = 0
        self._saved = []

    def call(self, fn, name, args, kwargs, info=None, request_root=False):
        parent = self._stack[-1] if self._stack else -1
        outer_request = self._request
        if request_root and outer_request < 0:
            self._request = self._next_request
            self._next_request += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        error = None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, parent, self._request, t0, t1, error, info)
            self._request = outer_request

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, module, attr, name, request_root=False, info=None):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            tag = info(args, kwargs) if info else None
            return self.call(fn, name, args, kwargs, tag, request_root)

        self._patch(module, attr, wrapper)

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        cli, cfg, sweep, rates = mqret.cli, mqret.config, mqret.sweep, mqret.rates
        greens, quad = mqret.greens, mqret.quadrature
        for module in (cli, cfg):
            self._wrap(module, "load_config", "config.load_config")
        self._wrap(cli, "sweep_1d", "sweep.sweep_1d")
        self._wrap(cli, "sweep_2d", "sweep.sweep_2d")
        self._wrap(cli, "emit", "sweep.emit")
        self._wrap(sweep, "_eval_point", "sweep.row", request_root=True)
        for module in (sweep, rates):
            self._wrap(module, "rate_isotropic", "rates.rate_isotropic",
                       request_root=True, info=_mediated_exact)
        self._wrap(rates, "green_bulk", "greens.bulk")
        self._wrap(rates, "green_scatter", "greens.green_scatter")
        self._wrap(greens, "halfspace_scatter_full", SOMMERFELD)
        self._wrap(greens, "mirror_scatter_exact", "greens.image")
        self._wrap(greens, "halfspace_scatter_nr", "greens.limit_nr")
        self._wrap(greens, "halfspace_scatter_r", "greens.limit_r")
        self._wrap(greens, "fresnel", "media.fresnel")
        # greens imports adaptive_quad_vec at call time; the integrand it
        # passes is the Fresnel/Bessel k_par kernel, counted per node.
        quad_fn = quad.adaptive_quad_vec

        def traced_quad(f, a, b, *args, **kwargs):
            def kernel(x):
                return self.call(f, "greens.kernel", (x,), {}, info=x.size)
            return self.call(quad_fn, "quadrature.adaptive_quad_vec",
                             (kernel, a, b) + args, kwargs)

        self._patch(quad, "adaptive_quad_vec", traced_quad)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _mediated_exact(args, kwargs):
    return (kwargs.get("mediator") is not None
            and kwargs.get("method", "auto") in ("auto", "exact"))


def summarize(spans, wall_s):
    """Per-layer counts and times from a finished span list.

    Busy time of a layer counts only its outermost spans; self time is each
    span's duration minus the time its direct children cover. Shares are
    percent of ``wall_s``, the traced phase's wall time.
    """
    n = len(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    above = [frozenset()] * n  # layers of all ancestors
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            above[i] = above[parent] | {layer[parent]}
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    count, time_by_name = {}, {}
    for i, span in enumerate(spans):
        name = span[0]
        count[name] = count.get(name, 0) + 1
        time_by_name[name] = time_by_name.get(name, 0.0) + dur[i]
        self_s[layer[i]] += dur[i] - child[i]
        if layer[i] not in above[i]:
            busy[layer[i]] += dur[i]

    # tensors under each rate call, attributed to the nearest rates span
    per_rate = {}
    for i, span in enumerate(spans):
        if span[0] == SOMMERFELD or span[0] in CLOSED_FORM:
            j = span[1]
            while j >= 0 and layer[j] != "rates":
                j = spans[j][1]
            if j >= 0:
                som, tot = per_rate.get(j, (0, 0))
                per_rate[j] = (som + (span[0] == SOMMERFELD), tot + 1)
    good = [i for i, s in enumerate(spans)
            if s[0] == "rates.rate_isotropic" and s[6] and s[5] is None]
    nodes = sum(s[6] for s in spans if s[0] == "greens.kernel")
    kernel_calls = count.get("greens.kernel", 0)
    kernel_s = time_by_name.get("greens.kernel", 0.0)
    quad_errors = sum(1 for s in spans if s[0] == "quadrature.adaptive_quad_vec"
                      and s[5] == "QuadratureError")

    def pct(seconds):
        return 100.0 * seconds / wall_s

    def mean_per_rate(k):
        return sum(per_rate.get(i, (0, 0))[k] for i in good) / len(good) if good else 0.0

    return {
        "quadrature.calls": count.get("quadrature.adaptive_quad_vec", 0),
        "quadrature.integrand_calls": kernel_calls,
        "quadrature.integrand_nodes": nodes,
        "quadrature.errors": quad_errors,
        "quadrature.nodes_per_integrand_call": nodes / kernel_calls if kernel_calls else 0.0,
        "quadrature.busy_pct": pct(busy["quadrature"]),
        "quadrature.self_pct": pct(self_s["quadrature"]),
        "greens.sommerfeld_tensors": count.get(SOMMERFELD, 0),
        "greens.sommerfeld_pct": pct(time_by_name.get(SOMMERFELD, 0.0)),
        "greens.kernel_pct": pct(kernel_s),
        "greens.kernel_nodes_per_ms": nodes / (1e3 * kernel_s) if kernel_s else 0.0,
        "greens.closed_form_tensors": sum(count.get(k, 0) for k in CLOSED_FORM),
        "greens.closed_form_busy_s": sum(time_by_name.get(k, 0.0) for k in CLOSED_FORM),
        "media.fresnel_calls": count.get("media.fresnel", 0),
        "media.fresnel_pct": pct(busy["media"]),
        "rates.calls": count.get("rates.rate_isotropic", 0),
        "rates.busy_s": busy["rates"],
        "rates.self_s": self_s["rates"],
        "rates.sommerfeld_per_rate": mean_per_rate(0),
        "rates.tensors_per_rate": mean_per_rate(1),
        "sweep.rows": count.get("sweep.row", 0),
        "sweep.busy_pct": pct(busy["sweep"]),
        "sweep.self_pct": pct(self_s["sweep"]),
        "sweep.emit_pct": pct(time_by_name.get("sweep.emit", 0.0)),
        "config.load_s": busy["config"],
        "config.loads": count.get("config.load_config", 0),
    }


def dump(spans, path):
    """Write spans as JSON lines, one ``[id, name, parent, request, t0, t1,
    error, info]`` list per span, times relative to the first span."""
    base = spans[0][3] if spans else 0.0
    with gzip.open(path, "wt") as fh:
        for i, (name, parent, req, t0, t1, err, info) in enumerate(spans):
            fh.write(json.dumps([i, name, parent, req, round(t0 - base, 9),
                                 round(t1 - base, 9), err, info]) + "\n")
