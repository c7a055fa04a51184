"""Per-layer tracing of the balayage package from outside.

``Tracer.install()`` replaces the public functions and methods of every layer
module (and every module-level name bound to them, in any balayage module)
with timing wrappers, and ``scipy.integrate.quad`` as bound in each module
with a counting wrapper; ``uninstall()`` puts the originals back.  No library
file is changed.

Every wrapped call pushes a frame, so each layer's self time is its calls'
duration minus the part covered by wrapped callees.  A span (job, id, parent,
name, start, end) is kept in memory for each call that crosses a layer
boundary, except for the hot functions in NO_SPAN, which get only a count and
an aggregate time (their spans would number in the millions).
"""

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "ray_geometry", "harmonic_measure", "charges", "stepfn",
          "growth_scales", "subharmonic", "regular_growth")
QUAD = "quadrature"

# Short metric name -> traced function (layer.Class.method for methods).
NAMED = {
    "ray_geometry.complementary_sectors": "ray_geometry.complementary_sectors",
    "ray_geometry.reduce_to_halfplane": "ray_geometry.reduce_to_halfplane",
    "ray_geometry.classify_point": "ray_geometry.classify_point",
    "harmonic_measure.hm_interval": "harmonic_measure.hm_interval",
    "harmonic_measure.poisson_kernel": "harmonic_measure.poisson_kernel",
    "charges.balayage_system": "charges.balayage_system",
    "charges.ray_contributions": "charges.BalayageCharge.ray_contributions",
    "charges.ray_density": "charges.BalayageCharge.ray_density",
    "charges.ray_segment_mass": "charges.BalayageCharge.ray_segment_mass",
    "stepfn.eval": "stepfn.StepFunction.__call__",
    "subharmonic.potential_eval": "subharmonic.potential_eval",
    "subharmonic.kernel_Kq": "subharmonic.kernel_Kq",
}

# Per-call time against the job's input size, fitted as a log-log slope.
SLOPES = {
    "charges.ray_density.slope_N": "charges.BalayageCharge.ray_density",
    "charges.ray_segment_mass.slope_N": "charges.BalayageCharge.ray_segment_mass",
    "subharmonic.potential_eval.slope_N": "subharmonic.potential_eval",
    "regular_growth.crg_on_rays.slope_M": "regular_growth.crg_on_rays",
}

NO_SPAN = {
    "harmonic_measure.poisson_kernel", "harmonic_measure.hm_interval",
    "subharmonic.kernel_Kq", "ray_geometry.reduce_to_halfplane",
    "stepfn.StepFunction.__call__", "ray_geometry.complementary_sectors",
    "ray_geometry.classify_point", "ray_geometry.Sector.contains",
}
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.calls = Counter()            # function -> calls
        self.time = defaultdict(float)    # function -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.layer_calls = Counter()
        self.failed = Counter()           # layer -> calls that raised BalayageError
        self.edges = Counter()            # (caller, callee) -> calls
        self.spans = []
        self.dropped_spans = 0
        self.job = None
        self.quad_depth = 0
        self.quad_nested = 0
        self.quad_evals = 0
        self.integrand_s = 0.0
        self._quad_failures = set()
        self._ids = iter(range(1, sys.maxsize))
        self._stack = [[0.0, None, None, None]]  # [child s, name, span id, layer]
        self._restore = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tr, perf, stack = self, time.perf_counter, self._stack
        errors = sys.modules["balayage.errors"]
        spanless = name in NO_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = None if spanless or parent[3] == layer else next(tr._ids)
            frame = [0.0, name, span, layer]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except errors.BalayageError as exc:
                tr.failed[layer] += 1
                if isinstance(exc, errors.QuadratureFailure):
                    tr._quad_failures.add(id(exc))
                raise
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                tr.self_s[layer] += d - frame[0]
                tr.layer_calls[layer] += 1
                tr.calls[name] += 1
                tr.time[name] += d
                tr.edges[parent[1], name] += 1
                if span is not None:
                    if len(tr.spans) < MAX_SPANS:
                        tr.spans.append((tr.job, span, parent[2], name, t0, t1))
                    else:
                        tr.dropped_spans += 1
        return traced

    def _wrap_quad(self, quad, owner):
        tr, perf, stack = self, time.perf_counter, self._stack
        integrand_name = f"{owner}.<integrand>"

        def traced_quad(func, a, b, *rest, **kwargs):
            def integrand(*x):
                tr.quad_evals += 1
                frame = [0.0, integrand_name, None, owner]
                stack.append(frame)
                t0 = perf()
                try:
                    return func(*x)
                finally:
                    d = perf() - t0
                    stack.pop()
                    stack[-1][0] += d
                    tr.self_s[owner] += d - frame[0]
                    tr.integrand_s += d

            parent = stack[-1]
            span = next(tr._ids)
            frame = [0.0, QUAD, span, QUAD]
            if tr.quad_depth:
                tr.quad_nested += 1
            tr.quad_depth += 1
            stack.append(frame)
            t0 = perf()
            try:
                return quad(integrand, a, b, *rest, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tr.quad_depth -= 1
                d = t1 - t0
                parent[0] += d
                tr.self_s[QUAD] += d - frame[0]
                tr.layer_calls[QUAD] += 1
                tr.edges[parent[1], QUAD] += 1
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append((tr.job, span, parent[2], QUAD, t0, t1))
                else:
                    tr.dropped_spans += 1
        return traced_quad

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {layer: importlib.import_module(f"balayage.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "balayage"]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
            if "quad" in vars(mod):
                self._set(mod, "quad", self._wrap_quad(vars(mod)["quad"],
                                                       mod.__name__.split(".")[-1]))

    def _wrap_methods(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name, layer)))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- per-job bookkeeping --------------------------------------------------

    def self_total(self):
        return math.fsum(self.self_s.values())

    def snapshot(self):
        return {fn: (self.calls[fn], self.time[fn]) for fn in SLOPES.values()}

    def metrics(self):
        c = self.calls
        out = {}
        for layer in LAYERS + (QUAD,):
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.failed"] = self.failed[layer]
        out[f"{QUAD}.failed"] = len(self._quad_failures)
        for short, fn in NAMED.items():
            out[f"{short}.calls"] = c[fn]
        contrib = NAMED["charges.ray_contributions"]
        out["charges.ray_contributions.direct_calls"] = c[contrib] - sum(
            self.edges[NAMED[q], contrib]
            for q in ("charges.ray_density", "charges.ray_segment_mass"))
        sweeps = c["charges.balayage_system"] + c["charges.balayage_halfplane"]
        queries = c[NAMED["charges.ray_density"]] + c[NAMED["charges.ray_segment_mass"]]
        out["charges.queries_per_sweep"] = queries / sweeps if sweeps else 0.0
        quads = self.layer_calls[QUAD]
        out.update({"quadrature.evals": self.quad_evals,
                    "quadrature.evals_per_call": self.quad_evals / quads if quads else 0.0,
                    "quadrature.nested_calls": self.quad_nested,
                    "quadrature.integrand_s": self.integrand_s,
                    "trace.spans": len(self.spans) + self.dropped_spans})
        return out


def loglog_slope(per_job):
    """Least-squares slope of log(per-call seconds) on log(size).

    per_job is a list of (size, calls, seconds); jobs are pooled by size.
    Returns 0.0 when fewer than two sizes made calls.
    """
    calls, secs = Counter(), defaultdict(float)
    for size, n, s in per_job:
        calls[size] += n
        secs[size] += s
    pts = [(math.log(size), math.log(secs[size] / calls[size]))
           for size in calls if calls[size] and secs[size] > 0.0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = math.fsum(x for x, _ in pts) / len(pts)
    my = math.fsum(y for _, y in pts) / len(pts)
    return (math.fsum((x - mx) * (y - my) for x, y in pts)
            / math.fsum((x - mx) ** 2 for x, _ in pts))
