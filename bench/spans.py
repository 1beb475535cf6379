"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the g4motions modules from the
outside: nothing under ``src/`` changes.  Each wrapped call records one span
(name, start, end, parent) in memory; ``summarize`` turns a finished pass
into per-name call counts, inclusive time and self time, where self time is a
span's duration minus the part of it covered by its child spans.

Wrappers are installed in every module namespace the function object is bound
into (``from .catalog import eval_table_jet`` binds it again in ``checks``,
``geometry`` and ``mechanics``), ``numpy.einsum`` is wrapped at the dependency
boundary, and the compiled kernel is reached by wrapping
``adiff.compile_values`` so that it returns a timed callable.  ``uninstall``
puts every original object back.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("adiff", "catalog", "geometry", "checks", "mechanics", "cli")

# Expression-building helpers of the table DSL: they run per tree node while
# a model is built, are not a layer boundary, and would only add overhead.
EXCLUDED = {
    "adiff": {"as_expr", "as_point", "coords", "exp", "sin", "cos"},
}

KERNEL = "adiff.kernel"
EINSUM = "numpy.einsum"
# The contractions are the work of the function that calls them, so they stay
# in its self time; numpy.einsum.s reports the same time at the dependency.
TRANSPARENT = frozenset({EINSUM})


class SpanRecorder:
    """In-memory spans of one traced pass; nothing is written until the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def __len__(self):
        return len(self.names)


@dataclass
class NameStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


def self_times(rec: SpanRecorder, transparent=frozenset()) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals.

    Children named in ``transparent`` do not cover their parent: time in a
    dependency called directly from a function stays in that function's self
    time (and is reported again under the dependency's own name)."""
    children: list[list[int]] = [[] for _ in range(len(rec))]
    for idx, par in enumerate(rec.parent):
        if par >= 0 and rec.names[idx] not in transparent:
            children[par].append(idx)
    out = []
    for idx in range(len(rec)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[idx], key=rec.start.__getitem__):
            lo = max(rec.start[c], rec.start[idx])
            hi = min(rec.end[c], rec.end[idx])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(rec.end[idx] - rec.start[idx] - covered)
    return out


def summarize(rec: SpanRecorder, transparent=frozenset()) -> dict[str, NameStats]:
    stats: dict[str, NameStats] = {}
    for name, lo, hi, own in zip(rec.names, rec.start, rec.end, self_times(rec, transparent)):
        st = stats.setdefault(name, NameStats())
        st.calls += 1
        st.incl_s += hi - lo
        st.self_s += own
    return stats


@dataclass
class Observations:
    """Arguments and results kept for counts computed after the pass."""

    jet_calls: list = field(default_factory=list)  # (table, points)
    trajectories: list = field(default_factory=list)  # (trajectory, T)
    csv_bytes: int = 0


def _public_functions(module, short: str):
    skip = EXCLUDED.get(short, set())
    for name, obj in vars(module).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and name not in skip
        ):
            yield name, obj


class Tracer:
    """Installs span-recording wrappers into the package and removes them."""

    def __init__(self, package):
        self.package = package
        self.rec = SpanRecorder()
        self.obs = Observations()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        rec = self.rec
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:  # recursive call: the outer span already covers it
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
                depth[0] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _kernel(self, fn):
        rec = self.rec

        def kernel(*args):
            idx = rec.open(KERNEL)
            try:
                return fn(*args)
            finally:
                rec.close(idx)

        return kernel

    def _after(self, qualname: str):
        obs = self.obs
        if qualname == "catalog.eval_table_jet":
            return lambda args, kwargs, res: obs.jet_calls.append(
                (args[0] if args else kwargs["exprs"], args[1] if len(args) > 1 else kwargs["points"])
            )
        if qualname == "mechanics.integrate_trajectory":
            def record(args, kwargs, traj):
                T = kwargs["T"] if "T" in kwargs else args[2]
                obs.trajectories.append((traj, float(T)))
            return record
        if qualname == "mechanics.export_csv":
            def size(args, kwargs, res):
                path = args[1] if len(args) > 1 else kwargs["path"]
                obs.csv_bytes += os.path.getsize(path)
            return size
        return None

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = {short: getattr(self.package, short) for short in MODULES}
        namespaces = [self.package, *modules.values()]
        for short, module in modules.items():
            for name, fn in list(_public_functions(module, short)):
                qualname = f"{short}.{name}"
                wrapper = self._span(qualname, fn, self._after(qualname))
                if qualname == "adiff.compile_values":
                    wrapper = self._compile_wrapper(wrapper)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patch(ns, attr, wrapper)
        self._patch(np, "einsum", self._span(EINSUM, np.einsum))

    def _compile_wrapper(self, spanned):
        @functools.wraps(spanned)
        def compile_values(*args, **kwargs):
            return self._kernel(spanned(*args, **kwargs))

        return compile_values

    def _patch(self, ns, attr, new) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, old = self._patched.pop()
            setattr(ns, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --------------------------------------------------------------------------
# Traced passes and the per-layer metrics derived from them
# --------------------------------------------------------------------------

ROOT_SPAN = "bench.pass"


@dataclass
class PassTrace:
    stats: dict
    obs: Observations
    wall_s: float
    untraced_s: float
    spans: int


def traced_pass(package, body, untraced_s: float) -> PassTrace:
    """Run ``body`` once under a fresh tracer, inside one root span."""
    tracer = Tracer(package)
    with tracer:
        root = tracer.rec.open(ROOT_SPAN)
        try:
            body()
        finally:
            tracer.rec.close(root)
    rec = tracer.rec
    return PassTrace(
        stats=summarize(rec, TRANSPARENT),
        obs=tracer.obs,
        wall_s=rec.end[root] - rec.start[root],
        untraced_s=untraced_s,
        spans=len(rec),
    )


def span_cost_us(n: int = 100_000) -> float:
    """Extra cost of one wrapped call over a plain one, in microseconds."""
    plain = lambda: None  # noqa: E731
    wrapped = Tracer(None)._span("probe", plain)
    costs = []
    for fn in (plain, wrapped):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        costs.append(time.perf_counter() - t0)
    return 1e6 * (costs[1] - costs[0]) / n


def jet_reuse_ratio(jet_calls: list) -> float:
    """Distinct (table, sample cloud) evaluations over ``eval_table_jet`` calls.

    A table is identified by its expressions (so one entry's table built twice
    counts once) and a cloud by its coordinates."""
    table_keys: dict[int, str] = {}
    cloud_keys: dict[int, str] = {}
    distinct = set()
    for table, points in jet_calls:
        tk = table_keys.setdefault(id(table), repr(table))
        ck = cloud_keys.get(id(points))
        if ck is None:
            raw = np.ascontiguousarray(np.asarray(points, float)).tobytes()
            ck = cloud_keys[id(points)] = hashlib.sha1(raw).hexdigest()
        distinct.add((tk, ck))
    return len(distinct) / len(jet_calls) if jet_calls else 1.0


SELF_TIMED = (
    "geometry.metric_batch",
    "geometry.potential_batch",
    "checks.check_frame_killing",
    "checks.check_killing",
    "checks.check_admissibility",
    "checks.check_lie_closure",
    "checks.check_frame_defining",
    "checks.check_jacobi",
    "mechanics.check_hamiltonian_commutes",
    "mechanics.check_integral_algebra",
    "mechanics.integrate_trajectory",
    "cli.build_report",
)
INCL_TIMED = (
    "adiff.compile_values",
    KERNEL,
    "catalog.get_group",
    "catalog.eval_table_jet",
    "catalog.eval_table",
    "checks.run_group_checks",
    "checks.scaled_max",
    "mechanics.export_csv",
    "mechanics.drift_report",
    "cli.render_json",
    EINSUM,
)
COUNTED = (
    "adiff.compile_values",
    KERNEL,
    "catalog.get_group",
    "catalog.eval_table_jet",
    "catalog.eval_table",
    "geometry.metric_batch",
    "geometry.potential_batch",
    "checks.scaled_max",
    EINSUM,
)


def pass_metrics(pt: PassTrace) -> dict:
    """name -> (value, unit) for one traced pass."""
    stats = pt.stats
    blank = NameStats()
    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = (stats.get(name, blank).calls, "count")
    for name in INCL_TIMED:
        m[f"{name}.s"] = (stats.get(name, blank).incl_s, "s")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (stats.get(name, blank).self_s, "s")

    trajs = pt.obs.trajectories
    steps = sum(len(traj) - 1 for traj, _ in trajs)
    m["catalog.jet_reuse_ratio"] = (jet_reuse_ratio(pt.obs.jet_calls), "ratio")
    m["adiff.kernel.calls_per_step"] = (
        stats.get(KERNEL, blank).calls / steps if steps else 0.0, "calls/step")
    m["mechanics.steps"] = (steps, "count")
    m["mechanics.domain_exits"] = (sum(traj.domain_exit for traj, _ in trajs), "count")
    m["mechanics.horizon_fraction"] = (
        sum(float(traj.t[-1]) for traj, _ in trajs) / sum(T for _, T in trajs) if trajs else 0.0,
        "ratio",
    )
    m["mechanics.export_csv.bytes"] = (pt.obs.csv_bytes, "bytes")

    for module in MODULES:
        own = sum(st.self_s for name, st in stats.items() if name.split(".")[0] == module)
        m[f"layer.{module}.self_s"] = (own, "s")
    remainder = stats[ROOT_SPAN].self_s
    layer_self = sum(
        st.self_s for name, st in stats.items() if name != ROOT_SPAN and name not in TRANSPARENT
    )
    m["trace.remainder_s"] = (remainder, "s")
    m["trace.accounted_share"] = ((layer_self + remainder) / pt.wall_s, "ratio")
    m["trace.spans"] = (pt.spans, "count")
    return m


# Work counts repeat exactly for a given seed, so they come from the first
# traced pass rather than a median.
EXACT_UNITS = ("count", "bytes")


def per_layer(passes: list[PassTrace]) -> tuple[dict, dict]:
    """Median of each metric over the traced passes, plus the self-time profile.

    The tracing overhead compares the fastest traced pass with the fastest
    untraced one.  The machine's speed can drift more between passes than the
    spans cost, so the overhead is also estimated as the span count times the
    measured cost of one wrapped call."""
    per_pass = [pass_metrics(pt) for pt in passes]
    metrics = {
        name: (value if unit in EXACT_UNITS else statistics.median(p[name][0] for p in per_pass), unit)
        for name, (value, unit) in per_pass[0].items()
    }
    traced = min(pt.wall_s for pt in passes)
    untraced = min(pt.untraced_s for pt in passes)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    cost = span_cost_us()
    metrics["trace.span_cost_us"] = (cost, "us")
    metrics["trace.overhead_est_s"] = (1e-6 * cost * passes[0].spans, "s")
    first = passes[0]
    total = first.wall_s
    top = sorted(
        ((name, st) for name, st in first.stats.items() if name not in TRANSPARENT),
        key=lambda kv: -kv[1].self_s,
    )[:12]
    info = {
        f"profile.{name}": f"self {st.self_s:.4f} s ({100 * st.self_s / total:.1f}%), calls {st.calls}"
        for name, st in top
    }
    return metrics, info
