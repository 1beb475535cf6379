"""g4motions benchmark: one workload per process, driven through ``cli.main``.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload verify-small --seed 1 --seconds 25 --trace 0

Workloads (see ``WORKLOADS`` and bench/README.md for why each was chosen):

* ``verify-small`` -- ``verify --group <id> --points 200`` for every catalog
  entry, sample seeds drawn from the workload seed;
* ``verify-large`` -- the same calls at 2000 points;
* ``simulate`` -- ``simulate --group <id>`` from seeded initial states in the
  central half of each entry's sampling box, p0 in [-1, 1]^4, h=1e-3, T=2,
  with the entry's admissible potential constants.

A run repeats whole passes over the 15 entries (a closed loop, one caller)
until ``--seconds`` is used.  Every operation's output is checked; a failed
check or an exception counts in ``failed`` and never aborts the run.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of the traced run (see bench/spans.py).  Every metric is
printed by name and unit, then the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only if
every operation passed its check.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from reference import Reference, normalised

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 8  # before and again after the timed loop
SIM_T = 2.0
SIM_H = 1e-3


@dataclass(frozen=True)
class Workload:
    kind: str  # "verify" or "simulate"
    points: int = 0


WORKLOADS = {
    "verify-small": Workload("verify", points=200),
    "verify-large": Workload("verify", points=2000),
    "simulate": Workload("simulate"),
}


@dataclass
class Op:
    group: str
    argv: list
    sample_seed: int = 0

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]


@dataclass
class OpResult:
    group: str
    ok: bool
    wall_s: float
    items: int  # points verified, or RK4 steps taken
    reason: str = ""
    ref_s: float = 0.0  # the reference work's time around this operation


@dataclass
class Totals:
    results: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


# --------------------------------------------------------------------------
# Program under test
# --------------------------------------------------------------------------


def import_program():
    """Import g4motions from ``src/`` of the current checkout, nowhere else."""
    init = os.path.join(SRC, "g4motions", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no g4motions sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import g4motions
    from g4motions import catalog, checks, cli

    if os.path.abspath(g4motions.__file__) != os.path.abspath(init):
        raise SystemExit(f"error: imported g4motions from {g4motions.__file__}, not {init}")
    return g4motions, catalog, checks, cli


SETUP_SNIPPET = """
import statistics, sys, time
t0 = time.perf_counter()
import g4motions
from g4motions import catalog
models = [catalog.get_group(gid) for gid in catalog.GroupId]
dt = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from reference import Reference
reference = Reference()
print(g4motions.__file__)
print(repr(dt))
print(repr(statistics.median(reference.time() for _ in range(5))))
"""


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Fresh-process import plus a first build of every catalog entry, timed
    in ``repeats`` processes one after another.  Returns (seconds, reference
    seconds) pairs; each process times the reference after its set-up, since
    it may run on another CPU than this one."""
    env = dict(os.environ, PYTHONPATH=SRC)
    init = os.path.abspath(os.path.join(SRC, "g4motions", "__init__.py"))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, HERE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        if os.path.abspath(out[0]) != init:
            raise SystemExit(f"error: set-up imported g4motions from {out[0]}")
        times.append((float(out[1]), float(out[2])))
    return times


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def entry_inputs(catalog, checks) -> list[dict]:
    """Per catalog entry: id, sampling box and admissible potential constants."""
    out = []
    for gid in catalog.GroupId:
        model = catalog.get_group(gid)
        lo, hi = model.domain.bounds()
        out.append(
            {
                "group": gid.value,
                "lo": lo,
                "hi": hi,
                "alphas": [float(a) for a in checks.admissible_alphas(model)],
            }
        )
    return out


def make_pass(wl: Workload, seed: int, k: int, entries: list, work: str) -> list[Op]:
    """The operations of pass ``k``; the same (seed, k) gives the same inputs."""
    ops = []
    for j, entry in enumerate(entries):
        rng = np.random.default_rng([seed % 2**64, k, j])
        gid = entry["group"]
        if wl.kind == "verify":
            s = int(rng.integers(0, 2**31 - 1))
            argv = ["verify", "--group", gid, "--points", str(wl.points),
                    "--seed", str(s), "--out", os.path.join(work, f"report-{j}.json")]
            ops.append(Op(gid, argv, sample_seed=s))
        else:
            lo, hi = entry["lo"], entry["hi"]
            centre, half = (lo + hi) / 2, (hi - lo) / 4
            u0 = centre + half * rng.uniform(-1.0, 1.0, 4)
            p0 = rng.uniform(-1.0, 1.0, 4)
            argv = ["simulate", "--group", gid,
                    "--u0=" + ",".join(repr(float(x)) for x in u0),
                    "--p0=" + ",".join(repr(float(x)) for x in p0),
                    "--T", repr(SIM_T), "--h", repr(SIM_H),
                    "--out", os.path.join(work, f"traj-{j}.csv")]
            for a, val in enumerate(entry["alphas"], start=1):
                argv += ["--param", f"alpha{a}={val!r}"]
            ops.append(Op(gid, argv))
    return ops


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def check_verify(op: Op, code, stdout: str, wl: Workload, expected: dict) -> tuple[bool, int, str]:
    if code != 0:
        return False, 0, f"exit {code}"
    with open(op.out) as fh:
        doc = json.load(fh)
    results = doc.get("results") or []
    if not results:
        return False, 0, "empty result list"
    cfg = doc["config"]
    if cfg["points"] != wl.points or cfg["seed"] != op.sample_seed or cfg["groups"] != [op.group]:
        return False, 0, f"config mismatch {cfg}"
    pattern = [[r["check"], r["passed"], r["asserted"]] for r in results]
    if pattern != expected["verify"][op.group]:
        return False, 0, "check names or pass/fail/asserted pattern differ from the seed"
    if any(r["n_points"] not in (0, wl.points) for r in results):
        return False, 0, "a check ran on the wrong number of points"
    return True, wl.points, ""


def check_simulate(op: Op, code, stdout: str, wl: Workload, expected: dict) -> tuple[bool, int, str]:
    if code != 0:
        return False, 0, f"exit {code}"
    summary = json.loads(stdout)
    steps = int(summary["steps"])
    if steps < 1:
        return False, 0, "no RK4 step taken"
    drifts = [summary["max_drift_H"], *summary["max_drift_Y"]]
    bound = expected["simulate"]["drift_bound"]
    if not all(math.isfinite(d) and d <= bound for d in drifts):
        return False, 0, f"conservation drift {max(drifts):.3e} above bound {bound:.1e}"
    if summary["group"] != op.group or summary["h"] != SIM_H or summary["T_requested"] != SIM_T:
        return False, 0, "summary does not echo the request"
    with open(summary["csv"]) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != steps + 1:
        return False, 0, f"CSV has {rows} rows for {steps} steps"
    return True, steps, ""


CHECKS = {"verify": check_verify, "simulate": check_simulate}


def run_op(cli, op: Op, wl: Workload, expected: dict) -> OpResult:
    buf = io.StringIO()
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.out)  # a stale file from an earlier pass must not pass the check
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = cli.main(op.argv)
            wall = time.perf_counter() - t0
        ok, items, reason = CHECKS[wl.kind](op, code, buf.getvalue(), wl, expected)
    except (Exception, SystemExit) as exc:  # any exception is a failed operation
        return OpResult(op.group, False, 0.0, 0, f"{type(exc).__name__}: {exc}")
    return OpResult(op.group, ok, wall, items, reason)


def run_pass(cli, ops, wl, expected, totals: Totals, reference: Reference | None = None) -> float:
    """Run ``ops`` in order; with a ``reference``, time it before the first
    operation and after each one."""
    t0 = time.perf_counter()
    before = reference.time() if reference else 0.0
    for op in ops:
        res = run_op(cli, op, wl, expected)
        if reference:
            after = reference.time()
            res.ref_s = (before + after) / 2
            before = after
        if not res.ok:
            print(f"FAILED {' '.join(op.argv)}: {res.reason}", file=sys.stderr)
        totals.results.append(res)
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def blas_info() -> tuple[str, str]:
    name = "unknown"
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if threads:
        return name, threads
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def test_count() -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
             "-p", "no:benchmark", "tests"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        ).stdout
    except subprocess.TimeoutExpired:
        return "unknown"
    for line in reversed(out.splitlines()):
        if "collected" in line:
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    blas, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "src_lines": src_lines(),
        "tests": test_count(),
    }


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[int(q) - 1]


def end_to_end(totals: Totals, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Percentiles over every passing call of the run, and the run's rate.

    The gated times are normalised: each call's wall time is scaled by the
    reference time measured around it (see ``Reference``), so that they
    follow the program and not the shared machine's speed at the moment.
    The wall-clock figures are printed as well."""
    good = [r for r in totals.results if r.ok]
    if not good:
        raise SystemExit("error: no operation passed its output check")
    us = [1e6 * normalised(r.wall_s, r.ref_s) / r.items for r in good]
    wall_us = [1e6 * r.wall_s / r.items for r in good]
    items = sum(r.items for r in good)
    metrics = {
        "norm_us_per_item_p50": (percentile(us, 50), "us"),
        "norm_us_per_item_p75": (percentile(us, 75), "us"),
        "norm_items_per_s": (items / sum(normalised(r.wall_s, r.ref_s) for r in good), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(normalised(s, ref) for s, ref in setup), "s"),
    }
    info = {
        "samples": len(us),
        "samples_beyond_p75": sum(u > metrics["norm_us_per_item_p75"][0] for u in us),
        "norm_us_per_item_p90": percentile(us, 90),
        "reference_ms_p50": 1e3 * statistics.median(r.ref_s for r in good),
        "wall.us_per_item_p50": percentile(wall_us, 50),
        "wall.us_per_item_p75": percentile(wall_us, 75),
        "wall.items_per_s": items / sum(r.wall_s for r in good),
        "wall.setup_s": statistics.median(s for s, _ in setup),
        "op_failure_ratio": totals.failed / totals.attempted,
        "setup_samples_s": ", ".join(f"{normalised(s, ref):.4f}" for s, ref in setup),
        "wall.setup_samples_s": ", ".join(f"{s:.4f}" for s, _ in setup),
    }
    return metrics, info


def print_metrics(metrics: dict, info: dict, aliases: dict) -> None:
    for name, (value, unit) in metrics.items():
        alias = f"  (= {aliases[name]})" if name in aliases else ""
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"{name:44s} {shown} {unit}{alias}")
    for name, value in info.items():
        print(f"{name:44s} {value}")


def aliases_for(wl: Workload) -> dict:
    if wl.kind == "verify":
        return {
            "norm_us_per_item_p50": f"verify_entry_ms_p50 / {wl.points} points",
            "norm_us_per_item_p75": f"verify_entry_ms_p75 / {wl.points} points",
            "norm_items_per_s": "verify_points_per_s",
        }
    return {
        "norm_us_per_item_p50": "sim_us_per_step_p50",
        "norm_us_per_item_p75": "sim_us_per_step_p75",
        "norm_items_per_s": "sim_steps_per_s",
    }


def emit(totals: Totals, metrics: dict) -> int:
    doc = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if totals.failed == 0 else 1


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def run_untraced(cli, wl, args, entries, expected, work) -> int:
    measure_setup(1)  # writes the bytecode caches of a fresh checkout
    setup = measure_setup(SETUP_REPEATS)
    reference = Reference()
    totals = Totals()
    warm = make_pass(wl, args.seed, 0, entries, work)[:2]
    run_pass(cli, warm, wl, expected, Totals())
    t0 = time.perf_counter()
    k = 0
    while True:
        ops = make_pass(wl, args.seed, k, entries, work)
        dt = run_pass(cli, ops, wl, expected, totals, reference)
        k += 1
        if time.perf_counter() - t0 + dt > args.seconds:
            break
    setup += measure_setup(SETUP_REPEATS)
    metrics, info = end_to_end(totals, setup)
    info = {"passes": k, "seconds_used": time.perf_counter() - t0, **info}
    print_metrics(metrics, info, aliases_for(wl))
    return emit(totals, metrics)


def run_traced(g4, cli, wl, args, entries, expected, work) -> int:
    import spans as layers

    totals = Totals()
    ops = make_pass(wl, args.seed, 0, entries, work)
    run_pass(cli, ops[:2], wl, expected, Totals())
    passes = []
    t0 = time.perf_counter()
    while True:
        untraced = run_pass(cli, ops, wl, expected, totals)
        passes.append(layers.traced_pass(g4, lambda: run_pass(cli, ops, wl, expected, totals), untraced))
        if time.perf_counter() - t0 + 2 * untraced > args.seconds:
            break
    metrics, info = layers.per_layer(passes)
    info = {"traced_passes": len(passes), **info}
    print_metrics(metrics, info, {})
    return emit(totals, {m["name"]: metrics[m["name"]] for m in load_bench_json()["per_layer"]})


def load_bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    g4, catalog, checks, cli = import_program()
    wl = WORKLOADS[args.workload]
    expected = load_expected()
    env = environment()
    entries = entry_inputs(catalog, checks)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        for key, value in env.items():
            print(f"env.{key:40s} {value}")
        if args.trace:
            return run_traced(g4, cli, wl, args, entries, expected, work)
        return run_untraced(cli, wl, args, entries, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
