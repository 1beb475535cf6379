"""Command-line front end: list the catalog, run the verification suite,
integrate charged-particle trajectories.

A verify run builds one report document (``build_report``), which every
``--format`` writes.  Exit codes: 0 no entry's report ``summary`` counts a
failed asserted check, 1 one does, 2 usage or configuration error, an output
path that cannot be written included.  Reports are deterministic for a fixed
configuration (floats serialized with a fixed 17-significant-digit format),
so two runs with the same seed produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import ctypes
import errno
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, catalog, checks, mechanics
from .catalog import GroupId, GroupParams, InvalidParams

__all__ = ["main", "build_report", "render_json", "RunConfig"]

@dataclass
class RunConfig:
    groups: list
    seed: int = 42
    n_points: int = 200
    params: GroupParams = field(default_factory=GroupParams)
    tol: checks.ToleranceConfig = field(default_factory=checks.ToleranceConfig)
    fmt: str = "json"
    out: str | None = None


# --------------------------------------------------------------------------
# Deterministic serialization
# --------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def render_json(value, indent: int = 0) -> str:
    """Minimal JSON writer with a fixed float format (deterministic bytes).
    Plain scalars dispatch on their exact type, numpy scalars and str enums
    on ``isinstance``; strings are escaped as ``json.dumps`` escapes them."""
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {render_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, (int, np.integer)):  # bool has no subclasses: it returned above
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if value is None:
        return "null"
    return encode_basestring_ascii(str(value))


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _number(option: str, raw: str, kind=float):
    """``kind(raw)``, or ``InvalidParams`` naming the option that gave ``raw``."""
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InvalidParams(f"{option} expects {what}, got {raw!r}") from None


def _components(option: str, raw: str) -> list:
    """The four finite numbers of ``option``'s comma-separated ``raw``."""
    values = [_number(option, x) for x in raw.split(",")]
    if len(values) != 4 or not np.all(np.isfinite(values)):
        raise InvalidParams(f"{option} expects four finite comma-separated numbers, got {raw!r}")
    return values


def _parse_params(pairs: list[str]) -> GroupParams:
    kwargs = {}
    alphas = list(GroupParams.em_alphas)  # the field's default
    for pair in pairs:
        if "=" not in pair:
            raise InvalidParams(f"--param expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip().lower().replace("-", "_")
        option = f"--param {key}"
        if key in ("c", "alpha_angle", "k", "l"):
            kwargs[key] = _number(option, raw)
        elif key == "eps01":
            kwargs["eps01"] = _number(option, raw, int)
        elif key in ("alpha1", "alpha2", "alpha3", "alpha4"):
            alphas[int(key[-1]) - 1] = _number(option, raw)
        elif key == "eta":
            if not raw.startswith("diag:"):
                raise InvalidParams("eta must be given as diag:a,b,c,d")
            diag = _components(option, raw[len("diag:") :])
            kwargs["eta"] = tuple(
                tuple(diag[i] if i == j else 0.0 for j in range(4)) for i in range(4)
            )
        else:
            raise InvalidParams(f"unknown parameter {key!r}")
    kwargs["em_alphas"] = tuple(alphas)
    return GroupParams(**kwargs)


def _resolve_groups(selector: str) -> list[GroupId]:
    if selector == "all":
        return list(GroupId)
    try:
        return [GroupId(selector)]
    except ValueError:
        raise InvalidParams(f"unknown group id {selector!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", default="all", help="catalog id or 'all'")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="c, alpha-angle, k, l, eps01, alpha1..alpha4, eta=diag:a,b,c,d (repeatable)",
    )
    parser.add_argument("--out", default=None, help="write output to this path")


# One verify chunk frees about 7 MB (its tracemalloc peak at 1024 points);
# under glibc's default thresholds the next chunk faults those pages in again.
TRIM_THRESHOLD = 64 << 20  # bytes of free heap top kept
MMAP_THRESHOLD = 32 << 20  # smallest block given its own mapping (glibc's largest)


@cache
def _keep_freed_heap(libc=None) -> tuple:
    """Set glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD: mallopt's results
    (1 each), or () without mallopt.  ``main`` calls it; a library import does not."""
    libc = ctypes.CDLL(None) if libc is None and os.name == "posix" else libc
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return ()
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(-1, TRIM_THRESHOLD), mallopt(-3, MMAP_THRESHOLD)  # malloc.h numbers


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="g4motions",
        description="catalog of simply transitive four-parameter motion groups "
        "with admissible electromagnetic potentials, and its verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="dump the catalog (ids, constraints, structure constants)")
    _add_common(p_list)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=42, help="sampling seed")
    p_verify.add_argument("--points", type=int, default=200)
    p_verify.add_argument("--tol-exact", type=float, default=1e-12)
    p_verify.add_argument("--tol-deriv", type=float, default=1e-9)
    p_verify.add_argument("--format", choices=("json", "csv", "human"), default="json")

    p_sim = sub.add_parser(
        "simulate",
        help="integrate a charged-particle trajectory",
        description="integrate a charged-particle trajectory; when the potential "
        "constants are not the admissible ones that verify checks {H, Y_a} = 0 for, "
        "the run goes ahead and one warning line on stderr names the admissible alphas",
    )
    _add_common(p_sim)
    p_sim.add_argument("--u0", default="0,0,0,0", help="initial chart point, comma separated")
    p_sim.add_argument("--p0", default="0.1,0.2,0.3,0.4", help="initial momenta, comma separated")
    p_sim.add_argument(
        "--T", type=float, default=10.0,
        help=f"horizon; the run takes round(T / h) RK4 steps, at most {mechanics.MAX_STEPS}",
    )
    p_sim.add_argument("--h", type=float, default=1e-3, help="RK4 step size")
    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig(groups=_resolve_groups(args.group), params=_parse_params(args.param), out=args.out)
    if args.command == "simulate":
        if len(config.groups) != 1:
            raise InvalidParams("simulate expects a single --group id")
        config.out = config.out or f"trajectory-{config.groups[0].value}.csv"
    elif args.command == "verify":
        if args.points < 1:
            raise InvalidParams("--points must be at least 1")
        if args.seed < 0:
            raise InvalidParams(f"--seed must be non-negative, got {args.seed}")
        config.seed = args.seed
        config.n_points = args.points
        config.tol = checks.ToleranceConfig(tol_exact=args.tol_exact, tol_deriv=args.tol_deriv)
        config.fmt = args.format
    return config


def _check_out(path: str | None) -> None:
    """Raise, before any work is done, the error that ``open(path, "w")``
    gives for a missing parent directory or for a directory."""
    if path and not os.path.exists(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if path and os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_list(config: RunConfig) -> int:
    entries = [
        catalog.catalog_entry(catalog.get_group(gid, config.params))
        for gid in config.groups
    ]
    doc = {"schema": 1, "version": __version__, "entries": entries}
    _emit(render_json(doc), config.out)
    return 0


def build_report(config: RunConfig) -> dict:
    """Run the full battery for the configured groups and return the report
    document: the dict that ``render_json`` writes, and that the csv and
    human writers read.  ``cmd_verify`` takes its exit code from the
    document's ``summary``.

    Each entry's battery runs through ``checks.verify_group``, one table
    evaluation per chunk: the metric-reading checks run under the entry's
    frame metric and again under a second signature, its model built once
    per model (all-plus, or the default mixed one where the entry's is
    all-plus), to confirm the identities are signature-blind.
    """
    results: list[dict] = []
    inconsistencies: list[str] = []
    summary: dict = {}

    for gid in config.groups:
        model = catalog.get_group(gid, config.params)
        points, momenta = mechanics.sample_phase_points(model, config.n_points, config.seed)
        group_results = checks.verify_group(model, points, momenta, config.tol)
        summary[model.name] = {
            "passed": sum(r.passed and r.asserted for r in group_results),
            "failed": sum((not r.passed) and r.asserted for r in group_results),
            "flagged": sum(not r.asserted for r in group_results),
        }
        inconsistencies.extend(f"{model.name}: {note}" for note in model.notes)
        for res in group_results:
            results.append({
                "check": res.name,
                "group": res.group,
                "n_points": res.n_points,
                "max_residual": res.max_residual,
                "tolerance": res.tolerance,
                "passed": res.passed,
                "asserted": res.asserted,
                "notes": list(res.notes),
            })
            if not res.asserted and not res.passed:
                inconsistencies.append(
                    f"{model.name}: {res.name} residual {res.max_residual:.3e} "
                    f"exceeds {res.tolerance:.1e} (report mode)"
                )

    return {
        "schema": 1,
        "version": __version__,
        "config": {
            "groups": [g.value for g in config.groups],
            "seed": config.seed,
            "points": config.n_points,
            # every field of both, so a report gives back its configuration
            **vars(config.tol),
            **vars(config.params),
        },
        "results": results,
        "summary": summary,
        "inconsistencies": inconsistencies,
    }


def _render_human(report: dict) -> str:
    lines = [f"g4motions {report['version']} verification report", ""]
    current = None
    for res in report["results"]:
        if res["group"] != current:
            current = res["group"]
            s = report["summary"][current]
            lines.append(
                f"== {current}  ({s['passed']} passed, {s['failed']} failed, "
                f"{s['flagged']} flagged)"
            )
        status = "PASS" if res["passed"] else "FAIL"
        if not res["asserted"]:
            status = "FLAG:" + status.lower()
        lines.append(
            f"  {res['check']:40s} max residual {res['max_residual']:10.3e}  "
            f"tol {res['tolerance']:8.1e}  {status}"
        )
    if report["inconsistencies"]:
        lines.append("")
        lines.append("source-table findings:")
        lines.extend(f"  - {note}" for note in report["inconsistencies"])
    lines.append("")
    return "\n".join(lines)


def _render_csv(report: dict) -> str:
    rows = ["check,group,n_points,max_residual,tolerance,passed,asserted"]
    for r in report["results"]:
        rows.append(
            f"{r['check']},{r['group']},{r['n_points']},{_fmt_float(r['max_residual'])},"
            f"{_fmt_float(r['tolerance'])},{r['passed']},{r['asserted']}"
        )
    return "\n".join(rows) + "\n"


def cmd_verify(config: RunConfig) -> int:
    report = build_report(config)
    render = {"json": render_json, "csv": _render_csv, "human": _render_human}[config.fmt]
    _emit(render(report), config.out)
    return 1 if any(s["failed"] for s in report["summary"].values()) else 0


def cmd_simulate(config: RunConfig, u0, p0, T: float, h: float) -> int:
    if not (0 < h < np.inf and 0 < T < np.inf):
        raise InvalidParams("simulate requires positive finite --T and --h")
    model = catalog.get_group(config.groups[0], config.params)
    state0 = mechanics.PhasePoint(u=u0, p=p0)
    if not model.domain.contains(state0.u):
        lo, hi = model.domain.bounds()
        box = " x ".join(f"[{a:.6g}, {b:.6g}]" for a, b in zip(lo, hi))
        start = ",".join(f"{x:g}" for x in state0.u)
        raise InvalidParams(f"--u0 {start} lies outside the sampling box of {model.name}: {box}")
    alphas = model.params.alphas()
    admissible = checks.admissible_alphas(model)
    traj = mechanics.integrate_trajectory(model, state0, T=T, h=h)
    stats = mechanics.drift_report(traj)

    mechanics.export_csv(traj, config.out)
    summary = {
        "schema": 1,
        "version": __version__,
        "group": model.name,
        "steps": len(traj) - 1,
        "T_requested": T,
        "h": h,
        "alphas": alphas.tolist(),
        # verify checks {H, Y_a} = 0 only for these projected constants
        "alphas_admissible": bool(np.array_equal(alphas, admissible)),
        "domain_exit": traj.domain_exit,
        "t_final": float(traj.t[-1]),
        "csv": config.out,
        "max_drift_H": stats.H,
        "max_drift_Y": list(stats.Y),
    }
    if not summary["alphas_admissible"]:
        print(
            f"warning: alphas {alphas.tolist()} are not admissible for {model.name}; "
            f"verify checks {{H, Y_a}} = 0 for alphas {admissible.tolist()}",
            file=sys.stderr,
        )
    sys.stdout.write(render_json(summary) + "\n")
    return 0


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # ufunc overflow and invalid operations raise FloatingPointError
        # (exit 2 below) instead of printing warnings and carrying on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            config = _config_from_args(args)
            _check_out(config.out)
            if args.command == "list":
                return cmd_list(config)
            if args.command == "verify":
                return cmd_verify(config)
            if args.command == "simulate":
                u0, p0 = _components("--u0", args.u0), _components("--p0", args.p0)
                return cmd_simulate(config, u0, p0, args.T, args.h)
            parser.error(f"unknown command {args.command}")
    except (ValueError, OSError) as exc:  # InvalidParams, and an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # SingularMetric, FloatingPointError, the compiled kernel's math
        # errors and failed factorizations: a numerically degenerate setup
        print(f"error: {exc} ({type(exc).__name__})", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a sample too large to allocate (a huge --points)
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
