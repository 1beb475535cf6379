"""Command-line front end: list the catalog, run the verification suite,
integrate charged-particle trajectories.

Exit codes: 0 all asserted checks pass, 1 a verification failure, 2 usage or
configuration error, an output path that cannot be written included.
Reports are deterministic for a fixed configuration (floats serialized with
a fixed 17-significant-digit format), so two runs with the same seed produce
byte-identical JSON.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, catalog, checks, geometry, mechanics
from .catalog import GroupId, GroupParams, InvalidParams

__all__ = ["main", "build_report", "render_json", "RunConfig", "VerificationReport"]

_ETA_ALT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@dataclass
class RunConfig:
    groups: list
    seed: int = 42
    n_points: int = 200
    params: GroupParams = field(default_factory=GroupParams)
    tol: checks.ToleranceConfig = field(default_factory=checks.ToleranceConfig)
    fmt: str = "json"
    out: str | None = None


@dataclass
class VerificationReport:
    version: str
    config: dict
    results: list
    summary: dict  # per-group {passed, failed, flagged}
    inconsistencies: list
    exit_code: int


# --------------------------------------------------------------------------
# Deterministic serialization
# --------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def render_json(value, indent: int = 0) -> str:
    """Minimal JSON writer with a fixed float format (deterministic bytes)."""
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if value is None:
        return "null"
    import json

    return json.dumps(str(value))


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _parse_params(pairs: list[str]) -> GroupParams:
    kwargs = {}
    alphas = list(GroupParams().em_alphas)
    for pair in pairs:
        if "=" not in pair:
            raise InvalidParams(f"--param expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key in ("c", "alpha_angle", "k", "l"):
            kwargs[key] = float(raw)
        elif key == "eps01":
            kwargs["eps01"] = int(raw)
        elif key in ("alpha1", "alpha2", "alpha3", "alpha4"):
            alphas[int(key[-1]) - 1] = float(raw)
        elif key == "eta":
            if not raw.startswith("diag:"):
                raise InvalidParams("eta must be given as diag:a,b,c,d")
            diag = [float(x) for x in raw[len("diag:") :].split(",")]
            if len(diag) != 4:
                raise InvalidParams("eta diagonal needs four entries")
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


def _seed_default() -> int:
    env = os.environ.get("G4_SEED")
    return int(env) if env else 42


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


def _build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("--seed", type=int, default=None, help="sampling seed (fallback: G4_SEED env, then 42)")
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
    p_sim.add_argument("--T", type=float, default=10.0)
    p_sim.add_argument("--h", type=float, default=1e-3)
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
        config.seed = args.seed if args.seed is not None else _seed_default()
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


def _result_dict(res: checks.CheckResult) -> dict:
    return {
        "check": res.name,
        "group": res.group,
        "n_points": res.n_points,
        "max_residual": res.max_residual,
        "tolerance": res.tolerance,
        "passed": res.passed,
        "asserted": res.asserted,
        "notes": list(res.notes),
    }


def build_report(config: RunConfig) -> VerificationReport:
    """Run the full battery for the configured groups.

    Metric-dependent checks run under the configured frame metric and once
    more under the alternate signature (all-plus, or the default mixed one if
    all-plus was configured) to confirm the identities are signature-blind.
    Each entry gets one sample cloud; the alternate-signature checks reuse
    its eta-independent evaluations and recompute only the metric.
    """
    results: list[checks.CheckResult] = []
    inconsistencies: list[str] = []
    summary: dict = {}

    alt_eta = _ETA_ALT
    if np.array_equal(config.params.eta_matrix(), np.asarray(_ETA_ALT, float)):
        alt_eta = GroupParams().eta

    for gid in config.groups:
        model = catalog.get_group(gid, config.params)
        cloud = geometry.SampleCloud(
            model, *mechanics.sample_phase_points(model, config.n_points, config.seed)
        )
        group_results = checks.run_group_checks(
            cloud, config.tol, eta_label=_eta_label(model.eta_eff)
        )

        # rebinding drops the main-signature metric before the alternate one is built
        cloud = cloud.with_eta(alt_eta)
        for res in (
            checks.check_killing(cloud, config.tol),
            checks.check_frame_killing(cloud, config.tol),
            mechanics.check_hamiltonian_commutes(cloud, config.tol),
        ):
            res.name += f"[eta={_eta_label(cloud.model.eta_eff)}]"
            group_results.append(res)

        results.extend(group_results)
        summary[model.name] = {
            "passed": sum(r.passed and r.asserted for r in group_results),
            "failed": sum((not r.passed) and r.asserted for r in group_results),
            "flagged": sum(not r.asserted for r in group_results),
        }
        inconsistencies.extend(f"{model.name}: {note}" for note in model.notes)
        for res in group_results:
            if not res.asserted and not res.passed:
                inconsistencies.append(
                    f"{model.name}: {res.name} residual {res.max_residual:.3e} "
                    f"exceeds {res.tolerance:.1e} (report mode)"
                )

    failed = any(r.asserted and not r.passed for r in results)
    return VerificationReport(
        version=__version__,
        config={
            "groups": [g.value for g in config.groups],
            "seed": config.seed,
            "points": config.n_points,
            "tol_exact": config.tol.tol_exact,
            "tol_deriv": config.tol.tol_deriv,
            "c": config.params.c,
            "alpha_angle": config.params.alpha_angle,
            "k": config.params.k,
            "l": config.params.l,
            "eps01": config.params.eps01,
            "em_alphas": list(config.params.em_alphas),
            "eta": [list(row) for row in config.params.eta],
        },
        results=results,
        summary=summary,
        inconsistencies=inconsistencies,
        exit_code=1 if failed else 0,
    )


def _eta_label(eta: np.ndarray) -> str:
    diag = np.diag(eta)
    if np.allclose(eta, np.diag(diag)):
        return "".join("+" if d > 0 else "-" for d in diag)
    return "general"


def report_document(report: VerificationReport) -> dict:
    return {
        "schema": 1,
        "version": report.version,
        "config": report.config,
        "results": [_result_dict(r) for r in report.results],
        "summary": report.summary,
        "inconsistencies": report.inconsistencies,
    }


def _render_human(report: VerificationReport) -> str:
    lines = [f"g4motions {report.version} verification report", ""]
    current = None
    for res in report.results:
        if res.group != current:
            current = res.group
            s = report.summary[current]
            lines.append(
                f"== {current}  ({s['passed']} passed, {s['failed']} failed, "
                f"{s['flagged']} flagged)"
            )
        status = "PASS" if res.passed else "FAIL"
        if not res.asserted:
            status = "FLAG:" + status.lower()
        lines.append(
            f"  {res.name:40s} max residual {res.max_residual:10.3e}  "
            f"tol {res.tolerance:8.1e}  {status}"
        )
    if report.inconsistencies:
        lines.append("")
        lines.append("source-table findings:")
        lines.extend(f"  - {note}" for note in report.inconsistencies)
    lines.append("")
    return "\n".join(lines)


def _render_csv(report: VerificationReport) -> str:
    rows = ["check,group,n_points,max_residual,tolerance,passed,asserted"]
    for r in report.results:
        rows.append(
            f"{r.name},{r.group},{r.n_points},{_fmt_float(r.max_residual)},"
            f"{_fmt_float(r.tolerance)},{r.passed},{r.asserted}"
        )
    return "\n".join(rows) + "\n"


def cmd_verify(config: RunConfig) -> int:
    report = build_report(config)
    if config.fmt == "json":
        _emit(render_json(report_document(report)), config.out)
    elif config.fmt == "csv":
        _emit(_render_csv(report), config.out)
    else:
        _emit(_render_human(report), config.out)
    return report.exit_code


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
        "max_drift_H": stats.H.max_abs,
        "max_drift_Y": [d.max_abs for d in stats.Y],
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
                u0 = [float(x) for x in args.u0.split(",")]
                p0 = [float(x) for x in args.p0.split(",")]
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
