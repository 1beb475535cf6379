"""The verification suite: every identity the catalog asserts, as a residual
computation with pass/fail against tolerances.

Every check is a pure function of a ``geometry.SampleCloud`` (one entry's
sample points, evaluated once) and the tolerances.

Residuals are max-norms over all free indices and sample points, scaled
relatively by (1 + magnitude of the compared terms) since the exponential
tables vary over orders of magnitude across the sampling box.  Results carry
an ``asserted`` flag: flagged results document known source-table quirks and
never gate a verification run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import (  # noqa: F401  eval_table_jet: read by bench/selftest.py
    ABELIAN_SUBGROUP_IDS,
    GroupId,
    GroupModel,
    _scaled_error,
    eval_table,
    eval_table_jet,
)
from .geometry import SampleCloud

__all__ = [
    "ToleranceConfig",
    "CheckResult",
    "scaled_max",
    "check_duality",
    "check_tetrad_duality",
    "check_lie_closure",
    "check_jacobi",
    "check_killing",
    "check_frame_killing",
    "check_admissibility",
    "check_frame_defining",
    "check_potential_consistency",
    "check_frame_table_crosscheck",
    "check_abelian_zero_field",
    "check_fd_oracle",
    "run_group_checks",
    "ASSERTED_HOLO_ADMISSIBILITY",
    "admissible_alphas",
]


@dataclass
class ToleranceConfig:
    tol_exact: float = 1e-12  # algebraic identities
    tol_deriv: float = 1e-9  # identities involving derivatives
    fd_tol: float = 1e-6  # agreement with the finite-difference oracle
    fd_step: float = 1e-5

    def __post_init__(self):
        values = (self.tol_exact, self.tol_deriv, self.fd_tol, self.fd_step)
        if not all(0 < v < np.inf for v in values):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class CheckResult:
    name: str
    group: str
    n_points: int
    max_residual: float
    tolerance: float
    passed: bool = field(init=False)
    asserted: bool = True
    notes: tuple = ()

    def __post_init__(self):
        self.passed = bool(self.max_residual <= self.tolerance)


def scaled_max(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + max(|lhs|, |rhs|)) over all entries.

    Raises ``FloatingPointError`` if the residual is not finite.
    """
    err = _scaled_error(lhs, rhs)
    resid = float(np.max(err)) if err.size else 0.0
    _require_finite(resid)
    return resid


def _require_finite(resid: float) -> None:
    if not math.isfinite(resid):
        # np.einsum ignores np.errstate, so an overflow inside a contraction
        # surfaces here rather than where it happened
        raise FloatingPointError(f"non-finite residual {resid}")


# --------------------------------------------------------------------------
# Algebraic structure
# --------------------------------------------------------------------------


def check_duality(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    prod = cloud.values("xi") @ cloud.values("dual")
    resid = scaled_max(prod, np.eye(4)[None])
    return CheckResult("frame_duality", cloud.model.name, len(cloud), resid, tol.tol_exact)


def check_tetrad_duality(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    cov = eval_table(cloud.model.e_cov, cloud.points)  # (n, i, alpha); no other check reads it
    con = cloud.values("e_con")  # (n, alpha, i)
    prod = con @ cov
    resid = scaled_max(prod, np.eye(4)[None])
    notes = ()
    if cloud.model.orientation is not None:
        o = cloud.model.orientation
        notes = (
            f"orientation {o.status}; rows_are_coordinates={o.rows_are_coordinates}; "
            f"potential fit residual {o.potential_residual:.2e}",
        )
    return CheckResult(
        "tetrad_duality", cloud.model.name, len(cloud), resid, tol.tol_exact, notes=notes
    )


def check_lie_closure(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    _, s, res = cloud.bracket
    return CheckResult(
        "lie_closure",
        cloud.model.name,
        len(cloud),
        res[s],
        tol.tol_deriv,
        notes=(f"bracket sign s={s:+d}",),
    )


def check_jacobi(C: np.ndarray, tol: ToleranceConfig, group: str = "-") -> CheckResult:
    """The cyclic Jacobi sum C^m_ab C^n_mg + C^m_bg C^n_ma + C^m_ga C^n_mb
    over every index combination (a, b, g, n)."""
    T = np.einsum("mab,nmg->abgn", C, C)
    worst = float(np.max(np.abs(T + T.transpose(2, 0, 1, 3) + T.transpose(1, 2, 0, 3))))
    return CheckResult("jacobi", group, 0, worst, tol.tol_exact)


# --------------------------------------------------------------------------
# Killing equations
# --------------------------------------------------------------------------


def check_killing(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """g^{il} d_l xi_a^j + g^{jl} d_l xi_a^i - d_l g^{ij} xi_a^l = 0."""
    g, _, dg = cloud.metric
    xi, dxi = cloud.jet("xi")
    n = len(xi)
    lhs = (g @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4).transpose(0, 2, 1, 3)
    lhs = lhs + lhs.transpose(0, 1, 3, 2)
    rhs = (xi @ dg.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    resid = scaled_max(lhs, rhs)
    return CheckResult("killing", cloud.model.name, len(cloud), resid, tol.tol_deriv)


def check_frame_killing(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """Frame form of the Killing equations,
    G^{ab}_{|g} = s (G^{at} C^b_{tg} + G^{bt} C^a_{tg})."""
    G, dG = cloud.frame_metric()
    _, s, _ = cloud.bracket
    n = len(G)
    lhs = (cloud.values("xi") @ dG.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_g^l d_l G^{ab}
    del dG  # the largest array here; the residual needs two more of its size
    C = cloud.model.structure_constants.transpose(1, 0, 2).reshape(4, 16)  # (t, (b, g))
    rhs = (G.reshape(4 * n, 4) @ C).reshape(n, 4, 4, 4).transpose(0, 3, 1, 2)  # G^{at} C^b_{tg}
    rhs = rhs + rhs.transpose(0, 1, 3, 2)
    rhs *= s
    resid = scaled_max(lhs, rhs)
    return CheckResult(
        "frame_killing",
        cloud.model.name,
        len(cloud),
        resid,
        tol.tol_deriv,
        notes=(f"bracket sign s={s:+d}",),
    )


# --------------------------------------------------------------------------
# Admissibility of the electromagnetic potential
# --------------------------------------------------------------------------

#: Entries whose tabulated holonomic potentials are asserted admissible.
#: The third and fourth groups run in flagged (report-only) mode because
#: their source tables carry known label conflicts, and the Abelian-subgroup
#: family admits only the pure-gauge alpha4 direction.
ASSERTED_HOLO_ADMISSIBILITY = frozenset(
    {
        GroupId.G4_I_CNE1,
        GroupId.G4_I_CEQ1,
        GroupId.G4_II,
        GroupId.G4_V,
        GroupId.G4_VII_A,
        GroupId.G4_VII_B,
        GroupId.G4_VIII_A,
        GroupId.G4_VIII_B,
    }
)


def admissible_alphas(model: GroupModel) -> np.ndarray:
    """The model's potential constants projected onto its verified-admissible
    directions (for the Abelian-subgroup family only alpha4 survives)."""
    alphas = model.params.alphas().copy()
    if model.group_id in ABELIAN_SUBGROUP_IDS:
        alphas[:3] = 0.0
    return alphas


def _asserted_basis(model: GroupModel, b: int, zero_field: str) -> tuple[bool, tuple]:
    """Whether the potential of basis vector ``b`` is asserted admissible,
    and the note of a flagged one; ``zero_field`` ends the Abelian-subgroup
    note."""
    abelian = model.group_id in ABELIAN_SUBGROUP_IDS
    asserted = model.group_id in ASSERTED_HOLO_ADMISSIBILITY or (abelian and b == 3)
    if abelian and b < 3:
        return asserted, (f"zero-field construction: {zero_field}",)
    if model.group_id in (GroupId.G4_III, GroupId.G4_IV):
        return asserted, ("report mode: source potential tables carry label conflicts",)
    return asserted, ()


def _admissibility_residual(xi_t, dxi, A, dA) -> float:
    # xi_t: (n, j, a) = xi_a^j, C-contiguous; dxi: (n, i, a, j) = d_i xi_a^j;
    # A (n, j) and dA (n, i, j) of one basis potential
    F = dA - dA.transpose(0, 2, 1)
    # d_i (xi_a^j A_j) vs xi_a^j F_{ij}
    lhs = np.einsum("niaj,nj->nia", dxi, A) + dA @ xi_t
    rhs = F @ xi_t
    return scaled_max(lhs, rhs)


def check_admissibility(
    cloud: SampleCloud, tol: ToleranceConfig, mode: str = "holonomic"
) -> list[CheckResult]:
    """Basis-wise residual of (xi_a^j A_j)_{,i} = xi_a^j F_{ij}.

    Every tabulated potential is linear in alpha1..alpha4, so checking the
    four basis vectors separately is complete and localizes defects to a
    single constant: the potential of basis vector b is row b of the table.
    ``mode`` selects the tabulated holonomic table or the tetrad-constructed
    potential.
    """
    tables = {"holonomic": "holo_basis", "tetrad": "tetrad_basis"}
    if mode not in tables:
        raise ValueError(f"unknown admissibility mode {mode!r}")
    model = cloud.model
    xi, dxi = cloud.jet("xi")
    xi_t = np.ascontiguousarray(xi.transpose(0, 2, 1))  # a contiguous operand keeps matmul on BLAS
    vals, grads = cloud.jet(tables[mode])  # (n,b,i), (n,l,b,i)
    results = []
    for b in range(4):
        resid = _admissibility_residual(xi_t, dxi, vals[:, b], grads[:, :, b])
        if mode == "tetrad":
            asserted = model.tetrad_printed
            notes = () if model.tetrad_printed else ("derived (untabulated) tetrad",)
        else:
            asserted, notes = _asserted_basis(
                model, b, "F vanishes identically but the potential is not frame-invariant in this direction"
            )
        results.append(
            CheckResult(
                f"admissibility[{mode}:alpha{b + 1}]",
                model.name,
                len(cloud),
                resid,
                tol.tol_deriv,
                asserted=asserted,
                notes=notes,
            )
        )
    return results


def check_frame_defining(cloud: SampleCloud, tol: ToleranceConfig) -> list[CheckResult]:
    """Basis-wise residual of the frame-form defining equations
    A_{a|b} = s C^g_{ba} A_g for the recomputed frame potential."""
    model = cloud.model
    xi = cloud.values("xi")
    vals, grads = cloud.jet("frame_basis")  # (n,c,a), (n,l,c,a)
    _, s, _ = cloud.bracket
    n = len(xi)
    C = model.structure_constants.reshape(4, 16)  # (g, (b, a))
    results = []
    for b in range(4):
        Av = vals[:, b, :]  # (n, alpha)
        dAv = grads[:, :, b, :]  # (n, l, alpha)
        lhs = (xi @ dAv).transpose(0, 2, 1)  # xi_b^i d_i A_a, as (n, a, b)
        rhs = s * (Av @ C).reshape(n, 4, 4).transpose(0, 2, 1)  # C^g_ba A_g, as (n, a, b)
        resid = scaled_max(lhs, rhs)
        asserted, notes = _asserted_basis(model, b, "mixed components do not close")
        results.append(
            CheckResult(
                f"frame_defining[alpha{b + 1}]",
                model.name,
                len(cloud),
                resid,
                tol.tol_deriv,
                asserted=asserted,
                notes=notes,
            )
        )
    return results


def check_potential_consistency(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """A_i = xi^a_i A_a with the stored holonomic and frame tables."""
    dual = cloud.values("dual")  # (n, i, a)
    frame = cloud.values("frame_basis")  # (n, b, a)
    recon = frame @ dual.transpose(0, 2, 1)  # (n, b, i)
    resid = scaled_max(recon, cloud.values("holo_basis"))  # (n, b, i)
    return CheckResult("potential_consistency", cloud.model.name, len(cloud), resid, 1e-10)


def check_frame_table_crosscheck(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult | None:
    """Compare the source frame-potential table (where expressible) against
    the recomputed one; per-component disagreements are reported, not fatal."""
    model = cloud.model
    if model.reference_frame is None:
        return None
    ref = eval_table(model.reference_frame, cloud.points)
    rec = cloud.values("frame_basis")
    comps = np.max(_scaled_error(ref, rec), axis=0)  # (b, a), over the sample points
    resid = float(np.max(comps))
    _require_finite(resid)
    notes = []
    for b in range(4):
        for a in range(4):
            comp = comps[b, a]
            if comp > tol.tol_deriv:
                notes.append(
                    f"alpha{b + 1} basis, frame component {a + 1}: "
                    f"source table deviates by {comp:.2e}"
                )
    return CheckResult(
        "frame_table_crosscheck",
        model.name,
        len(cloud),
        resid,
        tol.tol_deriv,
        asserted=False,
        notes=tuple(notes),
    )


def check_abelian_zero_field(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """For the Abelian-subgroup family the tabulated potential construction
    yields an identically vanishing field strength, for generic constants."""
    model = cloud.model
    if model.group_id not in ABELIAN_SUBGROUP_IDS:
        raise ValueError("zero-field theorem applies to the g4-vi-* entries only")
    dA = cloud.potential(model.params.alphas())[1]
    F = dA - dA.transpose(0, 2, 1)
    resid = scaled_max(F, np.zeros_like(F))
    return CheckResult("abelian_zero_field", model.name, len(cloud), resid, tol.tol_exact)


# --------------------------------------------------------------------------
# Oracle agreement
# --------------------------------------------------------------------------


_FD_TABLES = ("xi", "dual", "e_cov", "e_con", "holo_basis", "frame_basis")


def _fd_table_residual(table, grads, points, tol: ToleranceConfig) -> float:
    """Central differences of one table, from batched value evaluations at
    points +- h e_k, against its symbolic-partial gradients (n, 4, r, c);
    normalized to the mixed absolute/relative tolerance."""
    steps = np.eye(4) * tol.fd_step
    fd = np.stack(
        [(eval_table(table, points + h) - eval_table(table, points - h)) / (2 * tol.fd_step) for h in steps],
        axis=1,
    )
    return float(np.max(np.abs(grads - fd) / (tol.fd_tol + tol.fd_tol * np.abs(grads))))


def check_fd_oracle(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """Every expression table's gradient, from its symbolic partials, against
    the central finite-difference oracle (mixed absolute/relative tolerance)."""
    worst = max(
        _fd_table_residual(getattr(cloud.model, name), cloud.jet(name)[1], cloud.points, tol)
        for name in _FD_TABLES
    )
    # residual is already normalized to the tolerance: pass iff <= 1
    return CheckResult("fd_oracle", cloud.model.name, len(cloud), worst, 1.0)


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def run_group_checks(
    cloud: SampleCloud, tol: ToleranceConfig | None = None, eta_label: str = ""
) -> list[CheckResult]:
    """All checks for one entry on its sample cloud.

    A cloud with momenta also runs the motion-integral checks; ``eta_label``
    tags metric-dependent results when a run sweeps several frame metrics.
    """
    from . import mechanics  # deferred: mechanics imports this module's types

    tol = tol or ToleranceConfig()
    model = cloud.model
    suffix = f"[eta={eta_label}]" if eta_label else ""
    results = [
        check_duality(cloud, tol),
        check_tetrad_duality(cloud, tol),
        check_lie_closure(cloud, tol),
        check_jacobi(model.structure_constants, tol, group=model.name),
        check_potential_consistency(cloud, tol),
    ]
    for res, name in (
        (check_killing(cloud, tol), "killing"),
        (check_frame_killing(cloud, tol), "frame_killing"),
    ):
        res.name = name + suffix
        results.append(res)
    results.extend(check_admissibility(cloud, tol, mode="holonomic"))
    results.extend(check_admissibility(cloud, tol, mode="tetrad"))
    results.extend(check_frame_defining(cloud, tol))
    cross = check_frame_table_crosscheck(cloud, tol)
    if cross is not None:
        results.append(cross)
    if model.group_id in ABELIAN_SUBGROUP_IDS:
        results.append(check_abelian_zero_field(cloud, tol))
    if cloud.momenta is not None:
        results.append(mechanics.check_integral_algebra(cloud, tol))
        res = mechanics.check_hamiltonian_commutes(cloud, tol)
        res.name += suffix
        results.append(res)
    return results
