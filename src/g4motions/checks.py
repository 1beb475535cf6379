"""The verification suite: every identity the catalog asserts, as a residual
computation with pass/fail against tolerances.

Residuals are max-norms over all free indices and sample points, scaled
relatively by (1 + magnitude of the compared terms) since the exponential
tables vary over orders of magnitude across the sampling box.  Results carry
an ``asserted`` flag: flagged results document known source-table quirks and
never gate a verification run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import catalog, geometry
from .catalog import (
    ABELIAN_SUBGROUP_IDS,
    GroupId,
    GroupModel,
    eval_table,
    eval_table_jet,
)

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

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.asserted:
            status += "*"
        return (
            f"{self.group:12s} {self.name:34s} "
            f"{self.max_residual:10.3e} <= {self.tolerance:8.1e}  {status}"
        )


def scaled_max(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + max(|lhs|, |rhs|)) over all entries."""
    lhs = np.asarray(lhs, float)
    rhs = np.asarray(rhs, float)
    scale = 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))
    return float(np.max(np.abs(lhs - rhs) / scale)) if lhs.size else 0.0


# --------------------------------------------------------------------------
# Algebraic structure
# --------------------------------------------------------------------------


def check_duality(model: GroupModel, points, tol: ToleranceConfig) -> CheckResult:
    xi = eval_table(model.xi, points)
    dual = eval_table(model.dual, points)
    prod = np.einsum("nai,nib->nab", xi, dual)
    resid = scaled_max(prod, np.eye(4)[None])
    return CheckResult("frame_duality", model.name, len(points), resid, tol.tol_exact)


def check_tetrad_duality(model: GroupModel, points, tol: ToleranceConfig) -> CheckResult:
    cov = eval_table(model.e_cov, points)  # (n, i, alpha)
    con = eval_table(model.e_con, points)  # (n, alpha, i)
    prod = np.einsum("nai,nib->nab", con, cov)
    resid = scaled_max(prod, np.eye(4)[None])
    notes = ()
    if model.orientation is not None:
        o = model.orientation
        notes = (
            f"orientation {o.status}; rows_are_coordinates={o.rows_are_coordinates}; "
            f"potential fit residual {o.potential_residual:.2e}",
        )
    return CheckResult(
        "tetrad_duality", model.name, len(points), resid, tol.tol_exact, notes=notes
    )


def check_lie_closure(model: GroupModel, points, tol: ToleranceConfig) -> CheckResult:
    xi, dxi = eval_table_jet(model.xi, points)  # (n,a,i), (n,j,a,i)
    bracket = np.einsum("naj,njbi->nabi", xi, dxi)
    bracket = bracket - bracket.transpose(0, 2, 1, 3)
    target = np.einsum("gab,ngi->nabi", model.structure_constants, xi)
    res = {s: scaled_max(bracket, s * target) for s in (1, -1)}
    s = min(res, key=res.get)
    return CheckResult(
        "lie_closure",
        model.name,
        len(points),
        res[s],
        tol.tol_deriv,
        notes=(f"bracket sign s={s:+d}",),
    )


def check_jacobi(C: np.ndarray, tol: ToleranceConfig, group: str = "-") -> CheckResult:
    """Brute force over all index combinations of the cyclic Jacobi sum."""
    worst = 0.0
    for a in range(4):
        for b in range(4):
            for g in range(4):
                for nu in range(4):
                    total = 0.0
                    for mu in range(4):
                        total += (
                            C[mu, a, b] * C[nu, mu, g]
                            + C[mu, b, g] * C[nu, mu, a]
                            + C[mu, g, a] * C[nu, mu, b]
                        )
                    worst = max(worst, abs(total))
    return CheckResult("jacobi", group, 0, worst, tol.tol_exact)


# --------------------------------------------------------------------------
# Killing equations
# --------------------------------------------------------------------------


def check_killing(model: GroupModel, points, tol: ToleranceConfig) -> CheckResult:
    """g^{il} d_l xi_a^j + g^{jl} d_l xi_a^i - d_l g^{ij} xi_a^l = 0."""
    g, _, dg = geometry.metric_batch(model, points)
    xi, dxi = eval_table_jet(model.xi, points)
    term = np.einsum("nil,nlaj->naij", g, dxi)
    lhs = term + term.transpose(0, 1, 3, 2)
    rhs = np.einsum("nlij,nal->naij", dg, xi)
    resid = scaled_max(lhs, rhs)
    return CheckResult("killing", model.name, len(points), resid, tol.tol_deriv)


def _frame_metric_jet(g, dg, dual, ddual):
    """G^{ab} = xi^a_i xi^b_j g^{ij} (n, a, b) and d_l G^{ab} (n, l, a, b).

    Pairwise batched matmuls; the two dual-derivative terms of the gradient
    are one product and its (a, b) transpose, since g is symmetric.
    """
    dual_t = dual.transpose(0, 2, 1)
    gd = g @ dual  # g^{ij} xi^b_j
    half = ddual.transpose(0, 1, 3, 2) @ gd[:, None]  # d_l xi^a_i g^{ij} xi^b_j
    dG = half + half.transpose(0, 1, 3, 2) + dual_t[:, None] @ dg @ dual[:, None]
    return dual_t @ gd, dG


def check_frame_killing(model: GroupModel, points, tol: ToleranceConfig) -> CheckResult:
    """Frame form of the Killing equations,
    G^{ab}_{|g} = s (G^{at} C^b_{tg} + G^{bt} C^a_{tg})."""
    g, _, dg = geometry.metric_batch(model, points)
    dualv, ddual = eval_table_jet(model.dual, points)  # (n,i,a), (n,l,i,a)
    xi = eval_table(model.xi, points)
    G, dG = _frame_metric_jet(g, dg, dualv, ddual)
    n = len(xi)
    lhs = (xi @ dG.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_g^l d_l G^{ab}
    C = model.structure_constants
    half = np.einsum("nat,btg->ngab", G, C)
    rhs = model.bracket_sign() * (half + half.transpose(0, 1, 3, 2))
    resid = scaled_max(lhs, rhs)
    return CheckResult(
        "frame_killing",
        model.name,
        len(points),
        resid,
        tol.tol_deriv,
        notes=(f"bracket sign s={model.bracket_sign():+d}",),
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

_BASIS = np.eye(4)


def admissible_alphas(model: GroupModel) -> np.ndarray:
    """The model's potential constants projected onto its verified-admissible
    directions (for the Abelian-subgroup family only alpha4 survives)."""
    alphas = model.params.alphas().copy()
    if model.group_id in ABELIAN_SUBGROUP_IDS:
        alphas[:3] = 0.0
    return alphas


def _admissibility_residual(model, points, alphas, basis=None) -> float:
    xi, dxi = eval_table_jet(model.xi, points)  # dxi: (n, i, a, j) = d_i xi_a^j
    A, dA = geometry.potential_batch(model, points, alphas=alphas, basis=basis)
    F = dA - dA.transpose(0, 2, 1)
    # d_i (xi_a^j A_j) vs xi_a^j F_{ij}
    lhs = np.einsum("niaj,nj->nia", dxi, A) + np.einsum("naj,nij->nia", xi, dA)
    rhs = np.einsum("naj,nij->nia", xi, F)
    return scaled_max(lhs, rhs)


def check_admissibility(
    model: GroupModel, points, tol: ToleranceConfig, mode: str = "holonomic"
) -> list[CheckResult]:
    """Basis-wise residual of (xi_a^j A_j)_{,i} = xi_a^j F_{ij}.

    Every tabulated potential is linear in alpha1..alpha4, so checking the
    four basis vectors separately is complete and localizes defects to a
    single constant.  ``mode`` selects the tabulated holonomic table or the
    tetrad-constructed potential.
    """
    if mode == "holonomic":
        basis = None
    elif mode == "tetrad":
        basis = catalog.tetrad_basis_table(model)
    else:
        raise ValueError(f"unknown admissibility mode {mode!r}")

    abelian = model.group_id in ABELIAN_SUBGROUP_IDS
    results = []
    for b in range(4):
        resid = _admissibility_residual(model, points, _BASIS[b], basis=basis)
        if mode == "tetrad":
            asserted = model.tetrad_printed
            notes = () if model.tetrad_printed else ("derived (untabulated) tetrad",)
        else:
            asserted = model.group_id in ASSERTED_HOLO_ADMISSIBILITY or (
                abelian and b == 3
            )
            notes = ()
            if abelian and b < 3:
                notes = (
                    "zero-field construction: F vanishes identically but the "
                    "potential is not frame-invariant in this direction",
                )
            elif model.group_id in (GroupId.G4_III, GroupId.G4_IV):
                notes = ("report mode: source potential tables carry label conflicts",)
        results.append(
            CheckResult(
                f"admissibility[{mode}:alpha{b + 1}]",
                model.name,
                len(points),
                resid,
                tol.tol_deriv,
                asserted=asserted,
                notes=notes,
            )
        )
    return results


def check_frame_defining(
    model: GroupModel, points, tol: ToleranceConfig
) -> list[CheckResult]:
    """Basis-wise residual of the frame-form defining equations
    A_{a|b} = s C^g_{ba} A_g for the recomputed frame potential."""
    xi = eval_table(model.xi, points)
    vals, grads = eval_table_jet(model.frame_basis, points)  # (n,c,a), (n,l,c,a)
    s = model.bracket_sign()
    C = model.structure_constants
    abelian = model.group_id in ABELIAN_SUBGROUP_IDS
    results = []
    for b in range(4):
        Av = vals[:, b, :]  # (n, alpha)
        dAv = grads[:, :, b, :]  # (n, l, alpha)
        lhs = np.einsum("nbi,nia->nab", xi, dAv)
        rhs = s * np.einsum("gba,ng->nab", C, Av)
        resid = scaled_max(lhs, rhs)
        asserted = model.group_id in ASSERTED_HOLO_ADMISSIBILITY or (abelian and b == 3)
        notes = ()
        if abelian and b < 3:
            notes = ("zero-field construction: mixed components do not close",)
        elif model.group_id in (GroupId.G4_III, GroupId.G4_IV):
            notes = ("report mode: source potential tables carry label conflicts",)
        results.append(
            CheckResult(
                f"frame_defining[alpha{b + 1}]",
                model.name,
                len(points),
                resid,
                tol.tol_deriv,
                asserted=asserted,
                notes=notes,
            )
        )
    return results


def check_potential_consistency(
    model: GroupModel, points, tol: ToleranceConfig
) -> CheckResult:
    """A_i = xi^a_i A_a with the stored holonomic and frame tables."""
    dual = eval_table(model.dual, points)  # (n, i, a)
    holo = eval_table(model.holo_basis, points)  # (n, b, i)
    frame = eval_table(model.frame_basis, points)  # (n, b, a)
    recon = np.einsum("nia,nba->nbi", dual, frame)
    resid = scaled_max(recon, holo)
    return CheckResult(
        "potential_consistency", model.name, len(points), resid, 1e-10
    )


def check_frame_table_crosscheck(
    model: GroupModel, points, tol: ToleranceConfig
) -> CheckResult | None:
    """Compare the source frame-potential table (where expressible) against
    the recomputed one; per-component disagreements are reported, not fatal."""
    if model.reference_frame is None:
        return None
    ref = eval_table(model.reference_frame, points)
    rec = eval_table(model.frame_basis, points)
    resid = scaled_max(ref, rec)
    notes = []
    for b in range(4):
        for a in range(4):
            comp = scaled_max(ref[:, b, a], rec[:, b, a])
            if comp > tol.tol_deriv:
                notes.append(
                    f"alpha{b + 1} basis, frame component {a + 1}: "
                    f"source table deviates by {comp:.2e}"
                )
    return CheckResult(
        "frame_table_crosscheck",
        model.name,
        len(points),
        resid,
        tol.tol_deriv,
        asserted=False,
        notes=tuple(notes),
    )


def check_abelian_zero_field(
    model: GroupModel, points, tol: ToleranceConfig
) -> CheckResult:
    """For the Abelian-subgroup family the tabulated potential construction
    yields an identically vanishing field strength, for generic constants."""
    if model.group_id not in ABELIAN_SUBGROUP_IDS:
        raise ValueError("zero-field theorem applies to the g4-vi-* entries only")
    F = geometry.faraday_batch(model, points, alphas=model.params.alphas())
    resid = scaled_max(F, np.zeros_like(F))
    return CheckResult(
        "abelian_zero_field", model.name, len(points), resid, tol.tol_exact
    )


# --------------------------------------------------------------------------
# Oracle agreement
# --------------------------------------------------------------------------


def _fd_table_residual(table, points, tol: ToleranceConfig) -> float:
    worst = 0.0
    pts = np.asarray(points, float)
    for row in table:
        for expr in row:
            jet_grad_all = expr.jet(pts.T).grad  # (4, n)
            for idx, u in enumerate(pts):
                fd = np.array(
                    [
                        (expr(u + h_vec) - expr(u - h_vec)) / (2 * tol.fd_step)
                        for h_vec in np.eye(4) * tol.fd_step
                    ]
                )
                ad = jet_grad_all[:, idx]
                err = np.max(np.abs(ad - fd) / (tol.fd_tol + tol.fd_tol * np.abs(ad)))
                worst = max(worst, err)
    return worst


def check_fd_oracle(model: GroupModel, points, tol: ToleranceConfig) -> CheckResult:
    """Every expression table's forward-mode gradient against the central
    finite-difference oracle (mixed absolute/relative tolerance)."""
    worst = 0.0
    for table in (
        model.xi,
        model.dual,
        model.e_cov,
        model.e_con,
        model.holo_basis,
        model.frame_basis,
    ):
        worst = max(worst, _fd_table_residual(table, points, tol))
    # residual is already normalized to the tolerance: pass iff <= 1
    return CheckResult("fd_oracle", model.name, len(points), worst, 1.0)


# --------------------------------------------------------------------------
# Orchestration
# --------------------------------------------------------------------------


def run_group_checks(
    model: GroupModel,
    points,
    tol: ToleranceConfig | None = None,
    phase_momenta=None,
    eta_label: str = "",
) -> list[CheckResult]:
    """All checks for one entry at the given sample points.

    ``phase_momenta`` (same leading length as points, in [-1, 1]^4) enables
    the motion-integral checks; ``eta_label`` tags metric-dependent results
    when a run sweeps several frame metrics.
    """
    from . import mechanics  # deferred: mechanics imports this module's types

    tol = tol or ToleranceConfig()
    suffix = f"[eta={eta_label}]" if eta_label else ""
    results = [
        check_duality(model, points, tol),
        check_tetrad_duality(model, points, tol),
        check_lie_closure(model, points, tol),
        check_jacobi(model.structure_constants, tol, group=model.name),
        check_potential_consistency(model, points, tol),
    ]
    for res, name in (
        (check_killing(model, points, tol), "killing"),
        (check_frame_killing(model, points, tol), "frame_killing"),
    ):
        res.name = name + suffix
        results.append(res)
    results.extend(check_admissibility(model, points, tol, mode="holonomic"))
    results.extend(check_admissibility(model, points, tol, mode="tetrad"))
    results.extend(check_frame_defining(model, points, tol))
    cross = check_frame_table_crosscheck(model, points, tol)
    if cross is not None:
        results.append(cross)
    if model.group_id in ABELIAN_SUBGROUP_IDS:
        results.append(check_abelian_zero_field(model, points, tol))
    if phase_momenta is not None:
        results.append(
            mechanics.check_integral_algebra(model, points, phase_momenta, tol)
        )
        res = mechanics.check_hamiltonian_commutes(model, points, phase_momenta, tol)
        res.name += suffix
        results.append(res)
    return results
