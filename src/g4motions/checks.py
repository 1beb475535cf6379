"""The verification suite: every identity the catalog asserts, as a residual
computation with pass/fail against tolerances.

Every check is a pure function of a ``geometry.SampleCloud`` (sample points
of one entry, evaluated once) and the tolerances.  ``verify_group`` runs an
entry's battery, under both frame-metric signatures, over chunks of
``CHUNK`` points, one cloud per chunk, so its memory is bounded by the chunk
and not by the sample size; ``merge_chunks`` merges the chunks' results.

Residuals are max-norms over all free indices and sample points, scaled
relatively by (1 + magnitude of the compared terms) since the exponential
tables vary over orders of magnitude across the sampling box.  The largest
residuals (the frame bracket, both Killing checks and admissibility) are
computed and reduced in blocks of ``BLOCK`` points by one reducer,
``blocked_max``, so that their temporaries stay in cache; every product in
their sides is per point, and a max is exact under any grouping, so the
result is the same as over the whole cloud.  The same holds for the chunks:
``CHUNK`` is a multiple of ``BLOCK``, so a blocked residual sees the same
blocks in a chunk as on one whole cloud.  The checks that read the bracket
sign carry their maxima under both signs, and the frame-table crosscheck
its per-component maxima, so that the merge writes the residual and the
notes of the whole sample.  Results carry an ``asserted`` flag: flagged
results document known source-table quirks and never gate a verification
run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import (  # noqa: F401  eval_table_jet: read by bench/selftest.py
    ABELIAN_SUBGROUP_IDS,
    GroupId,
    GroupModel,
    eval_table,
    eval_table_jet,
)
from .geometry import SampleCloud, frame_metric_batch

__all__ = [
    "ToleranceConfig",
    "CheckResult",
    "BLOCK",
    "CHUNK",
    "scaled_max",
    "scaled_max_signs",
    "blocked_max",
    "frame_bracket",
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
    "signed_result",
    "run_group_checks",
    "merge_chunks",
    "verify_group",
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
    #: a check that reads the bracket sign: {s: (max_residual, notes)} for
    #: s = +1 and -1 (``signed_result``)
    by_sign: dict | None = field(default=None, repr=False)
    #: the frame-table crosscheck: its 16 per-component maxima, (b, a) in
    #: row order
    components: tuple = field(default=(), repr=False)

    def __post_init__(self):
        self.passed = bool(self.max_residual <= self.tolerance)


#: Points per block of a blocked residual.  A block's (B, 4, 4, 4) float64
#: temporaries are 128 KiB each at B = 256, so a residual's working set stays
#: in the L2 cache.  On ``verify-large`` B = 128 measured 6% slower (the
#: per-block calls) and B = 512 the same within noise.
BLOCK = 256

#: Points per sample cloud of ``verify_group``, a multiple of ``BLOCK``.  A
#: cloud's kept arrays and a check's temporaries grow with its points, so
#: peak memory is bounded by the chunk.  On ``verify-large`` (2000 points;
#: median of three 15 s runs) peak RSS was 44.0 / 45.5 / 47.9 / 53.4 MB at
#: 256 / 512 / 1024 / 2048 against 52.4 MB unchunked, and p50 per point
#: +10.9% / +11.1% / +1.5% / +2.4%.
CHUNK = 1024


def _scaled_errors(lhs, rhs, both_signs: bool = False) -> list[np.ndarray]:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)) elementwise: the relative
    residual of every identity check.  With ``both_signs`` also
    |lhs + rhs| over the same scale, which is the residual against -rhs
    exactly: |-rhs| = |rhs| and lhs - (-rhs) = lhs + rhs."""
    lhs = np.asarray(lhs, float)
    rhs = np.asarray(rhs, float)
    # in place: the residual arrays are the largest arrays of a check
    scale = np.abs(lhs)
    np.maximum(scale, np.abs(rhs), out=scale)
    scale += 1.0
    errs = [lhs - rhs, lhs + rhs] if both_signs else [lhs - rhs]
    for err in errs:
        np.abs(err, out=err)
        err /= scale
    return errs


def _peak(err: np.ndarray) -> float:
    resid = float(err.max()) if err.size else 0.0
    if not math.isfinite(resid):
        # np.einsum ignores np.errstate, so an overflow inside a contraction
        # surfaces here rather than where it happened
        raise FloatingPointError(f"non-finite residual {resid}")
    return resid


def scaled_max(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + max(|lhs|, |rhs|)) over all entries.

    Raises ``FloatingPointError`` if the residual is not finite.
    """
    return _peak(_scaled_errors(lhs, rhs)[0])


def scaled_max_signs(lhs, rhs) -> tuple[float, float]:
    """``scaled_max(lhs, rhs)`` and ``scaled_max(lhs, -rhs)``, bit for bit,
    over one shared scale.

    Raises ``FloatingPointError`` if either residual is not finite.
    """
    plus, minus = _scaled_errors(lhs, rhs, both_signs=True)
    return _peak(plus), _peak(minus)


def blocked_max(sides, *arrays, signs: bool = False):
    """The scaled residual of ``sides`` over per-point arrays, ``BLOCK``
    points at a time.

    ``sides`` maps one block of each array (its leading axis is the sample
    point) to the block's (lhs, rhs), which go to ``scaled_max``, or with
    ``signs`` to ``scaled_max_signs`` (the result is then the pair).  Each
    block raises ``FloatingPointError`` on a non-finite residual before it is
    merged, and a max of finite maxima is exact under any grouping.
    """
    worst = (0.0, 0.0) if signs else 0.0
    for k in range(0, len(arrays[0]), BLOCK):
        lhs, rhs = sides(*(a[k : k + BLOCK] for a in arrays))
        if signs:
            worst = tuple(map(max, worst, scaled_max_signs(lhs, rhs)))
        else:
            worst = max(worst, scaled_max(lhs, rhs))
    return worst


def frame_bracket(xi, dxi, C) -> tuple[np.ndarray, int, dict]:
    """The frame Lie bracket and the overall sign it closes with.

    ``xi`` is (n, a, i) and ``dxi`` (n, j, a, i) = d_j xi_a^i.  Returns
    [xi_a, xi_b]^i = xi_a^j d_j xi_b^i - xi_b^j d_j xi_a^i as (n, a, b, i),
    the sign s that fits [xi_a, xi_b] = s C^g_ab xi_g best (+1 on a tie), and
    the scaled residual max |lhs - rhs| / (1 + max(|lhs|, |rhs|)) of each
    sign, both signs reduced per block over one scale.  Raises
    ``FloatingPointError`` if a residual is not finite.
    """
    n = len(xi)
    bracket = (xi @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_a^j d_j xi_b^i
    bracket = bracket - bracket.transpose(0, 2, 1, 3)
    Ct = C.reshape(4, 16).T

    def sides(bracket, xi):
        return bracket, (Ct @ xi).reshape(len(xi), 4, 4, 4)  # C^g_ab xi_g^i

    plus, minus = blocked_max(sides, bracket, xi, signs=True)
    res = {1: plus, -1: minus}
    return bracket, min(res, key=res.get), res


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
    o = cloud.model.orientation
    notes = (
        f"orientation {o.status}; rows_are_coordinates={o.rows_are_coordinates}; "
        f"potential fit residual {o.potential_residual:.2e}",
    )
    return CheckResult(
        "tetrad_duality", cloud.model.name, len(cloud), resid, tol.tol_exact, notes=notes
    )


def signed_result(
    cloud: SampleCloud, name: str, resids, tolerance: float, notes, **kwargs
) -> CheckResult:
    """The result of a check that reads the bracket sign, under the sign s
    of ``cloud.bracket``.  ``resids`` are the check's residuals under
    s = +1 and s = -1, and ``notes(s)`` its notes under s; the result keeps
    both signs' (residual, notes) in ``by_sign``, so that ``merge_chunks``
    can write them under the sign of a whole sample."""
    by_sign = {s: (resid, notes(s)) for s, resid in zip((1, -1), resids)}
    resid, note = by_sign[cloud.bracket[1]]
    return CheckResult(
        name, cloud.model.name, len(cloud), resid, tolerance, notes=note, by_sign=by_sign, **kwargs
    )


def _sign_note(s: int) -> tuple:
    return (f"bracket sign s={s:+d}",)


def check_lie_closure(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    res = cloud.bracket[2]
    return signed_result(cloud, "lie_closure", (res[1], res[-1]), tol.tol_deriv, _sign_note)


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

    def sides(g, dg, xi, dxi):
        n = len(xi)
        lhs = (g @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4).transpose(0, 2, 1, 3)
        lhs = lhs + lhs.transpose(0, 1, 3, 2)
        rhs = (xi @ dg.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
        return lhs, rhs

    resid = blocked_max(sides, *cloud.metric, *cloud.jet("xi"))
    return CheckResult("killing", cloud.model.name, len(cloud), resid, tol.tol_deriv)


def check_frame_killing(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """Frame form of the Killing equations,
    G^{ab}_{|g} = s (G^{at} C^b_{tg} + G^{bt} C^a_{tg}), under both signs."""
    C = cloud.model.structure_constants.transpose(1, 0, 2).reshape(4, 16)  # (t, (b, g))

    def sides(g, dg, dual, ddual, xi):
        G, dG = frame_metric_batch(g, dg, dual, ddual)
        n = len(G)
        lhs = (xi @ dG.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_g^l d_l G^{ab}
        rhs = (G.reshape(4 * n, 4) @ C).reshape(n, 4, 4, 4).transpose(0, 3, 1, 2)  # G^{at} C^b_{tg}
        return lhs, rhs + rhs.transpose(0, 1, 3, 2)

    resids = blocked_max(sides, *cloud.metric, *cloud.jet("dual"), cloud.values("xi"), signs=True)
    return signed_result(cloud, "frame_killing", resids, tol.tol_deriv, _sign_note)


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


def _admissibility_sides(xi_t, dxi, A, dA) -> tuple[np.ndarray, np.ndarray]:
    # xi_t: (n, j, a) = xi_a^j, C-contiguous; dxi: (n, i, a, j) = d_i xi_a^j;
    # A (n, j) and dA (n, i, j) of one basis potential
    F = dA - dA.transpose(0, 2, 1)
    # d_i (xi_a^j A_j) vs xi_a^j F_{ij}
    lhs = np.einsum("niaj,nj->nia", dxi, A) + dA @ xi_t
    rhs = F @ xi_t
    return lhs, rhs


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
        resid = blocked_max(_admissibility_sides, xi_t, dxi, vals[:, b], grads[:, :, b])
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
    A_{a|b} = s C^g_{ba} A_g for the recomputed frame potential, under both
    signs."""
    model = cloud.model
    xi = cloud.values("xi")
    vals, grads = cloud.jet("frame_basis")  # (n,c,a), (n,l,c,a)
    n = len(xi)
    C = model.structure_constants.reshape(4, 16)  # (g, (b, a))
    results = []
    for b in range(4):
        Av = vals[:, b, :]  # (n, alpha)
        dAv = grads[:, :, b, :]  # (n, l, alpha)
        lhs = (xi @ dAv).transpose(0, 2, 1)  # xi_b^i d_i A_a, as (n, a, b)
        rhs = (Av @ C).reshape(n, 4, 4).transpose(0, 2, 1)  # C^g_ba A_g, as (n, a, b)
        asserted, notes = _asserted_basis(model, b, "mixed components do not close")
        results.append(
            signed_result(
                cloud,
                f"frame_defining[alpha{b + 1}]",
                scaled_max_signs(lhs, rhs),
                tol.tol_deriv,
                lambda s, notes=notes: notes,
                asserted=asserted,
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
    comps = np.max(_scaled_errors(ref, rec)[0], axis=0)  # (b, a), over the sample points
    _peak(comps)
    return _crosscheck_result(model.name, len(cloud), tuple(comps.ravel().tolist()), tol.tol_deriv)


def _crosscheck_result(
    group: str, n_points: int, components: tuple, tolerance: float
) -> CheckResult:
    """The crosscheck's result from its per-component maxima, which
    ``merge_chunks`` merges before the notes are written."""
    notes = tuple(
        f"alpha{k // 4 + 1} basis, frame component {k % 4 + 1}: "
        f"source table deviates by {comp:.2e}"
        for k, comp in enumerate(components)
        if comp > tolerance
    )
    return CheckResult(
        "frame_table_crosscheck",
        group,
        n_points,
        max(components),
        tolerance,
        asserted=False,
        notes=notes,
        components=components,
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
    """All checks for one entry on one sample cloud, under the bracket sign
    of that cloud (``verify_group`` runs it per chunk of a sample).

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


def _merge(parts, s: int) -> CheckResult:
    first = parts[0]
    n = sum(p.n_points for p in parts)
    if first.components:
        merged = tuple(map(max, zip(*(p.components for p in parts))))
        return _crosscheck_result(first.group, n, merged, first.tolerance)
    if first.by_sign:
        by_sign = {t: (max(p.by_sign[t][0] for p in parts), first.by_sign[t][1]) for t in (1, -1)}
        resid, notes = by_sign[s]
        return replace(first, n_points=n, max_residual=resid, notes=notes, by_sign=by_sign)
    return replace(first, n_points=n, max_residual=max(p.max_residual for p in parts))


def merge_chunks(chunks: list[list[CheckResult]]) -> list[CheckResult]:
    """One entry's results over its whole sample, from the results of the
    same battery run on each chunk of it.

    A residual is the max of the chunks' maxima, which is exact under any
    grouping, and ``n_points`` is the sum.  The bracket sign s is picked
    from the merged maxima of ``lie_closure``, +1 on a tie, as
    ``frame_bracket`` picks it on one cloud; every result that reads the
    sign gets its residual and notes under that s, and the crosscheck its
    notes from the merged per-component maxima.
    """
    if len(chunks) == 1:
        return chunks[0]  # one cloud's results are already the whole sample's
    columns = list(zip(*chunks))
    closure = next(col for col in columns if col[0].name == "lie_closure")
    res = {t: max(p.by_sign[t][0] for p in closure) for t in (1, -1)}
    s = min(res, key=res.get)
    return [_merge(col, s) for col in columns]


def _eta_label(eta: np.ndarray) -> str:
    diag = np.diag(eta)
    if np.allclose(eta, np.diag(diag)):
        return "".join("+" if d > 0 else "-" for d in diag)
    return "general"


def verify_group(
    model: GroupModel, points, momenta, tol: ToleranceConfig, alt_eta
) -> list[CheckResult]:
    """The battery of one entry on its sample points and momenta: every
    check under the model's frame metric, and the metric-dependent ones once
    more under the frame metric ``alt_eta``, each tagged with its signature.

    The battery runs on ``CHUNK`` points at a time, one ``SampleCloud`` per
    chunk, so memory is bounded by the chunk; the alternate-signature checks
    run on the chunk's cloud under the other metric, which shares its
    eta-independent evaluations.  ``merge_chunks`` gives the results over
    the whole sample.
    """
    from . import mechanics  # deferred: mechanics imports this module's types

    alt_model = model.with_eta(alt_eta)
    label, alt_suffix = _eta_label(model.eta_eff), f"[eta={_eta_label(alt_model.eta_eff)}]"
    chunks = []
    for k in range(0, len(points), CHUNK):
        cloud = SampleCloud(model, points[k : k + CHUNK], momenta[k : k + CHUNK])
        results = run_group_checks(cloud, tol, eta_label=label)
        # rebinding drops the main-signature metric before the alternate one is built
        cloud = cloud.with_model(alt_model)
        for res in (
            check_killing(cloud, tol),
            check_frame_killing(cloud, tol),
            mechanics.check_hamiltonian_commutes(cloud, tol),
        ):
            res.name += alt_suffix
            results.append(res)
        chunks.append(results)
    return merge_chunks(chunks)
