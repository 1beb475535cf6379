"""The verification suite: every identity the catalog asserts, as a residual
computation with pass/fail against tolerances.

Every check is a pure function of a ``geometry.SampleCloud`` (sample points
of one entry, with momenta, evaluated once; checks read the entry's tables
only through it) and the tolerances: the frame algebra, the Killing
equations, admissibility of the potential, and the motion integrals'
canonical brackets {Y_a, Y_b} and {H, Y_a}.  ``BATTERY`` lists them once, in report
order, with whether each reads the frame metric.  ``verify_group``, the
battery's one entry point, runs every row and then the metric-reading rows
under a second frame-metric signature, over chunks of ``CHUNK`` points,
one cloud per chunk, so its memory is bounded by the chunk and not by the
sample size; ``merge_chunks`` merges the chunks' results.

Residuals are max-norms over all free indices and sample points, scaled
relatively by (1 + magnitude of the compared terms) since the exponential
tables vary over orders of magnitude across the sampling box.  Each
identity check builds its two sides over the whole cloud and reduces each
residual once with ``scaled_max``; every product in a side is per point,
and a max is exact under any grouping, so the chunks' merged maxima are
those of the whole sample.  The frame-table crosscheck carries its
per-component maxima, so that the merge writes the notes of the whole
sample.  Results carry an ``asserted`` flag: flagged results document
known source-table quirks and never gate a verification run.

The checks that read the structure constants (``lie_closure``,
``frame_killing``, ``frame_defining`` and the motion integrals' algebra)
hold the catalog to its one bracket convention, [xi_a, xi_b] = C^g_ab xi_g
(see ``catalog``); no sign is fitted, so a table with C negated fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .catalog import (  # noqa: F401  eval_table_jet: read by bench/selftest.py
    ABELIAN_SUBGROUP_IDS,
    GroupId,
    GroupModel,
    GroupParams,
    eval_table_jet,
    eval_tables,
)
from .geometry import TABLES, SampleCloud, frame_metric_batch

__all__ = [
    "ToleranceConfig",
    "CheckResult",
    "CHUNK",
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
    "check_integral_algebra",
    "check_hamiltonian_commutes",
    "BATTERY",
    "merge_chunks",
    "verify_group",
    "admissible_alphas",
]


@dataclass
class ToleranceConfig:
    """The two settable tolerances of the battery; the report's ``config``
    records every field."""

    tol_exact: float = 1e-12  # algebraic identities
    tol_deriv: float = 1e-9  # identities involving derivatives

    def __post_init__(self):
        # a scaled residual is below 1 where one side vanishes and below 2
        # everywhere, so a tolerance of 1 or more passes a zeroed side
        for name in ("tol_exact", "tol_deriv"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must be finite and in (0, 1), got {value!r}")


#: ``check_fd_oracle``'s central-difference step, and its mixed
#: absolute/relative tolerance.
FD_STEP = 1e-5
FD_TOL = 1e-6


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
    #: the frame-table crosscheck: its 16 per-component maxima, (b, a) in
    #: row order
    components: tuple = field(default=(), repr=False)
    #: fails the result whatever its residual; a note says why
    vetoed: bool = False

    def __post_init__(self):
        self.passed = bool(self.max_residual <= self.tolerance) and not self.vetoed


#: Points per sample cloud of ``verify_group``.  A cloud's kept arrays and a
#: check's temporaries grow with its points, so peak memory is bounded by the
#: chunk.  On ``verify-large`` (2000 points; median of three 15 s runs, when
#: the largest residuals were still reduced in 256-point blocks) peak RSS was
#: 44.0 / 45.5 / 47.9 / 53.4 MB at 256 / 512 / 1024 / 2048 against 52.4 MB
#: unchunked, and p50 per point +10.9% / +11.1% / +1.5% / +2.4%.
CHUNK = 1024


def _scaled_errors(lhs, rhs) -> np.ndarray:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)) elementwise: the relative
    residual of every identity check."""
    lhs = np.asarray(lhs, float)
    rhs = np.asarray(rhs, float)
    # in place: the residual arrays are the largest arrays of a check
    scale = np.abs(lhs)
    np.maximum(scale, np.abs(rhs), out=scale)
    scale += 1.0
    err = lhs - rhs
    np.abs(err, out=err)
    err /= scale
    return err


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
    return _peak(_scaled_errors(lhs, rhs))


# --------------------------------------------------------------------------
# Algebraic structure
# --------------------------------------------------------------------------


def check_duality(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    prod = cloud.values("xi") @ cloud.values("dual")
    resid = scaled_max(prod, np.eye(4)[None])
    return CheckResult("frame_duality", cloud.model.name, len(cloud), resid, tol.tol_exact)


def check_tetrad_duality(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    prod = cloud.values("tetrad_basis") @ cloud.values("e_con_t")  # e^beta_i e_alpha^i, (n, beta, alpha)
    resid = scaled_max(prod, np.eye(4)[None])
    o = cloud.model.orientation
    veto = ""  # every reader takes the tables as stored, so a decision for another reading fails
    if o.status == "failed":
        veto = "; fails: neither reading of the tetrad reproduces the potential table"
    elif not o.rows_are_coordinates:
        veto = "; fails: only the transposed reading fits, and the tables are read as stored"
    notes = (
        f"orientation {o.status}; rows_are_coordinates={o.rows_are_coordinates}; "
        f"potential fit residual {o.potential_residual:.2e}{veto}",
    )
    return CheckResult(
        "tetrad_duality", cloud.model.name, len(cloud), resid, tol.tol_exact, notes=notes, vetoed=bool(veto)
    )


#: The note of the checks that read C: the catalog's bracket convention.
_BRACKET_NOTE = ("bracket sign s=+1",)


def check_lie_closure(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """[xi_a, xi_b] = C^g_ab xi_g."""
    xi, dxi = cloud.jet("xi")
    n = len(xi)
    rhs = (cloud.model.structure_constants.reshape(4, 16).T @ xi).reshape(n, 4, 4, 4)
    lhs = (xi @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_a^j d_j xi_b^i
    lhs = lhs - lhs.transpose(0, 2, 1, 3)  # rebound: only the two sides are alive in the reduction
    resid = scaled_max(lhs, rhs)
    return CheckResult(
        "lie_closure", cloud.model.name, len(cloud), resid, tol.tol_deriv, notes=_BRACKET_NOTE
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
    g, dg = cloud.metric
    xi, dxi = cloud.jet("xi")
    n = len(xi)
    lhs = (g @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4).transpose(0, 2, 1, 3)
    lhs = lhs + lhs.transpose(0, 1, 3, 2)
    resid = scaled_max(lhs, (xi @ dg.reshape(n, 4, 16)).reshape(n, 4, 4, 4))
    return CheckResult("killing", cloud.model.name, len(cloud), resid, tol.tol_deriv)


def check_frame_killing(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """Frame form of the Killing equations,
    G^{ab}_{|g} = G^{at} C^b_{tg} + G^{bt} C^a_{tg}."""
    C = cloud.model.structure_constants.transpose(1, 0, 2).reshape(4, 16)  # (t, (b, g))
    G, dG = frame_metric_batch(*cloud.metric, cloud.values("dual"), *cloud.jet("dual_t"))
    n = len(G)
    lhs = (cloud.values("xi") @ dG.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_g^l d_l G^{ab}
    rhs = (G.reshape(4 * n, 4) @ C).reshape(n, 4, 4, 4).transpose(0, 3, 1, 2)  # G^{at} C^b_{tg}
    del G, dG  # only the two sides are alive in the reduction
    rhs = rhs + rhs.transpose(0, 1, 3, 2)
    resid = scaled_max(lhs, rhs)
    return CheckResult(
        "frame_killing", cloud.model.name, len(cloud), resid, tol.tol_deriv, notes=_BRACKET_NOTE
    )


# --------------------------------------------------------------------------
# Admissibility of the electromagnetic potential
# --------------------------------------------------------------------------

def admissible_alphas(model: GroupModel) -> np.ndarray:
    """The model's potential constants projected onto its verified-admissible
    directions (for the Abelian-subgroup family only alpha4 survives)."""
    alphas = model.params.alphas().copy()
    if model.group_id in ABELIAN_SUBGROUP_IDS:
        alphas[:3] = 0.0
    return alphas


def _asserted_basis(model: GroupModel, b: int, zero_field: str) -> tuple[bool, tuple]:
    """Whether the tabulated potential of basis vector ``b`` is asserted
    admissible, and the note of a flagged one; ``zero_field`` ends the
    Abelian-subgroup note.  The Abelian-subgroup family admits only the
    pure-gauge alpha4 direction, and the third and fourth groups run in
    flagged (report-only) mode because their source tables carry known label
    conflicts; every other basis is asserted."""
    if model.group_id in ABELIAN_SUBGROUP_IDS and b < 3:
        return False, (f"zero-field construction: {zero_field}",)
    if model.group_id in (GroupId.G4_III, GroupId.G4_IV):
        return False, ("report mode: source potential tables carry label conflicts",)
    return True, ()


def _basis_rows(cloud: SampleCloud, tol: ToleranceConfig, name: str, sides, policies) -> list[CheckResult]:
    """The rows ``name % (b + 1)`` of the potential bases b: the residual
    between the arrays ``sides(b)``, asserted and noted as ``policies[b]``
    says, one ``scaled_max`` per basis (faster than one over all four)."""
    return [
        CheckResult(name % (b + 1), cloud.model.name, len(cloud), scaled_max(*sides(b)), tol.tol_deriv, *policy)
        for b, policy in enumerate(policies)
    ]


def check_admissibility(
    cloud: SampleCloud, tol: ToleranceConfig, mode: str = "holonomic"
) -> list[CheckResult]:
    """Basis-wise residual of (xi_a^j A_j)_{,i} = xi_a^j F_{ij}, as the Lie
    derivative L_{xi_a} A = 0.

    With F_ij = d_i A_j - d_j A_i, the left side minus the right one is

        d_i xi_a^j A_j + xi_a^j d_i A_j - xi_a^j (d_i A_j - d_j A_i)
            = xi_a^j d_j A_i + A_j d_i xi_a^j = (L_{xi_a} A)_i,

    so the check compares xi_a^j d_j A_i with -A_j d_i xi_a^j, and F is
    never formed.

    Every tabulated potential is linear in alpha1..alpha4, so checking the
    four basis vectors separately is complete and localizes defects to a
    single constant: the potential of basis vector b is row b of the table.
    ``mode`` selects the tabulated holonomic table or the tetrad-constructed
    potential.  Each side is one matmul per point for all four bases, a
    (4x4)(4x16) and a (16x4)(4x4) one.
    """
    tables = {"holonomic": "holo_basis", "tetrad": "tetrad_basis"}
    if mode not in tables:
        raise ValueError(f"unknown admissibility mode {mode!r}")
    model = cloud.model
    xi, dxi = cloud.jet("xi")  # dxi: (n, i, a, j) = d_i xi_a^j
    vals, grads = cloud.jet(tables[mode])  # (n,b,j), (n,j,b,i)
    n = len(xi)
    lhs = (xi @ grads.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_a^j d_j A^b_i as (n, a, b, i)
    lhs = np.ascontiguousarray(lhs.transpose(0, 3, 1, 2))  # as (n, i, a, b), the layout of rhs
    rhs = (dxi.reshape(n, 16, 4) @ -vals.transpose(0, 2, 1)).reshape(n, 4, 4, 4)  # -A^b_j d_i xi_a^j
    if mode == "tetrad":
        printed = model.tetrad_printed
        policies = [(printed, () if printed else ("derived (untabulated) tetrad",))] * 4
    else:
        zero_field = "F vanishes identically but the potential is not frame-invariant in this direction"
        policies = [_asserted_basis(model, b, zero_field) for b in range(4)]
    return _basis_rows(cloud, tol, f"admissibility[{mode}:alpha%d]", lambda b: (lhs[..., b], rhs[..., b]), policies)


def check_frame_defining(cloud: SampleCloud, tol: ToleranceConfig) -> list[CheckResult]:
    """Basis-wise residual of the frame-form defining equations
    A_{a|b} = C^g_{ba} A_g for the recomputed frame potential."""
    model = cloud.model
    xi = cloud.values("xi")
    vals, grads = cloud.jet("frame_basis")  # (n,c,a), (n,l,c,a)
    n = len(xi)
    C = model.structure_constants.reshape(4, 16)  # (g, (b, a))
    xidA = (xi @ grads.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_b^i d_i A^c_a as (n, b, c, a)

    def sides(b):  # per b, each as (n, a, b): xi_b^i d_i A_a and C^g_ba A_g
        return xidA[:, :, b].transpose(0, 2, 1), (vals[:, b, :] @ C).reshape(n, 4, 4).transpose(0, 2, 1)

    policies = [_asserted_basis(model, b, "mixed components do not close") for b in range(4)]
    return _basis_rows(cloud, tol, "frame_defining[alpha%d]", sides, policies)


def check_potential_consistency(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """A_i = xi^a_i A_a with the stored holonomic and frame tables."""
    frame = cloud.values("frame_basis")  # (n, b, a)
    recon = frame @ cloud.values("dual_t")  # (n, b, i)
    resid = scaled_max(recon, cloud.values("holo_basis"))  # (n, b, i)
    return CheckResult("potential_consistency", cloud.model.name, len(cloud), resid, 1e-10)


def check_frame_table_crosscheck(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult | None:
    """Compare the source frame-potential table (where expressible) against
    the recomputed one; per-component disagreements are reported, not fatal."""
    model = cloud.model
    if model.reference_frame is None:
        return None
    ref = cloud.values("reference_frame")
    rec = cloud.values("frame_basis")
    comps = np.max(_scaled_errors(ref, rec), axis=0)  # (b, a), over the sample points
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


def check_abelian_zero_field(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult | None:
    """For the Abelian-subgroup family the tabulated potential construction
    yields an identically vanishing field strength, for generic constants;
    ``None`` for the other entries."""
    model = cloud.model
    if model.group_id not in ABELIAN_SUBGROUP_IDS:
        return None
    dA = cloud.potential(model.params.alphas())[1]
    F = dA - dA.transpose(0, 2, 1)
    resid = scaled_max(F, np.zeros_like(F))
    return CheckResult("abelian_zero_field", model.name, len(cloud), resid, tol.tol_exact)


# --------------------------------------------------------------------------
# Oracle agreement
# --------------------------------------------------------------------------


def check_fd_oracle(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """Every table gradient a cloud serves (``geometry.TABLES``), from the
    symbolic partials, against central differences of the values at points
    +- h e_k (all of them in one ``eval_tables`` call), under the mixed
    absolute/relative tolerance."""
    names = [name for name, jet in TABLES.items() if jet]
    steps = np.eye(4)[:, None] * FD_STEP  # (k, 1, 4)
    shifted = np.concatenate([cloud.points + steps, cloud.points - steps]).reshape(-1, 4)
    evaluated = eval_tables([getattr(cloud.model, name) for name in names], shifted, [False] * len(names))
    worst = 0.0
    for name, (vals,) in zip(names, evaluated):
        plus, minus = vals.reshape(2, 4, len(cloud), *vals.shape[1:])
        fd = ((plus - minus) / (2 * FD_STEP)).swapaxes(0, 1)  # (n, k, r, c)
        grads = cloud.jet(name)[1]
        worst = max(worst, float(np.max(np.abs(grads - fd) / (FD_TOL + FD_TOL * np.abs(grads)))))
    # residual is already normalized to the tolerance: pass iff <= 1
    return CheckResult("fd_oracle", cloud.model.name, len(cloud), worst, 1.0)


# --------------------------------------------------------------------------
# Motion integrals
# --------------------------------------------------------------------------

#: The note of ``integral_algebra``: the closure sign under the catalog's
#: bracket convention [xi_a, xi_b] = C^g_ab xi_g.
_CLOSURE_NOTE = ("poisson closure sign -1 (vector-field bracket sign +1)",)


def check_integral_algebra(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """{Y_a, Y_b} = -C^g_ab Y_g for the linear integrals Y_a = xi_a^i p_i.

    With the canonical bracket {Y_a, Y_b} = xi_b^i d_i Y_a - xi_a^i d_i Y_b,
    normalized by {u^i, p_i} = +1, the map p . xi is an antihomomorphism, so
    it closes with the opposite sign of the vector-field bracket; the note
    records both.  The residual compares the bracket's two terms, so it is
    relative to their size.
    """
    M = cloud.values("xi") @ cloud.momentum_gradient  # xi_a^i d_i Y_b, (n, a, b)
    Y = np.einsum("nai,ni->na", cloud.values("xi"), cloud.momenta)
    target = (Y @ cloud.model.structure_constants.reshape(4, 16)).reshape(-1, 4, 4)  # C^g_ab Y_g
    resid = scaled_max(M.transpose(0, 2, 1), M - target)  # {Y_a, Y_b} = M^T - M
    return CheckResult(
        "integral_algebra", cloud.model.name, len(cloud), resid, tol.tol_deriv, notes=_CLOSURE_NOTE
    )


def check_hamiltonian_commutes(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """{H, Y_a} = 0 for H = g^{ij} (p_i + A_i)(p_j + A_j) with the
    verified-admissible potential configuration, as dH/du^l xi_a^l =
    dH/dp_i d_i Y_a: the residual is relative to the bracket's two terms."""
    model = cloud.model
    alphas = admissible_alphas(model)
    dH, dHdp = cloud.hamiltonian_grads(alphas)
    lhs = np.einsum("nl,nal->na", dH, cloud.values("xi"))
    resid = scaled_max(lhs, np.einsum("ni,nia->na", dHdp, cloud.momentum_gradient))
    note = ()
    if not np.array_equal(alphas, model.params.alphas()):
        note = (f"admissible configuration alphas={alphas.tolist()}",)
    return CheckResult(
        "hamiltonian_commutes", model.name, len(cloud), resid, tol.tol_deriv, notes=note
    )


# --------------------------------------------------------------------------
# The battery
# --------------------------------------------------------------------------

#: Every check of an entry, in report order: (check, whether it reads the
#: frame metric).  A check maps (cloud, tol) to a result, a list of results,
#: or ``None`` where it does not apply to the entry; ``verify_group`` runs
#: the metric-reading rows once more under a second signature.
BATTERY = (
    (check_duality, False),
    (check_tetrad_duality, False),
    (check_lie_closure, False),
    (lambda cloud, tol: check_jacobi(cloud.model.structure_constants, tol, cloud.model.name), False),
    (check_potential_consistency, False),
    (check_killing, True),
    (check_frame_killing, True),
    (partial(check_admissibility, mode="holonomic"), False),
    (partial(check_admissibility, mode="tetrad"), False),
    (check_frame_defining, False),
    (check_frame_table_crosscheck, False),
    (check_abelian_zero_field, False),
    (check_integral_algebra, False),
    (check_hamiltonian_commutes, True),
)


def _merge(parts) -> CheckResult:
    first = parts[0]
    n = sum(p.n_points for p in parts)
    if first.components:
        merged = tuple(map(max, zip(*(p.components for p in parts))))
        return _crosscheck_result(first.group, n, merged, first.tolerance)
    return replace(first, n_points=n, max_residual=max(p.max_residual for p in parts))


def merge_chunks(chunks: list[list[CheckResult]]) -> list[CheckResult]:
    """One entry's results over its whole sample, from the results of the
    same battery run on each chunk of it.

    A residual is the max of the chunks' maxima, which is exact under any
    grouping, and ``n_points`` is the sum; the crosscheck gets its notes
    from the merged per-component maxima.
    """
    if len(chunks) == 1:
        return chunks[0]  # one cloud's results are already the whole sample's
    return [_merge(col) for col in zip(*chunks)]


def _eta_label(eta: np.ndarray) -> str:
    diag = np.diag(eta)
    if np.allclose(eta, np.diag(diag)):
        return "".join("+" if d > 0 else "-" for d in diag)
    return "general"


_ALL_PLUS = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


@lru_cache(maxsize=64)  # models hash by identity and are kept by the memo, as in mechanics._kernel
def _passes(model: GroupModel) -> tuple:
    """``verify_group``'s two passes on ``model``, each (model, rows, tag)."""
    label = _eta_label(model.eta_eff)
    alt = model.with_eta(GroupParams.eta if label == "++++" else _ALL_PLUS)
    metric_rows = [row for row in BATTERY if row[1]]
    return (model, BATTERY, f"[eta={label}]"), (alt, metric_rows, f"[eta={_eta_label(alt.eta_eff)}]")


def verify_group(model: GroupModel, points, momenta, tol: ToleranceConfig) -> list[CheckResult]:
    """The battery of one entry on its sample points and momenta: every row
    of ``BATTERY`` under the model's frame metric, then the metric-reading
    rows under a second signature, each of those tagged ``[eta=...]`` with
    its signature.  The second signature is all-plus, or the default
    ``GroupParams.eta`` where the model's own is all-plus; its model and the
    tags are built once per model (``_passes``).

    The battery runs on ``CHUNK`` points at a time, one ``SampleCloud`` per
    chunk (one plan evaluation of its tables), so memory is bounded by the
    chunk; the second pass rebinds the chunk's cloud to the other model,
    which shares its eta-independent evaluations and drops the first metric
    before the second is built.  ``merge_chunks`` gives the results over the
    whole sample.  An empty sample raises ``ValueError``: it would verify
    nothing.
    """
    if not len(points):
        raise ValueError(f"{model.name}: an empty sample has no points to verify")
    chunks = []
    for k in range(0, len(points), CHUNK):
        cloud = SampleCloud(model, points[k : k + CHUNK], momenta[k : k + CHUNK])
        results = []
        for m, rows, tag in _passes(model):
            cloud = cloud.with_model(m)
            for check, reads_metric in rows:
                res = check(cloud, tol)
                if isinstance(res, CheckResult):
                    res = [res]
                for r in res or ():
                    if reads_metric:
                        r.name += tag
                    results.append(r)
        chunks.append(results)
    return merge_chunks(chunks)
