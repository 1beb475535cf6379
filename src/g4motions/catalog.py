"""The fifteen catalog entries: spacetimes with a simply transitive
four-parameter motion group.

Each entry packages, as closed-form expression tables over the chart
(u1, u2, u3, u4):

* the Killing frame ``xi`` (rows = group index) and its dual ``dual``
  (rows = coordinate index), inverse matrices of one another,
* the nonzero structure constants ``C`` closing the frame's Lie brackets
  in the one convention of the catalog, [xi_a, xi_b] = C^g_ab xi_g with
  [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i,
* a tetrad pair ``e_cov``/``e_con`` from which the invariant metric is
  built as g_ij = eta_ab e^a_i e^b_j,
* the admissible electromagnetic potential, stored basis-wise in the four
  potential constants alpha_1..alpha_4 (every tabulated solution is linear
  in them), both in holonomic components and contracted onto the frame.

The group labels follow Petrov's classification of such groups.  Where the
published source tables are internally inconsistent (a handful of sign and
label slips), the stored entry is the corrected form that satisfies the
defining identities, and the discrepancy is recorded in ``notes`` so reports
can surface it; the uncorrected frame-potential tables are kept alongside
(``reference_frame``) for cross-checking where they are expressible.

The checks fit no bracket sign, so a source table written in the other
convention, [xi_a, xi_b] = -C^g_ab xi_g, gets its C negated when it is
transcribed, with a note in the entry's ``notes`` saying so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from . import adiff
from .adiff import FieldExpr, coords, exp, sin, cos

U1, U2, U3, U4 = coords()

__all__ = [
    "GroupId",
    "GroupParams",
    "SampleDomain",
    "OrientationDecision",
    "GroupModel",
    "InvalidParams",
    "get_group",
    "sample_points",
    "orient_tetrad",
    "catalog_entry",
]


class InvalidParams(ValueError):
    """Group parameters violate the entry's constraints."""


class GroupId(str, Enum):
    G4_I_CNE1 = "g4-i-cne1"
    G4_I_CEQ1 = "g4-i-ceq1"
    G4_II = "g4-ii"
    G4_III = "g4-iii"
    G4_IV = "g4-iv"
    G4_V = "g4-v"
    G4_VI_1 = "g4-vi-1"
    G4_VI_2 = "g4-vi-2"
    G4_VI_3 = "g4-vi-3"
    G4_VI_4_1 = "g4-vi-4-1"
    G4_VI_4_2 = "g4-vi-4-2"
    G4_VII_A = "g4-vii-a"
    G4_VII_B = "g4-vii-b"
    G4_VIII_A = "g4-viii-a"
    G4_VIII_B = "g4-viii-b"

    def __str__(self):
        return self.value


ABELIAN_SUBGROUP_IDS = frozenset(
    {
        GroupId.G4_VI_1,
        GroupId.G4_VI_2,
        GroupId.G4_VI_3,
        GroupId.G4_VI_4_1,
        GroupId.G4_VI_4_2,
    }
)

#: Groups whose metric completes the 3x3 frame block with a flat fourth
#: direction (g^44 = 1, no cross terms): the "X4 = p4 over a G3 orbit" form.
BLOCK_ETA_IDS = frozenset({GroupId.G4_VII_A, GroupId.G4_VIII_A})

#: Groups whose tetrad tables come straight from the source (as opposed to
#: the derived left-invariant tetrads of the Abelian-subgroup family).
PRINTED_TETRAD_IDS = frozenset(set(GroupId) - ABELIAN_SUBGROUP_IDS)


@dataclass(frozen=True)
class GroupParams:
    """Free constants of a catalog entry.

    ``c`` enters only the first group pair (epsilon = c - 1), ``alpha_angle``
    the third group (sin of it must not vanish), ``k``/``l``/``eps01`` the
    Abelian-subgroup family, ``em_alphas`` are the four potential constants
    and ``eta`` the constant frame metric (symmetric, nondegenerate,
    arbitrary signature).  The real constants are stored as floats, and
    ``em_alphas`` and ``eta`` as (nested) tuples of floats, so equal
    constants give equal, equally hashing params.
    """

    c: float = 2.0
    alpha_angle: float = math.pi / 3.0
    k: float = 2.0
    l: float = 3.0
    eps01: int = 1
    em_alphas: tuple = (1.0, 1.0, 1.0, 1.0)
    eta: tuple = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))

    def __post_init__(self):
        for name in ("c", "alpha_angle", "k", "l", "em_alphas", "eta"):
            given = getattr(self, name)
            value = np.asarray(given, dtype=float)
            if not np.all(np.isfinite(value)):
                raise InvalidParams(f"parameter {name!r} must be finite, got {given!r}")
            object.__setattr__(self, name, _tuples(value.tolist()))

    def eta_matrix(self) -> np.ndarray:
        return np.asarray(self.eta, dtype=float)

    def alphas(self) -> np.ndarray:
        return np.asarray(self.em_alphas, dtype=float)


@dataclass(frozen=True)
class SampleDomain:
    """Axis-aligned box in the chart; keeps all catalog denominators and
    exponentials tame (denominators stay >= 0.1 in magnitude inside it)."""

    lows: tuple
    highs: tuple
    excluded: str = ""

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lows, float), np.asarray(self.highs, float)

    def contains(self, u) -> bool:
        lo, hi = self.bounds()
        u = np.asarray(u, float)
        return bool(np.all(u >= lo) and np.all(u <= hi))


DEFAULT_DOMAIN = SampleDomain((-1.5,) * 4, (1.5,) * 4)
SPHERICAL_DOMAIN = SampleDomain(
    (0.2, -1.5, -1.5, -1.5),
    (math.pi - 0.2, 1.5, 1.5, 1.5),
    excluded="sin(u1) = 0",
)


def sample_points(dom: SampleDomain, n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Deterministic uniform draw of ``n`` chart points, shape (n, 4), from
    an integer seed or from a generator, which the draw advances."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    lo, hi = dom.bounds()
    rng = np.random.default_rng(seed)
    return lo + (hi - lo) * rng.random((n, adiff.CHART_DIM))


def _tuples(x):
    """Nested lists as nested tuples."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def _read_only(a: np.ndarray | None) -> np.ndarray | None:
    if a is not None:
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class OrientationDecision:
    """Outcome of resolving which tetrad index labels matrix rows.

    ``status`` is "resolved", "ambiguous" (both readings reproduce the
    potential table) or "failed" (neither does).  The tables are read as
    stored, so ``tetrad_duality`` fails a "failed" or transposed decision.
    ``relabel`` maps stored potential-constant bases onto tetrad bases when
    the tables agree only up to a constant relabeling (read-only).
    """

    status: str
    rows_are_coordinates: bool
    duality_residual: float
    potential_residual: float
    relabel: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class GroupModel:
    """One fully wired catalog entry, immutable: ``get_group`` hands the same
    model to every caller with equal constants, so its fields cannot be
    reassigned, its tables are tuples and its arrays are read-only.  Models
    compare and hash by identity."""

    group_id: GroupId
    params: GroupParams
    structure_constants: np.ndarray  # C[gamma][alpha][beta]
    # the tables are 4x4 FieldExpr, tuples of rows
    xi: tuple  # rows = group index, cols = coordinate index
    dual: tuple  # rows = coordinate index, cols = group index
    e_cov: tuple  # rows = coordinate index, cols = frame index
    e_con: tuple  # rows = frame index, cols = coordinate index
    holo_basis: tuple  # holo_basis[beta][i]: coefficient of alpha_beta in A_i
    frame_basis: tuple  # frame_basis[beta][alpha]: recomputed xi . A
    reference_frame: tuple | None  # source frame-potential table, if linear
    eta_eff: np.ndarray  # 4x4 constant frame metric actually used
    domain: SampleDomain
    tetrad_printed: bool
    abelian_block: np.ndarray | None  # the 3x3 C_a^b matrix for the VI family
    notes: tuple = ()

    @cached_property
    def orientation(self) -> OrientationDecision:
        """The tetrad orientation decision, computed on first read."""
        return orient_tetrad(self)

    @property
    def name(self) -> str:
        return self.group_id.value

    def eta_con(self) -> np.ndarray:
        """eta^{ab}, the inverse of the frame metric (read-only)."""
        return self._eta_con

    @cached_property
    def _eta_con(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self.eta_eff))

    @cached_property
    def tetrad_basis(self) -> tuple:
        """Tetrad-constructed potential, basis-wise: entry [beta][i] = e^beta_i."""
        return tuple(zip(*self.e_cov))

    @cached_property
    def e_con_t(self) -> tuple:
        """``e_con`` transposed: entry [i][a] = e_a^i."""
        return tuple(zip(*self.e_con))

    @cached_property
    def dual_t(self) -> tuple:
        """``dual`` transposed: entry [a][i] = xi^a_i."""
        return tuple(zip(*self.dual))

    def with_eta(self, eta) -> "GroupModel":
        """The same entry under another constant frame metric.  The expression
        tables are shared, not rebuilt; only the frame metric changes."""
        params = replace(self.params, eta=eta)
        return replace(self, params=params, eta_eff=_effective_eta(self.group_id, params))


# --------------------------------------------------------------------------
# Expression-table helpers
# --------------------------------------------------------------------------


def _table(rows) -> list:
    return [[adiff.as_expr(x) for x in row] for row in rows]


def _zeros(n=4, m=4):
    return [[adiff.ZERO for _ in range(m)] for _ in range(n)]


def _ctensor(entries) -> np.ndarray:
    """Structure constants from {(gamma, alpha, beta): value} (1-based),
    antisymmetrized in the lower pair."""
    C = np.zeros((4, 4, 4))
    for (g, a, b), v in entries.items():
        C[g - 1, a - 1, b - 1] = v
        C[g - 1, b - 1, a - 1] = -v
    return C


def _frame_from_holo(xi, holo_basis) -> list:
    """Frame potential components A_alpha = xi_alpha^i A_i, basis-wise."""
    out = _zeros()
    for beta in range(4):
        for alpha in range(4):
            acc = adiff.ZERO
            for i in range(4):
                acc = acc + xi[alpha][i] * holo_basis[beta][i]
            out[beta][alpha] = acc
    return out


@lru_cache(maxsize=1024)  # as adiff._plan: about ten table sets per memoized model
def _layout(tables: tuple, jets: tuple) -> tuple:
    """The entries of each table of rows, then where ``jets`` says so their
    partials, that are not constants; and for each table's values and
    gradients, the constant row, the columns of the others and the shape."""
    roots, arrays = [], []
    for table, jet in zip(tables, jets):
        flat = [e for row in table for e in row]
        parts = [(flat, (len(table), len(table[0])))]
        if jet:
            partials = [p[l] for l in range(adiff.CHART_DIM) for p in map(adiff.gradient_exprs, flat)]
            parts.append((partials, (adiff.CHART_DIM, *parts[0][1])))
        for exprs, shape in parts:
            cols = [k for k, e in enumerate(exprs) if type(e) is not adiff.Const]
            roots += [exprs[k] for k in cols]
            const = _read_only(np.array([e.c if type(e) is adiff.Const else 0.0 for e in exprs]))
            arrays.append((const, tuple(cols), shape))
    return tuple(roots), tuple(arrays)


def eval_tables(tables, points, jets) -> list:
    """Per table of FieldExpr, its values (n, r, c) at points (n, 4) and,
    where ``jets`` says so, its gradients (n, 4, r, c) from the symbolic
    partials, as a tuple: one plan evaluation, where shared entries and
    partials are evaluated once."""
    pts = np.asarray(points, float).T  # (4, n)
    # keyed as tuples of rows, so that tables given as lists of rows work too
    roots, arrays = _layout(tuple(tuple(map(tuple, t)) for t in tables), tuple(jets))
    values = iter(adiff.evaluate(roots, pts))
    out = []
    for const, cols, shape in arrays:
        a = np.empty((pts.shape[1], len(const)))
        a[:] = const
        for k, v in zip(cols, values):  # zip reads cols first: it takes no value past them
            a[:, k] = v
        out.append(a.reshape(-1, *shape))
    out = iter(out)
    return [tuple(islice(out, 1 + jet)) for jet in jets]


def eval_table(exprs, points) -> np.ndarray:
    """The values (n, r, c) of one table: ``eval_tables`` of it alone."""
    return eval_tables((exprs,), points, (False,))[0][0]


def eval_table_jet(exprs, points) -> tuple[np.ndarray, np.ndarray]:
    """The values and gradients of one table: ``eval_tables`` of it alone."""
    return eval_tables((exprs,), points, (True,))[0]


# --------------------------------------------------------------------------
# Entry builders
# --------------------------------------------------------------------------


def _build_g4_i(params: GroupParams, c_equals_one: bool):
    if c_equals_one:
        c, eps = 1.0, 0.0
    else:
        c, eps = params.c, params.c - 1.0
        if c == 1.0:
            raise InvalidParams("g4-i-cne1 requires c != 1 (use g4-i-ceq1)")

    xi = _table(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-1, U3, 0, 0],
            [eps * U1, c * U2, U3, 1],
        ]
    )
    dual = _table(
        [
            [U3, 0, -1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [-(eps * U1 * U3 + c * U2), -U3, eps * U1, 1],
        ]
    )
    C = _ctensor({(1, 1, 4): c, (1, 2, 3): 1.0, (2, 2, 4): 1.0, (3, 3, 4): eps})

    em_eps = exp(-eps * U4) if eps else adiff.ONE
    em_c = exp(-c * U4)
    em = exp(-U4)
    e_cov = _table(
        [
            [em_eps, 0, 0, 0],
            [0, em_c, 0, 0],
            [0, U1 * em_c, em, 0],
            [0, 0, 0, 1],
        ]
    )
    ep_eps = exp(eps * U4) if eps else adiff.ONE
    e_con = _table(
        [
            [ep_eps, 0, 0, 0],
            [0, exp(c * U4), 0, 0],
            [0, -U1 * exp(U4), exp(U4), 0],
            [0, 0, 0, 1],
        ]
    )
    holo = [
        [em_eps, adiff.ZERO, adiff.ZERO, adiff.ZERO],
        [adiff.ZERO, em_c, U1 * em_c, adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, em, adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ONE],
    ]
    if c_equals_one:
        reference_frame = _table(
            [
                [0, 0, -1, 0],
                [em, U1 * em, U3 * em, (U1 * U3 + U2) * em],
                [0, em, 0, U3 * em],
                [0, 0, 0, 1],
            ]
        )
        notes = ()
    else:
        reference_frame = _table(
            [
                [0, 0, em_eps, -c * U1 * em_eps],
                [em_c, U1 * em_c, U3 * em_c, (c * U2 + U1 * U3) * em_c],
                [0, em, 0, U3 * em],
                [0, 0, 0, 1],
            ]
        )
        notes = (
            "reference frame-potential table disagrees with the holonomic "
            "table in the alpha1 basis (sign of the exp(-eps*u4) term in "
            "A_3 and its coefficient in A_4); the recomputed frame table "
            "is used",
        )
    return xi, dual, C, e_cov, e_con, holo, reference_frame, notes


def _build_g4_ii():
    xi = _table(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-1, U3, 0, 0],
            [U1, 2 * U2 + 0.5 * U1 * U1, U3 - U1, 1],
        ]
    )
    dual = _table(
        [
            [U3, 0, -1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [-(U1 * U3 + 2 * U2 + 0.5 * U1 * U1), U1 - U3, U1, 1],
        ]
    )
    C = _ctensor(
        {(1, 1, 4): 2.0, (1, 2, 3): 1.0, (2, 2, 4): 1.0, (2, 3, 4): 1.0, (3, 3, 4): 1.0}
    )
    em, em2 = exp(-U4), exp(-2 * U4)
    ep, ep2 = exp(U4), exp(2 * U4)
    e_cov = _table(
        [
            [0, U4 * em, -em, 0],
            [em2, 0, 0, 0],
            [U1 * em2, em, 0, 0],
            [0, 0, 0, 1],
        ]
    )
    e_con = _table(
        [
            [0, ep2, 0, 0],
            [0, -U1 * ep, ep, 0],
            [-ep, -U1 * U4 * ep, U4 * ep, 0],
            [0, 0, 0, 1],
        ]
    )
    holo = [
        [adiff.ZERO, em2, U1 * em2, adiff.ZERO],
        [U4 * em, adiff.ZERO, em, adiff.ZERO],
        [-em, adiff.ZERO, adiff.ZERO, adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ONE],
    ]
    reference_frame = _table(
        [
            [em2, U1 * em2, U3 * em2, (U1 * U3 + 2 * U2 - 0.5 * U1 * U1) * em2],
            [0, em, -U4 * em, (U3 + U1 * U4 - U1) * em],
            [0, 0, em, -U1 * em],
            [0, 0, 0, 1],
        ]
    )
    return xi, dual, C, e_cov, e_con, holo, reference_frame, ()


#: The smallest |sin(alpha_angle)| that g4-iii accepts, exact in binary: the
#: tetrad's 1/sin(alpha_angle) factors amplify rounding.  Over alpha_angle near
#: 0 and pi, 200 to 20000 points and up to 12 seeds, asserted checks read at most
#: 0.099 of tol_deriv at 1/32, 0.31 at 1/64 and 0.98 at 1/128, and fail at 1/256.
G4_III_MIN_SIN = 0.03125


def _build_g4_iii(params: GroupParams):
    a = params.alpha_angle
    sa, ca = math.sin(a), math.cos(a)
    if abs(sa) < G4_III_MIN_SIN:
        raise InvalidParams(f"g4-iii requires |sin(alpha_angle)| >= {G4_III_MIN_SIN}, got {abs(sa):.3g}")

    xi = _table(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-1, U3, 0, 0],
            [2 * ca * U1 - U3, 2 * ca * U2 + 0.5 * (U3 * U3 - U1 * U1), U1, 1],
        ]
    )
    # The (4,1) entry below carries +(u1^2 + u3^2)/2; the source table prints
    # it with a minus sign, which breaks the duality xi . dual = identity.
    dual = _table(
        [
            [U3, 0, -1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [
                -2 * ca * (U1 * U3 + U2) + 0.5 * (U1 * U1 + U3 * U3),
                -U1,
                2 * ca * U1 - U3,
                1,
            ],
        ]
    )
    C = _ctensor(
        {
            (1, 1, 4): 2 * ca,
            (1, 2, 3): 1.0,
            (3, 2, 4): 1.0,
            (2, 3, 4): -1.0,
            (3, 3, 4): 2 * ca,
        }
    )
    phase = sa * U4
    em = exp(-ca * U4)
    ep = exp(ca * U4)
    em2 = exp(-2 * ca * U4)
    ep2 = exp(2 * ca * U4)
    s_ph, c_ph = sin(phase), cos(phase)
    s_sh, c_sh = sin(phase - a), cos(phase - a)
    # Left-invariance forces the u1-components of the oscillatory coframe
    # legs to be the *negated* shifted trig terms (they are the u4-derivative
    # of the u3-components); the source tetrad and the holonomic A_1 print
    # them with the opposite sign, which breaks the Killing identities.
    e_cov = _table(
        [
            [0, -(em * s_sh), -(em * c_sh), 0],
            [em2, 0, 0, 0],
            [U1 * em2, em * s_ph, em * c_ph, 0],
            [0, 0, 0, 1],
        ]
    )
    inv_sa = 1.0 / sa
    e_con = _table(
        [
            [0, ep2, 0, 0],
            [inv_sa * ep * c_ph, -inv_sa * U1 * ep * c_sh, inv_sa * ep * c_sh, 0],
            [-inv_sa * ep * s_ph, inv_sa * U1 * ep * s_sh, -inv_sa * ep * s_sh, 0],
            [0, 0, 0, 1],
        ]
    )
    # Holonomic table with the same A_1 sign correction; A_4 = 0 as
    # tabulated (the alpha4 freedom enters only via the tetrad route).
    holo = [
        [-(em * s_sh), adiff.ZERO, em * s_ph, adiff.ZERO],
        [-(em * c_sh), adiff.ZERO, em * c_ph, adiff.ZERO],
        [adiff.ZERO, em2, U1 * em2, adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ZERO],
    ]
    reference_frame = _table(
        [
            [
                em2,
                U1 * em2,
                U3 * em2,
                (2 * ca * U2 + 0.5 * (U1 * U1 + U3 * U3)) * em2,
            ],
            [
                0,
                em * s_ph,
                em * s_sh,
                U1 * em * s_ph + (2 * ca * U1 - U3) * em * s_sh,
            ],
            [
                0,
                em * c_ph,
                em * c_sh,
                U1 * em * c_ph + (2 * ca * U1 - U3) * em * c_sh,
            ],
            [0, 0, 0, 0],
        ]
    )
    notes = (
        "dual-frame entry (4,1) sign-corrected (+(u1^2+u3^2)/2) to satisfy "
        "duality with the Killing frame",
        "tetrad first row and holonomic A_1 stored with negated oscillatory "
        "terms: the tabulated sign is inconsistent with left-invariance "
        "(and with the relative sign of the source's own frame table)",
        "frame- and holonomic-potential tables use conflicting constant "
        "labels; the frame table is recomputed from the holonomic one",
        "holonomic table fixes A_4 = 0 (alpha4 enters only via the "
        "tetrad-constructed potential)",
    )
    return xi, dual, C, e_cov, e_con, holo, reference_frame, notes


def _build_g4_iv():
    xi = _table(
        [
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, U2, 0, 0],
            [0, 0, U3, 1],
        ]
    )
    dual = _table(
        [
            [0, U2, -1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [-U3, 0, 0, 1],
        ]
    )
    # The source lists C^2_14 = 1; the bracket of the tabulated frame gives
    # [xi_1, xi_4] = xi_1, so the stored entry is C^1_14 = 1.
    C = _ctensor({(1, 1, 4): 1.0, (2, 2, 3): 1.0})
    e_cov = _table(
        [
            [1, 0, 0, 0],
            [0, exp(U1), 0, 0],
            [0, 0, exp(-U4), 0],
            [0, 0, 0, 1],
        ]
    )
    e_con = _table(
        [
            [1, 0, 0, 0],
            [0, exp(-U1), 0, 0],
            [0, 0, exp(U4), 0],
            [0, 0, 0, 1],
        ]
    )
    holo = [
        [adiff.ONE, adiff.ZERO, adiff.ZERO, adiff.ZERO],
        [adiff.ZERO, exp(U1), adiff.ZERO, adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, exp(-U4), adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ZERO],
    ]
    reference_frame = _table(
        [
            [0, 0, 0, 0],
            [0, exp(U1), U2 * exp(U1), 0],
            [exp(-U4), 0, -1, U3 * exp(-U4)],
            [0, 0, 0, 1],
        ]
    )
    notes = (
        "structure constant stored as C^1_14 = 1; the source prints C^2_14, "
        "inconsistent with the bracket of its own frame",
        "source potential tables use undeclared constants and tie the "
        "constants of A_1 and A_3 together; the holonomic table is stored "
        "with four independent constants (A_4 = 0 as tabulated)",
    )
    return xi, dual, C, e_cov, e_con, holo, reference_frame, notes


def _build_g4_v():
    xi = _table(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [-1, U2, U3, 0],
            [0, -U3, U2, 1],
        ]
    )
    dual = _table(
        [
            [U2, U3, -1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [U3, -U2, 0, 1],
        ]
    )
    C = _ctensor({(1, 1, 3): 1.0, (2, 1, 4): 1.0, (2, 2, 3): 1.0, (1, 2, 4): -1.0})
    epu1, emu1 = exp(U1), exp(-U1)
    s4, c4 = sin(U4), cos(U4)
    e_cov = _table(
        [
            [1, 0, 0, 0],
            [0, c4 * epu1, s4 * epu1, 0],
            [0, s4 * epu1, -(c4 * epu1), 0],
            [0, 0, 0, 1],
        ]
    )
    e_con = _table(
        [
            [1, 0, 0, 0],
            [0, c4 * emu1, s4 * emu1, 0],
            [0, s4 * emu1, -(c4 * emu1), 0],
            [0, 0, 0, 1],
        ]
    )
    holo = [
        [adiff.ONE, adiff.ZERO, adiff.ZERO, adiff.ZERO],
        [adiff.ZERO, c4 * epu1, s4 * epu1, adiff.ZERO],
        [adiff.ZERO, s4 * epu1, -(c4 * epu1), adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ONE],
    ]
    notes = (
        "source frame-potential table is written in amplitude/phase "
        "constants (with a doubly assigned label); the frame table is "
        "recomputed from the holonomic one",
    )
    return xi, dual, C, e_cov, e_con, holo, None, notes


#: The smallest |k - eps01| that g4-vi-4-1 accepts, exact in binary so that
#: k = eps01 +- 1/8 is accepted.  The tetrad carries 1/d and 1/d^2 factors
#: (d = k - eps01) whose terms cancel as d -> 0, so the rounding error grows
#: like 1/d^2.  Over both eps01, both signs of d, 200 to 20000 points and
#: five seeds, asserted checks fail at |d| <= 0.02, and the worst residual
#: reads 0.15 of tol_exact at |d| = 0.1 (seeds 42 and 7) and 0.043 at |d| = 1/8.
VI_4_1_MIN_GAP = 0.125


def _abelian_matrix(group_id: GroupId, params: GroupParams) -> np.ndarray:
    k, l, e = params.k, params.l, float(params.eps01)
    if params.eps01 not in (0, 1):
        raise InvalidParams("eps01 must be 0 or 1")
    if group_id is GroupId.G4_VI_1:
        return np.array([[l, 0, 0], [0, e, 0], [0, 0, k]])
    if group_id is GroupId.G4_VI_2:
        return np.array([[l, 0, 0], [0, k, 1], [0, -1, k]])
    if group_id is GroupId.G4_VI_3:
        return np.array([[e, 0, 0], [0, k, 1], [0, 0, k]])
    if group_id is GroupId.G4_VI_4_1:
        if abs(k - e) < VI_4_1_MIN_GAP:
            raise InvalidParams(
                f"g4-vi-4-1 requires |k - eps01| >= {VI_4_1_MIN_GAP} (use g4-vi-4-2 for k = eps01)"
            )
        return np.array([[e, 0, 0], [0, k, 1], [1, 0, k]])
    if group_id is GroupId.G4_VI_4_2:
        return np.array([[k, 0, 0], [0, k, 1], [1, 0, k]])
    raise InvalidParams(f"{group_id} is not an Abelian-subgroup entry")


def _abelian_flow(group_id: GroupId, params: GroupParams, t: FieldExpr) -> list:
    """Closed-form matrix exponential expm(-t C) for the entry's 3x3 block.

    Columns are the solutions of dA_a/dt = -C_a^b A_b with unit initial data,
    which is simultaneously the covariant-tetrad block at u4 = t.
    """
    k, l, e = params.k, params.l, float(params.eps01)
    ek = exp(-k * t)
    if group_id is GroupId.G4_VI_1:
        return _table(
            [
                [exp(-l * t), 0, 0],
                [0, exp(-e * t), 0],
                [0, 0, ek],
            ]
        )
    if group_id is GroupId.G4_VI_2:
        st, ct = sin(t), cos(t)
        return _table(
            [
                [exp(-l * t), 0, 0],
                [0, ek * ct, -(ek * st)],
                [0, ek * st, ek * ct],
            ]
        )
    if group_id is GroupId.G4_VI_3:
        return _table(
            [
                [exp(-e * t), 0, 0],
                [0, ek, -(t * ek)],
                [0, 0, ek],
            ]
        )
    if group_id is GroupId.G4_VI_4_1:
        d = k - e
        ee = exp(-e * t)
        return _table(
            [
                [ee, 0, 0],
                [
                    (1.0 / d**2) * ee - (1.0 / d**2) * ek - (1.0 / d) * (t * ek),
                    ek,
                    -(t * ek),
                ],
                [(1.0 / d) * ek - (1.0 / d) * ee, 0, ek],
            ]
        )
    if group_id is GroupId.G4_VI_4_2:
        return _table(
            [
                [ek, 0, 0],
                [0.5 * (t * t * ek), ek, -(t * ek)],
                [-(t * ek), 0, ek],
            ]
        )
    raise InvalidParams(f"{group_id} is not an Abelian-subgroup entry")


def _build_g4_vi(group_id: GroupId, params: GroupParams):
    M = _abelian_matrix(group_id, params)
    us = (U1, U2, U3)

    xi = _zeros()
    dual = _zeros()
    for a in range(3):
        xi[a][a] = adiff.ONE
        dual[a][a] = adiff.ONE
    for q in range(3):
        drift = adiff.ZERO
        for p in range(3):
            drift = drift + M[p, q] * us[p]
        xi[3][q] = drift
        dual[3][q] = -drift
    xi[3][3] = adiff.ONE
    dual[3][3] = adiff.ONE

    C = np.zeros((4, 4, 4))
    for a in range(3):
        for q in range(3):
            C[q, a, 3] = M[a, q]
            C[q, 3, a] = -M[a, q]

    cov_block = _abelian_flow(group_id, params, U4)  # expm(-u4 C)
    con_block = _abelian_flow(group_id, params, -U4)  # expm(+u4 C)
    e_cov = _zeros()
    e_con = _zeros()
    for i in range(3):
        for j in range(3):
            e_cov[i][j] = cov_block[i][j]
            e_con[i][j] = con_block[i][j]
    e_cov[3][3] = adiff.ONE
    e_con[3][3] = adiff.ONE

    # Holonomic potential as tabulated: A_a = frame component, A_4 built from
    # the Abelian drift so that the field strength cancels identically
    # (the zero-field construction), plus the constant alpha4.
    holo = _zeros()
    for b in range(3):
        for q in range(3):
            holo[b][q] = cov_block[q][b]
        a4 = adiff.ZERO
        for p in range(3):
            for q in range(3):
                a4 = a4 - M[p, q] * us[p] * cov_block[q][b]
        holo[b][3] = a4
    holo[3][3] = adiff.ONE

    reference_frame = _zeros()
    for b in range(3):
        for a in range(3):
            reference_frame[b][a] = cov_block[a][b]
    reference_frame[3][3] = adiff.ONE

    notes = (
        "tetrad derived (not tabulated): left-invariant block expm(u4 C) "
        "completed by the flat fourth direction",
        "holonomic A_4 includes the constant alpha4 (exact contraction of "
        "the frame table; the tabulated A_4 omits this pure-gauge term)",
    )
    return xi, dual, C, e_cov, e_con, holo, reference_frame, notes


def _build_g4_vii(shifted: bool):
    """Unsolvable group over the sl(2)-type G3 orbit; the fourth generator is
    p4 (plain) or p1 + p4 (shifted coordinates, tilde u1 = u1 - u4)."""
    w = U1 - U4 if shifted else U1
    emu3, epu3 = exp(-U3), exp(U3)

    xi = _table(
        [
            [0, 1, 0, 0],
            [0, U2, 1, 0],
            [epu3, U2 * U2, 2 * U2, 0],
            [1, 0, 0, 1] if shifted else [0, 0, 0, 1],
        ]
    )
    d3 = [
        [U2 * U2 * emu3, -2 * U2 * emu3, emu3],
        [adiff.ONE, adiff.ZERO, adiff.ZERO],
        [-U2, adiff.ONE, adiff.ZERO],
    ]
    dual = _zeros()
    for i in range(3):
        for b in range(3):
            dual[i][b] = d3[i][b]
    if shifted:
        for b in range(3):
            dual[3][b] = -d3[0][b]
    dual[3][3] = adiff.ONE

    C = _ctensor({(1, 1, 2): 1.0, (3, 2, 3): 1.0, (2, 1, 3): 2.0})

    e_cov = _table(
        [
            [1, 0, 0, 0],
            [w * w * emu3, -2 * w * emu3, emu3, 0],
            [-w, 1, 0, 0],
            [-1, 0, 0, 1] if shifted else [0, 0, 0, 1],
        ]
    )
    e_con = _table(
        [
            [1, 0, 0, 0],
            [w, 0, 1, 0],
            [w * w, epu3, 2 * w, 0],
            [1, 0, 0, 1] if shifted else [0, 0, 0, 1],
        ]
    )
    holo = [
        [adiff.ONE, w * w * emu3, -w, adiff.ZERO],
        [adiff.ZERO, -2 * w * emu3, adiff.ONE, adiff.ZERO],
        [adiff.ZERO, emu3, adiff.ZERO, adiff.ZERO],
        [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ONE],
    ]
    if shifted:
        reference_frame = None
        notes = (
            "source frame/dual tables for the 3-space orbit carry swapped "
            "index labels; stored with the assignment fixed by bracket "
            "closure and duality",
            "source holonomic table for the shifted variant is inconsistent "
            "with its own tetrad (missing exp(-u3) factor in A_2, spurious "
            "u2-term in A_3); stored table rebuilt from the tetrad, keeping "
            "A_4 = alpha4 (the difference is a constant, pure-gauge term)",
        )
    else:
        q_coeff = [w * w, -2 * w, adiff.ONE]  # Q = a1 w^2 - 2 a2 w + a3
        reference_frame = _zeros()
        for b in range(3):
            reference_frame[b][0] = q_coeff[b] * emu3
            reference_frame[b][1] = U2 * q_coeff[b] * emu3
            reference_frame[b][2] = U2 * U2 * q_coeff[b] * emu3
        # - (a1 u1 + a2) additions in A_2, A_3 and the a1 exp(u3) tail in A_3
        reference_frame[0][1] = reference_frame[0][1] - U1
        reference_frame[1][1] = reference_frame[1][1] - 1
        reference_frame[0][2] = reference_frame[0][2] - U2 * U1 + epu3
        reference_frame[1][2] = reference_frame[1][2] - U2
        reference_frame[3][3] = adiff.ONE
        notes = (
            "source frame/dual tables for the 3-space orbit carry swapped "
            "index labels; stored with the assignment fixed by bracket "
            "closure and duality",
            "source frame-potential table disagrees with the holonomic one "
            "(sign of a2, factor 2 on the u2 cross terms); the recomputed "
            "frame table is used",
        )
    return xi, dual, C, e_cov, e_con, holo, reference_frame, notes


def _build_g4_viii(shifted: bool):
    """Unsolvable group over the rotation-type G3 orbit; the fourth generator
    is p4 (plain) or p3 + p4 (shifted coordinates, tilde u3 = u3 - u4)."""
    s1, c1 = sin(U1), cos(U1)
    s2, c2 = sin(U2), cos(U2)
    w = U3 - U4 if shifted else U3
    sw, cw = sin(w), cos(w)
    inv_s1 = 1 / s1

    xi = _table(
        [
            [0, 1, 0, 0],
            [c2, -(s2 * c1 * inv_s1), s2 * inv_s1, 0],
            [-s2, -(c2 * c1 * inv_s1), c2 * inv_s1, 0],
            [0, 0, 1, 1] if shifted else [0, 0, 0, 1],
        ]
    )
    d3 = [
        [adiff.ZERO, c2, -s2],
        [adiff.ONE, adiff.ZERO, adiff.ZERO],
        [c1, s2 * s1, c2 * s1],
    ]
    dual = _zeros()
    for i in range(3):
        for b in range(3):
            dual[i][b] = d3[i][b]
    if shifted:
        for b in range(3):
            dual[3][b] = -d3[2][b]
    dual[3][3] = adiff.ONE

    C = _ctensor({(3, 1, 2): 1.0, (1, 2, 3): 1.0, (2, 3, 1): 1.0})

    e_cov = _table(
        [
            [cw, -sw, 0, 0],
            [s1 * sw, s1 * cw, c1, 0],
            [0, 0, 1, 0],
            [0, 0, -1, 1] if shifted else [0, 0, 0, 1],
        ]
    )
    e_con = _table(
        [
            [cw, sw * inv_s1, -(sw * c1 * inv_s1), 0],
            [-sw, cw * inv_s1, -(cw * c1 * inv_s1), 0],
            [0, 0, 1, 0],
            [0, 0, 1, 1] if shifted else [0, 0, 0, 1],
        ]
    )
    if shifted:
        # As tabulated: a single rotational constant (alpha2 unused) and
        # A_4 = alpha4; the full family appears via the tetrad route.
        holo = [
            [cw, s1 * sw, adiff.ZERO, adiff.ZERO],
            [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ZERO],
            [adiff.ZERO, c1, adiff.ONE, adiff.ZERO],
            [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ONE],
        ]
        notes = (
            "source holonomic table for the shifted variant omits the "
            "second rotational constant (alpha2 unused) and the constant "
            "pure-gauge part of A_4; stored as tabulated",
        )
    else:
        holo = [
            [cw, s1 * sw, adiff.ZERO, adiff.ZERO],
            [-sw, s1 * cw, adiff.ZERO, adiff.ZERO],
            [adiff.ZERO, c1, adiff.ONE, adiff.ZERO],
            [adiff.ZERO, adiff.ZERO, adiff.ZERO, adiff.ONE],
        ]
        notes = (
            "source holonomic table uses amplitude/phase constants; stored "
            "in the equivalent form linear in alpha1/alpha2",
        )
    return xi, dual, C, e_cov, e_con, holo, None, notes


# --------------------------------------------------------------------------
# Assembly
# --------------------------------------------------------------------------


def _effective_eta(group_id: GroupId, params: GroupParams) -> np.ndarray:
    eta = params.eta_matrix()
    if eta.shape != (4, 4):
        raise InvalidParams("eta must be a 4x4 matrix")
    if not np.allclose(eta, eta.T, atol=1e-12):
        raise InvalidParams("eta must be symmetric")
    if group_id in BLOCK_ETA_IDS:
        out = np.zeros((4, 4))
        out[:3, :3] = eta[:3, :3]
        out[3, 3] = 1.0
        eta = out
    if abs(np.linalg.det(eta)) < 1e-12:
        raise InvalidParams("eta must be nondegenerate")
    return _read_only(eta)


_BUILDERS = {
    GroupId.G4_I_CNE1: lambda p: _build_g4_i(p, c_equals_one=False),
    GroupId.G4_I_CEQ1: lambda p: _build_g4_i(p, c_equals_one=True),
    GroupId.G4_II: lambda p: _build_g4_ii(),
    GroupId.G4_III: _build_g4_iii,
    GroupId.G4_IV: lambda p: _build_g4_iv(),
    GroupId.G4_V: lambda p: _build_g4_v(),
    GroupId.G4_VI_1: lambda p: _build_g4_vi(GroupId.G4_VI_1, p),
    GroupId.G4_VI_2: lambda p: _build_g4_vi(GroupId.G4_VI_2, p),
    GroupId.G4_VI_3: lambda p: _build_g4_vi(GroupId.G4_VI_3, p),
    GroupId.G4_VI_4_1: lambda p: _build_g4_vi(GroupId.G4_VI_4_1, p),
    GroupId.G4_VI_4_2: lambda p: _build_g4_vi(GroupId.G4_VI_4_2, p),
    GroupId.G4_VII_A: lambda p: _build_g4_vii(shifted=False),
    GroupId.G4_VII_B: lambda p: _build_g4_vii(shifted=True),
    GroupId.G4_VIII_A: lambda p: _build_g4_viii(shifted=False),
    GroupId.G4_VIII_B: lambda p: _build_g4_viii(shifted=True),
}


def get_group(group_id: GroupId | str, params: GroupParams | None = None) -> GroupModel:
    """The fully wired model for one catalog entry.

    A model is a pure function of the entry and its constants, so it is
    built once per process: every call with an equal ``(group_id, params)``
    returns the same immutable model object, from a memo of the 64 most
    recently used ones.  What is computed from a model is kept on it too:
    its tetrad orientation decision (``GroupModel.orientation``, computed
    on first read, so only the ``tetrad_duality`` check pays for it) and
    the symbolic partials of its tables (``adiff.gradient_exprs``)."""
    group_id = GroupId(group_id)
    params = params if params is not None else GroupParams()
    # the repr tells -0.0 from 0.0, which compare and hash equal but print apart
    return _memo_group(group_id, params, repr(params))


@lru_cache(maxsize=64)
def _memo_group(group_id: GroupId, params: GroupParams, _repr: str) -> GroupModel:
    return _build_group(group_id, params)


def _build_group(group_id: GroupId, params: GroupParams) -> GroupModel:
    xi, dual, C, e_cov, e_con, holo, reference_frame, notes = _BUILDERS[group_id](
        params
    )
    return GroupModel(
        group_id=group_id,
        params=params,
        structure_constants=_read_only(C),
        xi=_tuples(xi),
        dual=_tuples(dual),
        e_cov=_tuples(e_cov),
        e_con=_tuples(e_con),
        holo_basis=_tuples(holo),
        frame_basis=_tuples(_frame_from_holo(xi, holo)),
        reference_frame=_tuples(reference_frame),
        eta_eff=_effective_eta(group_id, params),
        domain=(
            SPHERICAL_DOMAIN
            if group_id in (GroupId.G4_VIII_A, GroupId.G4_VIII_B)
            else DEFAULT_DOMAIN
        ),
        tetrad_printed=group_id in PRINTED_TETRAD_IDS,
        abelian_block=_read_only(
            _abelian_matrix(group_id, params)
            if group_id in ABELIAN_SUBGROUP_IDS
            else None
        ),
        notes=notes,
    )


# --------------------------------------------------------------------------
# Tetrad orientation
# --------------------------------------------------------------------------


def _duality_residual(cov_vals, con_vals) -> float:
    prod = np.einsum("nai,nib->nab", con_vals, cov_vals)
    return float(np.max(np.abs(prod - np.eye(4))))


def _relabel_fit(tetrad_tab, holo_tab) -> tuple[float, np.ndarray]:
    """Best constant map R with holo[gamma] ~= sum_beta R[gamma,beta] *
    tetrad[beta]; returns (relative residual, R)."""
    n = tetrad_tab.shape[0]
    X = tetrad_tab.reshape(n, 4, 4).transpose(0, 2, 1).reshape(-1, 4)  # (n*4, beta)
    R = np.empty((4, 4))
    resid = 0.0
    for gamma in range(4):
        y = holo_tab[:, gamma, :].reshape(-1)
        coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        R[gamma] = coef
        err = np.max(np.abs(X @ coef - y))
        resid = max(resid, err / (1.0 + np.max(np.abs(y), initial=0.0)))
    return resid, R


def orient_tetrad(model: GroupModel) -> OrientationDecision:
    """Decide whether the stored tetrad rows index coordinates or frame legs.

    Both readings of an inverse pair satisfy the duality contraction, so the
    discriminating test is whether the tetrad-constructed potential spans the
    stored holonomic table (up to a constant relabeling, which the source
    tables use freely).  The stored reading (rows = coordinate index for
    e^alpha_i) is kept unless only the transposed reading fits.
    """
    pts = sample_points(model.domain, 40, 977)
    # cov (n, i, alpha), con (n, alpha, i), holo (n, beta, i)
    (cov,), (con,), (holo,) = eval_tables((model.e_cov, model.e_con, model.holo_basis), pts, (False,) * 3)
    if not model.tetrad_printed:
        return OrientationDecision(
            status="resolved",
            rows_are_coordinates=True,
            duality_residual=_duality_residual(cov, con),
            potential_residual=0.0,
        )

    dual_stored = _duality_residual(cov, con)
    dual_flipped = _duality_residual(
        cov.transpose(0, 2, 1), con.transpose(0, 2, 1)
    )

    tet_stored = cov.transpose(0, 2, 1)  # [n, beta, i] with rows=i reading
    tet_flipped = cov  # transposed reading
    fit_stored, R_stored = _relabel_fit(tet_stored, holo)
    fit_flipped, R_flipped = _relabel_fit(tet_flipped, holo)

    tol = 1e-9
    ok_stored = dual_stored <= 1e-10 and fit_stored <= tol
    ok_flipped = dual_flipped <= 1e-10 and fit_flipped <= tol
    if ok_stored and ok_flipped:
        status = "ambiguous"  # both row conventions reproduce the potential table
    elif ok_stored or ok_flipped:
        status = "resolved"  # by the potential table, if only the transposed reading fits
    else:
        status = "failed"  # no row convention reproduces the stored potential table
    use_stored = ok_stored or not ok_flipped
    return OrientationDecision(
        status=status,
        rows_are_coordinates=use_stored,
        duality_residual=dual_stored if use_stored else dual_flipped,
        potential_residual=fit_stored if use_stored else fit_flipped,
        relabel=_read_only(R_stored if use_stored else R_flipped),
    )


# --------------------------------------------------------------------------
# Machine-readable dump
# --------------------------------------------------------------------------


def _nonzero_constants(C: np.ndarray) -> list:
    out = []
    for g in range(4):
        for a in range(4):
            for b in range(a + 1, 4):
                v = C[g, a, b]
                if v == 0.0:
                    continue
                # one representative per antisymmetric pair, positive value
                al, be = (a, b) if v > 0 else (b, a)
                out.append(
                    {"gamma": g + 1, "alpha": al + 1, "beta": be + 1, "value": abs(v)}
                )
    return out


_CONSTRAINTS = {
    GroupId.G4_I_CNE1: "c != 1",
    GroupId.G4_I_CEQ1: "",
    GroupId.G4_III: f"|sin(alpha_angle)| >= {G4_III_MIN_SIN}",
    GroupId.G4_VI_4_1: f"|k - eps01| >= {VI_4_1_MIN_GAP}",
}


def catalog_entry(model: GroupModel) -> dict:
    """One entry of the machine-readable catalog listing."""
    return {
        "id": model.name,
        "constraints": _CONSTRAINTS.get(model.group_id, ""),
        "abelian_subgroup": model.group_id in ABELIAN_SUBGROUP_IDS,
        "tetrad_source": "tabulated" if model.tetrad_printed else "derived",
        "structure_constants": _nonzero_constants(model.structure_constants),
        "domain": {
            "lows": list(model.domain.lows),
            "highs": list(model.domain.highs),
            "excluded": model.domain.excluded,
        },
        "notes": list(model.notes),
    }
