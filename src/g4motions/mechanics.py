"""Charged test-particle mechanics on the catalog spacetimes.

The Hamiltonian is H = g^{ij} (p_i + A_i)(p_j + A_j); the linear motion
integrals are the frame contractions Y_a = xi_a^i p_i (the gauge in which
they carry no potential term).  Coordinate gradients of observables come
from the forward-mode jets; momentum gradients are analytic (H is quadratic
in p, Y linear).

Trajectories are integrated with fixed-step classical RK4 — conservation
drift is the measured quantity and fixed steps make convergence-order tests
clean.  For the integrator's inner loop the metric and potential are
compiled into plain-``math`` functions once per model (cross-checked against
the jet path in the tests); runs that leave the entry's sampling box stop
early and are flagged rather than raising, since exponential blow-up in
noncompact charts is expected.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import adiff, catalog, geometry
from .adiff import FieldExpr
from .catalog import GroupModel, eval_table, eval_table_jet
from .checks import CheckResult, ToleranceConfig, scaled_max

__all__ = [
    "PhasePoint",
    "Trajectory",
    "DriftStats",
    "hamiltonian",
    "motion_integral",
    "Observable",
    "HamiltonianObservable",
    "MotionIntegralObservable",
    "CoordinateObservable",
    "MomentumObservable",
    "poisson_bracket",
    "check_integral_algebra",
    "check_hamiltonian_commutes",
    "sample_phase_points",
    "integrate_trajectory",
    "drift_report",
    "export_csv",
    "TRAJECTORY_CSV_HEADER",
]


@dataclass
class PhasePoint:
    """Chart point plus canonical momenta."""

    u: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.u = adiff.as_point(self.u)
        self.p = np.asarray(self.p, dtype=float)
        if self.p.shape != (4,) or not np.all(np.isfinite(self.p)):
            raise ValueError("momenta must be four finite components")


def hamiltonian(model: GroupModel, state: PhasePoint, alphas=None) -> float:
    g, _, _ = geometry.metric_batch(model, state.u[None, :])
    A = catalog.potential(model, state.u, alphas=alphas)
    P = state.p + A
    return float(P @ g[0] @ P)


def motion_integral(model: GroupModel, alpha_index: int, state: PhasePoint) -> float:
    """Y_a = xi_a^i p_i for the 1-based frame index ``alpha_index``."""
    if not 1 <= alpha_index <= 4:
        raise ValueError("frame index must be 1..4")
    xi = eval_table(model.xi, state.u[None, :])[0]
    return float(xi[alpha_index - 1] @ state.p)


# --------------------------------------------------------------------------
# Observables and the canonical bracket
# --------------------------------------------------------------------------


class Observable:
    """Phase-space scalar with value and both gradients at a state."""

    def value(self, state: PhasePoint) -> float:
        raise NotImplementedError

    def du(self, state: PhasePoint) -> np.ndarray:
        raise NotImplementedError

    def dp(self, state: PhasePoint) -> np.ndarray:
        raise NotImplementedError


class HamiltonianObservable(Observable):
    def __init__(self, model: GroupModel, alphas=None):
        self.model = model
        self.alphas = model.params.alphas() if alphas is None else np.asarray(alphas)

    def _fields(self, state):
        g, _, dg = geometry.metric_batch(self.model, state.u[None, :])
        A, dA = geometry.potential_batch(self.model, state.u[None, :], alphas=self.alphas)
        return g[0], dg[0], A[0], dA[0]

    def value(self, state):
        g, _, A, _ = self._fields(state)
        P = state.p + A
        return float(P @ g @ P)

    def du(self, state):
        g, dg, A, dA = self._fields(state)
        dH, _ = _hamiltonian_grads(g[None], dg[None], dA[None], (state.p + A)[None])
        return dH[0]

    def dp(self, state):
        g, _, A, _ = self._fields(state)
        return 2.0 * g @ (state.p + A)


class MotionIntegralObservable(Observable):
    def __init__(self, model: GroupModel, alpha_index: int):
        self.model = model
        self.idx = alpha_index - 1

    def value(self, state):
        xi = eval_table(self.model.xi, state.u[None, :])[0]
        return float(xi[self.idx] @ state.p)

    def du(self, state):
        _, dxi = eval_table_jet(self.model.xi, state.u[None, :])
        return dxi[0, :, self.idx, :] @ state.p

    def dp(self, state):
        xi = eval_table(self.model.xi, state.u[None, :])[0]
        return xi[self.idx]


class CoordinateObservable(Observable):
    def __init__(self, axis: int):
        self.axis = axis

    def value(self, state):
        return float(state.u[self.axis])

    def du(self, state):
        return np.eye(4)[self.axis]

    def dp(self, state):
        return np.zeros(4)


class MomentumObservable(Observable):
    def __init__(self, axis: int):
        self.axis = axis

    def value(self, state):
        return float(state.p[self.axis])

    def du(self, state):
        return np.zeros(4)

    def dp(self, state):
        return np.eye(4)[self.axis]


def poisson_bracket(f: Observable, g: Observable, state: PhasePoint) -> float:
    """Canonical bracket {f, g} = df/du . dg/dp - df/dp . dg/du."""
    return float(f.du(state) @ g.dp(state) - f.dp(state) @ g.du(state))


# --------------------------------------------------------------------------
# Batched bracket checks
# --------------------------------------------------------------------------


def sample_phase_points(
    model: GroupModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (points, momenta) draw; momenta uniform in [-1, 1]^4."""
    rng = np.random.default_rng(seed)
    lo, hi = model.domain.bounds()
    u = lo + (hi - lo) * rng.random((n, 4))
    p = -1.0 + 2.0 * rng.random((n, 4))
    return u, p


def check_integral_algebra(
    model: GroupModel, points, momenta, tol: ToleranceConfig
) -> CheckResult:
    """{Y_a, Y_b} closes on the structure constants.

    With the canonical bracket normalized by {u^i, p_i} = +1 the map
    p . xi is an antihomomorphism, so the closure sign here is the
    opposite of the vector-field bracket sign; both are recorded.
    """
    points = np.asarray(points, float)
    momenta = np.asarray(momenta, float)
    xi, dxi = eval_table_jet(model.xi, points)
    bracket_field = np.einsum("naj,njbi->nabi", xi, dxi)
    bracket_field = bracket_field - bracket_field.transpose(0, 2, 1, 3)
    pb = -np.einsum("nabi,ni->nab", bracket_field, momenta)  # {Y_a, Y_b}
    Y = np.einsum("nai,ni->na", xi, momenta)
    target = np.einsum("gab,ng->nab", model.structure_constants, Y)
    res = {s: scaled_max(pb, s * target) for s in (1, -1)}
    s = min(res, key=res.get)
    return CheckResult(
        "integral_algebra",
        model.name,
        len(points),
        res[s],
        tol.tol_deriv,
        notes=(
            f"poisson closure sign {s:+d} "
            f"(vector-field bracket sign {model.bracket_sign():+d})",
        ),
    )


def _hamiltonian_grads(g, dg, dA, P):
    """dH/du (n, l) and dH/dp (n, i) of H = g^{ij} P_i P_j with P = p + A.

    The potential term is contracted pairwise as d_l A_i (g^{ij} P_j).
    """
    gP = np.einsum("nij,nj->ni", g, P)
    dH = np.einsum("nlij,ni,nj->nl", dg, P, P) + 2.0 * np.einsum("nli,ni->nl", dA, gP)
    return dH, 2.0 * gP


def check_hamiltonian_commutes(
    model: GroupModel, points, momenta, tol: ToleranceConfig, alphas=None
) -> CheckResult:
    """{H, Y_a} = 0 for the verified-admissible potential configuration."""
    from .checks import admissible_alphas

    points = np.asarray(points, float)
    momenta = np.asarray(momenta, float)
    alphas = admissible_alphas(model) if alphas is None else np.asarray(alphas, float)
    g, _, dg = geometry.metric_batch(model, points)
    A, dA = geometry.potential_batch(model, points, alphas=alphas)
    xi, dxi = eval_table_jet(model.xi, points)
    dH, dHdp = _hamiltonian_grads(g, dg, dA, momenta + A)
    dYdu = np.einsum("nial,nl->nia", dxi, momenta)  # d_i (xi_a^l p_l)
    pb = np.einsum("nl,nal->na", dH, xi) - np.einsum("ni,nia->na", dHdp, dYdu)
    resid = scaled_max(pb, np.zeros_like(pb))
    note = ()
    if not np.array_equal(alphas, model.params.alphas()):
        note = (f"admissible configuration alphas={alphas.tolist()}",)
    return CheckResult(
        "hamiltonian_commutes", model.name, len(points), resid, tol.tol_deriv, notes=note
    )


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------


@dataclass
class Trajectory:
    t: np.ndarray  # (n,)
    u: np.ndarray  # (n, 4)
    p: np.ndarray  # (n, 4)
    H: np.ndarray  # (n,)
    Y: np.ndarray  # (n, 4)
    domain_exit: bool = False

    def __len__(self):
        return len(self.t)


@dataclass
class Drift:
    max_abs: float
    relative: float


@dataclass
class DriftStats:
    H: Drift
    Y: tuple

    def worst(self) -> float:
        return max(self.H.max_abs, *(d.max_abs for d in self.Y))


def _sym_pairs():
    return [(i, j) for i in range(4) for j in range(i, 4)]


def _compiled_dynamics(model: GroupModel, alphas: np.ndarray):
    """Generate rhs(u, p) -> (du, dp), plus H(u, p) and Y(u, p) evaluators.

    The metric entries g^{ij} and the potential A_i are assembled once as
    folded expression trees; their symbolic partials drive Hamilton's
    equations du/dt = dH/dp, dp/dt = -dH/du.
    """
    eta_con = model.eta_con()
    pairs = _sym_pairs()

    g_exprs = {}
    for i, j in pairs:
        acc = adiff.ZERO
        for a in range(4):
            for b in range(4):
                if eta_con[a, b] != 0.0:
                    acc = acc + eta_con[a, b] * (model.e_con[a][i] * model.e_con[b][j])
        g_exprs[(i, j)] = acc

    A_exprs = []
    for i in range(4):
        acc = adiff.ZERO
        for b in range(4):
            if alphas[b] != 0.0:
                acc = acc + alphas[b] * model.holo_basis[b][i]
        A_exprs.append(acc)

    flat: list[FieldExpr] = []
    for i, j in pairs:
        flat.append(g_exprs[(i, j)])
        flat.extend(adiff.gradient_exprs(g_exprs[(i, j)]))
    for i in range(4):
        flat.append(A_exprs[i])
        flat.extend(adiff.gradient_exprs(A_exprs[i]))
    for a in range(4):
        flat.extend(model.xi[a])
    fields = adiff.compile_values(flat)

    n_pairs = len(pairs)
    pair_index = {pr: 5 * k for k, pr in enumerate(pairs)}
    a_off = 5 * n_pairs

    def unpack(u):
        vals = fields(u[0], u[1], u[2], u[3])
        g = np.empty((4, 4))
        dg = np.empty((4, 4, 4))
        for (i, j), off in pair_index.items():
            g[i, j] = g[j, i] = vals[off]
            for l in range(4):
                dg[l, i, j] = dg[l, j, i] = vals[off + 1 + l]
        A = np.empty(4)
        dA = np.empty((4, 4))
        for i in range(4):
            A[i] = vals[a_off + 5 * i]
            for l in range(4):
                dA[l, i] = vals[a_off + 5 * i + 1 + l]
        xi = np.array(vals[a_off + 20 :]).reshape(4, 4)
        return g, dg, A, dA, xi

    def rhs(u, p):
        g, dg, A, dA, _ = unpack(u)
        P = p + A
        du = 2.0 * g @ P
        dp = -(np.einsum("lij,i,j->l", dg, P, P) + 2.0 * np.einsum("ij,li,j->l", g, dA, P))
        return du, dp

    def observables(u, p):
        g, _, A, _, xi = unpack(u)
        P = p + A
        return float(P @ g @ P), xi @ p

    return rhs, observables


def integrate_trajectory(
    model: GroupModel,
    state0: PhasePoint,
    T: float,
    h: float,
    alphas=None,
) -> Trajectory:
    """Classical fixed-step RK4 for Hamilton's equations, recording H and
    Y_1..Y_4 each step.  Stops early (flagged, partial data) if the state
    leaves the entry's sampling box."""
    if h <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    alphas = model.params.alphas() if alphas is None else np.asarray(alphas, float)
    rhs, observables = _compiled_dynamics(model, alphas)
    lo, hi = model.domain.bounds()

    n_steps = int(round(T / h))
    ts = [0.0]
    us = [state0.u.copy()]
    ps = [state0.p.copy()]
    H0, Y0 = observables(state0.u, state0.p)
    Hs, Ys = [H0], [Y0]
    u, p = state0.u.copy(), state0.p.copy()
    exited = False

    for step in range(1, n_steps + 1):
        k1u, k1p = rhs(u, p)
        k2u, k2p = rhs(u + 0.5 * h * k1u, p + 0.5 * h * k1p)
        k3u, k3p = rhs(u + 0.5 * h * k2u, p + 0.5 * h * k2p)
        k4u, k4p = rhs(u + h * k3u, p + h * k3p)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        if np.any(u < lo) or np.any(u > hi):
            exited = True
            break
        H, Y = observables(u, p)
        ts.append(step * h)
        us.append(u.copy())
        ps.append(p.copy())
        Hs.append(H)
        Ys.append(Y)

    return Trajectory(
        t=np.array(ts),
        u=np.array(us),
        p=np.array(ps),
        H=np.array(Hs),
        Y=np.array(Ys),
        domain_exit=exited,
    )


def drift_report(traj: Trajectory) -> DriftStats:
    """Per-observable max |value(t) - value(0)| and a (1 + |v0|)-relative form."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")

    def drift(series):
        d = float(np.max(np.abs(series - series[0])))
        return Drift(max_abs=d, relative=d / (1.0 + abs(float(series[0]))))

    return DriftStats(
        H=drift(traj.H), Y=tuple(drift(traj.Y[:, a]) for a in range(4))
    )


TRAJECTORY_CSV_HEADER = ["t", "u1", "u2", "u3", "u4", "p1", "p2", "p3", "p4", "H", "Y1", "Y2", "Y3", "Y4"]


def export_csv(traj: Trajectory, path) -> None:
    """Full double precision (17 significant digits), one row per step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_HEADER)
        for k in range(len(traj)):
            row = [
                traj.t[k],
                *traj.u[k],
                *traj.p[k],
                traj.H[k],
                *traj.Y[k],
            ]
            writer.writerow(format(x, ".17g") for x in row)
