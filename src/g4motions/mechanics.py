"""Charged test-particle mechanics on the catalog spacetimes.

The Hamiltonian is H = g^{ij} (p_i + A_i)(p_j + A_j); the linear motion
integrals are the frame contractions Y_a = xi_a^i p_i (the gauge in which
they carry no potential term).  Their values and gradients on a sample of
phase points come from a ``geometry.SampleCloud``; the bracket checks read
its batched gradients: coordinate gradients from the tables' symbolic
partials, momentum gradients analytic (H is quadratic in p, Y linear).

Trajectories are integrated with fixed-step classical RK4 — conservation
drift is the measured quantity and fixed steps make convergence-order tests
clean.  For the integrator's inner loop Hamilton's equations and the
observables H, Y_a are compiled into one straight-line plain-``math`` kernel
per run from the same symbolic partials (cross-checked against the batched
sample-cloud gradients and the finite-difference oracle in the tests).  Its
call at an accepted state records that state's H and Y and is also the next
RK4 step's first stage; the stages run on Python floats.  Runs that leave
the entry's sampling box stop early and are flagged rather than raising,
since exponential blow-up in noncompact charts is expected.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import gt

import numpy as np

from . import adiff
from .catalog import GroupModel
from .checks import CheckResult, ToleranceConfig, admissible_alphas, scaled_max
from .geometry import SampleCloud

__all__ = [
    "PhasePoint",
    "Trajectory",
    "DriftStats",
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


def check_integral_algebra(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """{Y_a, Y_b} closes on the structure constants.

    With the canonical bracket normalized by {u^i, p_i} = +1 the map
    p . xi is an antihomomorphism, so the closure sign here is the
    opposite of the vector-field bracket sign; both are recorded.
    """
    bracket, s, _ = cloud.bracket
    pb = -np.einsum("nabi,ni->nab", bracket, cloud.momenta)  # {Y_a, Y_b}
    Y = np.einsum("nai,ni->na", cloud.values("xi"), cloud.momenta)
    target = (Y @ cloud.model.structure_constants.reshape(4, 16)).reshape(-1, 4, 4)  # C^g_ab Y_g
    return CheckResult(
        "integral_algebra",
        cloud.model.name,
        len(cloud),
        scaled_max(pb, -s * target),
        tol.tol_deriv,
        notes=(f"poisson closure sign {-s:+d} (vector-field bracket sign {s:+d})",),
    )


def check_hamiltonian_commutes(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """{H, Y_a} = 0 for the verified-admissible potential configuration."""
    model = cloud.model
    alphas = admissible_alphas(model)
    xi, dxi = cloud.jet("xi")
    dH, dHdp = cloud.hamiltonian_grads(alphas)
    dYdu = np.einsum("nial,nl->nia", dxi, cloud.momenta)  # d_i (xi_a^l p_l)
    pb = np.einsum("nl,nal->na", dH, xi) - np.einsum("ni,nia->na", dHdp, dYdu)
    resid = scaled_max(pb, np.zeros_like(pb))
    note = ()
    if not np.array_equal(alphas, model.params.alphas()):
        note = (f"admissible configuration alphas={alphas.tolist()}",)
    return CheckResult(
        "hamiltonian_commutes", model.name, len(cloud), resid, tol.tol_deriv, notes=note
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


_P = ("p1", "p2", "p3", "p4")  # extra kernel arguments: the canonical momenta


def _sum(products) -> str:
    """Source of a sum of products; a product with a zero (``None``) factor
    is left out, so symbolically-zero partials cost nothing."""
    kept = [" * ".join(factors) for factors in products if None not in factors]
    return " + ".join(kept) if kept else "0.0"


def _compiled_dynamics(model: GroupModel, alphas: np.ndarray):
    """Generate the fused kernel of (u1, u2, u3, u4, p1, p2, p3, p4).

    It returns 13 floats: Hamilton's equations du/dt = dH/dp = 2 gP and
    dp/dt = -dH/du = -(d_l g^{ij} P_i P_j + 2 d_l A_i gP^i), then the
    observables H = P_i gP^i and Y_a = xi_a^i p_i, all from the same
    P_i = p_i + A_i and gP^i = g^{ij} P_j.  The metric entries g^{ij} and
    the potential A_i are assembled once as folded expression trees; their
    symbolic partials and the frame xi are compiled with them, and the
    contractions are emitted as scalar code after the field values.
    """
    eta_con = model.eta_con()
    pairs = _sym_pairs()

    g_exprs = []
    for i, j in pairs:
        acc = adiff.ZERO
        for a in range(4):
            for b in range(4):
                if eta_con[a, b] != 0.0:
                    acc = acc + eta_con[a, b] * (model.e_con[a][i] * model.e_con[b][j])
        g_exprs.append(acc)

    A_exprs = []
    for i in range(4):
        acc = adiff.ZERO
        for b in range(4):
            if alphas[b] != 0.0:
                acc = acc + alphas[b] * model.holo_basis[b][i]
        A_exprs.append(acc)

    def metric(names):
        g = [[None] * 4 for _ in range(4)]
        for (i, j), name in zip(pairs, names):
            g[i][j] = g[j][i] = name
        return g

    n = len(pairs)

    def hamilton(names):
        # names: g (n), then d_l g per pair (4n), then A (4), then d_l A_i
        # per i (16), then xi_a^i row by row (16)
        g, A = metric(names[:n]), names[5 * n : 5 * n + 4]
        dg = [metric(names[n + l : 5 * n : 4]) for l in range(4)]
        dA = [names[5 * n + 4 + l : 5 * n + 20 : 4] for l in range(4)]
        xi = names[5 * n + 20 :]
        lines = [f"P{i} = {_P[i]} + {A[i]}" if A[i] else f"P{i} = {_P[i]}" for i in range(4)]
        lines += [f"gP{i} = {_sum((g[i][j], f'P{j}') for j in range(4))}" for i in range(4)]
        du = [f"2.0 * gP{i}" for i in range(4)]
        dp = []
        for l in range(4):
            products = [(dg[l][i][i], f"P{i}", f"P{i}") for i in range(4)]
            products += [("2.0", dg[l][i][j], f"P{i}", f"P{j}") for i, j in pairs if i != j]
            products += [("2.0", dA[l][i], f"gP{i}") for i in range(4)]
            dp.append(f"-({_sum(products)})")
        H = _sum((f"P{i}", f"gP{i}") for i in range(4))
        Y = [_sum((xi[4 * a + i], _P[i]) for i in range(4)) for a in range(4)]
        return lines, [*du, *dp, H, *Y]

    derivs = [d for e in (*g_exprs, *A_exprs) for d in adiff.gradient_exprs(e)]
    exprs = [*g_exprs, *derivs[: 4 * n], *A_exprs, *derivs[4 * n :], *(x for row in model.xi for x in row)]
    return adiff.compile_values(exprs, _P, hamilton)


def _finite(values, t: float):
    # plain float arithmetic overflows to inf/nan silently, where numpy
    # under the CLI's errstate would raise
    if not all(map(math.isfinite, values)):
        raise FloatingPointError(f"non-finite state or observable at t={t!r}")
    return values


def integrate_trajectory(model: GroupModel, state0: PhasePoint, T: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 for Hamilton's equations with the model's
    potential constants, recording H and Y_1..Y_4 each step.  Raises
    ``ValueError`` unless ``round(T / h)`` is at least one step.  Stops early
    (flagged, partial data) if the state leaves the entry's sampling box;
    raises ``FloatingPointError`` if the state, H or Y becomes non-finite."""
    if h <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    n_steps = int(round(T / h))
    if n_steps < 1:
        raise ValueError(f"T={T!r} and h={h!r} give round(T / h) = 0 RK4 steps")
    kernel = _compiled_dynamics(model, model.params.alphas())
    lo, hi = (b.tolist() for b in model.domain.bounds())

    half, sixth = 0.5 * h, h / 6.0
    y = [*state0.u.tolist(), *state0.p.tolist()]  # u1..u4, p1..p4
    k1 = kernel(*y)  # du, dp, then H, Y: this state's observables and the first stage
    states = array("d", y)
    obs = array("d", _finite(k1[8:], 0.0))
    exited = False

    for step in range(1, n_steps + 1):
        # zip stops after the 8 state components, so the stages' trailing H, Y go unused
        k2 = kernel(*[a + half * b for a, b in zip(y, k1)])
        k3 = kernel(*[a + half * b for a, b in zip(y, k2)])
        k4 = kernel(*[a + h * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        _finite(y, step * h)
        if any(map(gt, lo, y)) or any(map(gt, y, hi)):  # map stops after the 4 coordinates
            exited = True
            break
        k1 = kernel(*y)  # the next step's first stage
        obs.extend(_finite(k1[8:], step * h))
        states.extend(y)

    phase = np.array(states).reshape(-1, 8)
    integrals = np.array(obs).reshape(-1, 5)
    return Trajectory(
        t=np.arange(len(phase)) * h,
        u=phase[:, :4],
        p=phase[:, 4:],
        H=integrals[:, 0],
        Y=integrals[:, 1:],
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


_CSV_CHUNK = 256
TRAJECTORY_CSV_HEADER = ["t", "u1", "u2", "u3", "u4", "p1", "p2", "p3", "p4", "H", "Y1", "Y2", "Y3", "Y4"]


def export_csv(traj: Trajectory, path) -> None:
    """Full double precision (17 significant digits), one row per step, in
    ``csv.writer``'s default dialect (comma separated, CRLF line ends)."""
    table = np.column_stack([traj.t, traj.u, traj.p, traj.H, traj.Y])
    row = ",".join(["%.17g"] * len(TRAJECTORY_CSV_HEADER)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_CSV_HEADER) + "\r\n")
        for k in range(0, len(table), _CSV_CHUNK):  # bounded list of Python floats
            fh.writelines(row % tuple(r) for r in table[k : k + _CSV_CHUNK].tolist())
