"""Charged test-particle mechanics on the catalog spacetimes.

The Hamiltonian is H = g^{ij} (p_i + A_i)(p_j + A_j); the linear motion
integrals are the frame contractions Y_a = xi_a^i p_i (the gauge in which
they carry no potential term).  Their values and gradients on a sample of
phase points come from a ``geometry.SampleCloud``; the bracket checks read
its batched gradients: coordinate gradients from the tables' symbolic
partials, momentum gradients analytic (H is quadratic in p, Y linear).
Under the catalog's convention [xi_a, xi_b] = C^g_ab xi_g the integrals
close as {Y_a, Y_b} = -C^g_ab Y_g, with no sign fitted.

Trajectories are integrated with fixed-step classical RK4 — conservation
drift is the measured quantity and fixed steps make convergence-order tests
clean.  For the integrator's inner loop Hamilton's equations and the
observables H, Y_a are written as expression trees over the chart point and
the momenta, from the same symbolic partials, and compiled into one
straight-line plain-``math`` kernel per model (cross-checked against the
batched sample-cloud gradients and the finite-difference oracle in the
tests).  The kernel is compiled on a model's first run and kept for its
later runs, keyed on the model object: ``get_group`` shares one model per
entry and constants, and a model copied with other tables compiles its own.
Its call at an accepted state records that state's H and Y and is also the
next RK4 step's first stage.  The step itself is straight-line scalar code:
the eight state components and each stage's eight outputs are Python float
locals, every stage argument and combine line is written out, and the box
test is one chain of ``lo <= u <= hi`` comparisons (``tests/oracles.py``
keeps the list-and-zip form it is pinned to, bit for bit).  Runs that leave
the entry's sampling box stop early and are flagged rather than raising,
since exponential blow-up in noncompact charts is expected.  A run is at
most ``MAX_STEPS`` steps, so its memory is bounded.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import adiff
from .catalog import GroupModel, sample_points
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
    "MAX_STEPS",
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
    """Deterministic (points, momenta) draw: ``catalog.sample_points``, then
    momenta uniform in [-1, 1]^4 from the same generator."""
    rng = np.random.default_rng(seed)
    u = sample_points(model.domain, n, rng)
    return u, -1.0 + 2.0 * rng.random((n, 4))


#: The note of ``integral_algebra``: the closure sign under the catalog's
#: bracket convention [xi_a, xi_b] = C^g_ab xi_g.
_CLOSURE_NOTE = ("poisson closure sign -1 (vector-field bracket sign +1)",)


def check_integral_algebra(cloud: SampleCloud, tol: ToleranceConfig) -> CheckResult:
    """{Y_a, Y_b} = -C^g_ab Y_g.

    With the canonical bracket normalized by {u^i, p_i} = +1 the map
    p . xi is an antihomomorphism, so the Poisson bracket closes with the
    opposite sign of the vector-field bracket; the note records both.
    """
    pb = -np.einsum("nabi,ni->nab", cloud.bracket, cloud.momenta)  # {Y_a, Y_b}
    Y = np.einsum("nai,ni->na", cloud.values("xi"), cloud.momenta)
    target = (Y @ cloud.model.structure_constants.reshape(4, 16)).reshape(-1, 4, 4)  # C^g_ab Y_g
    resid = scaled_max(pb, -target)
    return CheckResult(
        "integral_algebra", cloud.model.name, len(cloud), resid, tol.tol_deriv, notes=_CLOSURE_NOTE
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


@dataclass
class DriftStats:
    H: Drift
    Y: tuple


_P = ("p1", "p2", "p3", "p4")  # extra kernel arguments: the canonical momenta


def _compiled_dynamics(model: GroupModel, alphas: np.ndarray):
    """Generate the fused kernel of (u1, u2, u3, u4, p1, p2, p3, p4).

    It returns 13 floats: Hamilton's equations du/dt = dH/dp = 2 gP and
    dp/dt = -dH/du = -(d_l g^{ij} P_i P_j + 2 d_l A_i gP^i), then the
    observables H = P_i gP^i and Y_a = xi_a^i p_i, all from the same
    P_i = p_i + A_i and gP^i = g^{ij} P_j.  Every output is one folded
    expression tree over the chart point and the momenta (``adiff.Var``
    leaves), written from the metric entries g^{ij}, the potential A_i,
    their symbolic partials and the frame xi; a product with a symbolically
    zero factor folds away, so it costs nothing.
    """
    eta_con, e, Z = model.eta_con(), model.e_con, adiff.ZERO
    eta = [(a, b, eta_con[a, b]) for a in range(4) for b in range(4) if eta_con[a, b] != 0.0]
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    g = [[None] * 4 for _ in range(4)]
    for i, j in upper:
        g[i][j] = g[j][i] = sum((c * (e[a][i] * e[b][j]) for a, b, c in eta), Z)
    A = [sum((c * row[i] for c, row in zip(alphas, model.holo_basis) if c != 0.0), Z) for i in range(4)]
    dg = {(i, j): adiff.gradient_exprs(g[i][j]) for i, j in upper}
    dA = [adiff.gradient_exprs(a) for a in A]
    p = [adiff.Var(name) for name in _P]
    P = [p[i] + A[i] for i in range(4)]
    gP = [sum((g[i][j] * P[j] for j in range(4)), Z) for i in range(4)]
    dp = []
    for l in range(4):
        terms = [dg[i, i][l] * P[i] * P[i] for i in range(4)]
        terms += [2.0 * dg[i, j][l] * P[i] * P[j] for i, j in upper if i < j]
        terms += [2.0 * dA[i][l] * gP[i] for i in range(4)]
        dp.append(-sum(terms, Z))
    H = sum((P[i] * gP[i] for i in range(4)), Z)
    Y = [sum((x * p[i] for i, x in enumerate(row)), Z) for row in model.xi]
    return adiff.compile_values([*(2.0 * x for x in gP), *dp, H, *Y], _P)


@lru_cache(maxsize=64)
def _kernel(model: GroupModel):
    """The model's kernel under its own potential constants, compiled on
    first use.  Models hash by identity, and the memo holds each model it
    keys, so an id is never reused while its kernel is kept."""
    return _compiled_dynamics(model, model.params.alphas())


def _finite(values, t: float):
    # plain float arithmetic overflows to inf/nan silently, where numpy
    # under the CLI's errstate would raise
    if not all(map(math.isfinite, values)):
        raise FloatingPointError(f"non-finite state or observable at t={t!r}")
    return values


#: The most RK4 steps one trajectory may take.  A step keeps 13 floats, so
#: a trajectory at the cap holds about 100 MB.
MAX_STEPS = 10**6


def integrate_trajectory(model: GroupModel, state0: PhasePoint, T: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 for Hamilton's equations with the model's
    potential constants, recording H and Y_1..Y_4 each step.  Raises
    ``ValueError`` unless ``T / h`` is finite and ``round(T / h)`` is between
    one step and ``MAX_STEPS``.  Stops early (flagged, partial data) if the
    state leaves the entry's sampling box; raises ``FloatingPointError`` if
    the state, H or Y becomes non-finite.  The kernel is compiled once per
    model object and reused by every later call on it."""
    if h <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    if not math.isfinite(T / h):
        raise ValueError(f"T={T!r} and h={h!r} give a non-finite step count T / h")
    n_steps = int(round(T / h))
    if n_steps < 1:
        raise ValueError(f"T={T!r} and h={h!r} give round(T / h) = 0 RK4 steps")
    if n_steps > MAX_STEPS:
        raise ValueError(
            f"T={T!r} and h={h!r} give round(T / h) = {n_steps} RK4 steps, "
            f"above the cap of {MAX_STEPS}"
        )
    kernel = _kernel(model)
    (lo1, lo2, lo3, lo4), (hi1, hi2, hi3, hi4) = (b.tolist() for b in model.domain.bounds())

    half, sixth = 0.5 * h, h / 6.0
    u1, u2, u3, u4 = state0.u.tolist()
    p1, p2, p3, p4 = state0.p.tolist()
    y = (u1, u2, u3, u4, p1, p2, p3, p4)
    k = kernel(*y)  # du, dp, then H, Y: this state's observables and the first stage
    states = array("d", y)
    obs = array("d", _finite(k[8:], 0.0))
    exited = False

    for step in range(1, n_steps + 1):
        # each stage's trailing H, Y go unused
        a1, a2, a3, a4, a5, a6, a7, a8, _, _, _, _, _ = k
        b1, b2, b3, b4, b5, b6, b7, b8, _, _, _, _, _ = kernel(
            u1 + half * a1, u2 + half * a2, u3 + half * a3, u4 + half * a4,
            p1 + half * a5, p2 + half * a6, p3 + half * a7, p4 + half * a8,
        )
        c1, c2, c3, c4, c5, c6, c7, c8, _, _, _, _, _ = kernel(
            u1 + half * b1, u2 + half * b2, u3 + half * b3, u4 + half * b4,
            p1 + half * b5, p2 + half * b6, p3 + half * b7, p4 + half * b8,
        )
        d1, d2, d3, d4, d5, d6, d7, d8, _, _, _, _, _ = kernel(
            u1 + h * c1, u2 + h * c2, u3 + h * c3, u4 + h * c4,
            p1 + h * c5, p2 + h * c6, p3 + h * c7, p4 + h * c8,
        )
        u1 = u1 + sixth * (a1 + 2 * b1 + 2 * c1 + d1)
        u2 = u2 + sixth * (a2 + 2 * b2 + 2 * c2 + d2)
        u3 = u3 + sixth * (a3 + 2 * b3 + 2 * c3 + d3)
        u4 = u4 + sixth * (a4 + 2 * b4 + 2 * c4 + d4)
        p1 = p1 + sixth * (a5 + 2 * b5 + 2 * c5 + d5)
        p2 = p2 + sixth * (a6 + 2 * b6 + 2 * c6 + d6)
        p3 = p3 + sixth * (a7 + 2 * b7 + 2 * c7 + d7)
        p4 = p4 + sixth * (a8 + 2 * b8 + 2 * c8 + d8)
        y = _finite((u1, u2, u3, u4, p1, p2, p3, p4), step * h)
        # after _finite, so no comparison meets a nan
        if not (lo1 <= u1 <= hi1 and lo2 <= u2 <= hi2 and lo3 <= u3 <= hi3 and lo4 <= u4 <= hi4):
            exited = True
            break
        k = kernel(*y)  # the next step's first stage
        obs.extend(_finite(k[8:], step * h))
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
    """Per-observable max |value(t) - value(0)|."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")

    def drift(series):
        return Drift(max_abs=float(np.max(np.abs(series - series[0]))))

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
