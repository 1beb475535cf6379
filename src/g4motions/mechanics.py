"""Charged test-particle mechanics on the catalog spacetimes.

The Hamiltonian is H = g^{ij} (p_i + A_i)(p_j + A_j); with the tetrad
g^{ij} = eta^{ab} e_a^i e_b^j it is H = eta^{ab} w_a w_b in the frame
momenta w_a = e_a^i (p_i + A_i).  The linear motion integrals are the frame
contractions Y_a = xi_a^i p_i (the gauge in which they carry no potential
term).  This module draws the seeded phase points that ``verify`` samples
(``sample_phase_points``) and integrates trajectories; the bracket checks
{Y_a, Y_b} and {H, Y_a} on a sample of phase points live in ``checks``
with the rest of the battery.

Trajectories are integrated with fixed-step classical RK4 — conservation
drift is the measured quantity and fixed steps make convergence-order tests
clean.  For the integrator's inner loop Hamilton's equations and the
observables H, Y_a are written in frame form, from w_a and the symbolic
partials of the tetrad and the potential, as expression trees over the
chart point and the momenta, and compiled into one straight-line
plain-``math`` kernel per model; no metric entry is formed.  The tests
cross-check it against the batched sample-cloud gradients, which are built
in metric form, and against the finite-difference oracle.  The kernel is
compiled on a model's first run and kept for its later runs, keyed on the
model object: ``get_group`` shares one model per entry and constants, and a
model copied with other tables compiles its own.  Its call at an accepted
state records that state's H and Y and is also the next RK4 step's first
stage.  The step itself is straight-line scalar code: the eight state
components and each stage's eight outputs are Python float locals, every
stage argument and combine line is written out, and the box test is one
chain of ``lo <= u <= hi`` comparisons (``tests/oracles.py`` keeps the
list-and-zip form it is pinned to, bit for bit).  Two sums, over the new
state (before the box test) and over its H and Y, screen for a non-finite
value.  Runs that leave the entry's sampling box stop early and are
flagged rather than raising, since exponential blow-up in noncompact
charts is expected.  A run is at most ``MAX_STEPS`` steps, so its memory
is bounded.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import adiff
from .catalog import GroupModel, sample_points

__all__ = [
    "PhasePoint",
    "Trajectory",
    "DriftStats",
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
# Phase-space sampling
# --------------------------------------------------------------------------


def sample_phase_points(
    model: GroupModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (points, momenta) draw: ``catalog.sample_points``, then
    momenta uniform in [-1, 1]^4 from the same generator."""
    rng = np.random.default_rng(seed)
    u = sample_points(model.domain, n, rng)
    return u, -1.0 + 2.0 * rng.random((n, 4))


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
class DriftStats:
    """max |value(t) - value(0)| over a trajectory: of H, and of each Y_a."""

    H: float
    Y: tuple  # four floats


_P = ("p1", "p2", "p3", "p4")  # extra kernel arguments: the canonical momenta


def _compiled_dynamics(model: GroupModel, alphas: np.ndarray):
    """Generate the fused kernel of (u1, u2, u3, u4, p1, p2, p3, p4).

    It returns 13 floats: Hamilton's equations du^i/dt = dH/dp_i and
    dp_l/dt = -dH/du^l, then the observables H and Y_a = xi_a^i p_i.  They
    are written in frame form: with the tetrad g^{ij} = eta^{ab} e_a^i e_b^j,
    H = eta^{ab} w_a w_b for the frame momenta w_a = e_a^i P_i, P_i = p_i + A_i.
    So, with v_a = eta^{ab} w_b,

        du^i = 2 e_a^i v_a,   dp_l = -2 v_a d_l w_a,   H = w_a v_a,

    where d_l w_a = d_l e_a^i P_i + e_a^i d_l A_i.  Every output is one
    folded expression tree over the chart point and the momenta
    (``adiff.Var`` leaves), written from the tetrad e_a^i, the potential
    A_i, their symbolic partials and the frame xi; the metric entries and
    their partials are never formed.  A product with a symbolically zero
    factor (a zero tetrad entry, a zero entry of eta^{ab}) folds away, so
    it costs nothing.
    """
    eta_con, e, Z = model.eta_con, model.e_con, adiff.ZERO
    A = [sum((c * row[i] for c, row in zip(alphas, model.holo_basis) if c != 0.0), Z) for i in range(4)]
    p = [adiff.Var(name) for name in _P]
    P = [p[i] + A[i] for i in range(4)]
    w = [sum((row[i] * P[i] for i in range(4)), Z) for row in e]
    v = [sum((eta_con[a, b] * w[b] for b in range(4) if eta_con[a, b] != 0.0), Z) for a in range(4)]
    de = [[adiff.gradient_exprs(x) for x in row] for row in e]
    dA = [adiff.gradient_exprs(x) for x in A]
    dw = [[sum((de[a][i][l] * P[i] + e[a][i] * dA[i][l] for i in range(4)), Z) for l in range(4)]
          for a in range(4)]
    du = [2.0 * sum((e[a][i] * v[a] for a in range(4)), Z) for i in range(4)]
    dp = [-2.0 * sum((v[a] * dw[a][l] for a in range(4)), Z) for l in range(4)]
    H = sum((w[a] * v[a] for a in range(4)), Z)
    Y = [sum((x * p[i] for i, x in enumerate(row)), Z) for row in model.xi]
    return adiff.compile_values([*du, *dp, H, *Y], _P)


@lru_cache(maxsize=64)
def _kernel(model: GroupModel):
    """The model's kernel under its own potential constants, compiled on
    first use.  Models hash by identity, and the memo holds each model it
    keys, so an id is never reused while its kernel is kept."""
    return _compiled_dynamics(model, model.params.alphas())


def _finite(values, t: float):
    # plain float arithmetic overflows to inf/nan silently, where numpy
    # under the CLI's errstate would raise; the RK4 step calls this only when
    # the values' sum is not finite, as any non-finite value makes it
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
    kernel, isfinite = _kernel(model), math.isfinite
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
        y = (u1, u2, u3, u4, p1, p2, p3, p4)
        # a sum of finite floats is finite unless it overflows; _finite then
        # raises, or lets the step go on if the sum only overflowed
        if not isfinite(u1 + u2 + u3 + u4 + p1 + p2 + p3 + p4):
            _finite(y, step * h)
        # after the screen, so no comparison meets a nan
        if not (lo1 <= u1 <= hi1 and lo2 <= u2 <= hi2 and lo3 <= u3 <= hi3 and lo4 <= u4 <= hi4):
            exited = True
            break
        k = kernel(*y)  # the next step's first stage
        if not isfinite(k[8] + k[9] + k[10] + k[11] + k[12]):
            _finite(k[8:], step * h)
        obs.extend(k[8:])
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
        return float(np.max(np.abs(series - series[0])))

    return DriftStats(
        H=drift(traj.H), Y=tuple(drift(traj.Y[:, a]) for a in range(4))
    )


_CSV_CHUNK = 256
TRAJECTORY_CSV_HEADER = ["t", "u1", "u2", "u3", "u4", "p1", "p2", "p3", "p4", "H", "Y1", "Y2", "Y3", "Y4"]


def export_csv(traj: Trajectory, path) -> None:
    """Full double precision (17 significant digits), one row per step, in
    ``csv.writer``'s default dialect (comma separated, CRLF line ends).
    Each block of ``_CSV_CHUNK`` rows is formatted by one ``%`` and written
    by one call."""
    table = np.column_stack([traj.t, traj.u, traj.p, traj.H, traj.Y])
    row = ",".join(["%.17g"] * len(TRAJECTORY_CSV_HEADER)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_CSV_HEADER) + "\r\n")
        for k in range(0, len(table), _CSV_CHUNK):  # bounded tuple of Python floats
            block = table[k : k + _CSV_CHUNK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
