"""Reference computations the tests compare the library against.

The finite-difference oracle works on any function of a chart point; the
others are a few lines over a ``geometry.SampleCloud``, each written apart
from the route the checks and the integrator take to the same quantity.
``metric_cov`` and ``frame_metric`` give the tests g_{ij} and G^{ab} with
its gradient on a whole cloud; no check reads either in that form.
The ``unblocked_*`` residuals are the checks' formulas over the whole cloud
at once, against which the checks' per-block reduction is pinned bitwise.
``reference_rk4`` is the integrator's RK4 loop in its list-and-zip form,
driving the same compiled kernel, against which the straight-line loop of
``mechanics.integrate_trajectory`` is pinned bitwise.
``unplanned_evaluate`` is ``adiff.evaluate`` without a plan: it walks the
trees on every call and evaluates each distinct node object, against which
the planned, hash-consed evaluator is pinned bitwise.
"""
from array import array
from operator import gt

import numpy as np

from g4motions.adiff import CHART_DIM, FieldExpr, as_point
from g4motions.geometry import frame_metric_batch
from g4motions.mechanics import Trajectory, _compiled_dynamics, _finite


def finite_diff_gradient(f, u, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, the independent oracle.

    ``f`` may be a FieldExpr (evaluated by ``unplanned_evaluate``) or any
    callable of a (4,) point.  The estimate is (f(u + h e_i) - f(u - h e_i))
    / (2 h) per axis.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    if isinstance(f, FieldExpr):
        f = lambda x, e=f: unplanned_evaluate((e,), x)[0]  # noqa: E731
    u = as_point(u)
    grad = np.empty(CHART_DIM)
    for i in range(CHART_DIM):
        step = np.zeros(CHART_DIM)
        step[i] = h
        grad[i] = (f(u + step) - f(u - step)) / (2.0 * h)
    return grad


def unplanned_evaluate(exprs, u) -> list:
    """Values of ``exprs`` at the chart point(s) ``u``: every distinct node
    object reachable from ``exprs`` evaluated once, operands first, each
    value dropped after its last reader."""
    u = np.asarray(u, dtype=float)
    uses: dict[int, int] = {}  # readers per node; a root counts as one more
    order = []  # operands before the nodes that read them

    def visit(e):
        key = id(e)
        n = uses.get(key)
        if n is None:
            uses[key] = 1
            for o in e.operands:
                visit(o)
            order.append(e)
        else:
            uses[key] = n + 1

    for e in exprs:
        visit(e)
    values: dict[int, object] = {}
    for e in order:
        ops = e.operands
        if not ops:
            values[id(e)] = e.eval(u)
            continue
        args = []
        for o in ops:
            key = id(o)
            args.append(values[key])
            n = uses[key] - 1
            if n:
                uses[key] = n
            else:
                del values[key]
        values[id(e)] = e.eval(u, *args)
    return [values[id(e)] for e in exprs]


def hamiltonian(cloud, alphas) -> np.ndarray:
    """H = P_i g^{ij} P_j with P = p + A, at the cloud's (points, momenta)."""
    g, _ = cloud.metric
    A, _ = cloud.potential(alphas)
    P = cloud.momenta + A
    return np.einsum("ni,nij,nj->n", P, g, P)


def motion_integrals(cloud) -> np.ndarray:
    """Y_a = xi_a^i p_i (n, a) at the cloud's (points, momenta)."""
    return np.einsum("nai,ni->na", cloud.values("xi"), cloud.momenta)


def metric_cov(cloud) -> np.ndarray:
    """g_{ij} (n, i, j), the inverse of the cloud's g^{ij}."""
    return np.linalg.inv(cloud.metric[0])


def frame_metric(cloud) -> tuple[np.ndarray, np.ndarray]:
    """G^{ab} (n, a, b) and d_l G^{ab} (n, l, a, b) over the whole cloud,
    through ``geometry.frame_metric_batch`` as the frame-Killing check
    builds them per block."""
    return frame_metric_batch(*cloud.metric, *cloud.jet("dual"))


def frame_metric_cov(cloud) -> np.ndarray:
    """G_{ab} = xi_a^i g_{ij} xi_b^j (n, a, b): the frame metric by the
    second route, through the frame and the inverted metric."""
    g_cov = metric_cov(cloud)
    xi = cloud.values("xi")
    return xi @ g_cov @ xi.transpose(0, 2, 1)


def _scaled_max(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + max(|lhs|, |rhs|)) over whole arrays."""
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))))


def unblocked_bracket(xi, dxi, C) -> float:
    """The scaled residual of [xi_a, xi_b] = C^g_ab xi_g."""
    n = len(xi)
    bracket = (xi @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    bracket = bracket - bracket.transpose(0, 2, 1, 3)
    target = (C.reshape(4, 16).T @ xi).reshape(n, 4, 4, 4)
    return _scaled_max(bracket, target)


def unblocked_killing(cloud) -> float:
    g, dg = cloud.metric
    xi, dxi = cloud.jet("xi")
    n = len(xi)
    lhs = (g @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4).transpose(0, 2, 1, 3)
    lhs = lhs + lhs.transpose(0, 1, 3, 2)
    rhs = (xi @ dg.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    return _scaled_max(lhs, rhs)


def unblocked_frame_killing(cloud) -> float:
    G, dG = frame_metric(cloud)
    n = len(G)
    lhs = (cloud.values("xi") @ dG.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    C = cloud.model.structure_constants.transpose(1, 0, 2).reshape(4, 16)
    rhs = (G.reshape(4 * n, 4) @ C).reshape(n, 4, 4, 4).transpose(0, 3, 1, 2)
    rhs = rhs + rhs.transpose(0, 1, 3, 2)
    return _scaled_max(lhs, rhs)


def unblocked_admissibility(cloud, table: str) -> list[float]:
    """The admissibility residual of each basis potential of ``table``."""
    xi, dxi = cloud.jet("xi")
    xi_t = np.ascontiguousarray(xi.transpose(0, 2, 1))
    vals, grads = cloud.jet(table)
    out = []
    for b in range(4):
        A, dA = vals[:, b], grads[:, :, b]
        F = dA - dA.transpose(0, 2, 1)
        out.append(_scaled_max(np.einsum("niaj,nj->nia", dxi, A) + dA @ xi_t, F @ xi_t))
    return out


def reference_rk4(model, state0, T: float, h: float) -> Trajectory:
    """Classical RK4 over lists of the eight state components, in the same
    operation order as ``mechanics.integrate_trajectory``."""
    n_steps = int(round(T / h))
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
