"""Reference computations the tests compare the library against.

The finite-difference oracle works on any function of a chart point; the
others are a few lines over a ``geometry.SampleCloud``, each written apart
from the route the checks and the integrator take to the same quantity.
``metric_cov`` and ``frame_metric`` give the tests g_{ij} and G^{ab} with
its gradient on a whole cloud; no check reads either in that form.
The ``unblocked_*`` residuals are the largest checks' formulas written out
apart from the checks, over the whole cloud at once, against which the
checks' residuals are pinned bitwise.  ``frame_bracket_integrals`` is
{Y_a, Y_b} through the frame Lie bracket, the second route to the canonical
bracket that ``integral_algebra`` reads.
The ``broadcast_*`` gradients and the ``per_basis_*`` sides are the products
the library merges into one matmul per point, in their earlier form: one
(4x4)(4x4) product per point and derivative index, or per basis potential.
The merged products are pinned to them bitwise.  ``fform_admissibility``
is admissibility in the source's long form, with the field strength F,
against which the Lie-derivative form the check computes is compared.
``reference_rk4`` is the integrator's RK4 loop in its list-and-zip form,
driving the same compiled kernel, against which the straight-line loop of
``mechanics.integrate_trajectory`` is pinned bitwise.
``unplanned_evaluate`` is ``adiff.evaluate`` without a plan: it walks the
trees on every call and evaluates each distinct node object, against which
the planned, hash-consed evaluator is pinned bitwise.
``reference_render_json`` is the report writer in its ``isinstance``-chain
form, escaping each string through ``json.dumps``, against which
``cli.render_json`` is pinned byte for byte.
"""
import json
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
    builds them."""
    return frame_metric_batch(*cloud.metric, cloud.values("dual"), *cloud.jet("dual_t"))


def frame_metric_cov(cloud) -> np.ndarray:
    """G_{ab} = xi_a^i g_{ij} xi_b^j (n, a, b): the frame metric by the
    second route, through the frame and the inverted metric."""
    g_cov = metric_cov(cloud)
    xi = cloud.values("xi")
    return xi @ g_cov @ xi.transpose(0, 2, 1)


def _scaled_max(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + max(|lhs|, |rhs|)) over whole arrays."""
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))))


def frame_bracket(xi, dxi) -> np.ndarray:
    """The frame Lie bracket [xi_a, xi_b]^i = xi_a^j d_j xi_b^i -
    xi_b^j d_j xi_a^i as (n, a, b, i), from ``xi`` (n, a, i) and ``dxi``
    (n, j, a, i) = d_j xi_a^i."""
    n = len(xi)
    bracket = (xi @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4)
    return bracket - bracket.transpose(0, 2, 1, 3)


def frame_bracket_integrals(cloud) -> np.ndarray:
    """{Y_a, Y_b} = -p_i [xi_a, xi_b]^i (n, a, b) at the cloud's momenta."""
    return -np.einsum("nabi,ni->nab", frame_bracket(*cloud.jet("xi")), cloud.momenta)


def unblocked_bracket(xi, dxi, C) -> float:
    """The scaled residual of [xi_a, xi_b] = C^g_ab xi_g."""
    target = (C.reshape(4, 16).T @ xi).reshape(len(xi), 4, 4, 4)
    return _scaled_max(frame_bracket(xi, dxi), target)


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
    return [_scaled_max(lhs, rhs) for lhs, rhs in per_basis_admissibility(cloud, table)]


def per_basis_admissibility(cloud, table: str) -> list[tuple]:
    """(xi_a^j d_j A_i, -A_j d_i xi_a^j), each (n, i, a), the two terms of
    the Lie derivative L_{xi_a} A, for each basis potential of ``table``:
    the first with one product per basis, the second with one per
    derivative index i."""
    xi, dxi = cloud.jet("xi")
    vals, grads = cloud.jet(table)
    rhs = dxi @ -vals.transpose(0, 2, 1)[:, None]  # (n, i, a, b)
    return [((xi @ grads[:, :, b]).transpose(0, 2, 1), rhs[..., b]) for b in range(4)]


def fform_admissibility(cloud, table: str) -> list[tuple]:
    """(d_i (xi_a^j A_j), xi_a^j F_{ij}), each (n, i, a), for each basis
    potential of ``table``: the two sides of the admissibility condition as
    the source states it, with the field strength F formed."""
    xi, dxi = cloud.jet("xi")
    xi_t = np.ascontiguousarray(xi.transpose(0, 2, 1))
    vals, grads = cloud.jet(table)
    sides = []
    for b in range(4):
        A, dA = vals[:, b], grads[:, :, b]
        F = dA - dA.transpose(0, 2, 1)
        sides.append((np.einsum("niaj,nj->nia", dxi, A) + dA @ xi_t, F @ xi_t))
    return sides


def per_basis_frame_defining(cloud) -> list[np.ndarray]:
    """xi_b^i d_i A_a as (n, a, b) for each basis of the frame potential,
    with one product per basis."""
    xi = cloud.values("xi")
    grads = cloud.jet("frame_basis")[1]
    return [(xi @ grads[:, :, b, :]).transpose(0, 2, 1) for b in range(4)]


def broadcast_metric_gradient(model, econ, decon) -> np.ndarray:
    """d_l g^{ij} (n, l, i, j) from the tetrad jet, one product per point
    and derivative index."""
    t = model.eta_con @ econ
    dg = decon.transpose(0, 1, 3, 2) @ t[:, None]
    return dg + dg.transpose(0, 1, 3, 2)


def broadcast_frame_metric_gradient(g, dg, dual, ddual) -> np.ndarray:
    """d_l G^{ab} (n, l, a, b), with one product per point and derivative
    index for the dual-derivative terms and for xi^a_i d_l g^{ij}."""
    n = len(dual)
    dual_t = dual.transpose(0, 2, 1)
    dG = ddual.transpose(0, 1, 3, 2) @ (g @ dual)[:, None]
    dG = dG + dG.transpose(0, 1, 3, 2)
    dG += ((dual_t[:, None] @ dg).reshape(n, 16, 4) @ dual).reshape(n, 4, 4, 4)
    return dG


def reference_render_json(value, indent: int = 0) -> str:
    """JSON with a fixed 17-significant-digit float format: every value
    through one ``isinstance`` chain, every string through ``json.dumps``."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {reference_render_json(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {reference_render_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return "null"
    return json.dumps(str(value))


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
