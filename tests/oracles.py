"""Reference computations the tests compare the library against.

The finite-difference oracle works on any function of a chart point; the
others are a few lines over a ``geometry.SampleCloud``, each written apart
from the route the checks and the integrator take to the same quantity.
"""
import numpy as np

from g4motions.adiff import CHART_DIM, as_point


def finite_diff_gradient(f, u, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate, the independent oracle.

    ``f`` may be a FieldExpr or any callable of a (4,) point.  The estimate
    is (f(u + h e_i) - f(u - h e_i)) / (2 h) per axis.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    u = as_point(u)
    grad = np.empty(CHART_DIM)
    for i in range(CHART_DIM):
        step = np.zeros(CHART_DIM)
        step[i] = h
        grad[i] = (f(u + step) - f(u - step)) / (2.0 * h)
    return grad


def hamiltonian(cloud, alphas) -> np.ndarray:
    """H = P_i g^{ij} P_j with P = p + A, at the cloud's (points, momenta)."""
    g, _, _ = cloud.metric
    A, _ = cloud.potential(alphas)
    P = cloud.momenta + A
    return np.einsum("ni,nij,nj->n", P, g, P)


def motion_integrals(cloud) -> np.ndarray:
    """Y_a = xi_a^i p_i (n, a) at the cloud's (points, momenta)."""
    return np.einsum("nai,ni->na", cloud.values("xi"), cloud.momenta)


def frame_metric_cov(cloud) -> np.ndarray:
    """G_{ab} = xi_a^i g_{ij} xi_b^j (n, a, b): the frame metric by the
    second route, through the frame and the inverted metric."""
    _, g_cov, _ = cloud.metric
    xi = cloud.values("xi")
    return xi @ g_cov @ xi.transpose(0, 2, 1)

