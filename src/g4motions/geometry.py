"""Metric tensors from tetrads, frame metric components, field strength.

All index gymnastics used by the verification suite and the particle
mechanics lives here.  Point-wise wrappers return small dataclasses; the
``*_batch`` functions evaluate on (n, 4) point arrays and also return the
coordinate gradients needed by the identity checks (obtained from the
forward-mode jets of the tetrad/potential expression tables).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import GroupModel, eval_table, eval_table_jet

__all__ = [
    "SingularMetric",
    "MetricAt",
    "FrameMetricAt",
    "FaradayAt",
    "metric_at",
    "faraday_at",
    "frame_metric_at",
    "metric_batch",
    "potential_batch",
    "faraday_batch",
]

_DET_GUARD = 1e-12


class SingularMetric(ArithmeticError):
    """The assembled metric is (numerically) degenerate."""


@dataclass
class MetricAt:
    g_con: np.ndarray  # g^{ij}
    g_cov: np.ndarray  # g_{ij}


@dataclass
class FrameMetricAt:
    G_con: np.ndarray  # frame components of g^{ij}
    G_cov: np.ndarray


@dataclass
class FaradayAt:
    F: np.ndarray  # F_{ij} = A_{j,i} - A_{i,j}, antisymmetric


def _invert(g: np.ndarray) -> np.ndarray:
    dets = np.linalg.det(g)
    if np.any(np.abs(dets) < _DET_GUARD):
        raise SingularMetric(f"metric determinant below guard ({np.min(np.abs(dets)):.3e})")
    return np.linalg.inv(g)


def metric_batch(model: GroupModel, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_con, g_cov, dg_con) at points (n, 4).

    g_con is assembled from the contravariant tetrad, g^{ij} =
    eta^{ab} e_a^i e_b^j (for the flat-fourth-direction entries eta is the
    embedded 3x3 block completed by 1); g_cov by matrix inversion.  dg_con
    has shape (n, 4, 4, 4) with axis 1 the derivative direction.  The
    contractions are pairwise batched matmuls over the 4x4 index blocks.
    """
    econ, decon = eval_table_jet(model.e_con, points)  # (n,a,i), (n,l,a,i)
    t = model.eta_con() @ econ  # eta^{ab} e_b^j, (n,a,j)
    g = econ.transpose(0, 2, 1) @ t
    dg = decon.transpose(0, 1, 3, 2) @ t[:, None]
    dg = dg + dg.transpose(0, 1, 3, 2)
    return g, _invert(g), dg


def metric_at(model: GroupModel, u) -> MetricAt:
    g, ginv, _ = metric_batch(model, np.asarray(u, float)[None, :])
    return MetricAt(g_con=g[0], g_cov=ginv[0])


def potential_batch(
    model: GroupModel, points, alphas=None, basis=None
) -> tuple[np.ndarray, np.ndarray]:
    """Holonomic potential values (n, 4) and gradients (n, 4, 4) at points.

    ``basis`` overrides the expression table (e.g. the tetrad-constructed
    one); axis 1 of the gradient is the derivative direction.
    """
    alphas = model.params.alphas() if alphas is None else np.asarray(alphas, float)
    table = model.holo_basis if basis is None else basis
    vals, grads = eval_table_jet(table, points)  # (n,b,i), (n,l,b,i)
    A = np.einsum("b,nbi->ni", alphas, vals)
    dA = np.einsum("b,nlbi->nli", alphas, grads)
    return A, dA


def faraday_batch(model: GroupModel, points, alphas=None, basis=None) -> np.ndarray:
    """F_{ij} at points (n, 4), from the jets of the holonomic potential."""
    _, dA = potential_batch(model, points, alphas=alphas, basis=basis)
    return dA - dA.transpose(0, 2, 1)  # F[n,i,j] = d_i A_j - d_j A_i


def faraday_at(model: GroupModel, u, alphas=None) -> FaradayAt:
    F = faraday_batch(model, np.asarray(u, float)[None, :], alphas=alphas)
    return FaradayAt(F=F[0])


def frame_metric_batch(model: GroupModel, points) -> tuple[np.ndarray, np.ndarray]:
    g, ginv, _ = metric_batch(model, points)
    dualv = eval_table(model.dual, points)  # (n, i, alpha)
    xiv = eval_table(model.xi, points)  # (n, alpha, i)
    G_con = dualv.transpose(0, 2, 1) @ g @ dualv  # xi^a_i g^{ij} xi^b_j
    G_cov = xiv @ ginv @ xiv.transpose(0, 2, 1)  # xi_a^i g_{ij} xi_b^j
    return G_con, G_cov


def frame_metric_at(model: GroupModel, u) -> FrameMetricAt:
    G_con, G_cov = frame_metric_batch(model, np.asarray(u, float)[None, :])
    resid = np.max(np.abs(G_con[0] @ G_cov[0] - np.eye(4)))
    if resid > 1e-8:
        raise SingularMetric(f"frame metric variance forms fail to invert ({resid:.3e})")
    return FrameMetricAt(G_con=G_con[0], G_cov=G_cov[0])
