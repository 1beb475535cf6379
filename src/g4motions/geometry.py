"""Metric tensors from tetrads, frame metric components, field strength, and
the sample cloud that every verification check reads.

All index gymnastics used by the verification suite and the particle
mechanics lives here.  Point-wise wrappers return small dataclasses; the
``*_batch`` functions evaluate on (n, 4) point arrays and also return the
coordinate gradients needed by the identity checks (obtained from the
forward-mode jets of the tetrad/potential expression tables).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import GroupModel, eval_table, eval_table_jet, frame_bracket, potential_from_basis

__all__ = [
    "SingularMetric",
    "MetricAt",
    "FrameMetricAt",
    "FaradayAt",
    "SampleCloud",
    "metric_at",
    "faraday_at",
    "frame_metric_at",
    "metric_batch",
    "frame_metric_batch",
    "faraday_batch",
]

_DET_GUARD = 1e-12

#: Tables whose gradients two or more checks read (both frame metrics read
#: those of e_con and dual); the sample cloud keeps their jets.
_SHARED_JETS = frozenset({"xi", "dual", "e_con", "holo_basis"})


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


def metric_batch(
    model: GroupModel, points, tetrad=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_con, g_cov, dg_con) at points (n, 4).

    g_con is assembled from the contravariant tetrad, g^{ij} =
    eta^{ab} e_a^i e_b^j (for the flat-fourth-direction entries eta is the
    embedded 3x3 block completed by 1); g_cov by matrix inversion.  dg_con
    has shape (n, 4, 4, 4) with axis 1 the derivative direction.  The
    contractions are pairwise batched matmuls over the 4x4 index blocks.
    ``tetrad`` is the (values, gradients) pair of ``model.e_con`` at the
    points, when it has been evaluated already.
    """
    econ, decon = eval_table_jet(model.e_con, points) if tetrad is None else tetrad
    t = model.eta_con() @ econ  # eta^{ab} e_b^j, (n,a,j)
    g = econ.transpose(0, 2, 1) @ t
    dg = decon.transpose(0, 1, 3, 2) @ t[:, None]
    dg = dg + dg.transpose(0, 1, 3, 2)
    return g, _invert(g), dg


def metric_at(model: GroupModel, u) -> MetricAt:
    g, ginv, _ = metric_batch(model, np.asarray(u, float)[None, :])
    return MetricAt(g_con=g[0], g_cov=ginv[0])


class SampleCloud:
    """One catalog entry's sample points (and momenta), evaluated once.

    Every verification check is a pure function of a cloud and the
    tolerances.  Everything is evaluated on first use, and the cloud keeps
    only what two or more checks read: the jets of the tables in
    ``_SHARED_JETS``, the values of the other tables asked for through
    ``values``, the metric g^{ij}, g_{ij}, d_l g^{ij}, the frame Lie bracket
    with its sign, and A_i, d_l A_i per alpha vector.  The jets of the other
    tables, the frame metric G^{ab} with its gradient and the gradients of H
    each have a single reader and are computed on each call, so no table's
    jets are evaluated twice.

    ``with_eta`` gives the cloud of the same points under another frame
    metric: it shares every eta-independent evaluation and recomputes only
    the metric.
    """

    def __init__(self, model: GroupModel, points, momenta=None):
        self.model = model
        self.points = np.asarray(points, float)
        self.momenta = None if momenta is None else np.asarray(momenta, float)
        self._shared = {}  # eta-independent: table jets and values, bracket, potentials

    def __len__(self) -> int:
        return len(self.points)

    def with_eta(self, eta) -> SampleCloud:
        other = SampleCloud(self.model.with_eta(eta), self.points, self.momenta)
        other._shared = self._shared
        return other

    def _memo(self, key, compute):
        if key not in self._shared:
            self._shared[key] = compute()
        return self._shared[key]

    def jet(self, table: str) -> tuple[np.ndarray, np.ndarray]:
        """Values (n, r, c) and gradients (n, 4, r, c) of the model's table
        ``table`` (an attribute name, e.g. ``"xi"`` or ``"tetrad_basis"``)."""

        def compute():
            return eval_table_jet(getattr(self.model, table), self.points)

        return self._memo(table, compute) if table in _SHARED_JETS else compute()

    def values(self, table: str) -> np.ndarray:
        """Values (n, r, c) of the model's table ``table``."""
        if table in _SHARED_JETS:
            return self.jet(table)[0]
        return self._memo(("values", table), lambda: eval_table(getattr(self.model, table), self.points))

    @cached_property
    def metric(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g^{ij}, g_{ij}, d_l g^{ij}) under the model's frame metric."""
        return metric_batch(self.model, self.points, tetrad=self.jet("e_con"))

    @property
    def bracket(self) -> tuple[np.ndarray, int, dict]:
        """The frame Lie bracket (n, a, b, i), its closure sign and the
        residual of each sign (``catalog.frame_bracket``)."""
        return self._memo(
            "bracket", lambda: frame_bracket(*self.jet("xi"), self.model.structure_constants)
        )

    def frame_metric(self) -> tuple[np.ndarray, np.ndarray]:
        """G^{ab} = xi^a_i xi^b_j g^{ij} (n, a, b) and d_l G^{ab} (n, l, a, b).

        Pairwise batched matmuls; the two dual-derivative terms of the
        gradient are one product and its (a, b) transpose, since g is
        symmetric.  The right factor of xi^a_i d_l g^{ij} xi^b_j is one
        (16x4)(4x4) product per point.
        """
        g, _, dg = self.metric
        dual, ddual = self.jet("dual")  # (n,i,a), (n,l,i,a)
        n = len(dual)
        dual_t = dual.transpose(0, 2, 1)
        gd = g @ dual  # g^{ij} xi^b_j
        dG = ddual.transpose(0, 1, 3, 2) @ gd[:, None]  # d_l xi^a_i g^{ij} xi^b_j
        dG = dG + dG.transpose(0, 1, 3, 2)
        dG += ((dual_t[:, None] @ dg).reshape(n, 16, 4) @ dual).reshape(n, 4, 4, 4)
        return dual_t @ gd, dG

    def potential(self, alphas, basis: str = "holo_basis") -> tuple[np.ndarray, np.ndarray]:
        """A_i (n, 4) and d_l A_i (n, 4, 4) for the potential constants
        ``alphas`` over the basis-wise table ``basis`` (see ``jet``)."""
        alphas = np.asarray(alphas, float)

        def compute():
            vals, grads = self.jet(basis)
            return potential_from_basis(alphas, vals), potential_from_basis(alphas, grads)

        return self._memo(("potential", basis, alphas.tobytes()), compute)

    def hamiltonian_grads(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """dH/du (n, l) and dH/dp (n, i) of H = g^{ij} P_i P_j with
        P = p + A, at the cloud's momenta.

        The potential term is contracted pairwise as d_l A_i (g^{ij} P_j).
        """
        g, _, dg = self.metric
        A, dA = self.potential(alphas)
        P = self.momenta + A
        gP = np.einsum("nij,nj->ni", g, P)
        dH = np.einsum("nlij,ni,nj->nl", dg, P, P) + 2.0 * np.einsum("nli,ni->nl", dA, gP)
        return dH, 2.0 * gP


def faraday_batch(
    model: GroupModel, points, alphas=None, basis: str = "holo_basis"
) -> np.ndarray:
    """F_{ij} at points (n, 4), from the jets of the potential table ``basis``
    (a ``SampleCloud.jet`` name)."""
    alphas = model.params.alphas() if alphas is None else alphas
    _, dA = SampleCloud(model, points).potential(alphas, basis)
    return dA - dA.transpose(0, 2, 1)  # F[n,i,j] = d_i A_j - d_j A_i


def faraday_at(model: GroupModel, u, alphas=None) -> FaradayAt:
    F = faraday_batch(model, np.asarray(u, float)[None, :], alphas=alphas)
    return FaradayAt(F=F[0])


def frame_metric_batch(model: GroupModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Frame components G^{ab} (n, a, b) of g^{ij} and G_{ab} of g_{ij}."""
    cloud = SampleCloud(model, points)
    G_con, _ = cloud.frame_metric()
    _, ginv, _ = cloud.metric
    xiv = cloud.values("xi")  # (n, alpha, i)
    G_cov = xiv @ ginv @ xiv.transpose(0, 2, 1)  # xi_a^i g_{ij} xi_b^j
    return G_con, G_cov


def frame_metric_at(model: GroupModel, u) -> FrameMetricAt:
    G_con, G_cov = frame_metric_batch(model, np.asarray(u, float)[None, :])
    resid = np.max(np.abs(G_con[0] @ G_cov[0] - np.eye(4)))
    if resid > 1e-8:
        raise SingularMetric(f"frame metric variance forms fail to invert ({resid:.3e})")
    return FrameMetricAt(G_con=G_con[0], G_cov=G_cov[0])
