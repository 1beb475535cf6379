"""Metric tensors from tetrads, and the sample cloud that every verification
check reads.

All index gymnastics used by the verification suite lives here.
``metric_batch`` assembles the metric g^{ij} on (n, 4) point arrays together
with its coordinate gradient, ``frame_metric_batch`` the frame metric
G^{ab} with its gradient from them, and ``frame_bracket`` the Lie bracket
of the Killing frame from its jet; all are per-point products, so they give
the same bits on any slice of the points.  ``SampleCloud`` evaluates
one entry's tables, metric, frame bracket, potential and Hamiltonian
gradients on a fixed set of points, with the coordinate gradients the
identity checks need (the symbolic partials of the expression tables,
evaluated with their values).  A cloud of any size works;
``checks.verify_group`` builds one per chunk of ``checks.CHUNK`` sample
points, so what a cloud keeps is bounded by the chunk.  No check reads
g_{ij}, so nothing here inverts the metric.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .catalog import GroupModel, eval_table, eval_table_jet

__all__ = ["SingularMetric", "SampleCloud", "metric_batch", "frame_metric_batch", "frame_bracket"]

_DET_GUARD = 1e-12

#: Tables whose gradients two or more checks read (both frame metrics read
#: those of e_con and dual), or whose values and gradients are both read
#: (frame_basis); the sample cloud keeps their jets, and their values are
#: those of the jets, so no table is evaluated twice.
_SHARED_JETS = frozenset({"xi", "dual", "e_con", "holo_basis", "frame_basis"})


class SingularMetric(ArithmeticError):
    """The assembled metric is (numerically) degenerate."""


def metric_batch(model: GroupModel, points, tetrad=None) -> tuple[np.ndarray, np.ndarray]:
    """(g_con, dg_con) at points (n, 4).

    g_con is assembled from the contravariant tetrad, g^{ij} =
    eta^{ab} e_a^i e_b^j (for the flat-fourth-direction entries eta is the
    embedded 3x3 block completed by 1).  dg_con has shape (n, 4, 4, 4) with
    axis 1 the derivative direction.  The contractions are pairwise batched
    matmuls over the 4x4 index blocks.  ``tetrad`` is the (values,
    gradients) pair of ``model.e_con`` at the points, when it has been
    evaluated already.  Raises ``SingularMetric`` where det g^{ij} is below
    the guard.
    """
    econ, decon = eval_table_jet(model.e_con, points) if tetrad is None else tetrad
    t = model.eta_con() @ econ  # eta^{ab} e_b^j, (n,a,j)
    g = econ.transpose(0, 2, 1) @ t
    dets = np.linalg.det(g)
    if np.any(np.abs(dets) < _DET_GUARD):
        raise SingularMetric(f"metric determinant below guard ({np.min(np.abs(dets)):.3e})")
    dg = decon.transpose(0, 1, 3, 2) @ t[:, None]
    dg = dg + dg.transpose(0, 1, 3, 2)
    return g, dg


def frame_metric_batch(g, dg, dual, ddual) -> tuple[np.ndarray, np.ndarray]:
    """G^{ab} = xi^a_i xi^b_j g^{ij} (n, a, b) and d_l G^{ab} (n, l, a, b)
    from the metric (n, i, j), its gradient (n, l, i, j), the dual frame
    xi^a_i as (n, i, a) and its gradient (n, l, i, a).

    Pairwise batched matmuls; the two dual-derivative terms of the gradient
    are one product and its (a, b) transpose, since g is symmetric.  The
    right factor of xi^a_i d_l g^{ij} xi^b_j is one (16x4)(4x4) product per
    point.
    """
    n = len(dual)
    dual_t = dual.transpose(0, 2, 1)
    gd = g @ dual  # g^{ij} xi^b_j
    dG = ddual.transpose(0, 1, 3, 2) @ gd[:, None]  # d_l xi^a_i g^{ij} xi^b_j
    dG = dG + dG.transpose(0, 1, 3, 2)
    dG += ((dual_t[:, None] @ dg).reshape(n, 16, 4) @ dual).reshape(n, 4, 4, 4)
    return dual_t @ gd, dG


def frame_bracket(xi, dxi) -> np.ndarray:
    """The frame Lie bracket [xi_a, xi_b]^i = xi_a^j d_j xi_b^i -
    xi_b^j d_j xi_a^i as (n, a, b, i), from ``xi`` (n, a, i) and ``dxi``
    (n, j, a, i) = d_j xi_a^i."""
    n = len(xi)
    bracket = (xi @ dxi.reshape(n, 4, 16)).reshape(n, 4, 4, 4)  # xi_a^j d_j xi_b^i
    return bracket - bracket.transpose(0, 2, 1, 3)


class SampleCloud:
    """One catalog entry's sample points (and momenta), evaluated once.

    Every verification check is a pure function of a cloud and the
    tolerances, and reads the tables only through the cloud.  Everything is
    evaluated on first use, and the cloud keeps only what two or more
    checks read: the jets of the tables in ``_SHARED_JETS`` (their values
    are those of the jets), the metric g^{ij} with d_l g^{ij}, and the frame
    Lie bracket.  The values and jets of the other tables, each read by one
    check, the potential A_i, d_l A_i (two small contractions of the shared
    ``holo_basis`` jets) and the gradients of H are computed on each call;
    the frame-Killing check builds G^{ab} per block with
    ``frame_metric_batch``.

    ``with_model(model.with_eta(eta))`` gives the cloud of the same points
    under another frame metric: it shares every eta-independent evaluation
    and recomputes only the metric.
    """

    def __init__(self, model: GroupModel, points, momenta=None):
        self.model = model
        self.points = np.asarray(points, float)
        self.momenta = None if momenta is None else np.asarray(momenta, float)
        self._shared = {}  # eta-independent: the shared jets and the bracket

    def __len__(self) -> int:
        return len(self.points)

    def with_model(self, model: GroupModel) -> SampleCloud:
        """The cloud of the same points under ``model``, this cloud's entry
        under another frame metric (``GroupModel.with_eta``)."""
        other = SampleCloud(model, self.points, self.momenta)
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
        return eval_table(getattr(self.model, table), self.points)

    @cached_property
    def metric(self) -> tuple[np.ndarray, np.ndarray]:
        """(g^{ij}, d_l g^{ij}) under the model's frame metric."""
        return metric_batch(self.model, self.points, tetrad=self.jet("e_con"))

    @property
    def bracket(self) -> np.ndarray:
        """The frame Lie bracket [xi_a, xi_b]^i (n, a, b, i) (``frame_bracket``)."""
        return self._memo("bracket", lambda: frame_bracket(*self.jet("xi")))

    def potential(self, alphas, basis: str = "holo_basis") -> tuple[np.ndarray, np.ndarray]:
        """A_i = alpha_b T^b_i (n, 4) and d_l A_i (n, 4, 4) for the potential
        constants ``alphas`` over the basis-wise table ``basis`` (see ``jet``)."""
        alphas = np.asarray(alphas, float)
        vals, grads = self.jet(basis)
        return np.einsum("b,...bi->...i", alphas, vals), np.einsum("b,...bi->...i", alphas, grads)

    def hamiltonian_grads(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """dH/du (n, l) and dH/dp (n, i) of H = g^{ij} P_i P_j with
        P = p + A, at the cloud's momenta.

        The potential term is contracted pairwise as d_l A_i (g^{ij} P_j).
        """
        g, dg = self.metric
        A, dA = self.potential(alphas)
        P = self.momenta + A
        gP = np.einsum("nij,nj->ni", g, P)
        dH = np.einsum("nlij,ni,nj->nl", dg, P, P) + 2.0 * np.einsum("nli,ni->nl", dA, gP)
        return dH, 2.0 * gP

