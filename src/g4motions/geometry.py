"""Metric tensors from tetrads, and the sample cloud that every verification
check reads.

All index gymnastics used by the verification suite lives here.
``metric_batch`` assembles the metric g^{ij} on (n, 4) point arrays together
with its coordinate gradient, and ``frame_metric_batch`` the frame metric
G^{ab} with its gradient from them; both are per-point products, so they
give the same bits on any slice of the points.  ``SampleCloud`` evaluates one
entry's tables (in one plan evaluation, with the symbolic partials the
identity checks need), metric, potential and Hamiltonian gradients on a
fixed set of points.  A cloud of any size works; ``checks.verify_group``
builds one per chunk of ``checks.CHUNK`` sample points, so what a cloud
keeps is bounded by the chunk.  No check reads g_{ij}, so nothing here
inverts the metric.

The metric products contract the tetrad e_a^i and the dual frame xi^a_i
over either index, so the cloud serves both also transposed
(``GroupModel.e_con_t`` and ``dual_t``), with their gradients in that
layout only: every product then reads contiguous operands, and none copies
a jet into another order.  A transposed table is the same expressions in
another order, so the one plan evaluation still evaluates each of them
once.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .catalog import GroupModel, eval_table_jet, eval_tables

__all__ = ["SingularMetric", "SampleCloud", "metric_batch", "frame_metric_batch"]

_DET_GUARD = 1e-12

#: The tables a cloud serves, and whether a check reads their gradients;
#: e_cov is served as its transpose, ``tetrad_basis``.  The gradients of
#: e_con and dual are served transposed only, d_l e_a^i as (n, l, i, a) and
#: d_l xi^a_i as (n, l, a, i), the layout the metric products contract.
TABLES = {"xi": True, "dual": False, "dual_t": True, "e_con": False, "e_con_t": True,
          "tetrad_basis": True, "holo_basis": True, "frame_basis": True, "reference_frame": False}


class SingularMetric(ArithmeticError):
    """The assembled metric is (numerically) degenerate."""


def metric_batch(model: GroupModel, points, tetrad=None, tetrad_det=None) -> tuple[np.ndarray, np.ndarray]:
    """(g_con, dg_con) at points (n, 4).

    g_con is assembled from the contravariant tetrad, g^{ij} =
    eta^{ab} e_a^i e_b^j (for the flat-fourth-direction entries eta is the
    embedded 3x3 block completed by 1).  dg_con has shape (n, 4, 4, 4) with
    axis 1 the derivative direction.  Each contraction is one matmul per
    point of contiguous operands (for d_l g^{ij}, a (16x4)(4x4) one).
    ``tetrad`` is the values of ``model.e_con`` at the points with the
    values and gradients of its transpose ``model.e_con_t``, and
    ``tetrad_det`` the determinants of the values, when evaluated already.
    Raises ``SingularMetric`` where det g^{ij} = det(eta^{ab}) det(e_a^i)^2
    is below the guard.
    """
    if tetrad is None:
        econ_t, decon_t = eval_table_jet(model.e_con_t, points)
        tetrad = np.ascontiguousarray(econ_t.transpose(0, 2, 1)), econ_t, decon_t
    econ, econ_t, decon_t = tetrad
    eta_con = model.eta_con
    dets = _metric_det(eta_con, _det4(econ) if tetrad_det is None else tetrad_det)
    if np.any(np.abs(dets) < _DET_GUARD):
        raise SingularMetric(f"metric determinant below guard ({np.min(np.abs(dets)):.3e})")
    t = eta_con @ econ  # eta^{ab} e_b^j, (n,a,j)
    g = econ_t @ t
    dg = (decon_t.reshape(-1, 16, 4) @ t).reshape(decon_t.shape)
    dg = dg + dg.transpose(0, 1, 3, 2)  # X + X^T: symmetric in (i, j) bit for bit
    return g, dg


#: Column pairs (j, k) of the 2x2 minors, in order: the pair at position q
#: and the one at 5 - q are complementary.
_MINOR_J, _MINOR_K = np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])
_MINOR_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _det4(m) -> np.ndarray:
    """det m (n,) of the (n, 4, 4) matrices, by the Laplace expansion over
    the 2x2 minors of rows 0-1 and 2-3.  It differs from LAPACK's
    determinant by rounding alone, and only the metric's guard reads it."""
    r = np.ascontiguousarray(m.reshape(-1, 16).T)  # row 4 i + j: m[:, i, j]
    j, k = _MINOR_J, _MINOR_K
    top = r[j] * r[4 + k] - r[k] * r[4 + j]
    bottom = r[8 + j] * r[12 + k] - r[8 + k] * r[12 + j]
    return _MINOR_SIGN @ (top * bottom[::-1])


def _metric_det(eta_con, tetrad_det) -> np.ndarray:
    return np.linalg.det(eta_con) * tetrad_det**2  # det g^{ij}: no per-point metric is factorized


def frame_metric_batch(g, dg, dual, dual_t, ddual_t) -> tuple[np.ndarray, np.ndarray]:
    """G^{ab} = xi^a_i xi^b_j g^{ij} (n, a, b) and d_l G^{ab} (n, l, a, b)
    from the metric (n, i, j), its gradient (n, l, i, j), the dual frame
    xi^a_i as (n, i, a), and as (n, a, i) with its gradient (n, l, a, i).

    Each product reads contiguous 4x4 blocks.  The two dual-derivative
    terms are one (16x4)(4x4) matmul per point and its (a, b) transpose,
    since g is symmetric.  xi^a_i d_l g^{ij} is one (4x4)(4x4) product per
    point and derivative index, which leaves it in the (a, j) layout that
    its (16x4)(4x4) product with the dual frame reads.
    """
    n = len(dual)
    gd = g @ dual  # g^{ij} xi^b_j
    dG = (ddual_t.reshape(n, 16, 4) @ gd).reshape(n, 4, 4, 4)  # d_l xi^a_i g^{ij} xi^b_j
    dG = dG + dG.transpose(0, 1, 3, 2)
    xdg = np.matmul(dual_t[:, None], dg)  # xi^a_i d_l g^{ij}, (n, l, a, j)
    dG += (xdg.reshape(n, 16, 4) @ dual).reshape(n, 4, 4, 4)
    return dual_t @ gd, dG


class SampleCloud:
    """One catalog entry's sample points (and momenta), evaluated once.

    Every verification check is a pure function of a cloud and the
    tolerances, and reads the tables only through the cloud.  The first
    read of a table evaluates all of ``TABLES`` that the entry has, in one
    plan evaluation (``catalog.eval_tables``), so a table that yields NaN or
    raises ``DomainError`` does so there, whichever check reads first; the
    cloud keeps them, and the metric g^{ij} with d_l g^{ij}, once evaluated.
    It keeps the eta-free potential A_i, d_l A_i of each (alphas, basis) it
    was asked for, and d_i Y_a, once computed; the gradients of H are
    computed on each call, and the check that reads G^{ab} builds it with
    ``frame_metric_batch``.

    ``with_model(model.with_eta(eta))`` gives the cloud of the same points
    under another frame metric: it shares every eta-independent evaluation
    (the tables, the tetrad determinants of the metric's guard, the
    potentials and d_i Y_a) and recomputes only the metric.
    """

    def __init__(self, model: GroupModel, points, momenta=None):
        self.model = model
        self.points = np.asarray(points, float)
        self.momenta = None if momenta is None else np.asarray(momenta, float)
        self._eta_free = {}  # potentials and d_i Y_a, shared by ``with_model``

    def __len__(self) -> int:
        return len(self.points)

    def with_model(self, model: GroupModel) -> SampleCloud:
        """The cloud of the same points under ``model``, this cloud's entry
        under another frame metric (``GroupModel.with_eta``)."""
        other = SampleCloud(model, self.points, self.momenta)
        other._jets, other._tetrad_det, other._eta_free = self._jets, self._tetrad_det, self._eta_free
        return other

    @cached_property
    def _jets(self) -> dict:
        names = [name for name in TABLES if getattr(self.model, name) is not None]
        tables = [getattr(self.model, name) for name in names]
        return dict(zip(names, eval_tables(tables, self.points, [TABLES[name] for name in names])))

    @cached_property
    def _tetrad_det(self) -> np.ndarray:
        return _det4(self.values("e_con"))

    def jet(self, table: str) -> tuple:
        """Values (n, r, c) and gradients (n, 4, r, c) of the model's table
        ``table`` (an attribute name, e.g. ``"xi"``); the values alone where
        ``TABLES`` says no check reads the gradients."""
        return self._jets[table]

    def values(self, table: str) -> np.ndarray:
        """Values (n, r, c) of the model's table ``table``."""
        return self.jet(table)[0]

    @cached_property
    def metric(self) -> tuple[np.ndarray, np.ndarray]:
        """(g^{ij}, d_l g^{ij}) under the model's frame metric."""
        return metric_batch(self.model, self.points, (self.values("e_con"), *self.jet("e_con_t")), self._tetrad_det)

    def potential(self, alphas, basis: str = "holo_basis") -> tuple[np.ndarray, np.ndarray]:
        """A_i = alpha_b T^b_i (n, 4) and d_l A_i (n, 4, 4) for the potential
        constants ``alphas`` over the basis-wise table ``basis`` (see ``jet``)."""
        alphas = np.asarray(alphas, float)
        key = (basis, alphas.tobytes())  # by bytes: -0.0 and 0.0 give potentials of their own
        if key not in self._eta_free:
            vals, grads = self.jet(basis)
            self._eta_free[key] = np.einsum("b,...bi->...i", alphas, vals), np.einsum("b,...bi->...i", alphas, grads)
        return self._eta_free[key]

    @property
    def momentum_gradient(self) -> np.ndarray:
        """d_i Y_a = d_i xi_a^l p_l (n, i, a) at the cloud's momenta."""
        if "dY" not in self._eta_free:
            self._eta_free["dY"] = np.einsum("nial,nl->nia", self.jet("xi")[1], self.momenta)
        return self._eta_free["dY"]

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
