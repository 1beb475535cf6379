"""Metric assembly, field strength, frame metric."""
import math

import numpy as np
import pytest

from g4motions.catalog import GroupId, GroupParams, get_group
from g4motions.geometry import SampleCloud, SingularMetric
from oracles import frame_metric, frame_metric_cov, metric_cov

ETA_LORENTZ = np.diag([1.0, -1.0, -1.0, -1.0])


def flat_model():
    # zero Abelian block: identity tetrad, metric = eta everywhere
    return get_group(GroupId.G4_VI_1, GroupParams(k=0.0, l=0.0, eps01=0))


def faraday(model, points, alphas=None, basis="holo_basis"):
    """F_ij = d_i A_j - d_j A_i (n, i, j) from the cloud's potential gradient."""
    alphas = model.params.alphas() if alphas is None else alphas
    _, dA = SampleCloud(model, np.atleast_2d(points)).potential(alphas, basis)
    return dA - dA.transpose(0, 2, 1)


def test_identity_tetrad_gives_eta():
    cloud = SampleCloud(flat_model(), np.array([[0.3, -0.2, 0.9, 1.1]]))
    g_con, g_cov = cloud.metric[0], metric_cov(cloud)
    assert np.allclose(g_cov[0], ETA_LORENTZ, atol=1e-15)
    assert np.allclose(g_con[0], ETA_LORENTZ, atol=1e-15)


def test_g4_i_metric_is_eta_at_origin(models):
    g_cov = metric_cov(SampleCloud(models[GroupId.G4_I_CNE1], np.zeros((1, 4))))
    assert np.allclose(g_cov[0], ETA_LORENTZ, atol=1e-15)


def test_g4_viii_metric_against_independent_transcription(models):
    """Re-evaluate g^{ij} = delta_4 delta_4 + e_a^i e_b^j eta^{ab} from the
    tabulated tetrad entries hand-coded here, at one concrete point."""
    u = np.array([math.pi / 2, 0.3, 0.4, 0.0])
    s3, c3 = math.sin(0.4), math.cos(0.4)
    # at u1 = pi/2: sin u1 = 1, cos u1 = 0
    e_con = np.array(
        [
            [c3, s3, 0.0, 0.0],
            [-s3, c3, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    eta3_con = np.linalg.inv(np.diag([1.0, -1.0, -1.0]))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    expected[:, :] += np.einsum("ab,ai,bj->ij", eta3_con, e_con[:3], e_con[:3])
    g_con, _ = SampleCloud(models[GroupId.G4_VIII_A], u[None]).metric
    assert np.allclose(g_con[0], expected, atol=1e-14)


def test_metric_inversion_residual_all_entries(models, samples):
    for gid, model in models.items():
        cloud = SampleCloud(model, samples[gid][0])
        g, ginv = cloud.metric[0], metric_cov(cloud)
        resid = np.max(np.abs(np.einsum("nij,njk->nik", g, ginv) - np.eye(4)))
        assert resid <= 1e-10, gid


def test_metric_inversion_residual_euclidean_eta(samples):
    eta = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))
    for gid in GroupId:
        model = get_group(gid, GroupParams(eta=eta))
        cloud = SampleCloud(model, samples[gid][0][:60])
        g, ginv = cloud.metric[0], metric_cov(cloud)
        resid = np.max(np.abs(np.einsum("nij,njk->nik", g, ginv) - np.eye(4)))
        assert resid <= 1e-10, gid


def test_singular_metric_raises(models):
    # far outside the sampling box the exponential tetrad degenerates
    # numerically and the determinant guard must trip
    with pytest.raises(SingularMetric):
        SampleCloud(models[GroupId.G4_I_CNE1], np.array([[0.0, 0.0, 0.0, -8.0]])).metric


def test_faraday_zero_for_zero_constants(models):
    F = faraday(models[GroupId.G4_II], [0.2, 0.4, -0.6, 0.8], alphas=np.zeros(4))
    assert np.allclose(F, 0.0)


def test_faraday_antisymmetric(models, samples):
    for gid, model in models.items():
        F = faraday(model, samples[gid][0][:50])
        assert np.array_equal(F, -F.transpose(0, 2, 1)), gid


def test_faraday_g4_i_single_constant():
    # alpha = (1,0,0,0), c = 2: A_1 = exp(-u4), so F_14 = -d4 A_1 = exp(-u4)
    model = get_group(GroupId.G4_I_CNE1, GroupParams(c=2.0))
    u = np.array([0.3, -0.5, 0.8, 0.6])
    F = faraday(model, u, alphas=[1.0, 0.0, 0.0, 0.0])[0]
    expected = math.exp(-u[3])
    assert F[0, 3] == pytest.approx(expected, rel=1e-14)
    off = F.copy()
    off[0, 3] = off[3, 0] = 0.0
    assert np.allclose(off, 0.0)


def test_frame_metric_identity_frame():
    model = flat_model()
    cloud = SampleCloud(model, np.array([[0.1, 0.2, 0.3, 0.4]]))
    g_con, g_cov = cloud.metric[0], metric_cov(cloud)
    G_con, _ = frame_metric(cloud)
    assert np.allclose(G_con, g_con, atol=1e-14)
    assert np.allclose(frame_metric_cov(cloud), g_cov, atol=1e-14)


def test_frame_metric_symmetric_and_inverse_pair(models, samples):
    for gid, model in models.items():
        cloud = SampleCloud(model, samples[gid][0][:60])
        G_con, G_cov = frame_metric(cloud)[0], frame_metric_cov(cloud)
        assert np.allclose(G_con, G_con.transpose(0, 2, 1), atol=1e-12), gid
        prod = np.einsum("nab,nbc->nac", G_con, G_cov)
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-10, gid


def test_frame_metric_two_route_consistency(models, samples):
    """G^{ab} via the dual frame vs inverting G_{ab} built from xi."""
    model = models[GroupId.G4_I_CNE1]
    cloud = SampleCloud(model, samples[GroupId.G4_I_CNE1][0][:80])
    G_con, G_cov = frame_metric(cloud)[0], frame_metric_cov(cloud)
    assert np.max(np.abs(G_con - np.linalg.inv(G_cov))) <= 1e-10
