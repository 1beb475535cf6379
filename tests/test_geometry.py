"""Metric assembly, field strength, frame metric."""
import math

import numpy as np
import pytest

from g4motions import geometry, mechanics
from g4motions.catalog import GroupId, GroupParams, eval_table, eval_table_jet, get_group
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


ALL_PLUS = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))
DIAG_2 = tuple(tuple(2.0 * (i == j) for j in range(4)) for i in range(4))


def test_singular_metric_raises_under_every_signature(models):
    """The guard reads the tetrad's determinants, which the clouds of
    ``with_model`` share: each signature's metric still trips it."""
    model = models[GroupId.G4_I_CNE1]
    cloud = SampleCloud(model, np.array([[0.0, 0.0, 0.0, -8.0]]))
    for m in (model, model.with_eta(ALL_PLUS), model.with_eta(DIAG_2)):
        with pytest.raises(SingularMetric):
            cloud.with_model(m).metric


def test_guard_determinant_equals_metric_determinant(models, samples):
    """det(eta^{ab}) det(e_a^i)^2, the guard's determinant, against the
    LAPACK determinant of the assembled g^{ij}, under both signatures and
    under diag(2, 2, 2, 2), whose det(eta^{ab}) is not +-1."""
    for gid, model in models.items():
        cloud = SampleCloud(model, samples[gid][0])
        for c in (cloud, *(cloud.with_model(model.with_eta(eta)) for eta in (ALL_PLUS, DIAG_2))):
            want = np.linalg.det(c.metric[0])
            got = geometry._metric_det(c.model.eta_con, c._tetrad_det)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, gid


def test_cloud_tables_equal_one_table_evaluations(models, samples):
    """Every table a cloud serves, from its one plan evaluation, is the
    one-table evaluation of that table, bit for bit."""
    for gid, model in models.items():
        points = samples[gid][0]
        cloud = SampleCloud(model, points)
        served = [name for name in geometry.TABLES if getattr(model, name) is not None]
        assert len(served) == 8 + (model.reference_frame is not None), gid
        for name in served:
            table = getattr(model, name)
            want = eval_table_jet(table, points) if geometry.TABLES[name] else (eval_table(table, points),)
            got = cloud.jet(name)
            assert len(got) == len(want) and all(map(np.array_equal, got, want)), (gid, name)
            assert np.array_equal(cloud.values(name), want[0]), (gid, name)


def test_served_transposed_jets_equal_standard_jets_transposed():
    """The cloud's ``e_con_t`` and ``dual_t`` jets are the one-table jets of
    e_con and dual transposed, bit for bit, and its e_con and dual values
    are the one-table values."""
    for gid in GroupId:
        model = get_group(gid)
        for n in (200, 1024):
            points = mechanics.sample_phase_points(model, n, 42)[0]
            cloud = SampleCloud(model, points)
            for name, table in (("e_con_t", model.e_con), ("dual_t", model.dual)):
                vals, grads = eval_table_jet(table, points)
                got_vals, got_grads = cloud.jet(name)
                assert got_vals.flags.c_contiguous and got_grads.flags.c_contiguous, (gid, name)
                assert same_bits(got_vals, vals.transpose(0, 2, 1)), (gid, n, name)
                assert same_bits(got_grads, grads.transpose(0, 1, 3, 2)), (gid, n, name)
                assert same_bits(cloud.values(name[:-2]), vals), (gid, n, name)


def test_closed_form_tetrad_determinant_equals_lapack():
    """The guard's det(e_a^i), from the 2x2 minors, against LAPACK's within
    1e-12 relative on every entry's 1024-point sample under its own eta,
    all-plus and diag(2, 2, 2, 2); ``metric_batch`` without a tetrad, which
    evaluates the transposed table itself, gives the cloud's metric."""
    for gid in GroupId:
        entry = get_group(gid)
        points = mechanics.sample_phase_points(entry, 1024, 42)[0]
        for eta in (entry.params.eta, ALL_PLUS, DIAG_2):
            model = entry.with_eta(eta)
            cloud = SampleCloud(model, points)
            want = np.linalg.det(cloud.values("e_con"))
            assert np.max(np.abs(cloud._tetrad_det - want) / np.abs(want)) <= 1e-12, (gid, eta)
            g, dg = geometry.metric_batch(model, points)
            assert same_bits(g, cloud.metric[0]) and same_bits(dg, cloud.metric[1]), (gid, eta)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(*(np.ascontiguousarray(x).view(np.int64) for x in (a, b)))


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
