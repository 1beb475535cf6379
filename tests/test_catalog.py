"""Catalog entries: parameters, duality, potentials, orientation."""
import dataclasses
import math

import numpy as np
import pytest

from g4motions import catalog, checks, mechanics
from g4motions.adiff import coords
from g4motions.catalog import (
    GroupId,
    GroupParams,
    InvalidParams,
    eval_table,
    get_group,
    orient_tetrad,
    sample_points,
)
from g4motions.geometry import SampleCloud

U1, U2, U3, U4 = coords()


def test_all_fifteen_entries_build(models):
    assert len(models) == 15


def test_g4_i_structure_constants():
    model = get_group(GroupId.G4_I_CNE1, GroupParams(c=2.0))
    C = model.structure_constants
    assert C[0, 0, 3] == 2.0  # C^1_14 = c
    assert C[0, 1, 2] == 1.0  # C^1_23
    assert C[1, 1, 3] == 1.0  # C^2_24
    assert C[2, 2, 3] == 1.0  # C^3_34 = c - 1
    assert np.allclose(C, -C.transpose(0, 2, 1))


def test_g4_viii_frame_first_row(models):
    xi = eval_table(models[GroupId.G4_VIII_A].xi, np.array([[0.9, 0.2, -0.3, 0.7]]))
    assert np.allclose(xi[0, 0], [0.0, 1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "gid,params",
    [
        (GroupId.G4_I_CNE1, GroupParams(c=1.0)),
        (GroupId.G4_III, GroupParams(alpha_angle=math.pi)),
        (GroupId.G4_VI_4_1, GroupParams(k=1.0, eps01=1)),
        (GroupId.G4_VI_1, GroupParams(eps01=2)),
    ],
)
def test_invalid_parameters_rejected(gid, params):
    with pytest.raises(InvalidParams):
        get_group(gid, params)


@pytest.mark.parametrize("eps01", [0, 1])
def test_g4_vi_4_1_passes_at_its_smallest_gap(eps01, tol):
    """At |k - eps01| = ``VI_4_1_MIN_GAP`` the entry passes every asserted
    check, on both sides of eps01; just inside the gap it is refused."""
    gap = catalog.VI_4_1_MIN_GAP
    for k in (eps01 - gap, eps01 + gap):
        model = get_group(GroupId.G4_VI_4_1, GroupParams(k=k, eps01=eps01))
        for seed in (42, 7):
            points, momenta = mechanics.sample_phase_points(model, 2000, seed)
            failed = [r.name for r in checks.verify_group(model, points, momenta, tol)
                      if r.asserted and not r.passed]
            assert failed == [], (k, seed)
        with pytest.raises(InvalidParams, match="g4-vi-4-2"):
            get_group(GroupId.G4_VI_4_1, GroupParams(k=np.nextafter(k, eps01), eps01=eps01))


def test_g4_iii_passes_at_its_smallest_sin(tol):
    """At |sin(alpha_angle)| = ``G4_III_MIN_SIN``, near 0, near pi and
    below 0, the entry passes every asserted check; one step closer to a
    zero of the sine it is refused."""
    bound = catalog.G4_III_MIN_SIN
    near = math.asin(bound)
    for zero, start in ((0.0, near), (math.pi, math.pi - near), (0.0, -near)):
        a = start
        while abs(math.sin(a)) < bound:  # asin and pi - x round; step away from the zero
            a = np.nextafter(a, math.pi / 2 if a > 0 else -math.pi / 2)
        model = get_group(GroupId.G4_III, GroupParams(alpha_angle=float(a)))
        for seed in (42, 7):
            points, momenta = mechanics.sample_phase_points(model, 2000, seed)
            failed = [r.name for r in checks.verify_group(model, points, momenta, tol)
                      if r.asserted and not r.passed]
            assert failed == [], (a, seed)
        below = np.nextafter(a, zero)
        while abs(math.sin(below)) >= bound:
            below = np.nextafter(below, zero)
        with pytest.raises(InvalidParams, match=r"\|sin\(alpha_angle\)\| >= 0.03125"):
            get_group(GroupId.G4_III, GroupParams(alpha_angle=float(below)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("c", math.inf),
        ("alpha_angle", math.nan),
        ("k", -math.inf),
        ("l", math.nan),
        ("em_alphas", (1.0, math.inf, 1.0, 1.0)),
        ("eta", ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, math.nan, 0), (0, 0, 0, -1))),
    ],
)
def test_non_finite_parameters_rejected(field, value):
    # get_group(G4_I_CNE1, GroupParams(c=inf)) does not return, so refuse at construction
    with pytest.raises(InvalidParams, match=field):
        GroupParams(**{field: value})


def test_degenerate_eta_rejected():
    eta = tuple(tuple(0.0 for _ in range(4)) for _ in range(4))
    with pytest.raises(InvalidParams):
        get_group(GroupId.G4_II, GroupParams(eta=eta))


def test_sample_points_respect_domain(models):
    dom = models[GroupId.G4_VIII_A].domain
    pts = sample_points(dom, 3, seed=42)
    assert pts.shape == (3, 4)
    assert np.all(pts[:, 0] >= 0.2) and np.all(pts[:, 0] <= math.pi - 0.2)


def test_sample_points_deterministic(models):
    dom = models[GroupId.G4_II].domain
    assert np.array_equal(sample_points(dom, 10, 5), sample_points(dom, 10, 5))


def test_sample_points_zero_count(models):
    assert sample_points(models[GroupId.G4_II].domain, 0, 1).shape == (0, 4)


def test_frame_duality_all_entries(clouds, tol):
    from g4motions.checks import check_duality, check_tetrad_duality

    for gid, cloud in clouds.items():
        assert check_duality(cloud, tol).max_residual <= 1e-12, gid
        assert check_tetrad_duality(cloud, tol).max_residual <= 1e-12, gid


def test_potential_g4_i_at_origin():
    model = get_group(GroupId.G4_I_CNE1, GroupParams(c=2.0))
    A, _ = SampleCloud(model, np.zeros((1, 4))).potential(model.params.alphas())
    assert np.allclose(A[0], [1.0, 1.0, 1.0, 1.0])


def test_potential_abelian_entry_structure():
    # diagonal block: A_a = alpha_a exp(-C_a^a u4), A_4 = -C_a^a u^a A_a + alpha_4
    params = GroupParams(k=2.0, l=3.0, eps01=1)
    model = get_group(GroupId.G4_VI_1, params)
    u = np.array([0.4, -0.7, 1.1, 0.3])
    diag = np.array([3.0, 1.0, 2.0])
    Aa = np.exp(-diag * u[3])
    expected4 = -np.sum(diag * u[:3] * Aa) + 1.0
    A = SampleCloud(model, u[None]).potential(model.params.alphas())[0][0]
    assert np.allclose(A[:3], Aa, atol=1e-15)
    assert A[3] == pytest.approx(expected4, rel=1e-14)


def test_potential_linear_in_constants(models):
    rng = np.random.default_rng(2)
    for gid, model in models.items():
        cloud = SampleCloud(model, sample_points(model.domain, 1, 9))
        a1, a2 = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        lhs = cloud.potential(a1 + a2)[0]
        rhs = cloud.potential(a1)[0] + cloud.potential(a2)[0]
        assert np.allclose(lhs, rhs, atol=1e-13), gid
        assert np.allclose(cloud.potential(np.zeros(4))[0], 0.0), gid


def test_tetrad_potential_reproduces_table_for_exact_entries(models, samples):
    # entries whose stored holonomic table is the tetrad potential verbatim
    for gid in (
        GroupId.G4_I_CNE1,
        GroupId.G4_I_CEQ1,
        GroupId.G4_II,
        GroupId.G4_V,
        GroupId.G4_VII_A,
        GroupId.G4_VIII_A,
    ):
        model = models[gid]
        cloud = SampleCloud(model, samples[gid][0][:50])
        alphas = model.params.alphas()
        diff = cloud.potential(alphas, "tetrad_basis")[0] - cloud.potential(alphas)[0]
        assert np.max(np.abs(diff)) <= 1e-10, gid


def test_tetrad_potential_g4_ii_origin_component(models):
    # first holonomic component of the tetrad potential at the origin, from
    # an independent numeric evaluation of the tetrad matrix: row i=1 of
    # e^alpha_i at u=0 is (0, 0, -1, 0), so A_1 = -alpha_3
    model = models[GroupId.G4_II]
    A, _ = SampleCloud(model, np.zeros((1, 4))).potential(np.ones(4), "tetrad_basis")
    assert A[0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_orientation_decisions(models):
    resolved = {gid: m.orientation for gid, m in models.items()}
    assert all(o is not None for o in resolved.values())
    # diagonal/symmetric tetrads cannot distinguish the readings
    assert resolved[GroupId.G4_IV].status == "ambiguous"
    assert resolved[GroupId.G4_V].status == "ambiguous"
    # the rest resolve deterministically to the stored reading
    for gid, o in resolved.items():
        if gid not in (GroupId.G4_IV, GroupId.G4_V):
            assert o.status == "resolved", (gid, o)
        assert o.rows_are_coordinates
        assert o.duality_residual <= 1e-12


def test_orientation_identity_tetrad_is_ambiguous():
    flat = get_group(GroupId.G4_VI_1, GroupParams(k=0.0, l=0.0, eps01=0))
    fixture = dataclasses.replace(flat, tetrad_printed=True)
    decision = orient_tetrad(fixture)
    assert decision.status == "ambiguous"


def test_orientation_relabeling_recorded_for_g4_iii(models):
    # tables agree only up to a constant permutation of alpha1..alpha3
    R = models[GroupId.G4_III].orientation.relabel
    assert R is not None
    assert not np.allclose(R, np.eye(4))


def test_abelian_frame_table_solves_transport_equation(models, samples):
    """dA_a/du4 = -C_a^b A_b for the stored frame table of the vi-* entries
    (cross-checked against the matrix exponential in test_checks)."""
    from g4motions.catalog import ABELIAN_SUBGROUP_IDS, eval_table_jet

    for gid in ABELIAN_SUBGROUP_IDS:
        model = models[gid]
        pts = samples[gid][0][:40]
        vals, grads = eval_table_jet(model.frame_basis, pts)  # (n,b,a), (n,l,b,a)
        for b in range(4):
            dA4 = grads[:, 3, b, :3]
            rhs = -np.einsum("pq,nq->np", model.abelian_block, vals[:, b, :3])
            assert np.max(np.abs(dA4 - rhs)) <= 1e-12, (gid, b)


def test_catalog_entry_dump(models):
    entry = catalog.catalog_entry(models[GroupId.G4_VIII_A])
    triples = {(c["gamma"], c["alpha"], c["beta"]): c["value"] for c in entry["structure_constants"]}
    assert triples == {(3, 1, 2): 1.0, (1, 2, 3): 1.0, (2, 3, 1): 1.0}
    assert entry["domain"]["excluded"] == "sin(u1) = 0"

