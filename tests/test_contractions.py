"""The batched-matmul contractions against the plain einsum expressions.

Each reference below is the index expression written out as a single
``np.einsum``; the library computes the same quantity as batched or flat
matmuls.  Both are compared at one seeded cloud per catalog entry and frame
metric.  The two sides of each identity check are read where the check hands
them to its residual (``checks.scaled_max``), so they are compared in the
layout the check uses.  The products merged into one matmul per point
are pinned bit for bit to their earlier per-block forms (``oracles``).
"""
import numpy as np
import pytest

from g4motions import catalog, checks, geometry, mechanics
from g4motions.catalog import GroupId, GroupParams, eval_table, eval_table_jet
from g4motions.geometry import SampleCloud
from oracles import (
    broadcast_frame_metric_gradient,
    broadcast_metric_gradient,
    fform_admissibility,
    frame_metric,
    per_basis_admissibility,
    per_basis_frame_defining,
)

REL_TOL = 1e-13
ETAS = {
    "+---": GroupParams().eta,
    "++++": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
}


def einsum_ref(spec, *ops):
    """The contraction and the same contraction of absolute values.

    The second is the scale of the rounding error of any summation order,
    so the comparison stays relative where the terms cancel to zero."""
    return np.einsum(spec, *ops), np.einsum(spec, *(np.abs(op) for op in ops))


def add(*refs):
    return sum(r[0] for r in refs), sum(r[1] for r in refs)


def scaled(ref, k):
    return k * ref[0], abs(k) * ref[1]


def transposed(ref, axes):
    return ref[0].transpose(axes), ref[1].transpose(axes)


def assert_matches(new, ref):
    value, scale = ref
    assert new.shape == value.shape
    err = np.abs(new - value)
    assert np.all(err <= REL_TOL * scale), float(np.max(err / np.where(scale > 0, scale, 1)))


@pytest.fixture(scope="module", params=list(ETAS), ids=list(ETAS))
def eta_models(request):
    params = GroupParams(eta=ETAS[request.param])
    return {gid: catalog.get_group(gid, params) for gid in GroupId}


@pytest.mark.parametrize("gid", list(GroupId), ids=[g.value for g in GroupId])
def test_contractions_match_einsum(gid, eta_models, samples):
    model = eta_models[gid]
    pts, momenta = samples[gid]

    econ, decon = eval_table_jet(model.e_con, pts)
    eta_con = model.eta_con()
    g, dg = geometry.metric_batch(model, pts)
    assert_matches(g, einsum_ref("ab,nai,nbj->nij", eta_con, econ, econ))
    half, half_scale = einsum_ref("ab,nlai,nbj->nlij", eta_con, decon, econ)
    sym = (0, 1, 3, 2)
    assert_matches(dg, (half + half.transpose(sym), half_scale + half_scale.transpose(sym)))

    dual, ddual = eval_table_jet(model.dual, pts)
    G_ref = einsum_ref("nia,njb,nij->nab", dual, dual, g)

    cloud = SampleCloud(model, pts, momenta)
    G, dG = frame_metric(cloud)
    assert_matches(G, G_ref)
    assert_matches(
        dG,
        add(
            einsum_ref("nlia,njb,nij->nlab", ddual, dual, g),
            einsum_ref("nia,nljb,nij->nlab", dual, ddual, g),
            einsum_ref("nia,njb,nlij->nlab", dual, dual, dg),
        ),
    )

    alphas = checks.admissible_alphas(model)
    A, dA = cloud.potential(alphas)
    P = momenta + A
    dH, dHdp = cloud.hamiltonian_grads(alphas)
    PP = einsum_ref("nlij,ni,nj->nl", dg, P, P)
    gdAP = einsum_ref("nij,nli,nj->nl", g, dA, P)
    assert_matches(dH, add(PP, gdAP, gdAP))
    assert_matches(dHdp, add(*[einsum_ref("nij,nj->ni", g, P)] * 2))


def record_sides(monkeypatch, module, name):
    """Record every (lhs, rhs) pair passed to ``module.name``."""
    calls = []
    real = getattr(module, name)

    def record(lhs, rhs):
        calls.append((lhs, rhs))
        return real(lhs, rhs)

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("gid", list(GroupId), ids=[g.value for g in GroupId])
def test_check_sides_match_einsum(gid, eta_models, samples, monkeypatch):
    model = eta_models[gid]
    pts, momenta = samples[gid]
    tol = checks.ToleranceConfig()
    cloud = SampleCloud(model, pts, momenta)
    C = model.structure_constants
    xi, dxi = cloud.jet("xi")
    dual = cloud.values("dual")
    g, dg = cloud.metric
    sym = (0, 1, 3, 2)

    sides = record_sides(monkeypatch, checks, "scaled_max")
    checks.check_lie_closure(cloud, tol)
    (bracket, target), = sides  # one reduction
    sides.clear()
    half = einsum_ref("naj,njbi->nabi", xi, dxi)
    assert_matches(bracket, add(half, scaled(transposed(half, (0, 2, 1, 3)), -1)))
    assert_matches(target, einsum_ref("gab,ngi->nabi", C, xi))

    checks.check_duality(cloud, tol)
    assert_matches(sides.pop()[0], einsum_ref("nai,nib->nab", xi, dual))
    checks.check_tetrad_duality(cloud, tol)
    cov = eval_table(model.e_cov, pts)
    assert_matches(sides.pop()[0], einsum_ref("nib,nai->nba", cov, cloud.values("e_con")))
    checks.check_potential_consistency(cloud, tol)
    frame = cloud.values("frame_basis")
    assert_matches(sides.pop()[0], einsum_ref("nia,nba->nbi", dual, frame))

    checks.check_killing(cloud, tol)
    lhs, rhs = sides.pop()
    half = einsum_ref("nil,nlaj->naij", g, dxi)
    assert_matches(lhs, add(half, transposed(half, sym)))
    assert_matches(rhs, einsum_ref("nlij,nal->naij", dg, xi))

    checks.check_frame_killing(cloud, tol)
    lhs, rhs = sides.pop()
    G, dG = frame_metric(cloud)
    assert_matches(lhs, einsum_ref("ngl,nlab->ngab", xi, dG))
    half = einsum_ref("nat,btg->ngab", G, C)
    assert_matches(rhs, add(half, transposed(half, sym)))

    for mode, table in (("holonomic", "holo_basis"), ("tetrad", "tetrad_basis")):
        checks.check_admissibility(cloud, tol, mode)
        vals, grads = cloud.jet(table)
        for b, (lhs, rhs) in enumerate(sides):
            assert_matches(lhs, einsum_ref("naj,nji->nia", xi, grads[:, :, b]))  # xi_a^j d_j A_i
            assert_matches(rhs, scaled(einsum_ref("niaj,nj->nia", dxi, vals[:, b]), -1))  # -A_j d_i xi_a^j
        assert len(sides) == 4
        sides.clear()

    checks.check_frame_defining(cloud, tol)
    vals, grads = cloud.jet("frame_basis")
    for b, (lhs, rhs) in enumerate(sides):
        assert_matches(lhs, einsum_ref("nbi,nia->nab", xi, grads[:, :, b]))
        assert_matches(rhs, einsum_ref("gba,ng->nab", C, vals[:, b]))
    assert len(sides) == 4
    sides.clear()

    checks.check_integral_algebra(cloud, tol)
    lhs, rhs = sides.pop()
    half = einsum_ref("nbi,nial,nl->nab", xi, dxi, momenta)  # xi_b^i d_i Y_a
    assert_matches(lhs, half)
    Y = np.einsum("nai,ni->na", xi, momenta)
    assert_matches(rhs, add(transposed(half, (0, 2, 1)), scaled(einsum_ref("gab,ng->nab", C, Y), -1)))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(
        *(np.ascontiguousarray(x).view(np.int64) for x in (a, b))
    )


@pytest.mark.parametrize("gid", list(GroupId), ids=[g.value for g in GroupId])
def test_merged_products_equal_per_block_bits(gid, monkeypatch):
    """The metric and frame-metric gradients and the sides of admissibility
    and frame_defining, each one matmul per point, equal their per-block
    forms bit for bit under the entry's eta, all-plus and diag(2, 2, 2, 2),
    at 200 and 1024 points; d_l g^{ij} is symmetric bit for bit, which the
    frame metric's merged product rests on.  The tetrad duality, which
    reads e_cov as tetrad_basis (its transpose) against e_con_t, equals the
    transposed product of e_con with e_cov."""
    tol = checks.ToleranceConfig()
    entry = catalog.get_group(gid)
    sides = record_sides(monkeypatch, checks, "scaled_max")
    for eta in (entry.params.eta, ETAS["++++"], tuple(tuple(2.0 * x for x in row) for row in ETAS["++++"])):
        model = entry.with_eta(eta)
        for n in (200, 1024):
            cloud = SampleCloud(model, *mechanics.sample_phase_points(model, n, 42))
            g, dg = cloud.metric
            assert same_bits(dg, dg.transpose(0, 1, 3, 2))
            assert same_bits(dg, broadcast_metric_gradient(model, *eval_table_jet(model.e_con, cloud.points)))
            dual_jet = eval_table_jet(model.dual, cloud.points)
            assert same_bits(frame_metric(cloud)[1], broadcast_frame_metric_gradient(g, dg, *dual_jet))
            for mode, table in (("holonomic", "holo_basis"), ("tetrad", "tetrad_basis")):
                checks.check_admissibility(cloud, tol, mode)
                want = per_basis_admissibility(cloud, table)
                assert len(sides) == len(want) == 4
                for (lhs, rhs), (lhs_ref, rhs_ref) in zip(sides, want):
                    assert same_bits(lhs, lhs_ref) and same_bits(rhs, rhs_ref), (eta, n, mode)
                sides.clear()
            checks.check_frame_defining(cloud, tol)
            want = per_basis_frame_defining(cloud)
            assert len(sides) == len(want) == 4
            assert all(same_bits(lhs, ref) for (lhs, _), ref in zip(sides, want)), (eta, n)
            sides.clear()
            checks.check_tetrad_duality(cloud, tol)
            (prod, _), = sides
            want = cloud.values("e_con") @ eval_table(model.e_cov, cloud.points)
            assert same_bits(prod, want.transpose(0, 2, 1)), (eta, n)
            sides.clear()


@pytest.mark.parametrize("gid", list(GroupId), ids=[g.value for g in GroupId])
def test_admissibility_lie_form_equals_fform(gid, monkeypatch):
    """The difference of the sides admissibility compares, the Lie
    derivative xi^j d_j A_i + A_j d_i xi^j, equals the source's long form
    d_i (xi^j A_j) - xi^j F_ij (``oracles.fform_admissibility``) elementwise,
    relative to the absolute terms of both, in both modes at 200 and 1024
    points."""
    tol = checks.ToleranceConfig()
    model = catalog.get_group(gid)
    sides = record_sides(monkeypatch, checks, "scaled_max")
    for n in (200, 1024):
        cloud = SampleCloud(model, *mechanics.sample_phase_points(model, n, 42))
        xi, dxi = cloud.jet("xi")
        for mode, table in (("holonomic", "holo_basis"), ("tetrad", "tetrad_basis")):
            checks.check_admissibility(cloud, tol, mode)
            vals, grads = cloud.jet(table)
            for b, ((lhs, rhs), (lhs_f, rhs_f)) in enumerate(zip(sides, fform_admissibility(cloud, table))):
                dA = np.abs(grads[:, :, b])
                scale = 1.0 + einsum_ref("niaj,nj->nia", dxi, vals[:, b])[1]  # |A_j| |d_i xi^j|
                scale += np.einsum("naj,nji->nia", np.abs(xi), dA + dA.transpose(0, 2, 1))  # |xi^j| (|d_j A_i| + |d_i A_j|)
                err = np.abs((lhs - rhs) - (lhs_f - rhs_f))
                assert np.all(err <= REL_TOL * scale), (n, mode, b, float(np.max(err / scale)))
            assert len(sides) == 4
            sides.clear()
