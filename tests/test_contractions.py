"""The batched-matmul contractions against the plain einsum expressions.

Each reference below is the index expression written out as a single
``np.einsum``; the library computes the same quantity as pairwise matmuls.
Both are compared at one seeded cloud per catalog entry and frame metric.
"""
import numpy as np
import pytest

from g4motions import catalog, checks, geometry
from g4motions.catalog import GroupId, GroupParams, eval_table, eval_table_jet
from g4motions.geometry import SampleCloud

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


def assert_matches(new, ref):
    value, scale = ref
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
    g, ginv, dg = geometry.metric_batch(model, pts)
    assert_matches(g, einsum_ref("ab,nai,nbj->nij", eta_con, econ, econ))
    half, half_scale = einsum_ref("ab,nlai,nbj->nlij", eta_con, decon, econ)
    sym = (0, 1, 3, 2)
    assert_matches(dg, (half + half.transpose(sym), half_scale + half_scale.transpose(sym)))

    dual, ddual = eval_table_jet(model.dual, pts)
    xi = eval_table(model.xi, pts)
    G_ref = einsum_ref("nia,njb,nij->nab", dual, dual, g)
    G_con, G_cov = geometry.frame_metric_batch(model, pts)
    assert_matches(G_con, G_ref)
    assert_matches(G_cov, einsum_ref("nai,nbj,nij->nab", xi, xi, ginv))

    cloud = SampleCloud(model, pts, momenta)
    G, dG = cloud.frame_metric()
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
