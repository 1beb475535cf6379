"""The chunked battery of ``checks.verify_group``.

An entry's sample is checked ``CHUNK`` points at a time and the chunks'
results are merged.  Every residual is a max, so the merged results must
equal those of one cloud over the whole sample, bit for bit, with the
notes of the whole sample; and the battery's memory must not grow with the
number of points.
"""
import tracemalloc

import numpy as np
import pytest

from g4motions import catalog, checks, cli, geometry, mechanics
from g4motions.catalog import ABELIAN_SUBGROUP_IDS, GroupId, GroupModel, GroupParams, get_group
from g4motions.checks import BATTERY, BLOCK, CHUNK, merge_chunks, verify_group
from g4motions.geometry import SampleCloud

SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37)
EUCLIDEAN = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def _sample(gid, n, seed=3):
    model = get_group(gid)
    return model, *mechanics.sample_phase_points(model, n, seed)


def test_chunk_is_a_multiple_of_block():
    assert CHUNK % BLOCK == 0 and CHUNK > 0


@pytest.mark.parametrize("n", SIZES)
def test_chunked_results_equal_whole_cloud(n, tol, monkeypatch):
    """Both signatures: the entry's frame metric and the all-plus one."""
    for gid in GroupId:
        model, points, momenta = _sample(gid, n)
        chunked = verify_group(model, points, momenta, tol)
        with monkeypatch.context() as m:
            m.setattr(checks, "CHUNK", n + 1)
            whole = verify_group(model, points, momenta, tol)
        assert chunked == whole, gid
        assert {r.n_points for r in chunked} <= {0, n}, gid


def _report_names(model, label, alt_label):
    """An entry's check names in report order, written out by hand."""
    basis = [f"alpha{b}" for b in range(1, 5)]
    return [
        "frame_duality",
        "tetrad_duality",
        "lie_closure",
        "jacobi",
        "potential_consistency",
        f"killing[eta={label}]",
        f"frame_killing[eta={label}]",
        *(f"admissibility[{mode}:{a}]" for mode in ("holonomic", "tetrad") for a in basis),
        *(f"frame_defining[{a}]" for a in basis),
        *(["frame_table_crosscheck"] if model.reference_frame is not None else []),
        *(["abelian_zero_field"] if model.group_id in ABELIAN_SUBGROUP_IDS else []),
        "integral_algebra",
        f"hamiltonian_commutes[eta={label}]",
        f"killing[eta={alt_label}]",
        f"frame_killing[eta={alt_label}]",
        f"hamiltonian_commutes[eta={alt_label}]",
    ]


def test_one_chunk_is_the_battery_on_one_cloud(models, samples, tol):
    """The checks called one by one on one cloud, then the metric-reading
    ones on the same cloud under all-plus, give the chunk's results, in the
    report order written out by ``_report_names``."""
    for gid, model in models.items():
        points, momenta = samples[gid]
        got = verify_group(model, points, momenta, tol)
        cloud = SampleCloud(model, points, momenta)
        alt = cloud.with_model(model.with_eta(EUCLIDEAN))
        want = []
        for c, rows in ((cloud, BATTERY), (alt, [row for row in BATTERY if row[1]])):
            for check, _ in rows:
                res = check(c, tol)
                want += [res] if isinstance(res, checks.CheckResult) else res or []
        assert [r.max_residual for r in got] == [r.max_residual for r in want], gid
        assert [r.notes for r in got] == [r.notes for r in want], gid
        label = checks._eta_label(model.eta_eff)
        assert label != "++++"
        assert [r.name for r in got] == _report_names(model, label, "++++"), gid


def test_crosscheck_merges_components_before_its_notes(tol):
    """The first part's notes differ from the whole sample's; the merge
    writes the notes of the merged per-component maxima."""
    model, points, momenta = _sample(GroupId.G4_III, 200, seed=42)
    edges = (0, 13, 150, 200)
    parts = [verify_group(model, points[a:b], momenta[a:b], tol) for a, b in zip(edges, edges[1:])]
    whole = checks.check_frame_table_crosscheck(SampleCloud(model, points, momenta), tol)
    (first,) = (r for r in parts[0] if r.name == "frame_table_crosscheck")
    assert first.notes != whole.notes
    (merged,) = (r for r in merge_chunks(parts) if r.name == "frame_table_crosscheck")
    assert merged == whole and merged.n_points == 200


def test_memory_bounded_by_the_chunk(tol):
    """tracemalloc peak of one entry's battery at 8 chunks against 1."""
    model, points, momenta = _sample(GroupId.G4_III, 8 * CHUNK)
    verify_group(model, points[:8], momenta[:8], tol)  # plans and memos built

    def peak(n):
        tracemalloc.start()
        try:
            verify_group(model, points[:n], momenta[:n], tol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * CHUNK) <= 1.25 * peak(CHUNK)


def test_per_entry_work_built_once(tol, monkeypatch):
    """The alternate-signature model and the eta labels are built once per
    entry, not once per chunk."""
    calls = {"with_eta": 0, "label": 0}
    real_with_eta, real_label = GroupModel.with_eta, checks._eta_label

    def with_eta(self, eta):
        calls["with_eta"] += 1
        return real_with_eta(self, eta)

    def label(eta):
        calls["label"] += 1
        return real_label(eta)

    monkeypatch.setattr(GroupModel, "with_eta", with_eta)
    monkeypatch.setattr(checks, "_eta_label", label)
    model, points, momenta = _sample(GroupId.G4_II, 2 * CHUNK + 37)
    verify_group(model, points, momenta, tol)
    assert calls == {"with_eta": 1, "label": 2}


def test_frame_basis_evaluated_once_per_cloud(tol, monkeypatch):
    model, points, momenta = _sample(GroupId.G4_I_CNE1, 50)
    seen = []
    for name in ("eval_table", "eval_table_jet"):
        real = getattr(geometry, name)

        def record(table, pts, real=real, name=name):
            if table is model.frame_basis:
                seen.append(name)
            return real(table, pts)

        monkeypatch.setattr(geometry, name, record)
    cloud = SampleCloud(model, points, momenta)
    for check, _ in BATTERY:
        check(cloud, tol)
    assert seen == ["eval_table_jet"]
    values = cloud.values("frame_basis")
    assert np.array_equal(values, catalog.eval_table(model.frame_basis, points))
    assert seen == ["eval_table_jet"]


def test_default_params_read_without_building_params(monkeypatch):
    built = []
    monkeypatch.setattr(GroupParams, "__post_init__", lambda self: built.append(self))
    cli._parse_params(["alpha2=3"])
    assert len(built) == 1 and built[0].em_alphas == (1.0, 3.0, 1.0, 1.0)
