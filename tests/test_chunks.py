"""The chunked battery of ``checks.verify_group``.

An entry's sample is checked ``CHUNK`` points at a time and the chunks'
results are merged.  Every residual is a max, so the merged results must
equal those of one cloud over the whole sample, bit for bit, with the
bracket sign and the notes of the whole sample; and the battery's memory
must not grow with the number of points.
"""
import tracemalloc

import numpy as np
import pytest

from g4motions import adiff, catalog, checks, cli, geometry, mechanics
from g4motions.catalog import GroupId, GroupModel, GroupParams, get_group
from g4motions.checks import (
    BLOCK,
    CHUNK,
    CheckResult,
    merge_chunks,
    run_group_checks,
    verify_group,
)
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
        chunked = verify_group(model, points, momenta, tol, EUCLIDEAN)
        with monkeypatch.context() as m:
            m.setattr(checks, "CHUNK", n + 1)
            whole = verify_group(model, points, momenta, tol, EUCLIDEAN)
        assert chunked == whole, gid
        assert {r.n_points for r in chunked} <= {0, n}, gid


def test_one_chunk_is_the_battery_on_one_cloud(models, samples, tol):
    for gid, model in models.items():
        points, momenta = samples[gid]
        got = verify_group(model, points, momenta, tol, EUCLIDEAN)
        cloud = SampleCloud(model, points, momenta)
        want = run_group_checks(cloud, tol, eta_label="+---")
        alt = cloud.with_eta(EUCLIDEAN)
        want += [
            checks.check_killing(alt, tol),
            checks.check_frame_killing(alt, tol),
            mechanics.check_hamiltonian_commutes(alt, tol),
        ]
        assert [r.max_residual for r in got] == [r.max_residual for r in want], gid
        assert [r.notes for r in got] == [r.notes for r in want], gid
        assert [r.name for r in got[-3:]] == [
            "killing[eta=++++]",
            "frame_killing[eta=++++]",
            "hamiltonian_commutes[eta=++++]",
        ]


def _signed(name, plus, minus, n):
    """A sign-reading result under its own chunk's sign, as ``signed_result``
    builds it."""
    by_sign = {1: (plus, (f"{name} s=+1",)), -1: (minus, (f"{name} s=-1",))}
    own = min(by_sign, key=lambda s: by_sign[s][0])
    resid, notes = by_sign[own]
    return CheckResult(name, "g", n, resid, 0.5, notes=notes, by_sign=by_sign)


def test_sign_comes_from_the_whole_sample():
    """Chunk 0 alone closes best with s = +1, but over both chunks s = -1
    fits better: every sign-reading result takes s = -1."""
    chunk0 = [
        _signed("lie_closure", 0.1, 0.2, 10),
        _signed("frame_killing", 0.3, 0.05, 10),
        CheckResult("killing", "g", 10, 0.01, 0.5),
        CheckResult("jacobi", "g", 0, 1e-17, 0.5),
    ]
    chunk1 = [
        _signed("lie_closure", 0.9, 0.3, 7),
        _signed("frame_killing", 0.2, 0.07, 7),
        CheckResult("killing", "g", 7, 0.02, 0.5),
        CheckResult("jacobi", "g", 0, 1e-17, 0.5),
    ]
    assert merge_chunks([chunk0])[0].notes == ("lie_closure s=+1",)
    closure, frame, killing, jacobi = merge_chunks([chunk0, chunk1])
    assert (closure.max_residual, closure.notes) == (0.3, ("lie_closure s=-1",))
    assert closure.passed
    assert (frame.max_residual, frame.notes) == (0.07, ("frame_killing s=-1",))
    assert frame.by_sign == {
        1: (0.3, ("frame_killing s=+1",)),
        -1: (0.07, ("frame_killing s=-1",)),
    }
    assert (killing.max_residual, killing.n_points) == (0.02, 17)
    assert closure.n_points == frame.n_points == 17 and jacobi.n_points == 0


def test_sign_tie_picks_plus():
    chunks = [[_signed("lie_closure", 0.2, 0.1, 5)], [_signed("lie_closure", 0.1, 0.2, 5)]]
    assert merge_chunks(chunks)[0].notes == ("lie_closure s=+1",)


def test_crosscheck_merges_components_before_its_notes(tol):
    """The first part's notes differ from the whole sample's; the merge
    writes the notes of the merged per-component maxima."""
    model, points, momenta = _sample(GroupId.G4_III, 200, seed=42)
    edges = (0, 13, 150, 200)
    parts = [
        run_group_checks(SampleCloud(model, points[a:b], momenta[a:b]), tol)
        for a, b in zip(edges, edges[1:])
    ]
    whole = checks.check_frame_table_crosscheck(SampleCloud(model, points, momenta), tol)
    (first,) = (r for r in parts[0] if r.name == "frame_table_crosscheck")
    assert first.notes != whole.notes
    (merged,) = (r for r in merge_chunks(parts) if r.name == "frame_table_crosscheck")
    assert merged == whole and merged.n_points == 200


def test_memory_bounded_by_the_chunk(tol):
    """tracemalloc peak of one entry's battery at 8 chunks against 1."""
    model, points, momenta = _sample(GroupId.G4_III, 8 * CHUNK)
    verify_group(model, points[:8], momenta[:8], tol, EUCLIDEAN)  # plans and memos built

    def peak(n):
        tracemalloc.start()
        try:
            verify_group(model, points[:n], momenta[:n], tol, EUCLIDEAN)
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
    verify_group(model, points, momenta, tol, EUCLIDEAN)
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
    run_group_checks(cloud, tol)
    assert seen == ["eval_table_jet"]
    values = cloud.values("frame_basis")
    assert np.array_equal(values, catalog.eval_table(model.frame_basis, points))
    assert seen == ["eval_table_jet"]


def test_call_leaves_the_plan_memo_alone():
    """``FieldExpr.__call__`` runs an unmemoized plan, so one-off
    expressions never evict the tables' plans."""
    u1, u2, _, _ = adiff.coords()
    point = np.array([0.3, -0.2, 0.5, 0.1])
    before = adiff._plan.cache_info()
    values = [((u1 + float(k)) * adiff.exp(u2))(point) for k in range(2000)]
    assert adiff._plan.cache_info() == before
    assert values[7] == (0.3 + 7.0) * np.exp(-0.2)


def test_default_params_read_without_building_params(monkeypatch):
    built = []
    monkeypatch.setattr(GroupParams, "__post_init__", lambda self: built.append(self))
    cli._parse_params(["alpha2=3"])
    assert len(built) == 1 and built[0].em_alphas == (1.0, 3.0, 1.0, 1.0)
