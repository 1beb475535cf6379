"""The largest residuals (the frame bracket, both Killing checks and
admissibility) against their reference formulas.

Each check reduces its whole cloud once with ``checks.scaled_max``.  Clouds
of 1, 256, 257 and 549 points (sizes that straddled the edges of the
256-point blocks these checks were once reduced in) are checked against the
whole-cloud formulas of ``tests/oracles.py``, bit for bit; a peak planted at
the last point must be found, and a non-finite value at the first, a middle
or the last point must raise.
"""
import numpy as np
import pytest

from g4motions import checks, mechanics
from g4motions.catalog import GroupId, get_group
from g4motions.checks import scaled_max
from g4motions.geometry import SampleCloud
from oracles import (
    unblocked_admissibility,
    unblocked_bracket,
    unblocked_frame_killing,
    unblocked_killing,
)

SIZES = (1, 256, 257, 549)
N = SIZES[-1]
EUCLIDEAN = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def _cloud(gid, n, seed=3):
    model = get_group(gid)
    return SampleCloud(model, *mechanics.sample_phase_points(model, n, seed))


@pytest.mark.parametrize("n", SIZES)
def test_blocked_checks_equal_unblocked(n, tol):
    for gid in GroupId:
        cloud = _cloud(gid, n)
        C = cloud.model.structure_constants
        want = unblocked_bracket(*cloud.jet("xi"), C)
        assert checks.check_lie_closure(cloud, tol).max_residual == want, gid
        for c in (cloud, cloud.with_model(cloud.model.with_eta(EUCLIDEAN))):
            assert checks.check_killing(c, tol).max_residual == unblocked_killing(c), gid
            assert checks.check_frame_killing(c, tol).max_residual == unblocked_frame_killing(c), gid
        for mode, table in (("holonomic", "holo_basis"), ("tetrad", "tetrad_basis")):
            got = [r.max_residual for r in checks.check_admissibility(cloud, tol, mode)]
            assert got == unblocked_admissibility(cloud, table), (gid, mode)


def test_planted_killing_peak_in_last_block_is_found(tol):
    cloud = _cloud(GroupId.G4_II, N)
    _, dg = cloud.metric
    clean = checks.check_killing(cloud, tol).max_residual
    dg[-1, 2, 0, 1] += 0.5
    got = checks.check_killing(cloud, tol).max_residual
    assert got == unblocked_killing(cloud)
    assert got > max(tol.tol_deriv, clean)
    assert checks.check_frame_killing(cloud, tol).max_residual == unblocked_frame_killing(cloud)
    assert not checks.check_frame_killing(cloud, tol).passed


# the first, a middle and the last point of an N-point cloud
PLANTS = (0, N // 2, N - 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("at", PLANTS, ids=["first", "middle", "last"])
def test_negative_control_nonfinite_in_any_block_raises(at, bad, tol):
    zeros = np.zeros((N, 4, 4))
    planted = zeros.copy()
    planted[at, 1, 2] = bad
    with np.errstate(all="ignore"):  # the residual must raise, not the ufunc
        with pytest.raises(FloatingPointError):
            scaled_max(planted, zeros)
        with pytest.raises(FloatingPointError):
            scaled_max(zeros, planted)

        bracket_cloud = _cloud(GroupId.G4_II, N)
        bracket_cloud.jet("xi")[1][at, 0, 1, 2] = bad  # the kept jets, which the bracket is built from
        with pytest.raises(FloatingPointError):
            checks.check_lie_closure(bracket_cloud, tol)

        cloud = _cloud(GroupId.G4_II, N)
        _, dg = cloud.metric
        dg[at, 1, 2, 3] = bad
        with pytest.raises(FloatingPointError):
            checks.check_killing(cloud, tol)
        with pytest.raises(FloatingPointError):
            checks.check_frame_killing(cloud, tol)

        vals, grads = cloud.jet("holo_basis")
        grads[at, 1, 0, 2] = bad
        with pytest.raises(FloatingPointError):
            checks.check_admissibility(cloud, tol, "holonomic")


def test_metric_cov_not_computed_by_the_battery(tol, monkeypatch):
    """Under both signatures the battery inverts no per-point metric: the
    only inverse it takes is the constant frame metric's (``eta_con``),
    which a model computes once: a fresh model takes it under the patch."""
    entry = get_group(GroupId.G4_I_CNE1)
    model = entry.with_eta(entry.params.eta)
    points, momenta = mechanics.sample_phase_points(model, 50, 1)
    inverted = []
    real = np.linalg.inv

    def inv(a):
        inverted.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    results = checks.verify_group(model, points, momenta, tol)
    assert inverted and set(inverted) == {(4, 4)}
    assert any(r.name.endswith("[eta=++++]") for r in results)

