"""The blocked residuals across block boundaries.

The suite's shared clouds have 200 points, inside one block.  Here clouds of
1, B, B + 1 and 2B + 37 points (B = ``checks.BLOCK``) are checked against the
unblocked formulas of ``tests/oracles.py``, bit for bit; a peak planted in
the last, partial block must be found, and a non-finite value in any block
must raise.
"""
import numpy as np
import pytest

from g4motions import checks, mechanics
from g4motions.catalog import GroupId, get_group
from g4motions.checks import BLOCK, blocked_max
from g4motions.geometry import SampleCloud
from oracles import (
    unblocked_admissibility,
    unblocked_bracket,
    unblocked_frame_killing,
    unblocked_killing,
)

SIZES = (1, BLOCK, BLOCK + 1, 2 * BLOCK + 37)
EUCLIDEAN = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def _cloud(gid, n, seed=3):
    model = get_group(gid)
    return SampleCloud(model, *mechanics.sample_phase_points(model, n, seed))


def _pairs(a, b):
    """(lhs, rhs) as they are: the sides function of precomputed arrays."""
    return a, b


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


def test_reducer_visits_every_block(monkeypatch):
    n = 2 * BLOCK + 37
    seen = []
    real = checks.scaled_max

    def record(lhs, rhs):
        seen.append(len(lhs))
        return real(lhs, rhs)

    monkeypatch.setattr(checks, "scaled_max", record)
    zeros = np.zeros((n, 4, 4))
    assert blocked_max(_pairs, zeros, zeros) == 0.0
    assert seen == [BLOCK, BLOCK, 37]


@pytest.mark.parametrize("rhs_peak", [False, True])
def test_peak_in_last_partial_block_is_found(rhs_peak):
    n = 2 * BLOCK + 37
    lhs, rhs = np.zeros((n, 4, 4, 4)), np.zeros((n, 4, 4, 4))
    lhs[5, 1, 2, 3] = 1.0  # 1 / (1 + 1) = 0.5 in the first block
    lhs[n - 1, 3, 0, 2] = 3.0  # 3 / (1 + 3) = 0.75 in the last
    if rhs_peak:
        rhs[n - 1, 0, 0, 0] = -7.0  # 7 / (1 + 7) = 0.875, also in the last
        assert blocked_max(_pairs, lhs, rhs) == 0.875
    else:
        assert blocked_max(_pairs, lhs, rhs) == 0.75


def test_planted_killing_peak_in_last_block_is_found(tol):
    cloud = _cloud(GroupId.G4_II, 2 * BLOCK + 37)
    _, dg = cloud.metric
    clean = checks.check_killing(cloud, tol).max_residual
    dg[-1, 2, 0, 1] += 0.5
    got = checks.check_killing(cloud, tol).max_residual
    assert got == unblocked_killing(cloud)
    assert got > max(tol.tol_deriv, clean)
    assert checks.check_frame_killing(cloud, tol).max_residual == unblocked_frame_killing(cloud)
    assert not checks.check_frame_killing(cloud, tol).passed


# indices in the first, a middle and the last block of a 2B + 37 point cloud
PLANTS = (0, BLOCK + 5, 2 * BLOCK + 36)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("at", PLANTS, ids=["first", "middle", "last"])
def test_negative_control_nonfinite_in_any_block_raises(at, bad, tol):
    n = 2 * BLOCK + 37
    zeros = np.zeros((n, 4, 4))
    planted = zeros.copy()
    planted[at, 1, 2] = bad
    with np.errstate(all="ignore"):  # the residual must raise, not the ufunc
        with pytest.raises(FloatingPointError):
            blocked_max(_pairs, planted, zeros)
        with pytest.raises(FloatingPointError):
            blocked_max(_pairs, zeros, planted)

        bracket_cloud = _cloud(GroupId.G4_II, n)
        bracket_cloud.jet("xi")[1][at, 0, 1, 2] = bad  # the kept jets, before the bracket is read
        with pytest.raises(FloatingPointError):
            checks.check_lie_closure(bracket_cloud, tol)

        cloud = _cloud(GroupId.G4_II, n)
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
    only inverse it takes is the constant frame metric's (``eta_con``)."""
    model = get_group(GroupId.G4_I_CNE1)
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

