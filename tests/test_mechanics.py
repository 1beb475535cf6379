"""Hamiltonian, bracket checks, motion integrals, trajectory integration."""
import csv
import math

import numpy as np
import pytest

from g4motions import catalog, mechanics
from g4motions.adiff import DomainError
from g4motions.catalog import GroupId, GroupParams, get_group
from g4motions.checks import admissible_alphas, check_hamiltonian_commutes, check_integral_algebra
from g4motions.geometry import SampleCloud
from g4motions.mechanics import (
    PhasePoint,
    Trajectory,
    drift_report,
    integrate_trajectory,
)
from oracles import finite_diff_gradient, hamiltonian, motion_integrals, reference_rk4

FLAT_PARAMS = GroupParams(k=0.0, l=0.0, eps01=0)


def flat_model(alphas=(0.0, 0.0, 0.0, 0.0)):
    params = GroupParams(k=0.0, l=0.0, eps01=0, em_alphas=tuple(alphas))
    return get_group(GroupId.G4_VI_1, params)


def phase_cloud(model, u, p):
    """The one-point sample cloud of the phase point (u, p)."""
    return SampleCloud(model, np.array([u], float), np.array([p], float))


def test_hamiltonian_flat_free_particle():
    model = flat_model()
    cloud = phase_cloud(model, [0.3, 0.1, -0.2, 0.5], [1.0, 0.0, 0.0, 0.0])
    assert hamiltonian(cloud, model.params.alphas())[0] == pytest.approx(1.0, abs=1e-15)


def test_hamiltonian_g4_i_origin_pure_potential(models):
    # metric = eta at the origin and A = (1,1,1,1): H = 1 - 1 - 1 - 1 = -2
    model = models[GroupId.G4_I_CNE1]
    cloud = phase_cloud(model, np.zeros(4), np.zeros(4))
    assert hamiltonian(cloud, model.params.alphas())[0] == pytest.approx(-2.0, abs=1e-14)


def test_hamiltonian_reduces_to_free_without_constants(models):
    p = np.array([0.5, -0.1, 0.7, 0.2])
    cloud = phase_cloud(models[GroupId.G4_II], [0.2, -0.4, 0.6, 0.3], p)
    g = cloud.metric[0][0]
    free = float(p @ g @ p)
    assert hamiltonian(cloud, np.zeros(4))[0] == pytest.approx(free, rel=1e-14)


def test_motion_integral_frame_rows(models):
    p = [0.0, 1.0, 0.0, 0.0]
    cloud = phase_cloud(models[GroupId.G4_I_CNE1], np.zeros(4), p)
    assert motion_integrals(cloud)[0, 0] == pytest.approx(1.0)
    cloud8 = phase_cloud(models[GroupId.G4_VIII_A], [math.pi / 2, 0.0, 0.0, 0.0], p)
    assert motion_integrals(cloud8)[0, 0] == pytest.approx(1.0)
    zero = phase_cloud(models[GroupId.G4_V], [0.4, 0.2, 0.9, -0.3], np.zeros(4))
    assert np.all(motion_integrals(zero) == 0.0)


def test_hamiltonian_commutes_with_integrals(clouds, tol):
    for gid, cloud in clouds.items():
        res = check_hamiltonian_commutes(cloud, tol)
        assert res.passed, (gid, res.max_residual)


def test_integral_algebra_closes(clouds, tol):
    for gid, cloud in clouds.items():
        res = check_integral_algebra(cloud, tol)
        assert res.passed, (gid, res.max_residual)


def test_integral_algebra_negative_control(models, samples, tol):
    import dataclasses

    bad = dataclasses.replace(
        models[GroupId.G4_VIII_A], structure_constants=np.zeros((4, 4, 4))
    )
    res = check_integral_algebra(SampleCloud(bad, *samples[GroupId.G4_VIII_A]), tol)
    assert not res.passed and res.max_residual >= 1e-4


def test_flat_free_trajectory_is_straight():
    model = flat_model()
    state0 = PhasePoint(u=np.zeros(4), p=[0.3, -0.2, 0.1, 0.25])
    traj = integrate_trajectory(model, state0, T=2.0, h=1e-2)
    assert not traj.domain_exit
    # p constant, u linear in t (velocity 2 eta p), H and Y exact
    assert np.max(np.abs(traj.p - traj.p[0])) <= 1e-13
    v = 2.0 * np.diag([1.0, -1.0, -1.0, -1.0]) @ traj.p[0]
    assert np.max(np.abs(traj.u - traj.t[:, None] * v[None, :])) <= 1e-12
    stats = drift_report(traj)
    assert max(stats.H.max_abs, *(d.max_abs for d in stats.Y)) <= 1e-13


def test_trajectory_conservation_g4_i(models):
    model = models[GroupId.G4_I_CNE1]
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    traj = integrate_trajectory(model, state0, T=10.0, h=1e-3)
    stats = drift_report(traj)
    assert stats.H.max_abs <= 1e-8
    assert all(d.max_abs <= 1e-8 for d in stats.Y)
    # the run leaves the sampling box early (u4 shoots off); flagged, partial
    assert traj.domain_exit
    assert np.all(np.diff(traj.t) > 0)


def test_rk4_halving_reduces_drift_fourth_order(models):
    model = models[GroupId.G4_I_CNE1]
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    d1 = drift_report(integrate_trajectory(model, state0, T=10.0, h=1e-3)).H.max_abs
    d2 = drift_report(integrate_trajectory(model, state0, T=10.0, h=5e-4)).H.max_abs
    assert 8.0 <= d1 / d2 <= 32.0


def test_rk4_convergence_exponent(models):
    model = models[GroupId.G4_I_CNE1]
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    drifts = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = integrate_trajectory(model, state0, T=0.4, h=h)
        assert not traj.domain_exit
        drifts.append(drift_report(traj).H.max_abs)
    for coarse, fine in zip(drifts, drifts[1:]):
        exponent = math.log2(coarse / fine)
        assert 3.5 <= exponent <= 4.5, drifts


def test_compiled_dynamics_matches_jet_route(models):
    """The code-generated integrator right-hand side equals the batched
    gradients of H computed through the jets."""
    for gid in (GroupId.G4_I_CNE1, GroupId.G4_III, GroupId.G4_VIII_B, GroupId.G4_VI_2):
        model = models[gid]
        kernel = mechanics._compiled_dynamics(model, model.params.alphas())
        rng = np.random.default_rng(13)
        pts = catalog.sample_points(model.domain, 5, 31)
        momenta = rng.uniform(-1, 1, (5, 4))
        cloud = SampleCloud(model, pts, momenta)
        dHdu, dHdp = cloud.hamiltonian_grads(model.params.alphas())
        H_ref, Y_ref = hamiltonian(cloud, model.params.alphas()), motion_integrals(cloud)
        for k, (u, p) in enumerate(zip(pts, momenta)):
            out = kernel(*u, *p)
            du, dp = np.array(out[:4]), np.array(out[4:8])
            assert np.allclose(du, dHdp[k], atol=1e-12, rtol=1e-12), gid
            assert np.allclose(dp, -dHdu[k], atol=1e-11, rtol=1e-11), gid
            H, *Y = out[8:]
            assert H == pytest.approx(H_ref[k], rel=1e-12)
            for a in range(4):
                assert Y[a] == pytest.approx(Y_ref[k, a], rel=1e-12, abs=1e-13)


def test_fused_kernel_agrees_with_oracle(models):
    """Criterion 8's finite-difference budget on the integrator's own
    gradients: du = dH/dp and dp = -dH/du of the compiled H."""
    for gid, model in models.items():
        kernel = mechanics._compiled_dynamics(model, admissible_alphas(model))
        lo, hi = model.domain.bounds()
        pts = np.clip(catalog.sample_points(model.domain, 10, 19), lo + 1e-4, hi - 1e-4)
        rng = np.random.default_rng(19)
        for u in pts:
            p = rng.uniform(-1, 1, 4)
            du_dp = np.array(kernel(*u, *p)[:8])
            fd_p = finite_diff_gradient(lambda q: kernel(*u, *q)[8], p, h=1e-5)
            fd_u = finite_diff_gradient(lambda x: kernel(*x, *p)[8], u, h=1e-5)
            for ad, fd in ((du_dp[:4], fd_p), (du_dp[4:], -fd_u)):
                assert np.max(np.abs(ad - fd)) <= 1e-6 + 1e-6 * np.max(np.abs(ad)), (gid, u, p)


@pytest.mark.parametrize("gid", [GroupId.G4_VI_1, GroupId.G4_II, GroupId.G4_VIII_B])
def test_recorded_observables_belong_to_their_row(gid):
    """Each row's H and Y are those of that row's own state.  g4-vi-1 runs
    with its default (not admissible) alphas, so its Y moves along the run
    and a row paired with a neighbouring state's Y would show."""
    model = get_group(gid)
    lo, hi = model.domain.bounds()
    state0 = PhasePoint(u=(lo + hi) / 2, p=[0.3, -0.2, 0.1, 0.25])
    traj = integrate_trajectory(model, state0, T=0.5, h=1e-2)
    cloud = SampleCloud(model, traj.u, traj.p)
    assert np.allclose(traj.H, hamiltonian(cloud, model.params.alphas()), rtol=1e-12, atol=1e-13)
    assert np.allclose(traj.Y, motion_integrals(cloud), rtol=1e-12, atol=1e-13)


def _bench_style_run(j, gid, alphas, p_scale=1.0):
    """(model, start) as the benchmark draws them: a start within the middle
    half of the entry's box, momenta uniform in [-1, 1]^4 times ``p_scale``."""
    model = get_group(gid, GroupParams(em_alphas=tuple(alphas)))
    lo, hi = model.domain.bounds()
    rng = np.random.default_rng([2027, j])
    u0 = (lo + hi) / 2 + (hi - lo) / 4 * rng.uniform(-1.0, 1.0, 4)
    return model, PhasePoint(u=u0, p=p_scale * rng.uniform(-1.0, 1.0, 4))


def _assert_bitwise_equal(traj, ref):
    for field in ("t", "u", "p", "H", "Y"):
        assert np.array_equal(getattr(traj, field), getattr(ref, field)), field
    assert traj.domain_exit == ref.domain_exit


@pytest.mark.parametrize("j, gid", list(enumerate(GroupId)), ids=[g.value for g in GroupId])
def test_rk4_loop_matches_reference_bitwise(j, gid, models):
    """The straight-line step is the list-and-zip RK4 loop, operation for
    operation.  These starts all leave their box before T = 2."""
    model, state0 = _bench_style_run(j, gid, admissible_alphas(models[gid]))
    traj = integrate_trajectory(model, state0, T=2.0, h=1e-3)
    _assert_bitwise_equal(traj, reference_rk4(model, state0, T=2.0, h=1e-3))
    assert traj.domain_exit


def test_rk4_loop_matches_reference_to_horizon():
    # zero potential (admissible everywhere) and slow momenta stay in the box
    gid = GroupId.G4_VII_B
    model, state0 = _bench_style_run(list(GroupId).index(gid), gid, np.zeros(4), p_scale=0.1)
    traj = integrate_trajectory(model, state0, T=2.0, h=1e-3)
    _assert_bitwise_equal(traj, reference_rk4(model, state0, T=2.0, h=1e-3))
    assert not traj.domain_exit and len(traj) == 2001


@pytest.mark.parametrize("gid", [GroupId.G4_VIII_A, GroupId.G4_VIII_B])
def test_integrate_singular_start_raises_domain_error(gid):
    # u1 = 0 is where sin(u1) vanishes in these charts
    state0 = PhasePoint(u=[0.0, 0.1, 0.1, 0.1], p=[0.1, 0.2, 0.3, 0.4])
    with pytest.raises(DomainError):
        integrate_trajectory(get_group(gid), state0, T=0.01, h=1e-3)


def test_integrate_raises_on_overflow(models):
    state0 = PhasePoint(u=np.zeros(4), p=[1e160, 1e160, 0.0, 0.0])
    with pytest.raises(FloatingPointError):
        integrate_trajectory(models[GroupId.G4_II], state0, T=0.01, h=1e-3)


def test_integrate_rejects_bad_steps(models):
    state0 = PhasePoint(u=np.zeros(4), p=np.zeros(4))
    with pytest.raises(ValueError):
        integrate_trajectory(models[GroupId.G4_II], state0, T=1.0, h=0.0)
    with pytest.raises(ValueError):
        integrate_trajectory(models[GroupId.G4_II], state0, T=-1.0, h=0.1)
    with pytest.raises(ValueError, match="0 RK4 steps"):
        integrate_trajectory(models[GroupId.G4_II], state0, T=1e-4, h=1e-3)  # round(T / h) = 0
    with pytest.raises(ValueError, match="non-finite step count"):
        integrate_trajectory(models[GroupId.G4_II], state0, T=1e300, h=1e-300)  # T / h = inf
    with pytest.raises(ValueError, match=r"1000000000000 RK4 steps, above the cap of 1000000"):
        integrate_trajectory(models[GroupId.G4_II], state0, T=1e9, h=1e-3)


def test_drift_report_fixtures():
    t = np.linspace(0.0, 1.0, 11)
    const = Trajectory(
        t=t, u=np.zeros((11, 4)), p=np.zeros((11, 4)),
        H=np.full(11, 2.5), Y=np.full((11, 4), -1.0),
    )
    stats = drift_report(const)
    assert max(stats.H.max_abs, *(d.max_abs for d in stats.Y)) == 0.0
    ramp = Trajectory(
        t=t, u=np.zeros((11, 4)), p=np.zeros((11, 4)),
        H=1.0 + 0.5 * t, Y=np.zeros((11, 4)),
    )
    stats = drift_report(ramp)
    assert stats.H.max_abs == pytest.approx(0.5)
    assert stats.H.max_abs / (1.0 + abs(ramp.H[0])) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        drift_report(Trajectory(np.array([]), np.zeros((0, 4)), np.zeros((0, 4)), np.array([]), np.zeros((0, 4))))


def _csv_writer_reference(traj, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(mechanics.TRAJECTORY_CSV_HEADER)
        for k in range(len(traj)):
            row = [traj.t[k], *traj.u[k], *traj.p[k], traj.H[k], *traj.Y[k]]
            writer.writerow(format(x, ".17g") for x in row)


def test_csv_export_matches_csv_writer_bytes(tmp_path, models):
    model = models[GroupId.G4_I_CNE1]
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    traj = integrate_trajectory(model, state0, T=0.6, h=1e-3)  # more rows than one chunk
    traj.u[0] = [-0.0, 5e-324, -1e308, 123456789012345678.0]
    traj.H[1:3] = [np.inf, np.nan]
    mechanics.export_csv(traj, tmp_path / "new.csv")
    _csv_writer_reference(traj, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_export_round_trip(tmp_path, models):
    model = models[GroupId.G4_I_CNE1]
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    traj = integrate_trajectory(model, state0, T=0.05, h=1e-2)
    path = tmp_path / "traj.csv"
    mechanics.export_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,u1,u2,u3,u4,p1,p2,p3,p4,H,Y1,Y2,Y3,Y4"
    assert len(lines) == len(traj) + 1
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.t)  # 17 significant digits round-trip
    assert np.array_equal(parsed[:, 9], traj.H)


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint(u=[0, 0, 0], p=[0, 0, 0, 0])
    with pytest.raises(ValueError):
        PhasePoint(u=[0, 0, 0, 0], p=[0, 0, 0, np.nan])
