"""Hamiltonian, bracket checks, motion integrals, trajectory integration."""
import csv
import math

import dataclasses

import numpy as np
import pytest

from g4motions import adiff, catalog, checks, mechanics
from g4motions.adiff import DomainError, coords
from g4motions.catalog import GroupId, GroupParams, get_group
from g4motions.checks import admissible_alphas, check_hamiltonian_commutes, check_integral_algebra
from g4motions.geometry import SampleCloud
from g4motions.mechanics import (
    PhasePoint,
    Trajectory,
    drift_report,
    integrate_trajectory,
)
import oracles
from oracles import (
    _scaled_max,
    finite_diff_gradient,
    frame_bracket_integrals,
    hamiltonian,
    motion_integrals,
    reference_rk4,
)

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


def test_integral_algebra_matches_frame_bracket_route(models, tol, monkeypatch):
    """{Y_a, Y_b} from the canonical bracket over d_i Y_a (M^T - M, with
    M^T the first term the check compares) equals -p_i [xi_a, xi_b]^i, the
    frame-bracket route, within a scaled 1e-13 (the largest seen is 6.0e-15)
    on every entry at 200 and 1024 points."""
    sides = []
    real = checks.scaled_max
    monkeypatch.setattr(checks, "scaled_max", lambda lhs, rhs: sides.append(lhs) or real(lhs, rhs))
    for gid, model in models.items():
        for n in (200, 1024):
            cloud = SampleCloud(model, *mechanics.sample_phase_points(model, n, 42))
            assert check_integral_algebra(cloud, tol).passed
            Mt = sides.pop()
            assert _scaled_max(Mt - Mt.transpose(0, 2, 1), frame_bracket_integrals(cloud)) <= 1e-13, (gid, n)


def _bumped_tetrad(model):
    """``model`` with e_2^2 bumped by 0.01 u1: its metric is not Killing."""
    con = [list(row) for row in model.e_con]
    con[1][1] = con[1][1] + 0.01 * coords()[0]
    return dataclasses.replace(model, e_con=con)


def test_brackets_at_scaled_momenta(models, samples, tol):
    """{H, Y_a} and {Y_a, Y_b} compare their two terms, so momenta 1e3 times
    the sample's pass on every entry, and {Y_a, Y_b} passes at 1e9 times."""
    for gid, model in models.items():
        points, momenta = samples[gid]
        big, huge = (SampleCloud(model, points, k * momenta) for k in (1e3, 1e9))
        for res in (check_hamiltonian_commutes(big, tol), check_integral_algebra(big, tol),
                    check_integral_algebra(huge, tol)):
            assert res.passed, (gid, res.name, res.max_residual)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_negative_control_hamiltonian_commutes(scale, models, samples, tol):
    """A bumped tetrad fails {H, Y_a} on every entry, at the sample's
    momenta and at 1e3 times them, by at least 1e-2."""
    for gid, model in models.items():
        points, momenta = samples[gid]
        res = check_hamiltonian_commutes(SampleCloud(_bumped_tetrad(model), points, scale * momenta), tol)
        assert not res.passed and res.max_residual >= 1e-2, (gid, res.max_residual)


def test_integral_algebra_negative_control(models, samples, tol):
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


def _jet_route_budget(kernel, model, alphas, n=50):
    """The largest share of its tolerance any kernel output uses against the
    batched jet route of ``model`` (metric form, H = g^{ij} P_i P_j) at ``n``
    seeded phase points: du against dH/dp within 1e-12 and dp against -dH/du
    within 1e-11 (``np.allclose``: atol + rtol |reference|), H within
    ``pytest.approx(rel=1e-12)`` and Y within ``approx(rel=1e-12, abs=1e-13)``.
    At most 1 is a match."""
    pts = catalog.sample_points(model.domain, n, 31)
    momenta = np.random.default_rng(13).uniform(-1, 1, (n, 4))
    cloud = SampleCloud(model, pts, momenta)
    dHdu, dHdp = cloud.hamiltonian_grads(alphas)
    H, Y = hamiltonian(cloud, alphas), motion_integrals(cloud)
    out = np.array([kernel(*u, *p) for u, p in zip(pts, momenta)])
    budgets = (
        (out[:, :4], dHdp, 1e-12 + 1e-12 * np.abs(dHdp)),
        (out[:, 4:8], -dHdu, 1e-11 + 1e-11 * np.abs(dHdu)),
        (out[:, 8], H, np.maximum(1e-12 * np.abs(H), 1e-12)),
        (out[:, 9:], Y, np.maximum(1e-12 * np.abs(Y), 1e-13)),
    )
    return max(float(np.max(np.abs(got - ref) / tol)) for got, ref, tol in budgets)


def test_compiled_dynamics_matches_jet_route(models):
    """The code-generated integrator right-hand side (frame form, from
    w_a = e_a^i P_i) equals the batched gradients of H computed through the
    jets (metric form, from g^{ij} and d_l g^{ij}) on every entry, under
    the model's own potential constants and under the admissible ones the
    benchmark runs."""
    for gid, model in models.items():
        for alphas in (model.params.alphas(), admissible_alphas(model)):
            kernel = mechanics._compiled_dynamics(model, alphas)
            assert _jet_route_budget(kernel, model, alphas) <= 1.0, (gid, alphas)


# a symmetric, nondegenerate frame metric with an off-diagonal entry inside
# the 3x3 block the Abelian-subgroup entries keep
_SKEW_ETA = ((1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.3, 0.0), (0.0, 0.3, -1.0, 0.0), (0.0, 0.0, 0.0, -1.0))
_ALL_PLUS = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def test_compiled_dynamics_matches_jet_route_off_diagonal_eta(models):
    """The kernel sums every nonzero entry of eta^{ab}, not only its
    diagonal: under an eta with an off-diagonal entry it matches the jet
    route on every entry."""
    for gid, model in models.items():
        skew = model.with_eta(_SKEW_ETA)
        assert skew.eta_con()[1, 2] != 0.0, gid
        alphas = admissible_alphas(skew)
        assert _jet_route_budget(mechanics._compiled_dynamics(skew, alphas), skew, alphas) <= 1.0, gid


def test_negative_control_wrong_eta_kernel(models):
    """The kernel of the all-plus model, held against the jet route of the
    entry's own eta, fails the same tolerances on every entry."""
    for gid, model in models.items():
        alphas = admissible_alphas(model)
        kernel = mechanics._compiled_dynamics(model.with_eta(_ALL_PLUS), alphas)
        assert _jet_route_budget(kernel, model, alphas) > 1.0, gid


def test_kernel_operation_nodes(models, monkeypatch):
    """The frame-form kernels, summed over the 15 entries at their admissible
    constants, take at most 1,450 operation nodes of ``adiff._graph`` (they
    take 1,366; kernels that form the metric entries and their partials
    take 2,173)."""
    roots = []
    monkeypatch.setattr(mechanics.adiff, "compile_values", lambda exprs, args: roots.append(tuple(exprs)))
    for model in models.values():
        mechanics._compiled_dynamics(model, admissible_alphas(model))
    assert sum(type(e) in adiff._SOURCE for r in roots for e, _ in adiff._graph(r)[0]) <= 1450


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


@pytest.mark.parametrize("gid", list(GroupId), ids=[g.value for g in GroupId])
def test_recorded_observables_belong_to_their_row(gid):
    """Each row's H and Y are those of that row's own state, under the
    entry's default potential constants and under its admissible ones.  Where
    the default alphas are not admissible (the g4-vi entries) Y moves along
    the run, so a row paired with a neighbouring state's Y would show."""
    default = get_group(gid)
    lo, hi = default.domain.bounds()
    state0 = PhasePoint(u=(lo + hi) / 2, p=[0.3, -0.2, 0.1, 0.25])
    for alphas in (default.params.alphas(), admissible_alphas(default)):
        model = get_group(gid, dataclasses.replace(default.params, em_alphas=tuple(alphas)))
        traj = integrate_trajectory(model, state0, T=0.5, h=1e-2)
        cloud = SampleCloud(model, traj.u, traj.p)
        assert np.allclose(traj.H, hamiltonian(cloud, alphas), rtol=1e-12, atol=1e-13), alphas
        assert np.allclose(traj.Y, motion_integrals(cloud), rtol=1e-12, atol=1e-13), alphas


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
    with pytest.raises(FloatingPointError, match=r"^non-finite state or observable at t=0\.0$"):
        integrate_trajectory(models[GroupId.G4_II], state0, T=0.01, h=1e-3)


def _stand_in_kernel(monkeypatch, kernel):
    """Run both RK4 loops on ``kernel``, a function of (u1..u4, p1..p4)
    returning 13 floats.  The catalog's kernels leave their box before any
    value overflows, so the per-step error paths are reached this way."""
    monkeypatch.setattr(mechanics, "_kernel", lambda model: kernel)
    monkeypatch.setattr(oracles, "_compiled_dynamics", lambda model, alphas: kernel)


def _raises_as_reference(model, state0, T=0.01, h=1e-3) -> str:
    """The message of the ``FloatingPointError`` that ``integrate_trajectory``
    and ``reference_rk4`` both raise."""
    with pytest.raises(FloatingPointError) as new:
        integrate_trajectory(model, state0, T, h)
    with pytest.raises(FloatingPointError) as ref:
        reference_rk4(model, state0, T, h)
    assert str(new.value) == str(ref.value)
    return str(new.value)


def _at_step(step, h=1e-3) -> str:
    return f"non-finite state or observable at t={step * h!r}"


def _growing_p1(u1, u2, u3, u4, p1, p2, p3, p4):
    # dp1/dt = 1e4 p1 and nothing else moves: one RK4 step multiplies p1 by
    # 644.3 (exp(10) to fourth order) while the coordinates stay put
    return 0.0, 0.0, 0.0, 0.0, 1e4 * p1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0


def _growing_H(rate):
    # du1/dt = 1, so u1 = step * h, and H = 1e308 (1 + rate u1); p stays finite
    def kernel(u1, u2, u3, u4, p1, p2, p3, p4):
        return 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308 * (1.0 + rate * u1), 0.0, 0.0, 0.0, 0.0
    return kernel


def test_negative_control_rk4_nonfinite_momenta_inside_box(monkeypatch):
    _stand_in_kernel(monkeypatch, _growing_p1)
    state0 = PhasePoint(u=np.zeros(4), p=[1e306, 0.0, 0.0, 0.0])  # p1 = inf after one step, u at the origin
    assert _raises_as_reference(flat_model(), state0) == _at_step(1)


@pytest.mark.parametrize("stand_in", [False, True], ids=["real-start", "stand-in-step"])
def test_negative_control_rk4_nonfinite_observable_finite_state(stand_in, models, monkeypatch):
    if stand_in:  # H = 2e308 after one step, at the finite state (1e-3, 0, 0, 0, 0, 0, 0, 0)
        _stand_in_kernel(monkeypatch, _growing_H(1e3))
        model, state0, step = flat_model(), PhasePoint(u=np.zeros(4), p=np.zeros(4)), 1
    else:  # H ~ 1e320 at the finite start
        model, state0, step = models[GroupId.G4_II], PhasePoint(u=np.zeros(4), p=[1e160, 1e160, 0.0, 0.0]), 0
    assert _raises_as_reference(model, state0) == _at_step(step)


@pytest.mark.parametrize(
    "kernel, p1, step",
    # p1 = 6.4e302 after one step, then the third stage's 1e4 (p1 + h/2 b) overflows;
    # H = 1e308 (1 + 0.1 step) overflows at 1.8e308
    [(_growing_p1, 1e300, 2), (_growing_H(1e2), 0.0, 8)],
    ids=["state", "observable"],
)
def test_negative_control_rk4_nonfinite_after_first_step(kernel, p1, step, monkeypatch):
    _stand_in_kernel(monkeypatch, kernel)
    state0 = PhasePoint(u=np.zeros(4), p=[p1, 0.0, 0.0, 0.0])
    assert _raises_as_reference(flat_model(), state0) == _at_step(step)


def test_rk4_finite_values_with_overflowing_sums_go_on():
    # a constant potential cancels p exactly (P = p + A = 0), so the particle
    # rests with p1 = p2 = Y1 = Y2 = -1e308: every state and observable sum
    # overflows, which the finiteness screen must let through
    model = flat_model((1e308, 1e308, 0.0, 0.0))
    state0 = PhasePoint(u=np.zeros(4), p=[-1e308, -1e308, 0.0, 0.0])
    traj = integrate_trajectory(model, state0, T=0.01, h=1e-3)
    _assert_bitwise_equal(traj, reference_rk4(model, state0, T=0.01, h=1e-3))
    assert len(traj) == 11 and not traj.domain_exit
    assert sum(traj.p[-1].tolist()) == -math.inf and traj.H[-1] + sum(traj.Y[-1].tolist()) == -math.inf


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


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 512, 601])
def test_csv_export_matches_csv_writer_bytes(rows, tmp_path, models):
    assert mechanics._CSV_CHUNK == 256  # the row counts sit at its block edges
    model = models[GroupId.G4_I_CNE1]
    state0 = PhasePoint(u=np.zeros(4), p=[0.01, 0.02, 0.03, 0.04])
    full = integrate_trajectory(model, state0, T=0.6, h=1e-3)
    assert len(full) == 601  # in the box to the horizon
    traj = Trajectory(*(getattr(full, f)[:rows].copy() for f in ("t", "u", "p", "H", "Y")))
    for k in (0, rows - 1):  # in the first block and the last
        traj.u[k] = [-0.0, 5e-324, -1e308, 123456789012345678.0]
        traj.H[k], traj.Y[k, 0] = np.inf, np.nan
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
