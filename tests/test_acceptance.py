"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with ``pytest -s`` or in the
captured output); tolerances are pinned here and nowhere else.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from g4motions import catalog, checks, mechanics
from g4motions.adiff import coords
from g4motions.catalog import (
    ABELIAN_SUBGROUP_IDS,
    GroupId,
    GroupParams,
    get_group,
    sample_points,
)
from g4motions.checks import ToleranceConfig
from g4motions.cli import RunConfig, build_report, render_json, report_document
from g4motions.geometry import SampleCloud
from g4motions.mechanics import PhasePoint
from oracles import finite_diff_gradient, hamiltonian

U1, U2, U3, U4 = coords()

N_POINTS = 200
SEED = 42
ETA_PP = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_catalog_algebra(models, clouds, tol):
    start = time.perf_counter()
    worst_jac, worst_closure = 0.0, 0.0
    signs = {}
    for gid, model in models.items():
        jac = checks.check_jacobi(model.structure_constants, tol, group=model.name)
        closure = checks.check_lie_closure(clouds[gid], tol)
        worst_jac = max(worst_jac, jac.max_residual)
        worst_closure = max(worst_closure, closure.max_residual)
        signs[gid.value] = closure.notes[0]
    elapsed = time.perf_counter() - start
    ok = worst_jac <= 1e-12 and worst_closure <= 1e-9 and elapsed <= 5.0
    _report(
        1,
        ok,
        f"jacobi {worst_jac:.2e} <= 1e-12, closure {worst_closure:.2e} <= 1e-9 "
        f"(sign recorded for 15/15), {elapsed:.2f} s <= 5 s",
    )


def test_criterion_02_frame_and_tetrad_duality(models, clouds, tol):
    worst = 0.0
    for gid, model in models.items():
        worst = max(worst, checks.check_duality(clouds[gid], tol).max_residual)
        worst = max(worst, checks.check_tetrad_duality(clouds[gid], tol).max_residual)
        o = model.orientation
        assert o is not None and o.rows_are_coordinates is not None
        # deterministic: a rebuilt model (not the shared one) resolves identically
        o2 = catalog._build_group(gid, model.params).orientation
        assert (o.status, o.rows_are_coordinates) == (o2.status, o2.rows_are_coordinates)
    ok = worst <= 1e-12
    _report(2, ok, f"duality residual {worst:.2e} <= 1e-12 at {N_POINTS} points, "
                   "orientation decisions deterministic and logged")


def test_criterion_03_killing_both_signatures(models, samples, tol):
    start = time.perf_counter()
    worst = 0.0
    for gid, model in models.items():
        pts = samples[gid][0]
        alt = get_group(gid, GroupParams(eta=ETA_PP))
        for cloud in (SampleCloud(model, pts), SampleCloud(alt, pts)):
            worst = max(worst, checks.check_killing(cloud, tol).max_residual)
            worst = max(worst, checks.check_frame_killing(cloud, tol).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 20.0
    _report(3, ok, f"killing residual {worst:.2e} <= 1e-9 under eta=+--- and "
                   f"eta=++++, {elapsed:.2f} s <= 20 s")


def test_criterion_04_admissibility(models, clouds, tol):
    worst_tetrad, worst_holo = 0.0, 0.0
    flagged_reported = 0
    for gid, model in models.items():
        cloud = clouds[gid]
        if model.tetrad_printed:  # (a) tetrad-constructed potentials
            for res in checks.check_admissibility(cloud, tol, mode="tetrad"):
                worst_tetrad = max(worst_tetrad, res.max_residual)
        if gid in checks.ASSERTED_HOLO_ADMISSIBILITY:  # (b) tabulated tables
            for res in checks.check_admissibility(cloud, tol):
                worst_holo = max(worst_holo, res.max_residual)
        if gid in (GroupId.G4_III, GroupId.G4_IV):  # report mode, surfaced
            for res in checks.check_admissibility(cloud, tol):
                assert not res.asserted
                flagged_reported += 1
    ok = worst_tetrad <= 1e-9 and worst_holo <= 1e-9 and flagged_reported == 8
    _report(4, ok, f"tetrad-route {worst_tetrad:.2e}, holonomic-route "
                   f"{worst_holo:.2e} <= 1e-9 basis-wise; {flagged_reported} "
                   "report-mode results surfaced for the flagged entries")


def test_criterion_05_abelian_zero_field(clouds, tol):
    worst = 0.0
    for gid in ABELIAN_SUBGROUP_IDS:
        res = checks.check_abelian_zero_field(clouds[gid], tol)
        worst = max(worst, res.max_residual)
    ok = worst <= 1e-12
    _report(5, ok, f"field strength residual {worst:.2e} <= 1e-12 for all five "
                   "Abelian-subgroup variants at generic constants")


def test_criterion_06_motion_integral_algebra(clouds, tol):
    worst_hy, worst_yy = 0.0, 0.0
    for cloud in clouds.values():
        hy = checks.check_hamiltonian_commutes(cloud, tol)
        yy = checks.check_integral_algebra(cloud, tol)
        worst_hy = max(worst_hy, hy.max_residual)
        worst_yy = max(worst_yy, yy.max_residual)
    ok = worst_hy <= 1e-9 and worst_yy <= 1e-9
    _report(6, ok, f"{{H,Y}} {worst_hy:.2e} and {{Y,Y}}-closure {worst_yy:.2e} "
                   f"<= 1e-9 at {N_POINTS} phase points per entry")


def test_criterion_07_trajectory_conservation(models):
    model = models[GroupId.G4_I_CNE1]  # c=2, alphas=(1,1,1,1), eta=+---
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    start = time.perf_counter()
    traj = mechanics.integrate_trajectory(model, state0, T=10.0, h=1e-3)
    stats = mechanics.drift_report(traj)
    half = mechanics.drift_report(
        mechanics.integrate_trajectory(model, state0, T=10.0, h=5e-4)
    )
    elapsed = time.perf_counter() - start
    ratio = stats.H / half.H
    worst = max(stats.H, *stats.Y)
    note = " (run leaves the sampling box early; drift taken over the integrated segment)" if traj.domain_exit else ""
    ok = worst <= 1e-8 and 8.0 <= ratio <= 32.0 and elapsed <= 10.0
    _report(7, ok, f"max drift {worst:.2e} <= 1e-8, halving ratio {ratio:.1f} in "
                   f"[8, 32], {elapsed:.2f} s <= 10 s{note}")


def test_criterion_08_oracle_independence(models, tol):
    worst_norm = 0.0  # residual normalized to atol+rtol form; pass iff <= 1
    worst_h = 0.0
    for gid, model in models.items():
        pts = sample_points(model.domain, 20, SEED + 1)
        lo, hi = model.domain.bounds()
        pts = np.clip(pts, lo + 1e-4, hi - 1e-4)
        res = checks.check_fd_oracle(SampleCloud(model, pts), tol)
        worst_norm = max(worst_norm, res.max_residual)
        # composite gradient: the batched dH/du against function-level
        # central differences of the value-path H
        p = np.array([0.3, -0.7, 0.4, 0.9])
        alphas = model.params.alphas()
        dHdu, _ = SampleCloud(model, pts[:5], np.tile(p, (5, 1))).hamiltonian_grads(alphas)
        for u, ad in zip(pts[:5], dHdu):
            fd = finite_diff_gradient(
                lambda x: hamiltonian(SampleCloud(model, x[None], p[None]), alphas)[0], u
            )
            err = np.max(np.abs(ad - fd) / (1e-6 + 1e-6 * np.abs(ad)))
            worst_h = max(worst_h, err)
    ok = worst_norm <= 1.0 and worst_h <= 1.0
    _report(8, ok, f"table gradients at {worst_norm:.3f} and composite "
                   f"Hamiltonian gradients at {worst_h:.3f} of the 1e-6 "
                   "finite-difference budget (20-point subsample per entry)")


def test_criterion_09_negative_controls(models, samples, tol):
    model = models[GroupId.G4_I_CNE1]
    pts, momenta = samples[GroupId.G4_I_CNE1]

    def perturb(table, row, col, bump):
        new = [list(r) for r in table]
        new[row][col] = new[row][col] + bump
        return new

    def cloud(bad):
        return SampleCloud(bad, pts, momenta)

    failures = []
    transposed = [[model.dual[j][i] for j in range(4)] for i in range(4)]
    failures.append(checks.check_duality(cloud(dataclasses.replace(model, dual=transposed)), tol))
    zero_c = dataclasses.replace(model, structure_constants=np.zeros((4, 4, 4)))
    failures.append(checks.check_lie_closure(cloud(zero_c), tol))
    rng = np.random.default_rng(7)
    bad_c = np.zeros((4, 4, 4))
    for g in range(4):
        for a in range(4):
            for b in range(a + 1, 4):
                v = rng.uniform(-1, 1)
                bad_c[g, a, b], bad_c[g, b, a] = v, -v
    failures.append(checks.check_jacobi(bad_c, tol))
    bad_tetrad = dataclasses.replace(model, e_con=perturb(model.e_con, 1, 1, 0.01 * U1))
    failures.append(checks.check_killing(cloud(bad_tetrad), tol))
    failures.append(checks.check_frame_killing(cloud(bad_tetrad), tol))
    bad_pot = dataclasses.replace(model, holo_basis=perturb(model.holo_basis, 0, 0, 0.01 * U2))
    failures.append(checks.check_admissibility(cloud(bad_pot), tol)[0])
    bad_frame = dataclasses.replace(model, frame_basis=perturb(model.frame_basis, 0, 2, 0.01 * U1))
    failures.append(checks.check_frame_defining(cloud(bad_frame), tol)[0])
    vi = models[GroupId.G4_VI_1]
    from g4motions.adiff import exp as fexp

    bad_vi = dataclasses.replace(vi, holo_basis=perturb(vi.holo_basis, 0, 0, fexp(3.0 * U4)))
    failures.append(
        checks.check_abelian_zero_field(SampleCloud(bad_vi, samples[GroupId.G4_VI_1][0]), tol)
    )
    failures.append(checks.check_integral_algebra(cloud(zero_c), tol))

    floor = min(r.max_residual for r in failures)
    ok = all(not r.passed for r in failures) and floor >= 1e-4
    _report(9, ok, f"{len(failures)} perturbed fixtures all fail, smallest "
                   f"residual {floor:.2e} >= 1e-4 (checks are not vacuous)")


def test_criterion_10_determinism_and_runtime():
    config = RunConfig(groups=list(GroupId), seed=SEED, n_points=N_POINTS)
    start = time.perf_counter()
    doc1 = render_json(report_document(build_report(config)))
    elapsed = time.perf_counter() - start
    doc2 = render_json(report_document(build_report(config)))
    report = build_report(config)
    ok = (
        doc1.encode() == doc2.encode()
        and report.exit_code == 0
        and elapsed <= 60.0
    )
    _report(10, ok, f"verify --group all --seed {SEED} --points {N_POINTS}: "
                    f"byte-identical reports, exit 0, {elapsed:.2f} s <= 60 s")
