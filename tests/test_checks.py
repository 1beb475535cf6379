"""Verification suite over the whole catalog, plus negative controls proving
each check can fail."""
import copy
import dataclasses
import importlib
import itertools

import numpy as np
import pytest

from g4motions import catalog, checks
from g4motions.adiff import FieldExpr, coords, exp
from g4motions.catalog import ABELIAN_SUBGROUP_IDS, GroupId, GroupParams, eval_table, get_group
from g4motions.checks import (
    ASSERTED_HOLO_ADMISSIBILITY,
    BATTERY,
    ToleranceConfig,
    check_abelian_zero_field,
    check_admissibility,
    check_duality,
    check_fd_oracle,
    check_frame_defining,
    check_frame_killing,
    check_integral_algebra,
    check_jacobi,
    check_killing,
    check_lie_closure,
    check_potential_consistency,
    verify_group,
)
from g4motions.geometry import SampleCloud

U1, U2, U3, U4 = coords()


def _perturb_table(table, row, col, bump):
    new = [list(r) for r in table]
    new[row][col] = new[row][col] + bump
    return new


# --------------------------------------------------------------------------
# Positive sweep
# --------------------------------------------------------------------------


def test_lie_closure_all_entries(clouds, tol):
    for gid, cloud in clouds.items():
        res = check_lie_closure(cloud, tol)
        assert res.passed, (gid, res.max_residual)
        assert "s=+1" in res.notes[0]


def test_jacobi_all_entries(models, tol):
    for gid, model in models.items():
        res = check_jacobi(model.structure_constants, tol, group=model.name)
        assert res.max_residual == 0.0, gid


def _jacobi_loop(C):
    """Brute force over all index combinations of the cyclic Jacobi sum: the
    worst |sum| and the largest sum of the absolute terms."""
    worst = scale = 0.0
    for a, b, g, nu in itertools.product(range(4), repeat=4):
        total = abs_total = 0.0
        for mu in range(4):
            terms = (
                C[mu, a, b] * C[nu, mu, g],
                C[mu, b, g] * C[nu, mu, a],
                C[mu, g, a] * C[nu, mu, b],
            )
            total += terms[0] + terms[1] + terms[2]
            abs_total += sum(map(abs, terms))
        worst = max(worst, abs(total))
        scale = max(scale, abs_total)
    return worst, scale


_RANDOM_C = np.random.default_rng(11).uniform(-1, 1, (4, 4, 4))


@pytest.mark.parametrize(
    "gid", [*GroupId, None], ids=[*(g.value for g in GroupId), "random-antisymmetric"]
)
def test_jacobi_matches_brute_force_loop(gid, models, tol):
    C = _RANDOM_C - _RANDOM_C.transpose(0, 2, 1) if gid is None else models[gid].structure_constants
    worst, scale = _jacobi_loop(C)
    res = check_jacobi(C, tol)
    assert abs(res.max_residual - worst) <= 1e-13 * scale, (res.max_residual, worst)
    if gid is None:
        assert worst > 0.1  # the comparison is not between zeros


def test_killing_all_entries_both_signatures(clouds, samples, tol):
    eta_pp = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))
    for gid, cloud in clouds.items():
        assert check_killing(cloud, tol).passed, gid
        assert check_frame_killing(cloud, tol).passed, gid
        alt = SampleCloud(get_group(gid, GroupParams(eta=eta_pp)), samples[gid][0])
        assert check_killing(alt, tol).passed, (gid, "++++")
        assert check_frame_killing(alt, tol).passed, (gid, "++++")


def test_admissibility_asserted_entries(clouds, tol):
    for gid in ASSERTED_HOLO_ADMISSIBILITY:
        for res in check_admissibility(clouds[gid], tol):
            assert res.passed and res.asserted, (gid, res.name, res.max_residual)


def test_admissibility_tetrad_mode_all_entries(models, clouds, tol):
    for gid, model in models.items():
        for res in check_admissibility(clouds[gid], tol, mode="tetrad"):
            assert res.passed, (gid, res.name, res.max_residual)
            assert res.asserted == model.tetrad_printed


def test_admissibility_flagged_entries_report_mode(clouds, tol):
    # the third and fourth groups pass numerically but stay report-only
    for gid in (GroupId.G4_III, GroupId.G4_IV):
        for res in check_admissibility(clouds[gid], tol):
            assert res.passed and not res.asserted, (gid, res.name)


def test_admissibility_abelian_entries(clouds, tol):
    """Only the pure-gauge alpha4 direction is frame-invariant; the
    zero-field construction fails the invariance equations in alpha1..3."""
    for gid in ABELIAN_SUBGROUP_IDS:
        results = check_admissibility(clouds[gid], tol)
        assert results[3].passed and results[3].asserted, gid
        for res in results[:3]:
            assert not res.asserted, (gid, res.name)
            assert res.max_residual >= 1e-4, (gid, res.name)


def test_frame_defining_asserted_entries(clouds, tol):
    for gid in ASSERTED_HOLO_ADMISSIBILITY:
        for res in check_frame_defining(clouds[gid], tol):
            assert res.passed, (gid, res.name, res.max_residual)


def test_potential_consistency_exact(clouds, tol):
    for gid, cloud in clouds.items():
        res = check_potential_consistency(cloud, tol)
        assert res.max_residual <= 1e-10, gid


def test_abelian_zero_field(clouds, tol):
    for gid in ABELIAN_SUBGROUP_IDS:
        res = check_abelian_zero_field(clouds[gid], tol)
        assert res.passed, (gid, res.max_residual)
    assert check_abelian_zero_field(clouds[GroupId.G4_II], tol) is None


def test_abelian_flow_matches_matrix_exponential(models):
    """The closed-form frame tables equal expm(-u4 C) column-wise."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for gid in ABELIAN_SUBGROUP_IDS:
        model = models[gid]
        M = model.abelian_block
        for t in (-1.2, -0.3, 0.0, 0.7, 1.5):
            pts = np.array([[0.0, 0.0, 0.0, t]])
            vals = catalog.eval_table(model.frame_basis, pts)[0]  # (b, a)
            want = scipy_linalg.expm(-t * M)
            assert np.allclose(vals[:3, :3].T, want, atol=1e-12), (gid, t)


def test_frame_table_crosscheck_flags(clouds, tol):
    """The source frame tables that disagree with their holonomic tables are
    surfaced; the consistent ones cross-check cleanly."""
    expectations = {
        GroupId.G4_I_CNE1: False,
        GroupId.G4_I_CEQ1: True,
        GroupId.G4_II: True,
        GroupId.G4_III: False,
        GroupId.G4_IV: False,
        GroupId.G4_VII_A: False,
        GroupId.G4_VI_1: True,
        GroupId.G4_VI_2: True,
    }
    for gid, should_match in expectations.items():
        res = checks.check_frame_table_crosscheck(clouds[gid], tol)
        assert res is not None and not res.asserted, gid
        assert res.passed == should_match, (gid, res.max_residual)
        if not should_match:
            assert res.notes  # per-component findings


def test_frame_table_crosscheck_matches_componentwise(clouds, tol):
    """One pass over the (n, 4, 4) residual gives the residual and notes of
    a separate ``scaled_max`` per frame component."""
    for gid, cloud in clouds.items():
        res = checks.check_frame_table_crosscheck(cloud, tol)
        if res is None:
            continue
        ref = catalog.eval_table(cloud.model.reference_frame, cloud.points)
        rec = cloud.values("frame_basis")
        assert res.max_residual == checks.scaled_max(ref, rec), gid
        notes = [
            f"alpha{b + 1} basis, frame component {a + 1}: source table deviates by {comp:.2e}"
            for b, a in itertools.product(range(4), repeat=2)
            if (comp := checks.scaled_max(ref[:, b, a], rec[:, b, a])) > tol.tol_deriv
        ]
        assert list(res.notes) == notes, gid


class _NaNField(FieldExpr):
    def eval(self, u):
        return np.full(np.shape(u)[1], np.nan)


def test_frame_table_crosscheck_nonfinite_raises(models, samples, tol):
    model = models[GroupId.G4_I_CNE1]
    ref = [list(r) for r in model.reference_frame]
    ref[2][1] = _NaNField()
    bad = dataclasses.replace(model, reference_frame=ref)
    with pytest.raises(FloatingPointError):
        checks.check_frame_table_crosscheck(SampleCloud(bad, samples[GroupId.G4_I_CNE1][0]), tol)


def test_verify_group_asserted_all_green(models, samples, tol):
    for gid, model in models.items():
        for res in verify_group(model, *samples[gid], tol):
            if res.asserted:
                assert res.passed, (gid, res.name, res.max_residual)


def test_results_deterministic(models, samples, tol):
    model = models[GroupId.G4_III]
    a = [r.max_residual for r in verify_group(model, *samples[GroupId.G4_III], tol)]
    b = [r.max_residual for r in verify_group(model, *samples[GroupId.G4_III], tol)]
    assert a == b


_ALL_PLUS = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


def test_battery_metric_flags(models, clouds, tol):
    """A row not marked as reading the frame metric gives the same result
    under all-plus on every entry; a marked row differs on at least one."""
    differs = [0] * len(BATTERY)
    for gid, cloud in clouds.items():
        alt = cloud.with_model(models[gid].with_eta(_ALL_PLUS))
        for k, (check, reads_metric) in enumerate(BATTERY):
            same = check(cloud, tol) == check(alt, tol)
            assert same or reads_metric, (gid, k)
            differs[k] += not same
    assert [bool(d) for d in differs] == [reads_metric for _, reads_metric in BATTERY], differs


@pytest.mark.parametrize("module", ["adiff", "catalog", "checks", "cli", "geometry", "mechanics"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"g4motions.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(tol_exact=0.0)


# --------------------------------------------------------------------------
# Negative controls: every check must fail on its perturbed fixture
# --------------------------------------------------------------------------

FAIL_FLOOR = 1e-4


def test_negative_control_duality(models, samples, tol):
    model = models[GroupId.G4_I_CNE1]
    transposed = [[model.dual[j][i] for j in range(4)] for i in range(4)]
    bad = dataclasses.replace(model, dual=transposed)
    res = check_duality(SampleCloud(bad, samples[GroupId.G4_I_CNE1][0]), tol)
    assert not res.passed and res.max_residual >= FAIL_FLOOR


def test_negative_control_lie_closure(models, samples, tol):
    bad = dataclasses.replace(
        models[GroupId.G4_VIII_A], structure_constants=np.zeros((4, 4, 4))
    )
    res = check_lie_closure(SampleCloud(bad, samples[GroupId.G4_VIII_A][0]), tol)
    assert not res.passed and res.max_residual >= FAIL_FLOOR


def test_negative_control_jacobi(tol):
    rng = np.random.default_rng(7)
    C = np.zeros((4, 4, 4))
    for g in range(4):
        for a in range(4):
            for b in range(a + 1, 4):
                v = rng.uniform(-1, 1)
                C[g, a, b], C[g, b, a] = v, -v
    res = check_jacobi(C, tol)
    assert not res.passed and res.max_residual >= FAIL_FLOOR


def test_negative_control_killing(models, samples, tol):
    model = models[GroupId.G4_I_CNE1]
    bad = dataclasses.replace(
        model, e_con=_perturb_table(model.e_con, 1, 1, 0.01 * U1)
    )
    cloud = SampleCloud(bad, samples[GroupId.G4_I_CNE1][0])
    res = check_killing(cloud, tol)
    assert not res.passed and res.max_residual >= FAIL_FLOOR
    res = check_frame_killing(cloud, tol)
    assert not res.passed and res.max_residual >= FAIL_FLOOR


def test_negative_control_admissibility(models, samples, tol):
    model = models[GroupId.G4_I_CNE1]
    bad = dataclasses.replace(
        model, holo_basis=_perturb_table(model.holo_basis, 0, 0, 0.01 * U2)
    )
    results = check_admissibility(SampleCloud(bad, samples[GroupId.G4_I_CNE1][0]), tol)
    assert not results[0].passed and results[0].max_residual >= FAIL_FLOOR
    # untouched bases keep passing: the defect is localized
    assert all(r.passed for r in results[1:])


def test_negative_control_frame_defining(models, samples, tol):
    model = models[GroupId.G4_I_CNE1]
    bad_frame = _perturb_table(model.frame_basis, 0, 2, 0.01 * U1)
    bad = dataclasses.replace(model, frame_basis=bad_frame)
    results = check_frame_defining(SampleCloud(bad, samples[GroupId.G4_I_CNE1][0]), tol)
    assert not results[0].passed and results[0].max_residual >= FAIL_FLOOR


def test_negative_control_zero_field(models, samples, tol):
    model = models[GroupId.G4_VI_1]
    # break the transport law: constant A_1 instead of the decaying one
    bad = dataclasses.replace(
        model, holo_basis=_perturb_table(model.holo_basis, 0, 0, exp(3.0 * U4))
    )
    res = check_abelian_zero_field(SampleCloud(bad, samples[GroupId.G4_VI_1][0]), tol)
    assert not res.passed and res.max_residual >= FAIL_FLOOR


def test_negative_control_unclosed_bracket_fails_without_raising(samples, tol):
    """A model whose frame does not close on its structure constants fails
    the checks that read C instead of raising."""
    model = get_group(GroupId.G4_I_CNE1)
    bad = dataclasses.replace(model, structure_constants=np.zeros((4, 4, 4)))
    cloud = SampleCloud(bad, *samples[GroupId.G4_I_CNE1])
    assert not check_integral_algebra(cloud, tol).passed
    assert not check_frame_killing(cloud, tol).passed
    assert not check_frame_defining(cloud, tol)[0].passed


def _negate_row(table, row):
    return tuple(tuple(-e for e in r) if k == row else r for k, r in enumerate(table))


def _negate_c_row(C, row):
    C = C.copy()
    C[row] = -C[row]
    return C


#: Slips made when a source table is transcribed: each rebuilds one field
#: (or two, kept dual to each other) of a model.
TRANSCRIPTION_MUTANTS = {
    "C-negated": lambda m: {"structure_constants": -m.structure_constants},
    "C0-negated": lambda m: {"structure_constants": _negate_c_row(m.structure_constants, 0)},
    "xi0-negated": lambda m: {"xi": _negate_row(m.xi, 0)},
    "leg0-negated": lambda m: {
        "xi": _negate_row(m.xi, 0),
        "dual": tuple(zip(*_negate_row(tuple(zip(*m.dual)), 0))),  # column 0 of dual
    },
    "xi01-swapped": lambda m: {"xi": (m.xi[1], m.xi[0], *m.xi[2:])},
    "holo0-negated": lambda m: {"holo_basis": _negate_row(m.holo_basis, 0)},
}


def _battery(model, sample, tol):
    return checks.verify_group(model, *sample, tol)


@pytest.fixture(scope="module")
def clean_batteries(models, samples, tol):
    return {gid: _battery(model, samples[gid], tol) for gid, model in models.items()}


@pytest.mark.parametrize("mutant", list(TRANSCRIPTION_MUTANTS))
def test_negative_control_transcription_mutants(mutant, models, samples, clean_batteries, tol):
    """Every mutant fails, on every entry, an asserted check that passes on
    the clean model; a negated C fails ``lie_closure`` itself."""
    uncaught = []
    for gid, model in models.items():
        fields = TRANSCRIPTION_MUTANTS[mutant](model)
        for name, value in fields.items():  # the mutant differs from the entry
            old = getattr(model, name)
            if name == "structure_constants":
                assert not np.array_equal(value, old), (gid, name)
            else:
                pts = samples[gid][0][:8]
                assert not np.array_equal(eval_table(value, pts), eval_table(old, pts)), (gid, name)
        got = _battery(dataclasses.replace(model, **fields), samples[gid], tol)
        clean = clean_batteries[gid]
        assert [r.name for r in got] == [r.name for r in clean], gid
        caught = {
            r.name for r, c in zip(got, clean) if r.asserted and c.passed and not r.passed
        }
        if not caught or (mutant == "C-negated" and "lie_closure" not in caught):
            uncaught.append(gid.value)
    assert not uncaught, f"{mutant} passes every asserted check on {uncaught}"


class _SkewedGradient(FieldExpr):
    """A field with exact values whose partials are off by a factor 1 + 1e-3."""

    def __init__(self, f):
        self.f = f
        self.operands = (f,)

    def eval(self, u, f):
        return f

    def diff(self, axis):
        return self.f.diff(axis) * (1 + 1e-3)


def test_negative_control_fd_oracle(models, tol):
    model = models[GroupId.G4_I_CNE1]
    xi = [list(r) for r in model.xi]
    xi[3][1] = _SkewedGradient(xi[3][1])  # c * u2
    bad = dataclasses.replace(model, xi=xi)
    pts = catalog.sample_points(model.domain, 20, 43)
    res = check_fd_oracle(SampleCloud(bad, pts), tol)
    assert not res.passed and res.max_residual >= 100.0
