"""What is built once per process: catalog models (with their orientation
and symbolic partials), table evaluation plans, simulate kernels and the
CLI parser.  A shared object must give the same results as a fresh one,
and must not be changeable by the caller it was handed to."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from g4motions import adiff, catalog, cli
from g4motions.catalog import GroupId, GroupParams, get_group
from g4motions.mechanics import PhasePoint, integrate_trajectory

SRC = Path(__file__).resolve().parents[1] / "src"

ETA_INT_LISTS = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]


def test_cache_equal_params_share_one_model():
    model = get_group(GroupId.G4_I_CNE1, GroupParams(c=2.0, em_alphas=(2.0, 1.0, 1.0, 1.0)))
    same = GroupParams(c=2, em_alphas=[2, 1, 1, 1], eta=ETA_INT_LISTS)
    assert same == model.params and hash(same) == hash(model.params)
    assert get_group("g4-i-cne1", same) is model
    assert get_group(GroupId.G4_II) is get_group(GroupId.G4_II, GroupParams())
    assert isinstance(same.eta[0], tuple) and isinstance(same.em_alphas[0], float)
    for other in (GroupParams(c=3.0), GroupParams(em_alphas=(2.0, 1.0, 1.0, 0.5))):
        assert get_group(GroupId.G4_I_CNE1, other) is not model
    assert get_group(GroupId.G4_II, GroupParams(c=3.0)) is not get_group(GroupId.G4_II)


def test_cache_negative_zero_params_get_their_own_model():
    """-0.0 == 0.0, but a summary prints the model's alphas, so the two may
    not share a model."""
    plus = get_group(GroupId.G4_II, GroupParams(em_alphas=(0.0, 1.0, 1.0, 1.0)))
    minus = get_group(GroupId.G4_II, GroupParams(em_alphas=(-0.0, 1.0, 1.0, 1.0)))
    assert plus is not minus
    assert repr(minus.params.alphas().tolist()) == "[-0.0, 1.0, 1.0, 1.0]"


def test_cache_shared_model_is_read_only():
    model = get_group(GroupId.G4_III)
    arrays = [model.structure_constants, model.eta_eff, model.orientation.relabel,
              get_group(GroupId.G4_VI_2).abelian_block]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[0] += 1.0  # a view of a read-only array is read-only
    with pytest.raises(TypeError):
        model.xi[0][0] = model.xi[0][1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.notes = ("changed",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.params.c = 5.0
    assert get_group(GroupId.G4_III).structure_constants[0, 0, 0] == 0.0


def test_cache_partials_are_built_once_per_node():
    model = get_group(GroupId.G4_IV)
    for table in (model.xi, model.e_con):
        for e in (e for row in table for e in row):
            assert adiff.gradient_exprs(e) is adiff.gradient_exprs(e)


def _plan_misses() -> tuple[int, int]:
    return adiff._plan.cache_info().misses, catalog._layout.cache_info().misses


def test_cache_plan_built_on_first_evaluation_only(tmp_path, capsys):
    """A model no plan was built for: building it builds no plan, its first
    verify builds them, and a second verify with other points builds none."""
    before = _plan_misses()
    get_group(GroupId.G4_VI_2, GroupParams(em_alphas=(0.625, 1.0, 1.0, 1.0)))
    assert _plan_misses() == before
    argv = ["verify", "--group", "g4-vi-2", "--param", "alpha1=0.625",
            "--out", str(tmp_path / "verify.json")]
    assert cli.main([*argv, "--points", "40", "--seed", "1"]) in (0, 1)
    first = _plan_misses()
    assert first[0] > before[0] and first[1] > before[1]
    assert cli.main([*argv, "--points", "90", "--seed", "2"]) in (0, 1)
    assert _plan_misses() == first


def _count_compiles(monkeypatch) -> list:
    calls = []
    compile_values = adiff.compile_values

    def counted(*args, **kwargs):
        calls.append(1)
        return compile_values(*args, **kwargs)

    monkeypatch.setattr(adiff, "compile_values", counted)
    return calls


def test_cache_kernel_compiled_once_per_model(monkeypatch):
    model = dataclasses.replace(get_group(GroupId.G4_II))  # a model no kernel was built for
    calls = _count_compiles(monkeypatch)
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    first = integrate_trajectory(model, state0, T=0.05, h=1e-3)
    second = integrate_trajectory(model, state0, T=0.05, h=1e-3)
    assert len(calls) == 1
    for name in ("u", "p", "H", "Y"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_cache_negative_control_replaced_model_compiles_its_own_kernel(monkeypatch):
    """A model copied with another potential table has the same entry and
    params, so only a kernel keyed on the model object itself tells them apart."""
    model = get_group(GroupId.G4_II)
    state0 = PhasePoint(u=np.zeros(4), p=[0.1, 0.2, 0.3, 0.4])
    base = integrate_trajectory(model, state0, T=0.05, h=1e-3)
    perturbed = dataclasses.replace(
        model, holo_basis=[[1.5 * e for e in row] for row in model.holo_basis]
    )
    assert perturbed.params == model.params
    calls = _count_compiles(monkeypatch)
    traj = integrate_trajectory(perturbed, state0, T=0.05, h=1e-3)
    assert len(calls) == 1
    assert not np.array_equal(traj.p, base.p)
    assert np.array_equal(integrate_trajectory(model, state0, T=0.05, h=1e-3).p, base.p)
    assert len(calls) == 1


def _cold_run(argv, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "g4motions", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


def test_cache_warm_runs_match_cold_subprocess(tmp_path, capsys, monkeypatch):
    """Repeated runs in one process, under two sets of constants in turn,
    write the bytes of the same runs in a fresh process."""
    verify = ["verify", "--group", "all", "--points", "50", "--out", "verify.json"]
    sim = ["simulate", "--group", "g4-vi-2", "--u0=0.1,0.2,-0.1,0.3", "--T", "0.5",
           "--out", "sim.csv"]
    variants = ([], ["--param", "alpha1=0.5", "--param", "eta=diag:1,1,1,1"])

    def outputs(run, extra):
        run([*verify, *extra])
        summary = run([*sim, *extra])
        return [summary, *((tmp_path / name).read_bytes() for name in ("verify.json", "sim.csv"))]

    cold = [outputs(lambda argv: _cold_run(argv, tmp_path), extra) for extra in variants]

    def warm(argv):
        assert cli.main(argv) in (0, 1)
        return capsys.readouterr().out

    monkeypatch.chdir(tmp_path)  # the summary names the csv as given
    for _ in range(2):
        for extra, want in zip(variants, cold):
            assert outputs(warm, extra) == want


def test_cache_reused_parser_carries_no_param(capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    assert parser.parse_args(["list", "--param", "c=3"]).param == ["c=3"]
    assert parser.parse_args(["list"]).param == []
    argv = ["list", "--group", "g4-i-cne1"]
    assert cli.main([*argv, "--param", "c=1"]) == 2  # c = 1 is the other entry
    assert "c != 1" in capsys.readouterr().err
    assert cli.main(argv) == 0
