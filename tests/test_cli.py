"""Command-line interface: listing, verification runs, simulation, exit codes."""
import dataclasses
import json
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from g4motions import catalog, cli
from g4motions.cli import main
from oracles import reference_render_json


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_all_entries(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["entries"]) == 15


def test_list_single_entry_structure_constants(capsys):
    code, out, _ = run_cli(["list", "--group", "g4-viii-a"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 1
    triples = {
        (c["gamma"], c["alpha"], c["beta"]): c["value"]
        for c in doc["entries"][0]["structure_constants"]
    }
    assert triples == {(3, 1, 2): 1.0, (1, 2, 3): 1.0, (2, 3, 1): 1.0}


def test_list_unknown_group(capsys):
    code, _, err = run_cli(["list", "--group", "nosuch"], capsys)
    assert code == 2
    assert "unknown group" in err


def test_verify_single_entry(capsys):
    code, out, _ = run_cli(
        ["verify", "--group", "g4-vi-1", "--points", "40", "--seed", "7"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    names = {r["check"] for r in doc["results"]}
    assert "abelian_zero_field" in names
    zero_field = [r for r in doc["results"] if r["check"] == "abelian_zero_field"]
    assert all(r["passed"] for r in zero_field)


def test_verify_invalid_param(capsys):
    code, _, err = run_cli(["verify", "--group", "g4-i-cne1", "--param", "c=1"], capsys)
    assert code == 2
    assert "c != 1" in err


def test_verify_unknown_param(capsys):
    code, _, err = run_cli(["verify", "--group", "g4-ii", "--param", "zz=1"], capsys)
    assert code == 2


def test_verify_json_deterministic(tmp_path, capsys):
    args = ["verify", "--group", "g4-v", "--seed", "42", "--points", "60"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_human_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--group", "g4-iv", "--points", "30", "--format", "human"], capsys
    )
    assert code == 0
    assert "g4-iv" in out
    assert "source-table findings:" in out


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--group", "g4-ii", "--points", "30", "--format", "csv"], capsys
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "check,group,n_points,max_residual,tolerance,passed,asserted"


def test_verify_seed_ignores_environment(capsys, monkeypatch, tmp_path):
    """--seed is the one way to set the seed: a G4_SEED variable is ignored."""
    monkeypatch.setenv("G4_SEED", "99")
    p1 = tmp_path / "env.json"
    assert main(["verify", "--group", "g4-ii", "--points", "25", "--out", str(p1)]) == 0
    doc = json.loads(p1.read_text())
    assert doc["config"]["seed"] == 42


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    code, out, _ = run_cli(
        [
            "simulate",
            "--group",
            "g4-i-cne1",
            "--T",
            "0.2",
            "--h",
            "1e-3",
            "--out",
            str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["group"] == "g4-i-cne1"
    assert summary["max_drift_H"] <= 1e-8
    assert out_csv.exists()
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("t,u1")


def test_simulate_flat_free_case_zero_drift(tmp_path, capsys):
    args = [
        "simulate",
        "--group",
        "g4-vi-1",
        "--T",
        "1.0",
        "--h",
        "1e-2",
        "--out",
        str(tmp_path / "flat.csv"),
    ]
    for key in ("k=0", "l=0", "eps01=0", "alpha1=0", "alpha2=0", "alpha3=0", "alpha4=0"):
        args += ["--param", key]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["max_drift_H"] <= 1e-13
    assert max(summary["max_drift_Y"]) <= 1e-13
    assert not summary["domain_exit"]


@pytest.mark.parametrize(
    "params, alphas, admissible",
    [
        ((), [1.0, 1.0, 1.0, 1.0], False),
        (("alpha1=0", "alpha2=0", "alpha3=0"), [0.0, 0.0, 0.0, 1.0], True),
    ],
)
def test_simulate_reports_alphas_admissibility(tmp_path, capsys, params, alphas, admissible):
    # the Abelian-subgroup entries are verified only along alpha4
    args = ["simulate", "--group", "g4-vi-1", "--out", str(tmp_path / "traj.csv")]
    for key in params:
        args += ["--param", key]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["alphas"] == alphas
    assert summary["alphas_admissible"] is admissible
    # non-admissible constants still integrate, with one warning naming the admissible ones
    if admissible:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: "), err
        assert "[0.0, 0.0, 0.0, 1.0]" in lines[0]


UNWRITABLE_OUT = {
    "list": ["list", "--group", "g4-ii"],
    "verify": ["verify", "--group", "g4-ii", "--points", "5"],
    "simulate": ["simulate", "--group", "g4-ii", "--T", "0.01"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", list(UNWRITABLE_OUT))
def test_unwritable_out_fails_cleanly(command, target, tmp_path, capsys, monkeypatch):
    # exit 1 means a failed verification; an output path that cannot be written is exit 2
    out = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path

    def no_model(*args, **kwargs):
        raise AssertionError("the output target is checked before any model is built")

    monkeypatch.setattr(catalog, "get_group", no_model)
    code, _, err = run_cli([*UNWRITABLE_OUT[command], "--out", str(out)], capsys)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert str(out) in lines[0]


VERIFY_ONLY_OPTIONS = [
    ["--seed", "5"],
    ["--points", "7"],
    ["--tol-exact", "1e-12"],
    ["--tol-deriv", "1e-3"],
    ["--format", "csv"],
]


@pytest.mark.parametrize("option", VERIFY_ONLY_OPTIONS, ids=lambda o: o[0].lstrip("-"))
@pytest.mark.parametrize("command", [["list"], ["simulate", "--group", "g4-ii", "--T", "0.01"]], ids=lambda c: c[0])
def test_verify_only_options_are_usage_errors(command, option, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, *option, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_config_records_every_parameter(capsys):
    configs = []
    for c in ("2", "3"):
        argv = ["verify", "--group", "g4-i-cne1", "--points", "10", "--param", f"c={c}"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        configs.append(json.loads(out)["config"])
    assert configs[0] != configs[1]
    assert (configs[0]["c"], configs[1]["c"]) == (2.0, 3.0)
    assert {"alpha_angle", "k", "l", "eps01"} <= set(configs[0])


@pytest.mark.parametrize("command", [["list"], ["simulate", "--group", "g4-iii", "--T", "0.01"]], ids=lambda c: c[0])
def test_orientation_is_not_computed_outside_verify(command, tmp_path, capsys, monkeypatch):
    def refuse(model):
        raise AssertionError(f"{command[0]} computed the tetrad orientation of {model.name}")

    catalog._memo_group.cache_clear()  # a model oriented by an earlier test would hide a call
    monkeypatch.setattr(catalog, "orient_tetrad", refuse)
    code, _, err = run_cli([*command, "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err


def test_verify_orients_each_tetrad_once(capsys, monkeypatch):
    """The tetrad_duality notes carry each entry's orientation decision,
    computed once per entry and never for the alternate-eta cloud; a second
    run reads it from the same models."""
    orient = catalog.orient_tetrad
    calls = []

    def counted(model):
        calls.append(model.name)
        return orient(model)

    catalog._memo_group.cache_clear()  # earlier tests built and oriented the models
    monkeypatch.setattr(catalog, "orient_tetrad", counted)
    code, out, _ = run_cli(["verify", "--group", "all", "--points", "20"], capsys)
    assert code == 0
    assert sorted(calls) == sorted(gid.value for gid in catalog.GroupId)
    calls.clear()
    assert run_cli(["verify", "--group", "all", "--points", "20"], capsys)[:2] == (0, out)
    assert calls == []
    rows = [r for r in json.loads(out)["results"] if r["check"] == "tetrad_duality"]
    assert len(rows) == 15
    for r in rows:
        status = "ambiguous" if r["group"] in ("g4-iv", "g4-v") else "resolved"
        residual = orient(catalog.get_group(r["group"])).potential_residual
        assert r["notes"] == [
            f"orientation {status}; rows_are_coordinates=True; potential fit residual {residual:.2e}"
        ]


def test_negative_control_tetrad_fitting_neither_reading_fails_verify(capsys, monkeypatch):
    """A derived tetrad marked printed fits neither reading of the potential
    table, so its orientation fails: verify exits 1 on ``tetrad_duality``
    alone, whose residual is within tolerance and whose note says why."""
    entry = catalog.get_group(catalog.GroupId.G4_VI_2)
    fixture = dataclasses.replace(entry, tetrad_printed=True)
    monkeypatch.setattr(catalog, "get_group", lambda gid, params=None: fixture)
    code, out, _ = run_cli(["verify", "--group", "g4-vi-2", "--points", "20"], capsys)
    assert code == 1
    failed = [r for r in json.loads(out)["results"] if r["asserted"] and not r["passed"]]
    assert [r["check"] for r in failed] == ["tetrad_duality"]
    (row,) = failed
    assert row["max_residual"] <= row["tolerance"]
    (note,) = row["notes"]
    assert note.startswith("orientation failed; rows_are_coordinates=True;")
    assert note.endswith("; fails: neither reading of the tetrad reproduces the potential table")


def test_simulate_rejects_zero_step(capsys):
    code, _, err = run_cli(["simulate", "--group", "g4-ii", "--h", "0"], capsys)
    assert code == 2


def test_simulate_requires_single_group(capsys):
    code, _, err = run_cli(["simulate", "--group", "all"], capsys)
    assert code == 2


@pytest.mark.parametrize("group, eta", [("g4-ii", "diag:2,2,2,2"), ("g4-vii-a", "diag:1,1,1,-1")])
def test_second_signature_differs_from_the_first(group, eta, capsys):
    """An all-plus frame metric, configured (g4-ii) or reached by the block
    completion (g4-vii-a), gets the default signature as its second one."""
    code, out, _ = run_cli(
        ["verify", "--group", group, "--points", "3", "--param", f"eta={eta}", "--format", "csv"], capsys
    )
    assert code == 0
    names = [row.split(",")[0] for row in out.splitlines()[1:]]
    assert len(names) == len(set(names))
    labels = {name[name.index("[eta=") :] for name in names if "[eta=" in name}
    assert labels == {"[eta=++++]", "[eta=+---]" if group == "g4-ii" else "[eta=+--+]"}


def test_verify_rejects_zero_points(capsys):
    code, _, err = run_cli(["verify", "--group", "g4-ii", "--points", "0"], capsys)
    assert code == 2


def test_report_summary_counts_match_results(capsys):
    code, out, _ = run_cli(["verify", "--group", "g4-iii", "--points", "25"], capsys)
    doc = json.loads(out)
    for group, counts in doc["summary"].items():
        rows = [r for r in doc["results"] if r["group"] == group]
        assert counts["passed"] == sum(r["passed"] and r["asserted"] for r in rows)
        assert counts["failed"] == sum((not r["passed"]) and r["asserted"] for r in rows)
        assert counts["flagged"] == sum(not r["asserted"] for r in rows)
        assert counts["passed"] + counts["failed"] + counts["flagged"] == len(rows)


# --------------------------------------------------------------------------
# Failure surface: degenerate inputs end in a one-line reason, never a
# traceback.  Each row runs the real entry point in a fresh interpreter, so
# output written by compiled libraries is caught too.
# --------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

FAILURE_SURFACE = [
    # argv, expected exit, fragment of the reason
    (["verify", "--group", "g4-ii", "--points", "20", "--param", "c=nan"], 2, "finite"),
    (["verify", "--group", "g4-i-cne1", "--points", "20", "--param", "c=inf"], 2, "finite"),
    (["verify", "--group", "g4-vi-1", "--points", "20", "--param", "k=1e300"], 2, "overflow"),
    (["verify", "--group", "g4-ii", "--points", "20", "--tol-deriv", "nan"], 2, "finite"),
    (["simulate", "--group", "g4-i-ceq1", "--u0", "50,0,0,0"], 2, "outside the sampling box"),
    (["simulate", "--group", "g4-viii-a"], 2, "[0.2, 2.94159]"),
    (["simulate", "--group", "g4-ii", "--u0", "100,100,100,100"], 2, "outside the sampling box"),
    (["simulate", "--group", "g4-ii", "--T", "inf"], 2, "finite"),
    (["simulate", "--group", "g4-ii", "--u0", "0,0,0,0", "--T", "1e-4", "--h", "1e-3"], 2, "0 RK4 steps"),
    (["simulate", "--group", "g4-ii", "--u0", "0,0,0,0", "--T", "1e300", "--h", "1e-300"], 2, "non-finite step count"),
    (["simulate", "--group", "g4-ii", "--u0", "0,0,0,0", "--T", "1e9", "--h", "1e-3"],
     2, "T=1000000000.0 and h=0.001 give round(T / h) = 1000000000000 RK4 steps, above the cap of 1000000"),
    (["verify", "--group", "g4-ii", "--points", "5", "--param", "alpha1=1e308"], 2, "non-finite"),
    (["verify", "--group", "g4-vi-4-1", "--points", "20", "--param", "k=1.02"], 2, "use g4-vi-4-2"),
    (["verify", "--group", "g4-iii", "--points", "20", "--param", "alpha_angle=3.14"], 2,
     "g4-iii requires |sin(alpha_angle)| >= 0.03125, got 0.00159"),
    (["verify", "--group", "g4-ii", "--points", "20", "--param", "k=abc"], 2, "--param k expects a number"),
    (["verify", "--group", "g4-vi-1", "--points", "20", "--param", "eps01=1.0"], 2,
     "--param eps01 expects an integer"),
    (["simulate", "--group", "g4-ii", "--u0=0,a,0,0"], 2, "--u0 expects a number, got 'a'"),
    (["simulate", "--group", "g4-ii", "--u0=0,0,0"], 2, "--u0 expects four finite comma-separated numbers, got '0,0,0'"),
    (["simulate", "--group", "g4-ii", "--u0=0,0,0,0,0"], 2, "--u0 expects four finite comma-separated numbers"),
    (["simulate", "--group", "g4-ii", "--p0=1,2"], 2, "--p0 expects four finite comma-separated numbers, got '1,2'"),
    (["simulate", "--group", "g4-ii", "--u0=nan,0,0,0"], 2, "--u0 expects four finite comma-separated numbers"),
    (["simulate", "--group", "g4-ii", "--p0=inf,0,0,0"], 2, "--p0 expects four finite comma-separated numbers"),
    (["verify", "--group", "g4-ii", "--points", "20", "--param", "eta=diag:1,2"], 2,
     "--param eta expects four finite comma-separated numbers, got '1,2'"),
    (["verify", "--group", "g4-ii", "--points", "20", "--seed", "-1"], 2, "--seed must be non-negative"),
    # 10^15 points take 28.4 PiB, above the 128 TiB a process can map by default:
    # the first allocation fails before any memory is touched
    (["verify", "--group", "g4-ii", "--points", "1000000000000000"], 2, "out of memory"),
    (["simulate", "--group", "g4-ii", "--u0=0,0,0,0", "--p0=1e200,1e200,0,0", "--T", "0.01", "--h", "1e-3"],
     2, "FloatingPointError"),
    (["simulate", "--group", "g4-ii", "--u0=0,0,0,0", "--p0=1e160,1e160,0,0", "--T", "0.01", "--h", "1e-3"],
     2, "FloatingPointError"),
]


@pytest.mark.parametrize(
    "argv, code, reason", FAILURE_SURFACE, ids=[" ".join(row[0]) for row in FAILURE_SURFACE]
)
def test_degenerate_input_fails_cleanly(argv, code, reason, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = ["--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "g4motions", *argv, *out],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode in (0, 1, 2)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert reason in lines[0]


# --------------------------------------------------------------------------
# The CLI keeps its freed heap (glibc): a verify chunk's freed blocks are
# reused by the next chunk and the next call instead of being faulted in
# again.
# --------------------------------------------------------------------------

GLIBC = platform.libc_ver()[0] == "glibc"

WARM_FAULTS = """
import os, resource
from g4motions.cli import main
argv = ["verify", "--group", "g4-ii", "--points", "2000", "--out", os.devnull]
for k in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    if k >= 2:  # after two warm-up calls
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the heap thresholds are glibc's")
def test_warm_verify_faults_in_no_fresh_pages(tmp_path):
    """2,000 points are two chunks; with glibc's default thresholds each
    warm call takes about 2,750 minor faults, with the CLI's about 3."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WARM_FAULTS],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120, check=True,
    )
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 3 and max(faults) < 64, faults


@pytest.mark.skipif(not GLIBC, reason="the heap thresholds are glibc's")
def test_heap_thresholds_are_accepted():
    main(["list", "--group", "g4-ii", "--out", os.devnull])
    assert cli._keep_freed_heap() == (1, 1)  # mallopt's success, per setting


def test_heap_thresholds_skipped_without_mallopt():
    assert cli._keep_freed_heap.__wrapped__(types.SimpleNamespace()) == ()


def test_render_json_matches_reference_writer(tmp_path, capsys, monkeypatch):
    """``render_json`` against its ``isinstance``-chain form, byte for byte,
    on the documents the CLI writes (a report, the list and a simulate
    summary) and on one holding every kind of value the writer meets."""
    docs = []
    real = cli.render_json

    def record(value, indent=0):
        if indent == 0:  # a document, not a value inside one
            docs.append(value)
        return real(value, indent)

    monkeypatch.setattr(cli, "render_json", record)
    run = str(tmp_path / "run.csv")
    for argv in (
        ["verify", "--group", "all", "--points", "20"],
        ["list"],
        ["simulate", "--group", "g4-i-cne1", "--T", "0.2", "--h", "1e-3", "--out", run],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    monkeypatch.undo()
    assert len(docs) == 3
    docs.append(
        {
            "numpy": [np.float64(0.1), np.int64(-7), np.float32(1.5), np.bool_(True)],
            "plain": [True, False, None, 0, -3, 2**70, 1e-300, -0.0, float("inf"), float("nan")],
            "enum": catalog.GroupId.G4_II,
            "text": ['quote " and \\ backslash', "tab\tnewline\n", "non-ASCII: é ∂ 𝔤", ""],
            "tuple": (1.0, "a", (2, ())),
            "empty": [{}, [], ()],
        }
    )
    for doc in docs:
        assert cli.render_json(doc) == reference_render_json(doc)
