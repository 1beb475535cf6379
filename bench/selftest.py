"""Self-tests of the benchmark itself.

Run from the root of a source checkout::

    python3 bench/selftest.py

or with ``python3 -m pytest bench/selftest.py``.  They check the self-time
arithmetic on a synthetic call tree, that the tracer restores every original
function, and that the exact work counts of the traced run repeat across two
runs with the same seed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_tree():
    # root [0,10] > a [1,4] > aa [2,3];  root > b [5,9] > ba [5,6], bb [7,8]
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10]))
    root = rec.open("root")
    a = rec.open("a")
    aa = rec.open("aa")
    rec.close(aa)
    rec.close(a)
    b = rec.open("b")
    ba = rec.open("ba")
    rec.close(ba)
    bb = rec.open("bb")
    rec.close(bb)
    rec.close(b)
    rec.close(root)
    own = spans.self_times(rec)
    assert own == [3, 2, 1, 2, 1, 1], own
    assert sum(own) == rec.end[root] - rec.start[root]
    stats = spans.summarize(rec)
    assert stats["b"].incl_s == 4 and stats["b"].self_s == 2 and stats["b"].calls == 1


def test_self_time_overlapping_and_transparent_children():
    rec = spans.SpanRecorder()
    rec.names = ["root", "x", "y", "lib"]
    rec.parent = [-1, 0, 0, 0]
    rec.start = [0.0, 1.0, 3.0, 8.0]
    rec.end = [10.0, 5.0, 7.0, 9.0]
    # x and y overlap on [3, 5]: their union covers 6, lib covers 1 more
    assert spans.self_times(rec)[0] == 3.0
    # a transparent child leaves its time in the parent's self time
    assert spans.self_times(rec, frozenset({"lib"}))[0] == 4.0


def test_tracer_restores_originals():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import g4motions
    from g4motions import catalog, checks, cli, geometry

    before = (catalog.eval_table_jet, checks.eval_table_jet, geometry.eval_table_jet,
              g4motions.get_group, cli.render_json, np.einsum)
    with spans.Tracer(g4motions) as tracer:
        assert checks.eval_table_jet is not before[1]
        model = g4motions.get_group("g4-ii")
        geometry.metric_batch(model, catalog.sample_points(model.domain, 4, 0))
    after = (catalog.eval_table_jet, checks.eval_table_jet, geometry.eval_table_jet,
             g4motions.get_group, cli.render_json, np.einsum)
    assert all(x is y for x, y in zip(before, after))
    stats = spans.summarize(tracer.rec)
    assert stats["catalog.get_group"].calls == 1
    assert stats["geometry.metric_batch"].calls == 1
    assert stats["catalog.eval_table_jet"].calls >= 1


def _traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    # every figure but the times, and the trace figures derived from times
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s" and not k.startswith("trace.")}


def test_counts_repeat_exactly():
    for workload in ("verify-small", "simulate"):
        first = _traced_counts(workload, 7)
        second = _traced_counts(workload, 7)
        assert first and first == second, (workload, first, second)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")
