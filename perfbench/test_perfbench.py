"""Tests of the benchmark itself: self-time arithmetic, call-site guards,
and a tiny-size smoke run of every workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    t.op = 1
    root = t.begin("root")  # [0, 10]
    clock.now = 1.0
    a = t.begin("a")  # [1, 4]
    clock.now = 2.0
    g = t.begin("leaf")  # [2, 3]
    clock.now = 3.0
    t.end(g)
    clock.now = 4.0
    t.end(a)
    clock.now = 6.0
    b = t.begin("leaf")  # [6, 9]
    clock.now = 9.0
    t.end(b)
    clock.now = 10.0
    t.end(root)
    st = tr.self_times(t.spans)
    assert st == pytest.approx({"root": 10 - 3 - 3, "a": 3 - 1, "leaf": 1 + 3})
    assert tr.call_counts(t.spans) == {"root": 1, "a": 1, "leaf": 2}
    assert {s.op for s in t.spans} == {1}
    assert [s.parent for s in t.spans] == [-1, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        tr.Span("parent", 0.0, 10.0, -1, 0),
        tr.Span("x", 1.0, 5.0, 0, 0),
        tr.Span("y", 3.0, 7.0, 0, 0),  # overlaps x: union is [1, 7]
        tr.Span("z", 9.0, 12.0, 0, 0),  # runs past the parent: clipped to [9, 10]
    ]
    st = tr.self_times(spans)
    assert st["parent"] == pytest.approx(10 - 6 - 1)
    assert st["x"] == pytest.approx(4) and st["y"] == pytest.approx(4) and st["z"] == pytest.approx(3)


def test_spans_close_innermost_first():
    t = tr.Tracer()
    outer = t.begin("outer")
    t.begin("inner")
    with pytest.raises(RuntimeError):
        t.end(outer)


def test_calls_outside_an_operation_leave_no_spans():
    t = tr.Tracer()
    f = t.wrap("f", lambda x: x + 1)
    assert f(1) == 2 and t.spans == []
    t.op = 7
    assert f(2) == 3
    assert [(s.name, s.op) for s in t.spans] == [("f", 7)]


def test_missing_call_site_fails_before_patching_anything():
    sys.path.insert(0, str(ROOT / "src"))
    from editsketch import matcher

    original = matcher.analyze
    t = tr.Tracer()
    with pytest.raises(tr.CallSiteMissing):
        t.install(tr.CALL_SITES + (("matcher", "no_such_name", "x.y"),))
    assert matcher.analyze is original
    t.install()
    try:
        assert matcher.analyze is not original
    finally:
        t.uninstall()
    assert matcher.analyze is original


def test_inputs_depend_only_on_the_seed():
    for name in wl.WORKLOADS:
        assert wl.instance(name, 3, 1, 0.05) == wl.instance(name, 3, 1, 0.05)
        assert wl.instance(name, 3, 1, 0.05).text != wl.instance(name, 4, 1, 0.05).text


def test_checks_count_wrong_outputs_and_wrong_cases(monkeypatch):
    import run

    es = run.load_package()
    inst = wl.warmup_instance()
    ex = run.execute(es, inst, None, 0)
    assert run.check(es, inst, ex, None) == []
    ex.occ = set(sorted(ex.occ)[1:])
    assert any("decode gave" in p for p in run.check(es, inst, ex, None))

    wrong = dataclasses.replace(inst, expect="period")
    monkeypatch.setattr(wl, "instance", lambda *args: wrong)
    monkeypatch.setitem(wl.WORKLOADS, "wrong-case", wl.Workload(make=None, base=1))
    loop = run.Loop(es, "wrong-case", 0, 1.0)
    loop.run_one(0)
    assert (loop.attempted, loop.failed) == (1, 1)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    r = _run(["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--scale", "0.02"])
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, r.stderr
    assert result["attempted"] >= wl.WORKLOADS[workload].base
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = _run(["--workload", "regions", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
