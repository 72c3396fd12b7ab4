"""Self-tests of the benchmark: generators, known answers, span arithmetic
and the run contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relprop.interp import AssertViolated, interpret  # noqa: E402
from relprop.parser import parse_program  # noqa: E402
from relprop.validate import footprint_of, validate  # noqa: E402


def _clean(text: str):
    program = parse_program(text, "<bench>")
    assert not isinstance(program, list), program
    errors = [d for d in validate(program) if d.severity == "error"]
    assert errors == []
    return program


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generators_parse_and_validate(seed):
    for k in workloads.SEQ_IFS_K:
        _clean(workloads.seq_ifs(k, seed))
    for n in workloads.DIAMOND_N:
        _clean(workloads.diamond(n, seed))


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 3, ROOT) == \
            workloads.make_inputs(w, 3, ROOT)


@pytest.mark.parametrize("seed", [0, 5])
def test_seq_ifs_asserts_hold_on_small_inputs(seed):
    for k in workloads.SEQ_IFS_K:
        program = _clean(workloads.seq_ifs(k, seed))
        fn = program.function("f")
        for a in range(-8, 9):
            try:
                interpret(fn, [a], program=program)
            except AssertViolated:  # pragma: no cover - the failure itself
                pytest.fail(f"seq_ifs({k}) assert fails at a = {a}")


@pytest.mark.parametrize("n", [1, 4, 10])
def test_diamond_footprint_is_g(n):
    program = _clean(workloads.diamond(n, 2))
    fp = footprint_of(program.function(f"f_{n}"), program)
    assert sorted(l.name for l in fp.writes) == ["g"]
    assert sorted(l.name for l in fp.reads) == ["g"]


def test_known_answers_cover_the_corpus():
    table = workloads.known_answers()["corpus"]
    on_disk = {str(p.relative_to(ROOT / workloads.CORPUS_DIR))
               for p in (ROOT / workloads.CORPUS_DIR).rglob("*.mc")}
    assert {n for n, e in table.items() if "file" not in e} == on_disk
    for name, text in workloads.make_inputs("corpus", 0, ROOT):
        program = _clean(text)
        clauses = {c.name for f in program.functions
                   for c in f.contract.relational}
        assert clauses == set(table[name]["clauses"]), name


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_children():
    trace = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, 0),
             _span("c", 5.0, 7.0, 0),
             _span("d", 5.5, 6.0, 2),
             _span("e", 9.0, 12.0, 0)]  # runs past its parent: clipped
    assert spans.self_times(trace) == pytest.approx([4.0, 3.0, 1.5, 0.5, 3.0])


def test_layer_times_self_or_outermost():
    trace = [_span("x.f", 0.0, 10.0),
             _span("trace.count", 2.0, 3.0, 0),
             _span("x.f", 4.0, 6.0, 0),
             _span("validate.footprint_of", 20.0, 25.0),
             _span("validate.footprint_of", 21.0, 23.0, 3)]
    assert spans.layer_times(trace) == pytest.approx([9.0, 1.0, 0.0, 3.0, 2.0])
    totals = spans.layer_totals(trace)
    assert totals["x.f.s"] == pytest.approx(9.0)
    assert totals["x.f.calls"] == 2


def test_recursive_footprint_spans():
    rec = spans.Recorder()
    replaced = spans.install(rec)
    try:
        program = _clean(workloads.diamond(3, 0))
        rec.input = "diamond_3"
        sys.modules["relprop.validate"].footprint_of(program.function("f_3"),
                                                     program)
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)
    calls = [s for s in rec.spans if s.name == "validate.footprint_of"]
    assert len(calls) == 1 + 2 + 4 + 8
    assert calls[0].parent is None
    assert all(s.parent is not None for s in calls[1:])
    own = spans.self_times(rec.spans)
    top = calls[0].end - calls[0].start
    assert sum(own) == pytest.approx(top, rel=1e-6, abs=1e-9)
    totals = spans.layer_totals(rec.spans)
    assert totals["validate.footprint_of.calls"] == 15
    assert spans.by_input(rec.spans)["diamond_3"][
        "validate.footprint_of.calls"] == 15


def test_install_rebinds_every_alias():
    rec = spans.Recorder()
    replaced = spans.install(rec)
    try:
        import relprop
        v = sys.modules["relprop.validate"]
        assert relprop.validate is v.validate
        assert sys.modules["relprop.cli"].validate is v.validate
        names = {(m.__name__, attr) for m, attr, _ in replaced}
        assert ("relprop.cli", "prove_program") in names
        assert ("relprop.selfcomp", "footprint_of") in names
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)


def test_count_nodes_counts_shared_nodes_once():
    from relprop.logic import FCmp, IOp, IVar
    x = IVar("x")
    s = IOp("+", x, x)
    assert spans.count_nodes(FCmp("<", s, s)) == 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {n: u for n, u, _ in run.END_TO_END}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_hard_limit_records_a_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "HARD_LIMIT_S", 0.5)
    summary, metrics = run.run_workload("seq-ifs", 0, 1.0, False, tmp_path)
    assert summary["failed"] >= 1 and summary["attempted"] >= 1
    assert summary["correct"] is False
    assert 0.4 < metrics["prove_s"] < 5.0
    assert "hard limit" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "corpus",
         "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
