"""The command-line driver: exit codes and artifacts."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relprop import cli
from relprop.cli import main
from relprop.parser import parse_program
from relprop.minic import Program

from conftest import corpus_path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(args) -> int:
    return main([str(a) for a in args])


def run_cold(args) -> subprocess.CompletedProcess:
    """`python -m relprop.cli` in a fresh process, which loads only what
    the command itself imports."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "relprop.cli",
                           *(str(a) for a in args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_transform_writes_output(tmp_path):
    code = run(["transform", corpus_path("fig2.mc"), "-o", tmp_path])
    assert code == 0
    out = tmp_path / "fig2.transformed.mc"
    assert out.exists()
    text = out.read_text()
    assert "relational_wrapper_1" in text
    p = parse_program(text, "t")
    assert isinstance(p, Program)


def test_transform_missing_input_exits_2(tmp_path, capsys):
    code = run(["transform", tmp_path / "nope.mc", "-o", tmp_path])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "prove", "test", "check"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    src = tmp_path / "utf16.mc"
    src.write_bytes(b"\xff\xfei\x00n\x00t\x00")
    vectors = [tmp_path] if command == "check" else []
    assert run([command, src, "-o", tmp_path / "out", *vectors]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{src}: error: ") and "utf-8" in err


@pytest.mark.parametrize("args", [
    ["prove", "--bound", "0"], ["prove", "--bound", "-3"],
    ["prove", "--bound", "two"], ["test", "--bound", "-1"],
    ["test", "--budget", "0"], ["test", "--budget", "-1"],
    ["test", "--budget", "nan"],
], ids=" ".join)
def test_out_of_range_bound_or_budget_is_a_usage_error(tmp_path, capsys,
                                                       args):
    with pytest.raises(SystemExit) as exc:
        run([args[0], corpus_path("fig2.mc"), "-o", tmp_path, *args[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: relprop ") and f"argument {args[1]}" in err
    assert not (tmp_path / "vc_index.json").exists()


def test_transform_invalid_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("int f( {")
    assert run(["transform", bad, "-o", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "bad.mc" in err


def test_transform_provenance_sidecar(tmp_path):
    code = run(["transform", corpus_path("fig5.mc"), "-o", tmp_path,
                "--emit-provenance"])
    assert code == 0
    side = json.loads((tmp_path / "fig5.provenance.json").read_text())
    assert side["relational_wrapper_1"] == "R1"
    assert side["y_id1"] == "R1"


def test_prove_fig2_exits_0_and_emits_smt(tmp_path, capsys):
    code = run(["prove", corpus_path("fig2.mc"), "-o", tmp_path, "--bound", 8])
    assert code == 0
    out = capsys.readouterr().out
    assert "Valid" in out and "R1" in out
    smt = tmp_path / "smt" / "relational_wrapper_1__Rpp.smt2"
    assert smt.exists()
    index = json.loads((tmp_path / "vc_index.json").read_text())
    wrapper = index["vcs"]["relational_wrapper_1__Rpp"]
    assert wrapper["status"] == "valid"


def test_prove_writes_no_script_for_a_lemma(tmp_path):
    # A lemma VC takes its wrapper's status; its entry stays in the index.
    assert run(["prove", corpus_path("fig2.mc"), "-o", tmp_path]) == 0
    index = json.loads((tmp_path / "vc_index.json").read_text())
    assert index["vcs"]["lemma__Relational_lemma_1"]["status"] == "valid"
    assert sorted(p.name for p in (tmp_path / "smt").iterdir()) == [
        "relational_wrapper_1__Rpp.smt2"]


def test_prove_makes_no_smt_directory_without_a_checked_vc(tmp_path):
    # A program without contracts or clauses has no VC to write a script for.
    src = tmp_path / "t.mc"
    src.write_text("int f(int x) { return x; }\n", encoding="utf-8")
    assert run(["prove", src, "-o", tmp_path / "out"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "vc_index.json"]


def test_prove_rejects_callresult_in_a_contract_without_a_traceback(tmp_path):
    src = tmp_path / "t.mc"
    src.write_text("/*@ ensures \\result == \\callresult(id1); */\n"
                   "int f(int x) { return x; }\n", encoding="utf-8")
    proc = run_cold(["prove", src, "-o", tmp_path / "out", "--bound", 3])
    assert proc.returncode == 2
    assert proc.stderr == (f"{src}:1:24: error: \\callresult is only meaningful "
                           "inside a relational clause\n")


def test_prove_counterexample_exits_1(tmp_path, capsys):
    code = run(["prove",
                corpus_path("comparators/cmp_sign_bad.mc"), "-o", tmp_path])
    assert code == 1
    assert "Counterexample" in capsys.readouterr().out


def test_prove_strict_flags_unknowns(tmp_path):
    # the factorial unfolding at inlining depth 1 keeps residual tables on
    # one side only, so the proof stays out of bounded reach
    src = tmp_path / "u.mc"
    src.write_text("""
/*@ assigns \\result \\from n;
    relational R:
      \\forall int n;
      \\callset(\\call(f, n + 1, id1), \\call(f, n, id2))
      ==> n >= 0 ==> \\callresult(id1) == \\callresult(id2) + 3;
*/
int f(int n) {
  int r = 0;
  if (n <= 0) {
    r = 0;
  } else {
    int t = 0;
    t = f(n - 1);
    r = t + 1;
  }
  return r;
}
""")
    assert run(["prove", src, "-o", tmp_path, "--strict"]) == 3
    assert run(["prove", src, "-o", tmp_path]) == 0


def test_prove_json_output(tmp_path, capsys):
    code = run(["prove", corpus_path("fig5.mc"), "-o", tmp_path, "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vcs"]["relational_wrapper_1__Rpp"]["status"] == "valid"


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        code = run(["prove", corpus_path("comparators/cmp_diff_bad.mc"),
                    "-o", tmp_path, "--json"])
        files = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                 for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        outputs.append((code, capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 1 and outputs[0][2]
    assert built.count("relprop") == 1


def test_assume_lemmas_adds_hypothesis(tmp_path, capsys):
    code = run(["prove", corpus_path("crypt.mc"), "-o", tmp_path,
                "--assume-lemmas", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    client = data["vcs"]["run__round_trip"]
    assert "Relational_lemma_1" in client["hypotheses"]
    assert client["status"] == "valid"


def test_test_finds_counterexample_and_check_confirms(tmp_path, capsys):
    cmp_bad = corpus_path("comparators/cmp_sign_bad.mc")
    code = run(["test", cmp_bad, "-o", tmp_path, "--budget", 4, "--seed", 42])
    assert code == 1
    cex = tmp_path / "cmp_sign_bad.P1.cex.json"
    assert cex.exists()
    data = json.loads(cex.read_text())
    assert data["property"] == "P1"

    code = run(["check", cmp_bad, cex])
    assert code == 1  # violation confirmed
    out = capsys.readouterr().out
    assert "fail" in out


def test_test_seed_reproducible(tmp_path):
    cmp_bad = corpus_path("comparators/cmp_sign_bad.mc")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["test", cmp_bad, "-o", out1, "--budget", 4, "--seed", 7]) == 1
    assert run(["test", cmp_bad, "-o", out2, "--budget", 4, "--seed", 7]) == 1
    a = (out1 / "cmp_sign_bad.P1.cex.json").read_text()
    b = (out2 / "cmp_sign_bad.P1.cex.json").read_text()
    assert a == b


def test_skip_proved_after_prove(tmp_path, capsys):
    fig2 = corpus_path("fig2.mc")
    assert run(["prove", fig2, "-o", tmp_path]) == 0
    code = run(["test", fig2, "-o", tmp_path, "--skip-proved", "--budget", 2])
    assert code == 0
    assert "skipped" in capsys.readouterr().out


def test_skip_proved_ignores_another_inputs_index(tmp_path, capsys):
    # One output directory, two inputs: the good comparator's proofs do not
    # cover the bad one, whose P1 has a counterexample.
    ok = corpus_path("comparators/cmp_sign_ok.mc")
    bad = corpus_path("comparators/cmp_sign_bad.mc")
    assert run(["prove", ok, "-o", tmp_path]) == 0
    capsys.readouterr()
    code = run(["test", bad, "-o", tmp_path, "--skip-proved",
                "--bound", 2, "--budget", 1])
    assert code == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "cmp_sign_bad.P1.cex.json" in out


def test_each_command_runs_in_a_cold_process(tmp_path):
    # transform, test and check each import part of their layers when they
    # run; a name missing from those imports fails here.
    bad = corpus_path("comparators/cmp_sign_bad.mc")
    proc = run_cold(["transform", bad, "-o", tmp_path])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cmp_sign_bad.transformed.mc").exists()
    proc = run_cold(["test", bad, "-o", tmp_path, "--bound", 2,
                     "--budget", 1, "--seed", 42])
    assert proc.returncode == 1, proc.stderr
    assert (tmp_path / "cmp_sign_bad.P1.cex.json").exists()
    proc = run_cold(["check", bad, tmp_path])
    assert proc.returncode == 1, proc.stderr
    assert "fail" in proc.stdout


def test_check_on_passing_implementation(tmp_path):
    # a vector that satisfies the fixed comparator: replay passes
    vec = {"property": "P1", "assignment": {"x1": 1, "x2": 2}}
    path = tmp_path / "v.cex.json"
    path.write_text(json.dumps(vec))
    code = run(["check", corpus_path("comparators/cmp_sign_ok.mc"), path])
    assert code == 0


def test_check_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.cex.json"
    path.write_text("{ not json")
    code = run(["check", corpus_path("fig2.mc"), path])
    assert code == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1]",
    '{"property": "R1", "assignment": [1, 2]}',
    '{"property": "R1", "assignment": {"x1": 1.7, "y1": 2}}',
    '{"property": "R1", "assignment": {"x1": true, "y1": 2}}',
], ids=["not_an_object", "assignment_list", "float_value", "bool_value"])
def test_check_rejects_malformed_vector(text, tmp_path, capsys):
    path = tmp_path / "bad.cex.json"
    path.write_text(text)
    assert run(["check", corpus_path("fig2.mc"), path]) == 2
    err = capsys.readouterr().err
    assert "malformed counterexample file" in err and "Traceback" not in err


def test_check_unreplayable_vector_exits_2(tmp_path, capsys):
    # fig2 defines no P1, so a cmp_sign_bad counterexample replays nothing
    cmp_bad = corpus_path("comparators/cmp_sign_bad.mc")
    assert run(["test", cmp_bad, "-o", tmp_path, "--bound", 2,
                "--budget", 1, "--seed", 42]) == 1
    capsys.readouterr()
    cex = tmp_path / "cmp_sign_bad.P1.cex.json"
    assert run(["check", corpus_path("fig2.mc"), cex]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.out
    assert captured.err.count("not replayed") == 1
    assert "P1" in captured.err


def test_check_empty_vector_file(tmp_path):
    path = tmp_path / "empty.cex.json"
    path.write_text("[]")
    assert run(["check", corpus_path("fig2.mc"), path]) == 0
