"""One proof run: lemma admission order, the `.smt2` scripts and
`vc_index.json` entries of the VCs that were checked, bounded labels, and
the corpus verdicts at bound 8."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from relprop.cli import main

from conftest import CORPUS, corpus_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The package re-exports the function `validate`, which shadows the module.
validate_mod = importlib.import_module("relprop.validate")


def prove(tmp_path, path, *extra) -> tuple[int, dict]:
    out = tmp_path / "out"
    code = main(["prove", str(path), "-o", str(out), *map(str, extra)])
    return code, json.loads((out / "vc_index.json").read_text())["vcs"]


def script_hypotheses(tmp_path, vc_name: str) -> list[str]:
    text = (tmp_path / "out" / "smt" / f"{vc_name}.smt2").read_text()
    return [line.split(": ", 1)[1] for line in text.splitlines()
            if line.startswith("; hypothesis: ")]


CIRCULAR = """
/*@ assigns \\result \\from x; */
int g(int x) {
  return x;
}

/*@ assigns \\result \\from x;
    relational P1:
      \\forall int x1;
      \\callset(\\call(f, x1, id1)) ==> \\callpure(g, x1) == 7;
    relational P2:
      \\forall int x1;
      \\callset(\\call(f, x1, id1)) ==> \\callpure(g, x1) == 7;
*/
int f(int x) {
  return x;
}
"""


def test_unproved_lemmas_do_not_justify_each_other(tmp_path):
    src = tmp_path / "circular.mc"
    src.write_text(CIRCULAR, encoding="utf-8")
    code, vcs = prove(tmp_path, src)
    assert code == 0
    for n in (1, 2):
        name = f"relational_wrapper_{n}__Rpp"
        assert vcs[name]["status"] == "unknown"
        assert vcs[name]["hypotheses"] == []
        assert vcs[name]["round"] is None
        assert script_hypotheses(tmp_path, name) == []


@pytest.mark.parametrize(
    "path", sorted(CORPUS.rglob("*.mc")), ids=lambda p: p.stem)
def test_scripts_carry_the_checked_hypotheses(tmp_path, path):
    _, vcs = prove(tmp_path, path, "--bound", 8)
    for name, entry in vcs.items():
        if entry["kind"] == "lemma":
            # Never checked (it takes its wrapper's status), so no script.
            assert not (tmp_path / "out" / "smt" / f"{name}.smt2").exists()
            continue
        assert script_hypotheses(tmp_path, name) == entry["hypotheses"]
        if entry["kind"] == "wrapper-assert":
            assert entry["round"] is None or entry["round"] >= 1
            assert (entry["round"] is None) == (entry["status"] != "valid")


# P1's wrapper compares an opaque `g_acsl(x1)`, so it needs P2's lemma.
TWO_ROUNDS = """
/*@ assigns \\result \\from x;
    relational P2:
      \\forall int x1;
      \\callset(\\call(g, x1, id1)) ==> \\callresult(id1) == x1;
*/
int g(int x) {
  return x;
}

/*@ assigns \\result \\from x;
    relational P1:
      \\forall int x1;
      \\callset(\\call(f, x1, id1)) ==> \\callpure(g, x1) == x1;
*/
int f(int x) {
  return x;
}
"""


def test_wrapper_sees_only_lemmas_of_earlier_rounds(tmp_path):
    src = tmp_path / "two_rounds.mc"
    src.write_text(TWO_ROUNDS, encoding="utf-8")
    code, vcs = prove(tmp_path, src)
    assert code == 0
    first, second = (vcs[f"relational_wrapper_{n}__Rpp"] for n in (1, 2))
    assert (first["clause"], first["status"], first["round"]) == ("P2", "valid", 1)
    assert first["hypotheses"] == []  # lemma 2 is admitted only in round 2
    assert script_hypotheses(tmp_path, "relational_wrapper_1__Rpp") == []
    assert (second["clause"], second["status"], second["round"]) == ("P1", "valid", 2)
    assert second["hypotheses"] == ["Relational_lemma_1"]
    assert script_hypotheses(tmp_path, "relational_wrapper_2__Rpp") == \
        ["Relational_lemma_1"]


def test_assume_lemmas_admits_every_lemma_in_round_zero(tmp_path):
    _, vcs = prove(tmp_path, corpus_path("comparators/cmp_sign_ok.mc"),
                   "--assume-lemmas")
    wrappers = [v for v in vcs.values() if v["kind"] == "wrapper-assert"]
    assert len(wrappers) == 3
    for entry in wrappers:
        assert entry["round"] == 0
        assert len(entry["hypotheses"]) == 2  # every lemma but its own


def test_bounded_results_say_so(tmp_path, capsys):
    code, vcs = prove(tmp_path, corpus_path("crypt.mc"))
    assert code == 0
    out = capsys.readouterr().out
    assert "Valid (bounded ±8)" in out
    assert "Valid (instance of hypothesis)" in out
    wrapper = vcs["relational_wrapper_1__Rpp"]
    assert wrapper["scope"] == "bounded"
    assert vcs["lemma__Relational_lemma_1"]["scope"] == "bounded"
    assert vcs["run__round_trip"]["scope"] == "instance"
    assert all("scope" not in v for v in vcs.values() if v["status"] != "valid")


def test_prove_validates_the_input_once(tmp_path, monkeypatch):
    original = validate_mod.validate
    calls = []

    def counting(program):
        calls.append(program)
        return original(program)

    for name, module in list(sys.modules.items()):
        if name != "relprop" and not name.startswith("relprop."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    code, _ = prove(tmp_path, corpus_path("fig5.mc"))
    assert code == 0
    assert len(calls) == 2  # the input, then the transformed program


def test_assigns_coverage_is_computed_once_per_function(tmp_path, monkeypatch):
    n = 20
    parts = ["int g = 0;\n/*@ assigns g \\from g; */\n"
             "void f_0() {\n  g = g + 1;\n  return;\n}\n"]
    for i in range(1, n + 1):
        parts.append(f"/*@ assigns g \\from g; */\nvoid f_{i}() {{\n"
                     f"  f_{i - 1}();\n  f_{i - 1}();\n  return;\n}}\n")
    src = tmp_path / "diamond.mc"
    src.write_text("\n".join(parts), encoding="utf-8")
    original = validate_mod._touched_state
    calls = []

    def counting(fn, program):
        calls.append(fn.name)
        return original(fn, program)

    monkeypatch.setattr(validate_mod, "_touched_state", counting)
    code, _ = prove(tmp_path, src)
    assert code == 0
    assert len(calls) <= n + 1


def test_corpus_verdicts_at_bound_8_match_the_known_answers(tmp_path):
    known = json.loads((PERFBENCH / "known_answers.json").read_text(
        encoding="utf-8"))["corpus"]
    paths = {name: PERFBENCH / entry["file"] if "file" in entry
             else corpus_path(name) for name, entry in known.items()}
    assert len(paths) == 15
    for name, entry in known.items():
        out = tmp_path / name.replace("/", "__")
        assert main(["prove", str(paths[name]), "--bound", "8",
                     "-o", str(out)]) in (0, 1)
        vcs = json.loads((out / "vc_index.json").read_text())["vcs"]
        verdicts = {v["clause"]: v["status"] for v in vcs.values()
                    if v["kind"] == "wrapper-assert"}
        assert verdicts.keys() == entry["clauses"].keys(), name
        for clause, answer in entry["clauses"].items():
            # reproducer C's wrapper is undecided by the bounded check
            allowed = {answer["truth"]} | (
                {"unknown"} if name == "reproducer_c.mc" else set())
            assert verdicts[clause] in allowed, (name, clause)
        for vc_name, status in entry.get("vcs", {}).items():
            assert vcs[vc_name]["status"] == status, (name, vc_name)
