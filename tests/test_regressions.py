"""Regression tests for defects of the hand-written walkers, the recursive
footprint, the unbounded interpreter recursion, int64 wraparound in the
vectorized bounded check, variable capture when a callee's contract is
bound to a call, `\\old` of a logic binder, a mirror declared twice and
lemma names for globals, and structural equality that cost as much as the
trees it compares."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relprop.bounded import check_bounded
from relprop.cli import main
from relprop.dynamic import (
    ClauseOracleError, InputVector, evaluate_clause, find_counterexample,
    run_wrapper, runtime_check,
)
from relprop.logic import FCmp, ICon, IOp, IVar
from relprop.interp import AssertViolated, interpret
from relprop.minic import GlobalLoc, Program
from relprop.parser import parse_program
from relprop.pretty import pred_str
from relprop.prove import prove_program
from relprop.selfcomp import transform
from relprop.validate import MissingAssigns, footprint_of, validate
from relprop.vcgen import VerificationCondition

from conftest import load

# The package re-exports the function `validate`, which shadows the module.
validate_mod = importlib.import_module("relprop.validate")


def parse(src: str) -> Program:
    p = parse_program(src, "t.mc")
    assert isinstance(p, Program), [str(d) for d in p]
    return p


def run_cli(tmp_path, command: str, src: str) -> int:
    path = tmp_path / "t.mc"
    path.write_text(src, encoding="utf-8")
    return main([command, str(path), "-o", str(tmp_path / "out")])


# -- deep recursion in the interpreter ------------------------------------------


def test_fact_random_search_returns_without_recursion_error():
    t = transform(load("fact.mc"))
    wrapper = t.entries[0].wrapper
    assert find_counterexample(wrapper, t, ("random", 0, 1000)) is None


def test_deep_recursion_is_an_error_outcome_not_a_crash():
    source = load("fact.mc")
    t = transform(source)
    entry = t.entries[0]
    vec = InputVector({"n": 5000}, property=entry.clause.name)
    report = run_wrapper(entry.wrapper, vec, t)
    assert report.outcome == "error"
    assert report.error.startswith("FuelExhausted")
    with pytest.raises(ClauseOracleError):
        evaluate_clause(entry.clause, entry.wrapper, source, vec)


def test_deep_callpure_in_oracle_is_a_clause_oracle_error():
    source = parse("""
    /*@ assigns \\result \\from n; */
    int sum(int n) {
      int r = 0;
      if (n > 0) {
        int t = 0;
        t = sum(n - 1);
        r = n + t;
      }
      return r;
    }

    /*@ assigns \\result \\from x;
        relational Q:
          \\forall int x1;
          \\callset(\\call(id, x1, id1))
          ==> \\callresult(id1) + \\callpure(sum, x1) == x1 + \\callpure(sum, x1);
    */
    int id(int x) {
      return x;
    }
    """)
    entry = transform(source).entries[0]
    assert evaluate_clause(entry.clause, entry.wrapper, source,
                           InputVector({"x1": 5}))
    with pytest.raises(ClauseOracleError):
        evaluate_clause(entry.clause, entry.wrapper, source,
                        InputVector({"x1": 5000}))


# -- assigns coverage of called functions ---------------------------------------


UNCOVERED_CALLEE = """
int g;

/*@ assigns \\result \\from x; */
int f(int x) {
  int r = g;
  return r;
}

int client(int y) {
  int a = 0;
  a = f(y);
  return a;
}
"""


@pytest.mark.parametrize("command", ["prove", "transform"])
def test_uncovered_callee_is_an_input_error(tmp_path, capsys, command):
    assert run_cli(tmp_path, command, UNCOVERED_CALLEE) == 2
    assert "f: assigns clauses do not cover g" in capsys.readouterr().err


# -- global read only in a condition ---------------------------------------------


CONDITION_READ = """
int g;

/*@ assigns \\result \\from x;
    relational P:
      \\forall int x1;
      \\callset(\\call(f, x1, id1))
      ==> \\callresult(id1) >= 0;
*/
int f(int x) {
  int r = 0;
  if (g > 0) {
    r = 1;
  }
  return r;
}

void client(int y) {
  int a = 0;
  int b = 0;
  g = 1;
  a = f(y);
  g = 0;
  b = f(y);
  /*@ assert a == b; */
  return;
}
"""


def test_global_read_in_condition_needs_assigns(tmp_path, capsys):
    p = parse(CONDITION_READ)
    with pytest.raises(AssertViolated):
        interpret(p.function("client"), [3], program=p)
    assert "f: assigns clauses do not cover g" in \
        [d.message for d in validate(p)]
    assert run_cli(tmp_path, "prove", CONDITION_READ) == 2


def test_call_result_target_counts_as_touched_state():
    p = parse("""
    int g;

    /*@ assigns \\result \\from x; */
    int h(int x) { return x; }

    /*@ assigns \\result \\from x; */
    int f(int x) {
      g = h(x);
      return x;
    }

    int client(int y) {
      int a = 0;
      a = f(y);
      return a;
    }
    """)
    assert "f: assigns clauses do not cover g" in \
        [d.message for d in validate(p)]


# -- \callresult under a logic function application -----------------------------


LOGIC_APP = """
/*@ axiomatic Dbl {
  logic integer dbl(integer a);
} */

/*@ assigns \\result \\from x;
    relational R:
      \\forall int x1;
      \\callset(\\call(id, x1, id1))
      ==> dbl(\\callresult(id1)) == dbl(x1);
*/
int id(int x) {
  return x;
}
"""


def test_callresult_inside_logic_application_is_translated(tmp_path, capsys):
    assert run_cli(tmp_path, "transform", LOGIC_APP) == 0
    text = (tmp_path / "out" / "t.transformed.mc").read_text()
    assert "\\callresult" not in text
    capsys.readouterr()
    assert run_cli(tmp_path, "prove", LOGIC_APP) == 0
    out = capsys.readouterr().out
    assert "R" in out and "Valid" in out


# -- footprints --------------------------------------------------------------


def diamond(n: int) -> str:
    parts = ["int g = 0;\n",
             "/*@ assigns g \\from g; */\nvoid f_0() {\n  g = g + 1;\n  return;\n}\n"]
    for i in range(1, n + 1):
        parts.append(f"/*@ assigns g \\from g; */\nvoid f_{i}() {{\n"
                     f"  f_{i - 1}();\n  f_{i - 1}();\n  return;\n}}\n")
    return "\n".join(parts)


def test_diamond_footprint_scans_each_function_once(monkeypatch):
    p = parse(diamond(20))
    calls = []
    original = validate_mod._touched_state

    def counting(fn, program):
        calls.append(fn.name)
        return original(fn, program)

    monkeypatch.setattr(validate_mod, "_touched_state", counting)
    fp = footprint_of(p.function("f_20"), p)
    assert fp.writes == {GlobalLoc("g")} and fp.reads == {GlobalLoc("g")}
    assert len(calls) == len(set(calls)) == 21


def test_prove_walks_each_diamond_body_a_bounded_number_of_times(
        tmp_path, monkeypatch):
    # Each f_i's footprint is asked for at its callers; the walk must take
    # f_(i-1)'s memoized footprint instead of descending to f_0 again.
    n = 40
    original = validate_mod._callees
    calls = []

    def counting(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(validate_mod, "_callees", counting)
    assert run_cli(tmp_path, "prove", diamond(n)) == 0
    assert len(calls) <= 2 * n + 4


def test_top_down_footprints_walk_each_diamond_body_once(monkeypatch):
    # Asking for f_40 first memoizes every function its walk finishes, so
    # f_39 ... f_0 are answered from the memo.
    n = 40
    p = parse(diamond(n))
    original = validate_mod._callees
    calls = []

    def counting(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(validate_mod, "_callees", counting)
    for i in range(n, -1, -1):
        fp = footprint_of(p.function(f"f_{i}"), p)
        assert fp.writes == {GlobalLoc("g")} and fp.reads == {GlobalLoc("g")}
    assert len(calls) <= 2 * n + 4


def test_mutually_recursive_footprints_are_unchanged():
    p = parse("""
    int g;
    int h;
    int k;

    /*@ assigns g \\from g, k; */
    void a(int n) {
      if (n > 0) {
        b(n - 1);
      }
      g = g + k;
      return;
    }

    /*@ assigns h \\from h; */
    void b(int n) {
      if (n > 0) {
        a(n - 1);
      }
      h = h + 1;
      return;
    }
    """)
    assert validate(p) == []
    fa = footprint_of(p.function("a"), p)
    fb = footprint_of(p.function("b"), p)
    assert fa.writes == fb.writes == {GlobalLoc("g"), GlobalLoc("h")}
    assert fa.reads == fb.reads == {GlobalLoc("g"), GlobalLoc("h"),
                                    GlobalLoc("k")}


def test_missing_assigns_raised_on_every_call():
    p = parse(UNCOVERED_CALLEE)
    for _ in range(2):
        with pytest.raises(MissingAssigns):
            footprint_of(p.function("client"), p)


# -- int64 wraparound in the vectorized bounded check ----------------------------


def test_int64_wraparound_does_not_prove_valid():
    # x * 2^62 * 4 wraps to 0 in int64 for every x; the exact scalar path
    # finds the counterexample, and it replays.
    t = transform(parse("""
    /*@ assigns \\result \\from x;
        relational W:
          \\forall int x1;
          \\callset(\\call(f, x1, id1))
          ==> \\callresult(id1) * 4611686018427387904 * 4 == 0;
    */
    int f(int x) {
      return x;
    }
    """))
    entry = prove_program(t, 8).results["relational_wrapper_1__Rpp"]
    assert entry["status"] == "counterexample"
    vec = InputVector(entry["assignment"], property="W")
    assert [r.outcome for r in runtime_check(t, [vec])] == ["fail"]


def test_products_within_int64_stay_vectorized():
    goal = FCmp("!=", IOp("*", IOp("*", IVar("x"), ICon(2 ** 40)), ICon(4)),
                ICon(1))
    r = check_bounded(VerificationCondition("t", "t", "g", "assert", goal, ()), 8)
    assert (r.status, r.method) == ("valid", "vectorized")


# -- binding a callee's contract to a call -----------------------------------------


CAPTURING_ENSURES = """
/*@ requires x >= 0; assigns \\result \\from x;
    ensures \\forall int y; y == x ==> \\result == y + 1; */
int g(int x) { return x + 1; }
/*@ requires VAR >= 0; assigns \\result \\from VAR; */
int f(int VAR) { int r = 0; r = g(VAR); /*@ assert r == 0; */ return r; }
"""

CAPTURING_REQUIRES = """
/*@ requires \\forall int y; y == x ==> y >= 0; assigns \\result \\from x; */
int g(int x) { return x + 1; }
/*@ requires VAR >= 0; assigns \\result \\from VAR; */
int f(int VAR) { int r = 0; r = g(VAR); return r; }
"""


def test_callee_quantifier_does_not_capture_caller_variable():
    # r == g(v) == v + 1 >= 1, so the assert fails at v = 0 whatever the
    # caller's variable is called.
    for var in ("y", "z"):
        results = prove_program(transform(parse(
            CAPTURING_ENSURES.replace("VAR", var))), 8).results
        assert results["f__assert"]["status"] == "counterexample", var
        assert results["f__assert"]["assignment"] == {var: 0}


def test_callee_requires_quantifier_does_not_capture_caller_variable():
    for var in ("y", "z"):
        results = prove_program(transform(parse(
            CAPTURING_REQUIRES.replace("VAR", var))), 8).results
        assert results["f__requires_of_g"]["status"] == "valid", var


def test_call_discarding_an_int_result_proves(tmp_path, capsys):
    src = """
    /*@ assigns \\result \\from x;
        ensures \\result == x + 1; */
    int g(int x) { return x + 1; }
    /*@ assigns \\result \\from y; */
    int f(int y) { g(y); return y; }
    """
    assert run_cli(tmp_path, "prove", src) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "Valid" in captured.out


@pytest.mark.parametrize("ensures", [
    "\\forall int y; \\old(y) == y",
    "\\forall int y; y == \\old(x) ==> \\result == \\old(y)",
    "\\forall int x; \\old(x) == x",
])
def test_old_of_a_logic_binder_is_the_binder(ensures):
    # A logic binder has no pre-state: \old(y) is y itself.
    src = f"""
    /*@ assigns \\result \\from x;
        ensures {ensures}; */
    int g(int x) {{ return x; }}
    """
    results = prove_program(transform(parse(src)), 8).results
    assert results["g__ensures_1"]["status"] == "valid"


def test_source_declared_mirror_is_not_declared_again(tmp_path):
    src = """
    /*@ axiomatic H {
      logic integer h_acsl(integer a);
    } */
    /*@ assigns \\result \\from x;
        relational R1:
          \\forall int x1;
          \\callset(\\call(h, x1, id1), \\call(h, x1, id2))
          ==> \\callresult(id1) == \\callresult(id2);
    */
    int h(int x) { return x + 1; }
    """
    assert run_cli(tmp_path, "transform", src) == 0
    text = (tmp_path / "out" / "t.transformed.mc").read_text(encoding="utf-8")
    assert text.count("h_acsl(integer") == 1


# -- a global that a call leaves alone keeps its name in the lemma ---------------


UNTOUCHED_GLOBAL = """
int y;
int z;

/*@ assigns y \\from y;
    relational R: \\callset(\\call(h, id1), \\call(h, id2))
      ==> \\at(z, Pre_id1) == \\at(z, Post_id2);
*/
void h() {
  y = y + 1;
  return;
}
"""

# k has a pointer formal, so its mirror is label-parameterized and reads g
# at its labels.
LABELLED_GLOBAL = """
int g;

/*@ assigns *p \\from *p, g;
    assigns g \\from g;
    relational R: \\callset(\\call(k, id1), \\call(k, id2))
      ==> \\at(g, Pre_id1) == \\at(g, Pre_id2)
      ==> \\at(g, Post_id1) == \\at(g, Post_id2);
*/
void k(int *p) {
  *p = *p + g;
  g = g + 1;
  return;
}
"""


def _lemma_text(src: str) -> str:
    t = transform(parse(src))
    (lemma,) = t.entries[0].axiomatic.lemmas()
    return pred_str(lemma.body)


def test_lemma_keeps_the_name_of_an_untouched_global():
    # No call of the clause touches z, so no binder names its per-call
    # values: `z_id1_pre == z_id2_post` would be quantified on its own and
    # make any two integers equal.
    text = _lemma_text(UNTOUCHED_GLOBAL)
    assert text.endswith("h_acsl(y_id1_pre, y_id1_post) ==> z == z")
    assert "z_id" not in text


def test_lemma_reads_a_labelled_callee_global_at_the_call_labels():
    # The mirror k_acsl{pre, post} reads \at(g, pre) and \at(g, post), so
    # the lemma must name g's values at the same labels.
    text = _lemma_text(LABELLED_GLOBAL)
    assert text.endswith("\\at(g, pre_id1) == \\at(g, pre_id2) ==> "
                         "\\at(g, post_id1) == \\at(g, post_id2)")
    assert "g_id" not in text


EQUAL_BRANCHES = """
/*@ assigns \\result \\from a, c;
    relational R: \\forall int a, c;
      \\callset(\\call(f, a, c, id1), \\call(f, a, c, id2))
      ==> \\callresult(id1) == \\callresult(id2);
*/
int f(int a, int c) {
  int x = a;
  if (c > 0) { BODY } else { BODY }
  return x;
}
"""


def test_equal_branch_values_merge_in_time_of_the_dag():
    # Both branches double x forty times: equal values whose trees have
    # 2^40 leaves. Comparing them (and simplifying their ite) node pair by
    # node pair costs the dag; comparing them as trees never finishes.
    src = EQUAL_BRANCHES.replace("BODY", "x = x + x; " * 40)
    code = ("import sys\n"
            "from relprop.parser import parse_program\n"
            "from relprop.selfcomp import transform\n"
            "from relprop.vcgen import vcs_for\n"
            "t = transform(parse_program(sys.stdin.read()))\n"
            "print(len(vcs_for(t, admitted=t.lemma_names)))\n")
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-c", code], input=src,
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
