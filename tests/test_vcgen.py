"""Weakest preconditions and VC assembly."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from relprop.minic import (
    INT, VOID, Program, FunctionDef, GlobalDecl, Param, Contract,
    DeclStmt, AssignStmt, IfStmt, WhileStmt, AssertStmt, ReturnStmt,
    IntLit, Var, Bin, Cmp, PAnd, OldTerm, At,
)
from relprop.parser import parse_program
from relprop.selfcomp import transform
from relprop.logic import (
    IVar, ICon, IOp, FCmp, FImp, TRUE, subst, simplify, free_vars,
)
from relprop.vcgen import (
    wp, vcs_for, function_vcs, compile_pred, compile_lemma,
    MissingLoopInvariant,
)
from relprop import vcgen
from relprop.bounded import check_bounded
from relprop.prove import prove_program

from conftest import CORPUS, diamond
from strategies import clause_program_strategy, program_strategy


def test_wp_skip_is_identity():
    post = FCmp(">", IVar("x"), ICon(0))
    assert wp([], post) == post


def test_wp_assignment_substitutes():
    # wp(x = x + 1, x > 0) = x + 1 > 0
    stmt = AssignStmt(Var("x"), Bin("+", Var("x"), IntLit(1)))
    post = FCmp(">", IVar("x"), ICon(0))
    assert wp(stmt, post) == FCmp(">", IOp("+", IVar("x"), ICon(1)), ICon(0))


def test_wp_h_body_under_renaming_is_valid(fig5):
    # the body of h under the first call's renaming against
    # y_id1 == \old(y_id1) + 10
    body = [
        DeclStmt("a_1", IntLit(10)),
        AssignStmt(Var("y_id1"), Bin("+", Var("y_id1"), Var("a_1"))),
    ]
    post = FCmp("==", IVar("y_id1"), IOp("+", IVar("y_id1$pre"), ICon(10)))
    got = wp(body, post)
    assert got == FCmp("==", IOp("+", IVar("y_id1"), ICon(10)),
                       IOp("+", IVar("y_id1$pre"), ICon(10)))
    # at entry the $pre snapshot equals the variable: valid for all values
    from relprop.logic import rename
    assert simplify(rename(got, {"y_id1$pre": "y_id1"})) == TRUE


def _bounded_valid(form, bound=6) -> bool:
    from relprop.vcgen import VerificationCondition
    vc = VerificationCondition("t", "t", "t", "assert", form, ())
    return check_bounded(vc, bound).status == "valid"


def test_wp_if_merges_branch_assignments():
    stmt = IfStmt(Cmp(">", Var("x"), IntLit(0)),
                  (AssignStmt(Var("y"), IntLit(1)),),
                  (AssignStmt(Var("y"), IntLit(2)),))
    post = FCmp(">", IVar("y"), ICon(0))
    got = wp(stmt, post)
    assert free_vars(got) <= {"x"}  # y was merged away through the branches
    assert _bounded_valid(got)  # both branches satisfy y > 0


def test_wp_while_requires_invariant():
    loop = WhileStmt(Cmp("<", Var("i"), IntLit(3)), None, None,
                     (AssignStmt(Var("i"), Bin("+", Var("i"), IntLit(1))),))
    with pytest.raises(MissingLoopInvariant):
        wp(loop, TRUE)


def test_wp_while_three_obligations():
    src = """
    int f(int n) {
      int i = 0;
      int s = 0;
      /*@ loop invariant s == i * 10 && i <= n || i == 0; */
      while (i < n) {
        s = s + 10;
        i = i + 1;
      }
      return s;
    }
    """
    p = parse_program(src)
    items = function_vcs(p.function("f"), p)
    kinds = sorted(i.kind for i in items)
    assert kinds == ["loop-init", "loop-preserve"]


def test_loop_function_ensures_vc():
    src = """
    /*@ ensures \\result == n * 10; */
    int f(int n) {
      int i = 0;
      int s = 0;
      /*@ loop invariant s == i * 10 && (i <= n || i == 0); */
      while (i < n) {
        s = s + 10;
        i = i + 1;
      }
      return s;
    }
    """
    p = parse_program(src)
    t = transform(p)
    vcs = vcs_for(t, t.lemma_names)
    by_kind = {vc.kind: vc for vc in vcs}
    assert set(by_kind) == {"ensures", "loop-init", "loop-preserve"}
    # preservation is bounded-valid; the exit-implies-post needs i >= n,
    # which this invariant provides only with the loop guard negation
    r = check_bounded(by_kind["loop-preserve"], 5)
    assert r.status == "valid"
    init = check_bounded(by_kind["loop-init"], 5)
    assert init.status == "valid"


def test_ensures_vc_uses_old():
    src = """
    int g;

    /*@ assigns g \\from g;
        ensures g == \\old(g) + 1;
    */
    void inc() {
      g = g + 1;
      return;
    }
    """
    p = parse_program(src)
    items = function_vcs(p.function("inc"), p)
    assert len(items) == 1
    assert simplify(items[0].goal) == TRUE


def test_call_rule_assumes_callee_contract():
    src = """
    int g;

    /*@ assigns g \\from g;
        ensures g == \\old(g) + 1;
    */
    void inc() {
      g = g + 1;
      return;
    }

    /*@ assigns g \\from g;
        ensures g == \\old(g) + 2;
    */
    void twice() {
      inc();
      inc();
      return;
    }
    """
    p = parse_program(src)
    items = function_vcs(p.function("twice"), p)
    assert len(items) == 1
    assert _bounded_valid(items[0].goal)


def test_wrapper_vc_self_exclusion(fig5):
    t = transform(fig5)
    vcs = vcs_for(t, t.lemma_names)  # every lemma admitted
    wrapper_vc = [v for v in vcs if v.kind == "wrapper-assert"][0]
    assert "Relational_lemma_1" not in wrapper_vc.hypothesis_names()


def test_other_lemmas_enter_wrapper_hypotheses():
    src = open("src/relprop/corpus/comparators/cmp_sign_ok.mc").read()
    p = parse_program(src)
    t = transform(p)
    vcs = vcs_for(t, t.lemma_names)
    for vc in vcs:
        if vc.kind != "wrapper-assert":
            continue
        own = t.lemma_of_wrapper(vc.function)
        names = vc.hypothesis_names()
        assert own not in names
        others = {e.lemma_name for e in t.entries} - {own}
        assert others <= set(names)


def test_lemma_vcs_emitted_with_link_provenance(fig5):
    t = transform(fig5)
    lemma_vcs = [v for v in vcs_for(t, t.lemma_names) if v.kind == "lemma"]
    assert len(lemma_vcs) == 1
    assert lemma_vcs[0].hypotheses == ()
    assert lemma_vcs[0].links == ("h",)


def test_client_vc_gains_lemma_when_admitted(crypt):
    t = transform(crypt)
    with_lemma = [v for v in vcs_for(t, admitted=frozenset({"Relational_lemma_1"}))
                  if v.assertion == "round_trip"][0]
    without = [v for v in vcs_for(t, admitted=frozenset())
               if v.assertion == "round_trip"][0]
    assert "Relational_lemma_1" in with_lemma.hypothesis_names()
    assert "Relational_lemma_1" not in without.hypothesis_names()
    assert with_lemma.links == ("decrypt", "encrypt")


def test_compile_lemma_closes_formula(fig6):
    t = transform(fig6)
    lemma = t.program.axiomatics[0].lemmas()[0]
    form = compile_lemma(lemma, t.program)
    assert free_vars(form) == set()


def test_wp_substitution_lemma_spot_check():
    # wp(x := e, Q) equals Q with x replaced by e, syntactically
    q = FCmp("<", IOp("*", IVar("x"), IVar("y")), ICon(9))
    e = Bin("-", Var("y"), IntLit(3))
    got = wp(AssignStmt(Var("x"), e), q)
    want = subst(q, {"x": IOp("-", IVar("y"), ICon(3))})
    assert got == want


# -- contracts over canonical names, bound to a call by substitution -------------


def test_contract_terms_compile_to_canonical_names():
    q = parse_program("""
    int g = 0;
    /*@ assigns g \\from g, *p; assigns \\result \\from x;
        ensures \\result == \\old(x + g) + \\at(*p, Pre) + *p + \\at(g, Here); */
    int f(int x, int *p) { g = g + *p; return x + g; }
    """, "t.mc")
    form = compile_pred(q.function("f").contract.ensures[0], q)
    assert free_vars(form) == {"$ret", "x$pre", "g$pre", "p$cell$pre",
                               "p$cell", "g"}


def test_caller_result_does_not_leak_into_callee_ensures():
    # The early return writes f's own `$ret`; the call binds g's
    # `\\result` to a fresh name, which `r` then holds.
    results = prove_program(transform(parse_program("""
    /*@ assigns \\result \\from x;
        ensures \\result == x + 1; */
    int g(int x) { return x + 1; }
    /*@ assigns \\result \\from y; */
    int f(int y) {
      int r = 0;
      if (y > 5) { return 1; }
      r = g(y);
      /*@ assert r == y + 1; */
      return r;
    }
    """, "t.mc")), 8).results
    assert results["f__assert"]["status"] == "valid"


# -- functions that cannot yield an obligation --------------------------------


def vc_list(t) -> list[tuple[str, str, str]]:
    return [(vc.name, vc.kind, vc.function)
            for vc in vcs_for(t, admitted=frozenset())]


def same_vcs_as_a_pass_over_every_function(program) -> None:
    t = transform(program)
    with mock.patch.object(vcgen, "_obliges", return_value=True):
        want = vc_list(t)
    assert vc_list(t) == want


@pytest.mark.parametrize("name", sorted(
    p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*.mc")))
def test_skipping_obligation_free_functions_keeps_the_corpus_vcs(name):
    same_vcs_as_a_pass_over_every_function(
        parse_program((CORPUS / name).read_text(encoding="utf-8"), name))


def test_no_diamond_function_can_yield_an_obligation():
    p = parse_program(diamond(14), "diamond.mc")
    assert not any(vcgen._obliges(fn, p) for fn in p.functions)
    same_vcs_as_a_pass_over_every_function(p)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(clause_program_strategy())
def test_skipping_obligation_free_functions_keeps_clause_program_vcs(drawn):
    same_vcs_as_a_pass_over_every_function(drawn[0])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy())
def test_skipping_obligation_free_functions_keeps_program_vcs(program):
    same_vcs_as_a_pass_over_every_function(program)


def test_a_loop_without_invariant_is_still_refused():
    # The loop is the function's only possible obligation.
    p = parse_program("""
    /*@ assigns \\result \\from n; */
    int f(int n) {
      int i = 0;
      while (i < n) { i = i + 1; }
      return i;
    }
    """, "t.mc")
    assert vcgen._obliges(p.function("f"), p)
    with pytest.raises(MissingLoopInvariant):
        vcs_for(transform(p), admitted=frozenset())


def test_a_call_to_a_function_with_requires_is_an_obligation():
    # f has no ensures, assert or loop: its one obligation is g's requires.
    p = parse_program("""
    /*@ requires x > 0; assigns \\result \\from x; */
    int g(int x) { return x; }
    /*@ assigns \\result \\from y; */
    int f(int y) { int r = 0; r = g(y); return r; }
    """, "t.mc")
    assert [(vc.function, vc.kind) for vc in vcs_for(
        transform(p), admitted=frozenset())] == [("f", "call-requires")]
    same_vcs_as_a_pass_over_every_function(p)
