"""SMT-LIB emission."""

import re
import shutil
import subprocess

import pytest

from relprop.logic import FBool, FCmp, IVar, ICon, IOp, FQuant, FApp, IApp
from relprop.vcgen import VerificationCondition, vcs_for
from relprop.smtlib import emit_smtlib
from relprop.selfcomp import transform


def vc_of(goal, hyps=(), name="t__g"):
    return VerificationCondition(name, "t", "g", "assert", goal, tuple(hyps))


def test_true_goal_script_shape():
    script = emit_smtlib(vc_of(FBool(True)))
    assert "(set-logic UFNIA)" in script
    assert script.rstrip().endswith("(assert (not true))\n(check-sat)")


def test_declarations_sorted_and_typed():
    goal = FCmp("==", IApp("f_acsl", (IVar("b"), IVar("a"))), ICon(0))
    hyp = FApp("p_acsl", (IVar("z"),))
    script = emit_smtlib(vc_of(goal, [("h1", hyp)]))
    decls = [l for l in script.splitlines() if l.startswith("(declare-fun")]
    assert decls == [
        "(declare-fun a () Int)",
        "(declare-fun b () Int)",
        "(declare-fun z () Int)",
        "(declare-fun f_acsl (Int Int) Int)",
        "(declare-fun p_acsl (Int) Bool)",
    ]
    assert "(assert (p_acsl z))" in script


def test_negative_literals_and_operators():
    goal = FCmp("!=", IOp("/", IVar("x"), ICon(-2)), ICon(3))
    script = emit_smtlib(vc_of(goal))
    assert "(div x (- 2))" in script
    assert "(not (= (div x (- 2)) 3))" in script


def test_quantifier_emission():
    goal = FQuant("forall", ("x",), FCmp("<", IVar("x"), IOp("+", IVar("x"), ICon(1))))
    script = emit_smtlib(vc_of(goal))
    assert "(forall ((x Int))" in script


def test_emission_deterministic(fig5):
    t = transform(fig5)
    vcs = vcs_for(t, t.lemma_names)
    a = [emit_smtlib(vc) for vc in vcs]
    t2 = transform(fig5)
    b = [emit_smtlib(vc) for vc in vcs_for(t2, t2.lemma_names)]
    assert a == b


def test_distinct_vcs_distinct_scripts(fig2, fig5):
    seen = {}
    for p in (fig2, fig5):
        t = transform(p)
        for vc in vcs_for(t, t.lemma_names):
            script = emit_smtlib(vc)
            assert script not in seen.values()
            seen[vc.name] = script


def _solver():
    for name in ("z3", "cvc5", "cvc4"):
        path = shutil.which(name)
        if path:
            return name, path
    return None


@pytest.mark.skipif(_solver() is None, reason="no SMT solver on PATH")
def test_solver_answers_unsat_on_fig2(fig2, tmp_path):
    name, path = _solver()
    t = transform(fig2)
    vc = [v for v in vcs_for(t, t.lemma_names) if v.kind == "wrapper-assert"][0]
    script = tmp_path / "vc.smt2"
    script.write_text(emit_smtlib(vc))
    args = [path, str(script)] if name == "z3" else [path, "--lang=smt2", str(script)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "unsat"
