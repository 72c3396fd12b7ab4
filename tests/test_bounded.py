"""The bounded validity oracle."""

import pytest

from relprop.logic import (
    FBool, FCmp, FImp, FQuant, FApp, FAnd, IVar, ICon, IOp, IApp, ediv, emod,
)
from relprop.vcgen import VerificationCondition, vcs_for
from relprop.bounded import check_bounded, BudgetExceeded, _scalar_search
from relprop.selfcomp import transform


def vc_of(goal, hyps=(), name="t__g", kind="assert"):
    return VerificationCondition(name, "t", "g", kind, goal, tuple(hyps))


def test_x_less_than_x_plus_one_valid():
    goal = FCmp("<", IVar("x"), IOp("+", IVar("x"), ICon(1)))
    r = check_bounded(vc_of(goal), 8)
    assert r.is_valid
    assert r.bound == 8


def test_monotonicity_of_negation_counterexample():
    # x1 < x2 ==> -x1 < -x2 is falsified; enumeration is lexicographic
    goal = FImp(FCmp("<", IVar("x1"), IVar("x2")),
                FCmp("<", IOp("-", ICon(0), IVar("x1")),
                     IOp("-", ICon(0), IVar("x2"))))
    r = check_bounded(vc_of(goal), 4)
    assert r.status == "counterexample"
    assert r.assignment == {"x1": -4, "x2": -3}


def test_fig2_goal_valid_at_289_rows(fig2):
    t = transform(fig2)
    vc = [v for v in vcs_for(t, admitted=frozenset())
          if v.kind == "wrapper-assert"][0]
    r = check_bounded(vc, 8)
    assert r.is_valid
    assert r.rows == 17 ** 2


def test_budget_exceeded_raises():
    goal = FCmp("<", IVar("a"), IVar("b"))
    with pytest.raises(BudgetExceeded):
        check_bounded(vc_of(goal), 8, budget=10)


def test_hypothesis_instance_shortcut():
    lemma = FQuant("forall", ("m", "k"),
                   FCmp("==", IApp("d", (IApp("e", (IVar("m"), IVar("k"))),
                                         IVar("k"))), IVar("m")))
    goal = FCmp("==", IApp("d", (IApp("e", (IVar("msg"), IVar("key"))),
                                 IVar("key"))), IVar("msg"))
    r = check_bounded(vc_of(goal, [("lemma", lemma)]), 8)
    assert r.is_valid
    assert r.method == "instantiation"


def test_table_falsification_is_unknown_not_counterexample():
    # an uninterpreted symbol can always be bent to break this goal, but
    # no concrete run is thereby exhibited
    goal = FCmp("==", IApp("f", (IVar("x"),)), ICon(0))
    r = check_bounded(vc_of(goal), 4)
    assert r.status == "unknown"
    assert r.reason == "tables"


def test_havoc_falsification_is_unknown():
    goal = FCmp("==", IVar("x$h1"), ICon(0))
    r = check_bounded(vc_of(goal), 4)
    assert r.status == "unknown"
    assert r.reason == "havoc"


def test_quantified_goal_valid():
    goal = FQuant("forall", ("x",),
                  FCmp("<=", IOp("*", IVar("x"), IVar("x")),
                       IOp("*", IOp("*", IVar("x"), IVar("x")),
                           IOp("*", IVar("x"), IVar("x")))))
    # x^2 <= x^4 fails at... x^2 <= x^4 holds for |x| >= 1 and x == 0
    r = check_bounded(vc_of(goal), 3)
    assert r.is_valid


def test_exists_hypothesis_skolemized():
    hyp = FQuant("exists", ("w",), FCmp("==", IVar("w"), IVar("x")))
    goal = FCmp("==", IVar("x"), IVar("x"))
    r = check_bounded(vc_of(goal, [("h", hyp)]), 3)
    assert r.is_valid


def test_euclidean_division_convention():
    assert ediv(7, 2) == 3 and emod(7, 2) == 1
    assert ediv(-7, 2) == -4 and emod(-7, 2) == 1
    assert ediv(7, -2) == -3 and emod(7, -2) == 1
    assert ediv(-7, -2) == 4 and emod(-7, -2) == 1
    assert ediv(5, 0) == 0  # totalized
    goal = FCmp("==", IOp("/", ICon(-7), ICon(2)), ICon(-4))
    assert check_bounded(vc_of(goal), 2).is_valid


def test_vectorized_and_scalar_agree_on_small_formulas():
    from relprop.bounded import _vectorized_search
    import itertools
    cases = [
        FCmp("<", IOp("*", IVar("a"), IVar("b")), ICon(10)),
        FImp(FCmp(">", IVar("a"), ICon(0)),
             FCmp(">=", IOp("/", IVar("b"), IVar("a")), ICon(-5))),
        FAnd((FCmp("!=", IVar("a"), IVar("b")),
              FCmp("==", IOp("-", IVar("a"), IVar("b")), ICon(1)))),
    ]
    for form in cases:
        rows_v, a_v = _vectorized_search([form], ["a", "b"], 3, 10**9)
        rows_s, a_s, _ = _scalar_search([form], ["a", "b"], 3, 10**9)
        assert (a_v is None) == (a_s is None)
        if a_v is not None:
            assert a_v == a_s  # same lexicographic first witness
