"""The bounded validity oracle."""

import contextlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from relprop import bounded
from relprop.logic import (
    FBool, FCmp, FImp, FQuant, FApp, FAnd, FOr, FNot, IVar, ICon, IOp, IIte,
    IApp, CMP, ediv, free_vars,
)
from relprop.vcgen import VerificationCondition, vcs_for
from relprop.bounded import (
    check_bounded, BudgetExceeded, _some_row, _scalar_search,
    _vectorized_search,
)
from relprop.selfcomp import transform

from conftest import load


def vc_of(goal, hyps=(), name="t__g", kind="assert"):
    return VerificationCondition(name, "t", "g", kind, goal, tuple(hyps))


def test_x_less_than_x_plus_one_valid():
    goal = FCmp("<", IVar("x"), IOp("+", IVar("x"), ICon(1)))
    r = check_bounded(vc_of(goal), 8)
    assert r.status == "valid"
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
    assert r.status == "valid"
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
    assert r.status == "valid"
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
    assert r.status == "valid"


def test_exists_hypothesis_skolemized():
    hyp = FQuant("exists", ("w",), FCmp("==", IVar("w"), IVar("x")))
    goal = FCmp("==", IVar("x"), IVar("x"))
    r = check_bounded(vc_of(goal, [("h", hyp)]), 3)
    assert r.status == "valid"


def test_euclidean_division_convention():
    assert ediv(7, 2) == 3
    assert ediv(-7, 2) == -4
    assert ediv(7, -2) == -3
    assert ediv(-7, -2) == 4
    assert ediv(5, 0) == 0  # totalized
    goal = FCmp("==", IOp("/", ICon(-7), ICon(2)), ICon(-4))
    assert check_bounded(vc_of(goal), 2).status == "valid"


def test_vectorized_and_scalar_agree_on_small_formulas():
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
        # same lexicographic first witness, after the same number of rows
        assert (rows_v, a_v) == (rows_s, a_s)


NAMES = ("a", "b", "c", "d")
COMPARE = st.sampled_from(sorted(CMP))
CONSTANTS = st.integers(-9, 9).map(ICon)


def forms(names):
    """Formulas over `names` with ite, `/` (possibly by zero), negative
    constants and constant-only parts."""
    variables = st.sampled_from(names).map(IVar) if names else CONSTANTS
    t = st.recursive(variables | variables | CONSTANTS, lambda t: st.one_of(
        st.builds(IOp, st.sampled_from(("+", "-", "*", "/")), t, t),
        st.builds(IIte, st.builds(FCmp, COMPARE, t, t), t, t)), max_leaves=6)
    atoms = st.builds(FCmp, COMPARE, t, t) | st.booleans().map(FBool)
    return st.recursive(atoms, lambda f: st.one_of(
        f.map(FNot), st.builds(FImp, f, f),
        st.lists(f, min_size=2, max_size=3).map(lambda xs: FAnd(tuple(xs))),
        st.lists(f, min_size=2, max_size=3).map(lambda xs: FOr(tuple(xs)))),
        max_leaves=4)


@st.composite
def problems(draw):
    names = NAMES[:draw(st.integers(0, 4))]
    problem = draw(st.lists(forms(names), min_size=1, max_size=2))
    # `v op c` pins move the first witness past the first row
    for v in names:
        problem += draw(st.lists(st.builds(FCmp, COMPARE, st.just(IVar(v)),
                                           CONSTANTS), max_size=1))
    return problem, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from((12, None, bounded._CHUNK)))
def test_vectorized_and_scalar_search_agree(problem, chunk):
    # A 12-cell chunk cuts the box into one-value prefixes and partial slices.
    # None stands for a block of one value of the first variable: the box
    # is then decided first whenever no conjunct spans every variable, and
    # a box with a satisfying row goes on to the walk.
    problem, bound = problem
    assert bounded._fits_int64(problem, bound)
    order = sorted({v for f in problem for v in free_vars(f)})
    if chunk is None:
        chunk = (2 * bound + 1) ** max(len(order) - 1, 0)
    rows_s, a_s, _ = _scalar_search(problem, order, bound, 10**9)
    with mock.patch.object(bounded, "_CHUNK", chunk):
        assert _vectorized_search(problem, order, bound, 10**9) == (rows_s, a_s)


@pytest.mark.parametrize("witness", [
    {"a": -8, "b": -8, "c": -8, "d": -8, "e": -8, "f": -7},
    {"a": 3, "b": -2, "c": 0, "d": 1, "e": -8, "f": 8},
    {"a": 8, "b": 8, "c": 8, "d": 8, "e": 8, "f": 8},
    {"a": -8, "b": 5, "c": 0, "d": -1, "e": 7, "f": 2, "g": -3},
], ids=["first-block", "middle-block", "last-row", "one-value-prefix"])
def test_vectorized_witness_in_a_later_block(witness):
    # 17^6 rows span 17 blocks of 17^5; with 7 variables the first axis
    # takes one value per block. Rows count up to and including the witness.
    order = sorted(witness)
    problem = [FAnd(tuple(FCmp("==", IVar(v), ICon(x))
                          for v, x in witness.items()))]
    index = 0
    for v in order:
        index = index * 17 + witness[v] + 8
    assert _vectorized_search(problem, order, 8, 10**10) == (index + 1, witness)


def test_six_variable_check_stays_small():
    # cmp_pair_ok's P2 wrapper has 6 variables: 17^6 rows, all valid.
    vc = next(v for v in vcs_for(transform(load("comparators/cmp_pair_ok.mc")),
                                 admitted=frozenset())
              if v.name == "relational_wrapper_2__Rpp")
    tracemalloc.start()
    try:
        r = check_bounded(vc, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.status == "valid" and r.method == "vectorized"
    assert r.rows == 17 ** 6
    assert peak < 64 * 2 ** 20


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from((12, bounded._CHUNK)))
def test_contraction_counts_the_satisfying_rows(problem, chunk):
    # The contraction decides whether the brute-force count is positive.
    # With a 12-cell chunk most factors do not fit and it declines.
    problem, bound = problem
    order = sorted({v for f in problem for v in free_vars(f)})
    assume(order)  # a box of one row is never decided
    ev = bounded._Scalar(bound, 10**9)
    want = sum(all(ev.form(f, dict(zip(order, values))) for f in problem)
               for values in itertools.product(range(-bound, bound + 1),
                                               repeat=len(order)))
    with mock.patch.object(bounded, "_CHUNK", chunk):
        got = _some_row(problem, order, bound, float("inf"))
    assert got == (want > 0) or (got is None and chunk == 12)


def cmp_pair_ok_vc(name):
    return next(v for v in vcs_for(transform(load("comparators/cmp_pair_ok.mc")),
                                   admitted=frozenset())
                if v.name == name)


@pytest.mark.parametrize("name", ["relational_wrapper_2__Rpp",
                                  "relational_wrapper_3__Rpp"])
def test_six_variable_valid_vcs_are_counted_without_a_walk(name):
    # Three 4-variable per-call factors (P3's `r2 != r3` split on its sides'
    # values) admit no falsifying row of 17^6, so no block is walked.
    vc = cmp_pair_ok_vc(name)
    with mock.patch.object(bounded._Box, "first",
                           side_effect=AssertionError("walked a block")):
        r = check_bounded(vc, 8)
    assert r.status == "valid" and r.method == "vectorized"
    assert r.rows == 17 ** 6


def test_six_variable_counterexample_keeps_the_walks_first_row():
    a, b, c, d, e, f = map(IVar, "abcdef")
    problem = [FCmp("!=", IOp("+", a, b), IOp("*", c, d)),
               FCmp(">", e, ICon(5)),
               FNot(FOr((FCmp("<", f, ICon(-3)), FCmp("==", a, b))))]
    order = list("abcdef")
    decided = []

    def deciding(*args):
        decided.append(_some_row(*args))
        return decided[-1]

    with mock.patch.object(bounded, "_some_row", side_effect=deciding):
        found = _vectorized_search(problem, order, 8, 10**10)
    assert decided == [True]
    rows_s, a_s, _ = _scalar_search(problem, order, 8, 10**10)
    assert found == (rows_s, a_s)
    assert a_s == {"a": -8, "b": -7, "c": -8, "d": -8, "e": 6, "f": -3}


# Constants at the edges of the narrow integer types the vectorized path
# computes in, and near the top of int64.
EDGES = [s * c for c in (127, 128, 32767, 32768, 2 ** 31) for s in (1, -1)]
EDGE_CONSTANTS = st.sampled_from(EDGES + [2 ** 62]).map(ICon) | CONSTANTS


@st.composite
def edge_problems(draw):
    bound = draw(st.integers(1, 8))
    # at most 343 rows, so the scalar search and brute force stay fast
    width = max(n for n in range(4) if (2 * bound + 1) ** n <= 343)
    names = NAMES[:draw(st.integers(1, width))]
    variables = st.sampled_from(names).map(IVar)
    t = st.recursive(variables | EDGE_CONSTANTS, lambda t: st.one_of(
        st.builds(IOp, st.sampled_from(("+", "-", "*", "/")), t, t),
        st.builds(IIte, st.builds(FCmp, COMPARE, t, t), t, t)), max_leaves=5)
    atoms = st.builds(FCmp, COMPARE, t, t)
    problem = draw(st.lists(atoms | atoms.map(FNot), min_size=1, max_size=2))
    return problem, bound


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(edge_problems(), st.sampled_from((12, None, bounded._CHUNK)))
def test_narrow_types_agree_with_the_exact_search(problem, chunk):
    # Each term node is computed in the narrowest integer type that holds
    # its magnitude at the bound; values at a type's edge must not wrap.
    problem, bound = problem
    assume(bounded._fits_int64(problem, bound))
    order = sorted({v for f in problem for v in free_vars(f)})
    assume(order)  # a box of one row is never decided
    if chunk is None:
        chunk = (2 * bound + 1) ** (len(order) - 1)
    rows_s, a_s, _ = _scalar_search(problem, order, bound, 10**9)
    ev = bounded._Scalar(bound, 10**9)
    want = sum(all(ev.form(f, dict(zip(order, values))) for f in problem)
               for values in itertools.product(range(-bound, bound + 1),
                                               repeat=len(order)))
    with mock.patch.object(bounded, "_CHUNK", chunk):
        assert _vectorized_search(problem, order, bound, 10**9) == (rows_s, a_s)
        got = _some_row(problem, order, bound, float("inf"))
    assert got == (want > 0) or (got is None and chunk < bounded._CHUNK)


def traced_peak(run):
    """What `run()` returns and the peak of memory it traced, in bytes."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["relational_wrapper_1__Rpp",
                                  "relational_wrapper_2__Rpp",
                                  "relational_wrapper_3__Rpp"])
def test_cmp_pair_ok_checks_stay_under_2_mib(name):
    # Narrow integer nodes, and a contraction over bit-packed bool factors.
    # The traced peaks are 0.65 / 0.65 / 1.13 MiB (numpy 2.4, whichever
    # check first loads `bucket`); each limit leaves about 0.1 MiB above
    # its own.
    limit = {"relational_wrapper_1__Rpp": 0.75,
             "relational_wrapper_2__Rpp": 0.75,
             "relational_wrapper_3__Rpp": 1.25}[name]
    vc = cmp_pair_ok_vc(name)
    r, peak = traced_peak(lambda: check_bounded(vc, 8))
    assert r.status == "valid" and r.method == "vectorized"
    assert peak < limit * 2 ** 20


@pytest.mark.parametrize("name", ["relational_wrapper_2__Rpp",
                                  "relational_wrapper_3__Rpp"])
def test_cmp_pair_ok_is_decided_without_blas(name):
    # The first BLAS routine leaves its packing buffer resident, so the
    # contraction uses none; einsum_path only plans the order of the joins.
    vc = cmp_pair_ok_vc(name)
    with contextlib.ExitStack() as stack:
        for routine in ("einsum", "tensordot", "dot", "matmul"):
            stack.enter_context(mock.patch.object(
                np, routine, side_effect=AssertionError(f"np.{routine}")))
        stack.enter_context(mock.patch.object(
            bounded._Box, "first", side_effect=AssertionError("walked")))
        r = check_bounded(vc, 8)
    assert r.status == "valid" and r.method == "vectorized"
    assert r.rows == 17 ** 6


def test_walked_six_variable_box_stays_under_6_mib():
    # `a+b+c+d+e+f == 100` is one 6-variable factor, larger than a block,
    # so the contraction declines and the 17 blocks of 17^5 rows are walked.
    a, b, c, d, e, f = map(IVar, "abcdef")
    total = IOp("+", IOp("+", IOp("+", IOp("+", IOp("+", a, b), c), d), e), f)
    problem = [FCmp("==", total, ICon(100)),
               FCmp("<", IOp("*", IOp("-", a, f), IOp("+", b, e)), ICon(1000))]
    order = list("abcdef")
    assert _some_row(problem, order, 8, float("inf")) is None
    found, peak = traced_peak(
        lambda: _vectorized_search(problem, order, 8, 10**11))
    assert found == (17 ** 6, None)
    assert peak < 6 * 2 ** 20
