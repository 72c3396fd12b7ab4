"""Return lowering (`selfcomp.lower_returns`), shared by the inliner and vcgen.

A return that ends its body becomes an assignment to the return target; only
a return that later code must skip sets the completion flag.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relprop.interp import InterpError, init_state, interpret
from relprop.minic import (
    INT, VOID, Program, FunctionDef, DeclStmt, AssignStmt, IfStmt, WhileStmt,
    ReturnStmt, IntLit, Var, Bin, Cmp, PAnd, POr,
)
from relprop.parser import parse_program
from relprop.pretty import pretty_print
from relprop.selfcomp import lower_returns, transform

from strategies import function_strategy


def body_of(src: str) -> tuple:
    program = parse_program(src, "t.mc")
    assert isinstance(program, Program), [str(d) for d in program]
    return program.functions[-1].body


def no_flag() -> str:
    raise AssertionError("no return here needs a completion flag")


def flag() -> str:
    return "done"


def ret(value) -> AssignStmt:
    return AssignStmt(Var("r"), value)


def done_is(value: int) -> Cmp:
    return Cmp("==", Var("done"), IntLit(value))


ENDING_RETURNS = """
int f(int x) {
  int y = x + 1;
  if (x > 0) {
    y = y * 2;
    if (y > 9) { return 9; } else { return y; }
  } else {
    return 0 - y;
  }
}
"""


@pytest.mark.parametrize("target", ["r", None])
def test_returns_that_end_the_body_become_assignments(target):
    def ret_or_nothing(value):
        return (ret(value),) if target else ()

    lowered = lower_returns(body_of(ENDING_RETURNS), target, no_flag)
    assert lowered == [
        DeclStmt("y", Bin("+", Var("x"), IntLit(1))),
        IfStmt(Cmp(">", Var("x"), IntLit(0)),
               (AssignStmt(Var("y"), Bin("*", Var("y"), IntLit(2))),
                IfStmt(Cmp(">", Var("y"), IntLit(9)),
                       ret_or_nothing(IntLit(9)), ret_or_nothing(Var("y")))),
               ret_or_nothing(Bin("-", IntLit(0), Var("y"))))]


def test_inlining_ending_returns_draws_no_flag_name():
    program = parse_program("""
    /*@ assigns \\result \\from x;
        relational R: \\forall int x1;
          \\callset(\\call(f, x1, id1), \\call(f, x1, id2))
          ==> \\callresult(id1) == \\callresult(id2);
    */""" + ENDING_RETURNS)
    text = pretty_print(transform(program).program)
    assert "relational_wrapper_1" in text and "done" not in text


def test_an_early_return_in_an_if_guards_the_rest_once():
    body = body_of("""
    int f(int x) {
      int y = x;
      if (x < 0) { return 0; }
      y = y + 1;
      return y;
    }""")
    assert lower_returns(body, "r", flag) == [
        DeclStmt("done", IntLit(0)),
        DeclStmt("y", Var("x")),
        IfStmt(Cmp("<", Var("x"), IntLit(0)),
               (ret(IntLit(0)), AssignStmt(Var("done"), IntLit(1))), ()),
        IfStmt(done_is(0),
               (AssignStmt(Var("y"), Bin("+", Var("y"), IntLit(1))),
                ret(Var("y"))), ())]


LOOP_RETURN = """
int f(int n) {
  int i = 0;
  /*@ loop invariant i >= 0; loop variant n - i; */
  while (i < n) {
    if (i == 3) { return i; }
    i = i + 1;
  }
  return n;
}
"""


def test_a_return_in_a_loop_sets_the_flag_the_loop_reads():
    body = lower_returns(body_of(LOOP_RETURN), "r", flag)
    i, n = Var("i"), Var("n")
    assert body == [
        DeclStmt("done", IntLit(0)),
        DeclStmt("i", IntLit(0)),
        WhileStmt(PAnd(done_is(0), Cmp("<", i, n)),
                  POr(done_is(1), Cmp(">=", i, IntLit(0))),
                  Bin("-", n, i),
                  (IfStmt(Cmp("==", i, IntLit(3)),
                          (ret(i), AssignStmt(Var("done"), IntLit(1))), ()),
                   IfStmt(done_is(0),
                          (AssignStmt(i, Bin("+", i, IntLit(1))),), ()))),
        IfStmt(done_is(0), (ret(n),), ())]


def lowered(fn: FunctionDef) -> FunctionDef:
    """`fn` with its returns lowered onto a local `r`, returned at the end."""
    body = lower_returns(fn.body, "r" if fn.ret == INT else None, flag)
    head = (DeclStmt("r", IntLit(0)),) if fn.ret == INT else ()
    tail = ReturnStmt(Var("r") if fn.ret == INT else None)
    return FunctionDef(fn.name, fn.formals, fn.ret,
                       head + tuple(body) + (tail,), fn.contract)


def outcome(fn: FunctionDef, helpers: tuple, args: list[int],
            globals_: dict[str, int]):
    program = Program(helpers + (fn,))
    state = init_state(program)
    state.globals.update(globals_)
    try:
        value, state = interpret(fn, args, state, program=program)
    except InterpError as exc:
        return type(exc)
    return value, state.globals


@st.composite
def function_and_inputs(draw):
    global_names = ["g", "w"][:draw(st.integers(0, 2))]
    n_formals = draw(st.integers(0, 2))
    ret = draw(st.sampled_from([INT, VOID])) if global_names else INT
    helpers = (draw(function_strategy("h", [], 1, INT)),) \
        if draw(st.booleans()) else ()
    fn = draw(function_strategy("f", global_names, n_formals, ret,
                                tuple(h.name for h in helpers)))
    ints = st.integers(-9, 9)
    args = draw(st.lists(ints, min_size=n_formals, max_size=n_formals))
    globals_ = {g: draw(ints) for g in global_names}
    return fn, helpers, args, globals_


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(function_and_inputs())
def test_lowered_bodies_compute_what_native_returns_do(case):
    # The generated bodies return early inside ifs, both where code follows
    # and where none does.
    fn, helpers, args, globals_ = case
    assert outcome(lowered(fn), helpers, args, globals_) == \
        outcome(fn, helpers, args, globals_)


def test_a_lowered_loop_computes_what_native_returns_do():
    fn = parse_program(LOOP_RETURN).function("f")
    for n in range(-2, 8):
        assert outcome(lowered(fn), (), [n], {}) == outcome(fn, (), [n], {})
