"""The MiniC interpreter."""

import pytest

from relprop.minic import Program, IntLit, Var, Bin, AssignStmt, ReturnStmt, FunctionDef
from relprop.parser import parse_program
from relprop.pretty import pred_str
from relprop.selfcomp import transform
from relprop.validate import validate
from relprop.interp import (
    interpret, init_state, State, Interp, Fuel, MAX_CALL_DEPTH,
    InterpError, DivisionByZero, Overflow, FuelExhausted, AssertViolated,
)


def test_interpret_h_adds_ten(fig5):
    h = fig5.function("h")
    state = init_state(fig5)
    state.globals["y"] = 5
    value, state = interpret(h, [], state, program=fig5)
    assert value is None
    assert state.globals["y"] == 15


def test_interpret_k_bumps_cell(fig6):
    k = fig6.function("k")
    state = init_state(fig6)
    cell = state.alloc(3)
    interpret(k, [cell], state, program=fig6)
    assert state.heap[cell] == 4


def test_interpret_max(fig2):
    v, _ = interpret(fig2.function("max"), [3, 5], init_state(fig2),
                     program=fig2)
    assert v == 5
    v, _ = interpret(fig2.function("max"), [9, -2], init_state(fig2),
                     program=fig2)
    assert v == 9


def test_division_by_zero_raises():
    src = "int f(int x) { return 1 / x; }"
    p = parse_program(src)
    with pytest.raises(DivisionByZero):
        interpret(p.function("f"), [0], init_state(p), program=p)
    v, _ = interpret(p.function("f"), [-2], init_state(p), program=p)
    assert v == 0  # Euclidean: 1 = (-2) * 0 + 1


def test_euclidean_division_in_programs():
    src = "int f(int a, int b) { return a / b; }"
    p = parse_program(src)
    f = p.function("f")
    assert interpret(f, [-7, 2], init_state(p), program=p)[0] == -4
    assert interpret(f, [7, -2], init_state(p), program=p)[0] == -3


def test_overflow_is_an_error_not_wraparound():
    src = "int f(int x) { int y = x * x; return y; }"
    p = parse_program(src)
    big = 2 ** 62
    with pytest.raises(Overflow):
        interpret(p.function("f"), [big], init_state(p), program=p)


def test_fuel_exhaustion():
    src = """
    int f() {
      int i = 0;
      /*@ loop invariant i >= 0; */
      while (i >= 0) {
        i = i + 1;
      }
      return i;
    }
    """
    p = parse_program(src)
    with pytest.raises(FuelExhausted):
        interpret(p.function("f"), [], init_state(p), fuel=1000, program=p)


def test_assert_violation_carries_label():
    src = """
    int f(int x) {
      /*@ assert boom: x > 0; */
      return x;
    }
    """
    p = parse_program(src)
    with pytest.raises(AssertViolated) as exc:
        interpret(p.function("f"), [0], init_state(p), program=p)
    assert exc.value.label == "boom"
    v, _ = interpret(p.function("f"), [3], init_state(p), program=p)
    assert v == 3


def test_calls_and_locals(crypt):
    run = crypt.function("run")
    v, _ = interpret(run, [41, 7], init_state(crypt), program=crypt)
    assert v == 41


def test_interpreter_deterministic(fig5):
    h = fig5.function("h")
    s1 = init_state(fig5)
    s1.globals["y"] = 3
    s2 = init_state(fig5)
    s2.globals["y"] = 3
    interpret(h, [], s1, program=fig5)
    interpret(h, [], s2, program=fig5)
    assert s1.globals == s2.globals


def test_uninitialized_locals_are_zero():
    src = "int f() { int x; return x; }"
    p = parse_program(src)
    assert interpret(p.function("f"), [], init_state(p), program=p)[0] == 0


# -- labels, mirrors and the call depth ----------------------------------------

LABELS_SRC = """
int g = 3;
/*@ assigns g \\from g; */
void bump() {
  g = g + 1;
  /*@ assert \\old(g) == g - 1; */
}
/*@ assigns g \\from g, x; assigns *p \\from *p; */
void f(int x, int *p) {
  g = g + x;
  *p = *p + 2;
  /*@ assert A; */
  bump();
  /*@ assert B; */
}
"""


def run_labels(a: str, b: str) -> State:
    """`f(4, p)` with `*p == 7` on entry; `g` is 3 on entry, 7 at `A` and
    8 at `B`, after the call."""
    p = parse_program(LABELS_SRC.replace("A;", a + ";").replace("B;", b + ";"))
    assert validate(p) == []
    state = init_state(p)
    cell = state.alloc(7)
    interpret(p.function("f"), [4, cell], state, program=p)
    return state


@pytest.mark.parametrize("pred", [
    "\\old(g) == 3 && g == 7",
    "\\at(g, Pre) == \\at(g, Old) && \\at(g, Old) == 3",
    "\\at(g, Here) == \\at(g, Post) && \\at(g, Post) == 7",
    "\\old(g + x) == 7",
    "\\at(*p, Pre) == 7 && *p == 9",
])
def test_labels_read_the_entry_and_the_live_state(pred):
    state = run_labels(pred, "\\true")
    assert state.globals["g"] == 8 and list(state.heap.values()) == [9]
    with pytest.raises(AssertViolated):
        run_labels(f"!({pred})", "\\true")


def test_a_callee_entry_does_not_leak_into_the_caller():
    # `bump` asserts `\old(g)` against its own entry; back in `f`, `\old(g)`
    # is `f`'s entry again.
    run_labels("\\true", "\\old(g) == 3 && g == 8")
    with pytest.raises(AssertViolated):
        run_labels("\\true", "\\old(g) == 7")


def test_pre_of_a_local_is_unbound():
    src = """
    /*@ assigns \\result \\from x; */
    int f(int x) {
      int l = x + 1;
      /*@ assert \\at(l, Pre) == l; */
      return l;
    }
    """
    p = parse_program(src)
    assert validate(p) == []
    with pytest.raises(InterpError) as exc:
        interpret(p.function("f"), [1], init_state(p), program=p)
    assert type(exc.value) is InterpError
    assert str(exc.value) == "unbound variable l"


MIRROR_SRC = """
/*@ assigns \\result \\from x; */
int sq(int x) { return x * x; }
/*@ assigns \\result \\from x;
    relational R: \\forall int a;
      \\callset(\\call(inc_sq, a, id1)) ==> \\callresult(id1) == RHS;
*/
int inc_sq(int x) { return x * x + 1; }
"""


@pytest.mark.parametrize("rhs, holds", [("\\callpure(sq, a) + 1", True),
                                        ("\\callpure(sq, a)", False)])
def test_a_mirror_in_an_assert_runs_its_function(rhs, holds):
    t = transform(parse_program(MIRROR_SRC.replace("RHS", rhs)))
    wrapper = t.entries[0].wrapper.fn
    assert "sq_acsl" in pred_str(wrapper.body[-1].pred)
    for a in (-2, 0, 3):
        if holds:
            interpret(wrapper, [a], program=t.program)
        else:
            with pytest.raises(AssertViolated):
                interpret(wrapper, [a], program=t.program)


def test_call_depth_limit_is_fuel_exhausted():
    src = """
    /*@ assigns \\result \\from n; */
    int down(int n) {
      int r = 0;
      if (n > 0) {
        r = down(n - 1);
      }
      return r;
    }
    """
    p = parse_program(src)
    assert validate(p) == []
    down = p.function("down")
    assert interpret(down, [MAX_CALL_DEPTH - 1], program=p)[0] == 0
    with pytest.raises(FuelExhausted, match="call depth exceeds"):
        interpret(down, [MAX_CALL_DEPTH], program=p)
