"""Wrapper execution, counterexample search, runtime replay."""

import json

import pytest

from relprop.minic import INT, PTR
from relprop.parser import parse_program
from relprop.selfcomp import transform
from relprop.dynamic import (
    InputVector, run_wrapper, find_counterexample, runtime_check,
    evaluate_clause, wrapper_slots, save_counterexample,
    load_counterexamples,
)
from relprop import interp
from relprop.interp import DEFAULT_FUEL, Fuel, Interp, init_state

from conftest import CORPUS, load

NEG_SRC = """
/*@ assigns \\result \\from x;
    relational Mono:
      \\forall int x1, x2;
      \\callset(\\call(neg, x1, id1), \\call(neg, x2, id2))
      ==> x1 < x2 ==> \\callresult(id1) < \\callresult(id2);
*/
int neg(int x) { return 0 - x; }
"""

GE_SRC = """
/*@ assigns \\result \\from x, y;
    relational P1:
      \\forall int x1, x2;
      \\callset(\\call(compare, x1, x2, id1), \\call(compare, x2, x1, id2))
      ==> \\callresult(id1) == 0 - \\callresult(id2);
*/
int compare(int x, int y) {
  if (x >= y) {
    return 1;
  } else {
    return -1;
  }
}
"""


def final_exit(wrapper, values, t) -> dict:
    """The globals and pointer cell contents (as `*name`) after the run
    `run_wrapper` makes on `values`, from an entry state built as it
    builds one."""
    state = init_state(t.program)
    for g in wrapper.dup_globals:
        state.globals[g] = values.get(g, 0)
    args = [values.get(p.name, 0) if p.ty == INT
            else state.alloc(values.get(f"*{p.name}", 0))
            for p in wrapper.fn.formals]
    Interp(t.program, Fuel(DEFAULT_FUEL)).run(wrapper.fn, args, state)
    return {**state.globals,
            **{f"*{p.name}": state.heap[c]
               for p, c in zip(wrapper.fn.formals, args) if p.ty == PTR}}


@pytest.fixture
def neg():
    return transform(parse_program(NEG_SRC, "neg.mc"))


@pytest.fixture
def broken_cmp():
    return transform(parse_program(GE_SRC, "ge.mc"))


def test_run_wrapper_fig5_pass(fig5):
    t = transform(fig5)
    w = t.entries[0].wrapper
    assert wrapper_slots(w) == ["y_id1", "y_id2"]
    r = run_wrapper(w, InputVector({"y_id1": 1, "y_id2": 2}), t)
    assert r.outcome == "pass"
    assert final_exit(w, {"y_id1": 1, "y_id2": 2}, t)["y_id1"] == 11


def test_run_wrapper_vacuous_antecedent(fig5):
    t = transform(fig5)
    r = run_wrapper(t.entries[0].wrapper,
                    InputVector({"y_id1": 2, "y_id2": 1}), t)
    assert r.outcome == "pass"


def test_run_wrapper_monotone_negation_fails(neg):
    w = neg.entries[0].wrapper
    r = run_wrapper(w, InputVector({"x1": 0, "x2": 1}), neg)
    assert r.outcome == "fail"
    assert r.input.values == {"x1": 0, "x2": 1}


def test_pointer_inputs_get_distinct_fresh_cells(fig6):
    t = transform(fig6)
    w = t.entries[0].wrapper
    r = run_wrapper(w, InputVector({"*y_id1": 5, "*y_id2": 5}), t)
    assert r.outcome == "pass"
    # equal contents but distinct cells: both bump independently
    assert final_exit(w, {"*y_id1": 5, "*y_id2": 5}, t) == \
        {"*y_id1": 6, "*y_id2": 6}


def test_find_counterexample_exhaustive_lexicographic(neg):
    w = neg.entries[0].wrapper
    vec = find_counterexample(w, neg, ("exhaustive", 4), 10)
    assert vec is not None
    assert vec.values == {"x1": -4, "x2": -3}


def test_find_counterexample_none_when_property_holds(fig2):
    t = transform(fig2)
    vec = find_counterexample(t.entries[0].wrapper, t, ("exhaustive", 8), 30)
    assert vec is None  # 17^2 runs, property holds


def test_find_counterexample_random_reproducible(neg):
    w = neg.entries[0].wrapper
    a = find_counterexample(w, neg, ("random", 42, 5000), 10)
    b = find_counterexample(w, neg, ("random", 42, 5000), 10)
    assert a == b and a is not None


def test_broken_antisymmetry_found_at_diagonal(broken_cmp):
    w = broken_cmp.entries[0].wrapper
    vec = find_counterexample(w, broken_cmp, ("exhaustive", 0), 10)
    assert vec is not None
    assert vec.values == {"x1": 0, "x2": 0}  # compare(x, x) = 1 != -1


def test_runtime_check_replays_counterexample(neg, tmp_path):
    w = neg.entries[0].wrapper
    vec = find_counterexample(w, neg, ("exhaustive", 4), 10)
    reports = runtime_check(neg, [vec])
    assert [r.outcome for r in reports] == ["fail"]
    path = tmp_path / "cex.json"
    save_counterexample(vec, path)
    loaded = load_counterexamples(path)
    assert loaded == [vec]
    assert runtime_check(neg, loaded)[0].outcome == "fail"


def test_runtime_check_empty_vector_list(neg):
    assert runtime_check(neg, []) == []


def test_runtime_check_reports_errors_separately():
    src = """
    /*@ assigns \\result \\from x;
        relational R: \\forall int x;
          \\callset(\\call(f, x, id1)) ==> \\callresult(id1) >= 0;
    */
    int f(int x) { return 10 / x; }
    """
    t = transform(parse_program(src, "div.mc"))
    reports = runtime_check(t, [InputVector({"x": 0}, property="R"),
                                InputVector({"x": 5}, property="R")])
    assert reports[0].outcome == "error"
    assert "DivisionByZero" in reports[0].error
    assert reports[1].outcome == "pass"


def test_oracle_agreement_on_corpus(fig5, fig6, fig2):
    import random
    rng = random.Random(7)
    for program in (fig5, fig6, fig2):
        t = transform(program)
        entry = t.entries[0]
        slots = wrapper_slots(entry.wrapper)
        for _ in range(150):
            vec = InputVector({s: rng.randint(-40, 40) for s in slots})
            dynamic = run_wrapper(entry.wrapper, vec, t).outcome
            direct = evaluate_clause(entry.clause, entry.wrapper, t.source, vec)
            assert (dynamic == "pass") == direct


def test_oracle_agreement_with_nested_callpure(crypt):
    import random
    rng = random.Random(11)
    t = transform(crypt)
    entry = t.entries[0]
    slots = wrapper_slots(entry.wrapper)
    assert slots == ["msg", "key"]
    for _ in range(150):
        vec = InputVector({s: rng.randint(-1000, 1000) for s in slots})
        dynamic = run_wrapper(entry.wrapper, vec, t).outcome
        direct = evaluate_clause(entry.clause, entry.wrapper, t.source, vec)
        assert dynamic == "pass" and direct


def test_user_predicate_in_a_clause_is_a_runtime_error():
    t = transform(parse_program("""
    /*@ axiomatic Pos {
      predicate pos(integer a);
    } */

    /*@ assigns \\result \\from x;
        relational P:
          \\forall int x1;
          \\callset(\\call(id, x1, id1))
          ==> pos(\\callresult(id1));
    */
    int id(int x) {
      return x;
    }
    """, "t.mc"))
    entry = t.entries[0]
    report = run_wrapper(entry.wrapper, InputVector({"x1": 1}, property="P"), t)
    assert report.outcome == "error"
    assert report.error.startswith("NotExecutable")


class _Unbuildable(type):
    """Stands in for a node class: instance checks see the real class, and
    building one raises."""

    def __instancecheck__(cls, obj):
        return isinstance(obj, cls.real)

    def __call__(cls, *args, **kwargs):
        raise AssertionError(f"{cls.real.__name__} built during a run")


def test_a_wrapper_run_builds_no_ast_node(monkeypatch):
    runs = []
    for path in sorted(CORPUS.rglob("*.mc")):
        t = transform(load(str(path.relative_to(CORPUS))))
        for entry in t.entries:
            slots = wrapper_slots(entry.wrapper)
            for values in ([v] * len(slots) for v in (-2, 0, 1, 3)):
                runs.append((t, entry.wrapper,
                             InputVector(dict(zip(slots, values)))))
            runs.append((t, entry.wrapper, InputVector(
                {s: i - 1 for i, s in enumerate(slots)})))

    def outcomes():
        return [(r.outcome, r.error) for r in
                (run_wrapper(w, vec, t) for t, w, vec in runs)]

    want = outcomes()
    for name in ("Var", "IntLit", "AssignStmt", "At"):
        real = getattr(interp, name)
        monkeypatch.setattr(interp, name, _Unbuildable(name, (), {"real": real}))
    assert outcomes() == want
    assert {o for o, _ in want} == {"pass", "fail"}
