"""VCs are shared dags, and everything that reads them is linear in the dag:
the forward VC pass, the `logic` walkers, the bounded checker's node count
and the SMT printer, which binds a shared node by `let` in front of the
formula or, when it mentions quantifier-bound names, just inside their
quantifier. Each node keeps its analyses (free variables, symbols, the
quantifier flag and its simplified form), so a proof run analyses each
node once; generated formulas check that the kept answers agree with
computing them afresh. Nodes are interned, so structurally equal nodes are
one object, and an interned node nothing uses is freed.

A lone goal's script prints exactly as before. A VC whose goal is joined
from its obligation set's segments prints every line but the goal's assert
as its closed goal would, and that assert, with its `let`s expanded, is
the closed goal's tree; its bytes are no longer the closed goal's."""

import dataclasses
import gc
import re
import time
import weakref
from collections import Counter
from itertools import count
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relprop import bounded, cli, logic, smtlib, vcgen
from relprop.bounded import (
    BudgetExceeded, DEFAULT_BUDGET, _node_count, check_bounded,
)
from relprop.logic import (
    IVar, ICon, IOp, IIte, IApp, FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant,
    FApp, children, dag_walk, free_vars, symbols, has_quantifier,
    simplify, simplify_term, subst,
)
from relprop.minic import Program
from relprop.parser import parse_program
from relprop.prove import prove_program
from relprop.selfcomp import transform
from relprop.smtlib import emit_smtlib, form_sexpr
from relprop.vcgen import VerificationCondition, function_vcs, vcs_for

from conftest import CORPUS
from strategies import formula_dag_strategy


def parse(src: str) -> Program:
    p = parse_program(src, "t.mc")
    assert isinstance(p, Program), [str(d) for d in p]
    return p


def seq_ifs(k: int) -> str:
    """k sequential `if (a > c) { x = x + a; assert x > 0; }`."""
    body = "".join(f"  if (a > {c}) {{\n    x = x + a;\n"
                   f"    /*@ assert x > 0; */\n  }}\n" for c in range(k))
    return ("/*@ assigns \\result \\from a; */\nint f(int a) {\n"
            f"  int x = 0;\n{body}  return x;\n}}\n")


def seq_ifs3(k: int) -> str:
    """seq_ifs over three inputs: k `if (a > c) { x = x + b; assert x + c
    < N; }`, with guards that repeat every 8 ifs."""
    body = "".join(f"  if (a > {i % 8}) {{\n    x = x + b;\n"
                   f"    /*@ assert x + c < {9 * k + 9}; */\n  }}\n"
                   for i in range(k))
    return ("/*@ assigns \\result \\from a, b, c; */\n"
            "int f(int a, int b, int c) {\n"
            f"  int x = 0;\n{body}  return x;\n}}\n")


def sizes(k: int) -> tuple[int, int]:
    """Largest distinct-node count and script length over seq-ifs(k)'s VCs."""
    t = transform(parse(seq_ifs(k)))
    vcs = vcs_for(t, t.lemma_names)
    assert [v.kind for v in vcs] == ["assert"] * k
    return (max(sum(1 for _ in dag_walk(v.goal)) for v in vcs),
            max(len(emit_smtlib(v)) for v in vcs))


def test_seq_ifs_vcs_grow_linearly():
    (n8, b8), (n16, b16), (n32, b32) = sizes(8), sizes(16), sizes(32)
    # Linear growth doubles these with k; the old fork grew them as 2^k.
    assert n16 <= 2.25 * n8 and n32 <= 2.25 * n16
    assert b16 <= 2.25 * b8 and b32 <= 2.25 * b16


def test_seq_ifs_vcs_are_valid():
    t = transform(parse(seq_ifs(8)))
    assert {check_bounded(v, 8).status for v in vcs_for(t, t.lemma_names)} \
        == {"valid"}


def chain(depth: int):
    """x_i = ite(c_i > 0, x_{i-1} + g(a), x_{i-1}): 2^depth paths, and a
    dag of 4 nodes per level."""
    zero, inc = ICon(0), IApp("g", (IVar("a"),))
    x = IVar("x0")
    for i in range(1, depth + 1):
        x = IIte(FCmp(">", IVar(f"c{i}"), zero), IOp("+", x, inc), x)
    return FCmp(">", x, zero)


def test_walkers_visit_each_shared_node_once():
    goal = chain(200)
    names = {f"c{i}" for i in range(1, 201)} | {"a", "x0"}
    assert free_vars(goal) == names
    assert symbols(goal) == {"g": (1, "int")}
    assert not has_quantifier(goal)
    # x0, a, g(a), 0, four nodes per level and the comparison
    assert _node_count(goal) == 4 + 4 * 200 + 1
    closed = FQuant("forall", ("a",), goal)
    assert has_quantifier(closed)
    assert free_vars(closed) == names - {"a"}
    script = emit_smtlib(VerificationCondition("t", "t", "g", "assert", goal, ()))
    assert len(script) < 40_000
    assert script.count("(let ") == 200  # each x_i is bound, one level each


def test_dag_walk_yields_children_first_once():
    shared = IOp("+", IVar("x"), ICon(1))
    f = FAnd((FCmp("<", shared, IVar("y")), FCmp(">", shared, ICon(1))))
    order = list(dag_walk(f))
    # the two ICon(1) are one node
    assert len(order) == len({id(n) for n in order}) == 7
    pos = {id(n): i for i, n in enumerate(order)}
    for n in order:
        for c in (getattr(n, a) for a in ("left", "right") if hasattr(n, a)):
            assert pos[id(c)] < pos[id(n)]
    assert order[-1] is f


def test_free_vars_respects_binders_in_shared_subterms():
    body = FCmp("==", IVar("v"), IVar("w"))
    f = FAnd((FQuant("forall", ("v",), body), body))
    assert free_vars(f) == {"v", "w"}
    assert free_vars(FQuant("exists", ("v",), body)) == {"w"}


# -- the emitted text is the tree, with shared nodes bound ----------------------


def _sexpr_tokens(text: str) -> list[str]:
    return re.findall(r"\|[^|]*\||[()]|[^\s()]+", text)


def _parse_sexpr(tokens: list[str]):
    pos = 0

    def item():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        out = []
        while tokens[pos] != ")":
            out.append(item())
        pos += 1
        return out

    return item()


def _free_names(e) -> set[str]:
    """The atoms of an expression without lets, less quantified names."""
    if isinstance(e, str):
        return {e}
    if e and e[0] in ("forall", "exists"):
        return _free_names(e[2]) - {v for v, _sort in e[1]}
    return set().union(*map(_free_names, e))


def _expand_lets(e, env: dict):
    """`e` with each let-bound name replaced by its value. Under a
    quantifier, a binding whose value mentions a name the quantifier binds
    would mean something else, so its uses there stay unexpanded."""
    if isinstance(e, str):
        return env[e][0] if e in env else e
    if e and e[0] == "let":
        inner = dict(env)
        for name, value in e[1]:
            value = _expand_lets(value, env)
            inner[name] = (value, _free_names(value))
        return _expand_lets(e[2], inner)
    if e and e[0] in ("forall", "exists"):
        bound = {v for v, _sort in e[1]}
        inner = {k: v for k, v in env.items() if not v[1] & bound}
        return [e[0], e[1], _expand_lets(e[2], inner)]
    return [_expand_lets(x, env) for x in e]


def _show(e) -> str:
    return e if isinstance(e, str) else "(" + " ".join(_show(x) for x in e) + ")"


def _tree(n) -> str:
    """Reference printer: the formula as a tree, no sharing."""
    name = lambda s: s if re.fullmatch(r"[A-Za-z_$.][\w$.]*", s) else f"|{s}|"
    if isinstance(n, IVar):
        return name(n.name)
    if isinstance(n, ICon):
        return str(n.value) if n.value >= 0 else f"(- {-n.value})"
    if isinstance(n, FBool):
        return "true" if n.value else "false"
    if isinstance(n, (IApp, FApp)):
        head = name(n.fn if isinstance(n, IApp) else n.pred)
        return f"({head} {' '.join(_tree(a) for a in n.args)})" if n.args else head
    if isinstance(n, IOp):
        op = "div" if n.op == "/" else n.op
        return f"({op} {_tree(n.left)} {_tree(n.right)})"
    if isinstance(n, IIte):
        return f"(ite {_tree(n.cond)} {_tree(n.then)} {_tree(n.other)})"
    if isinstance(n, FCmp):
        if n.op == "!=":
            return f"(not (= {_tree(n.left)} {_tree(n.right)}))"
        op = "=" if n.op == "==" else n.op
        return f"({op} {_tree(n.left)} {_tree(n.right)})"
    if isinstance(n, FNot):
        return f"(not {_tree(n.body)})"
    if isinstance(n, (FAnd, FOr)):
        op = "and" if isinstance(n, FAnd) else "or"
        return f"({op} {' '.join(_tree(i) for i in n.items)})"
    if isinstance(n, FImp):
        return f"(=> {_tree(n.hyp)} {_tree(n.concl)})"
    if isinstance(n, FQuant):
        binders = " ".join(f"({name(v)} Int)" for v in n.vars)
        return f"({n.kind} ({binders}) {_tree(n.body)})"
    raise TypeError(n)


def _expanded(text: str) -> str:
    return _show(_expand_lets(_parse_sexpr(_sexpr_tokens(text)), {}))


def assert_script_is_tree(vc: VerificationCondition) -> None:
    asserts = [l for l in emit_smtlib(vc).splitlines()
               if l.startswith("(assert ")]
    want = [f"(assert {_tree(h)})" for _, h in vc.hypotheses]
    want.append(f"(assert (not {_tree(vc.goal)}))")
    assert [_expanded(l) for l in asserts] == want, vc.name


CORPUS_FILES = sorted(p.relative_to(CORPUS).as_posix()
                      for p in CORPUS.rglob("*.mc"))


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_let_expanded_script_equals_tree_printer(name):
    t = transform(parse_program((CORPUS / name).read_text(encoding="utf-8"),
                                name))
    for vc in vcs_for(t, t.lemma_names):
        assert_script_is_tree(vc)


def test_shared_node_is_bound_once():
    d = IOp("-", IVar("x"), IVar("y"))
    goal = FCmp("==", IOp("*", d, d), ICon(0))
    script = emit_smtlib(VerificationCondition("t", "t", "g", "assert", goal, ()))
    assert "(assert (not (let (($s1 (- x y))) (= (* $s1 $s1) 0))))" in script
    # built twice, it is still one node
    twice = FCmp("==", IOp("*", IOp("-", IVar("x"), IVar("y")),
                           IOp("-", IVar("x"), IVar("y"))), ICon(0))
    assert emit_smtlib(VerificationCondition(
        "t", "t", "g", "assert", twice, ())) == script


def test_node_under_its_binder_is_bound_inside_it():
    d = IOp("+", IVar("v"), ICon(1))
    shared = IOp("*", IVar("u"), IVar("u"))
    goal = FQuant("forall", ("v",), FCmp(">", IOp("*", d, d),
                                         IOp("+", shared, shared)))
    script = emit_smtlib(VerificationCondition("t", "t", "g", "assert", goal, ()))
    assert "(assert (not (let (($s2 (* u u))) (forall ((v Int)) " \
           "(let (($s1 (+ v 1))) (> (* $s1 $s1) (+ $s2 $s2)))))))" in script
    # a node over the names of two nested quantifiers goes inside the inner
    d = IOp("+", IVar("v"), IVar("w"))
    inner = FQuant("exists", ("w",), FCmp(">", IOp("*", d, d), IVar("v")))
    script = emit_smtlib(VerificationCondition(
        "t", "t", "g", "assert", FQuant("forall", ("v",), inner), ()))
    assert "(forall ((v Int)) (exists ((w Int)) (let (($s1 (+ v w))) " \
           "(> (* $s1 $s1) v))))" in script


def test_node_over_a_name_bound_and_free_stays_inline():
    # v is bound in one conjunct and free in the other: no one `let` can
    # serve both occurrences of v + 1.
    d = IOp("+", IVar("v"), ICon(1))
    goal = FAnd((FQuant("forall", ("v",), FCmp(">", IOp("*", d, d), ICon(0))),
                 FCmp(">", d, ICon(0))))
    script = emit_smtlib(VerificationCondition("t", "t", "g", "assert", goal, ()))
    assert "let" not in script
    assert "(* (+ v 1) (+ v 1))" in script


def call_seq_ifs(k: int) -> str:
    """seq-ifs after `y = h(a)`, whose ensures does not pin `y`: each
    branch adds `y`, so every value of `x` mentions the call's fresh name,
    which the `forall` of the call binds."""
    body = "".join(f"  if (a > {c}) {{\n    x = x + y;\n"
                   f"    /*@ assert x > 0; */\n  }}\n" for c in range(k))
    return ("/*@ assigns \\result \\from a;\n    ensures \\result >= a; */\n"
            "int h(int a) {\n  return a;\n}\n\n"
            "/*@ assigns \\result \\from a; */\nint f(int a) {\n"
            f"  int x = 0;\n  int y = 0;\n  y = h(a);\n{body}  return x;\n}}\n")


def test_shared_values_under_a_quantifier_grow_linearly():
    largest = []
    for k in (4, 8, 16):
        t = transform(parse(call_seq_ifs(k)))
        vcs = vcs_for(t, t.lemma_names)
        assert sum(has_quantifier(v.goal) for v in vcs) == k
        largest.append(max(len(emit_smtlib(v)) for v in vcs))
        if k == 4:  # the tree the check unfolds grows as 2^k
            for vc in vcs:
                assert_script_is_tree(vc)
    # Tree printing grew these about 10x per +4 in k.
    assert largest[1] <= 2.25 * largest[0] and largest[2] <= 2.25 * largest[1]


# -- each node is analysed once, and its kept analyses are right -----------------


def test_prove_analyses_each_node_once(monkeypatch):
    entered: dict[str, list] = {"_simplify_node": [], "_node_facts": []}
    for fn, nodes in entered.items():
        def spy(n, *rest, _orig=getattr(logic, fn), _nodes=nodes):
            _nodes.append(n)  # kept alive, so no id is reused
            return _orig(n, *rest)
        monkeypatch.setattr(logic, fn, spy)
    cmp_pair_ok = (CORPUS / "comparators" / "cmp_pair_ok.mc").read_text(
        encoding="utf-8")
    for text in (seq_ifs(50), cmp_pair_ok):
        prove_program(transform(parse(text)), 2)
    for fn, nodes in entered.items():
        assert nodes, fn
        assert len({id(n) for n in nodes}) == len(nodes), fn


def _fresh_copy(n, memo: dict):
    """`n` rebuilt bottom-up, each node from its fields. Nodes are interned,
    so this is `n` itself."""
    hit = memo.get(id(n))
    if hit is None:
        def copy(v):
            if isinstance(v, tuple):
                return tuple(copy(x) for x in v)
            return _fresh_copy(v, memo) if dataclasses.is_dataclass(v) else v
        hit = memo[id(n)] = type(n)(*(copy(getattr(n, f.name))
                                       for f in dataclasses.fields(n)))
    return hit


def _free_ref(n, memo: dict) -> frozenset:
    if id(n) not in memo:
        out = frozenset((n.name,)) if isinstance(n, IVar) else frozenset(
        ).union(*(_free_ref(c, memo) for c in children(n)))
        memo[id(n)] = out - set(n.vars) if isinstance(n, FQuant) else out
    return memo[id(n)]


def _symbols_ref(n) -> dict:
    out = {}
    for m in dag_walk(n):
        if isinstance(m, IApp):
            out[m.fn] = (len(m.args), "int")
        elif isinstance(m, FApp):
            out[m.pred] = (len(m.args), "bool")
    return out


def _alpha(n) -> str:
    """`n` as a tree, with the names capture-avoiding substitution makes
    (`v$7`) numbered by first appearance, so two runs of `simplify` that
    drew different fresh names print alike."""
    text = _tree(n)
    fresh: dict[str, str] = {}
    return re.sub(r"[A-Za-z_]\w*\$\d+",
                  lambda m: fresh.setdefault(m.group(), f"#{len(fresh)}"), text)


def _simplifier(n):
    return simplify_term if isinstance(n, (IVar, ICon, IOp, IIte, IApp)) \
        else simplify


def _live_nodes() -> list:
    """Every node the intern table holds that is still alive."""
    return [n for n in (r() for r in list(logic._TABLE.values()))
            if n is not None]


def _forget_analyses() -> None:
    """Drop the kept analyses of every live node."""
    for n in _live_nodes():
        n.__dict__.pop(logic._FACTS, None)
        n.__dict__.pop(logic._SIMPLIFIED, None)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(formula_dag_strategy(), st.data())
def test_kept_analyses_agree_with_fresh_ones(forms, data):
    nodes = list({id(n): n for f in forms for n in dag_walk(f)}.values())
    order = data.draw(st.sampled_from(["children first", "parents first",
                                       "shuffled"]))
    if order == "parents first":
        nodes.reverse()
    elif order == "shuffled":
        nodes = data.draw(st.permutations(nodes))
    for n in nodes:
        query = data.draw(st.sampled_from(
            [free_vars, symbols, has_quantifier, "simplify"]))
        if query != "simplify":
            query(n)
        else:
            _simplifier(n)(n)
    kept = {id(n): _simplifier(n)(n) for n in nodes}
    for n in nodes:
        assert free_vars(n) == _free_ref(n, {})
        assert symbols(n) == _symbols_ref(n)
        assert has_quantifier(n) == any(isinstance(m, FQuant)
                                        for m in dag_walk(n))
        assert _simplifier(n)(n) is kept[id(n)]
    # Simplified again from cold, each node gives the node it kept, up to
    # the fresh names capture-avoiding substitution draws.
    _forget_analyses()
    for n in nodes:
        warm, cold = kept[id(n)], _simplifier(n)(n)
        if _alpha(warm) == _tree(warm):  # no fresh names
            assert cold is warm
        else:
            assert _alpha(cold) == _alpha(warm)
    some = nodes[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(some, dataclasses.fields(some)[0].name, None)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(formula_dag_strategy(), st.data())
def test_structurally_equal_nodes_are_identical(forms, data):
    nodes = list({id(n): n for f in forms for n in dag_walk(f)}.values())
    terms = [n for n in nodes if isinstance(n, (IVar, ICon, IOp, IIte, IApp))]
    env = {v: data.draw(st.sampled_from(terms)) for v in "abvw"
           if data.draw(st.booleans())}
    made = list(nodes)
    for n in nodes:
        assert _fresh_copy(n, {}) is n
        made += [subst(n, env), _simplifier(n)(n)]
    # A dataclass repr prints the whole tree, so equal reprs mean equal
    # structure.
    by_repr: dict[str, object] = {}
    for n in made:
        assert by_repr.setdefault(repr(n), n) is n
        assert _fresh_copy(n, {}) is n


def test_unreferenced_node_leaves_the_intern_table():
    def key_count(text: str) -> int:
        return sum(repr(n) == text for n in _live_nodes())

    n = FQuant("forall", ("v",), FCmp("<", IOp("+", IVar("v"), ICon(913)),
                                      IApp("g", (IVar("v"),))))
    text = repr(n)
    # kept analyses do not keep it alive
    simplify(n)
    free_vars(n)
    assert key_count(text) == 1
    gone = weakref.ref(n)
    del n
    gc.collect()
    assert gone() is None
    assert key_count(text) == 0
    assert key_count("ICon(value=913)") == 0  # nor its children


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(formula_dag_strategy())
def test_let_expanded_generated_formula_equals_tree_printer(forms):
    names = count(1)
    for f in forms:
        assert _expanded(form_sexpr(f, names)) == _tree(f)


# -- the forward pass -------------------------------------------------------------


MIXED = """
int g;

/*@ requires x >= 0;
    assigns g \\from g, x;
    ensures g == \\old(g) + x;
*/
void add(int x) {
  g = g + x;
  return;
}

/*@ requires g >= 0;
    assigns g \\from g, a;
    ensures g >= 0;
*/
void f(int a) {
  int i = 0;
  /*@ assert first: g >= 0; */
  if (a > 0) {
    /*@ assert then_a: a > 0; */
    add(a);
  } else {
    /*@ assert else_a: a <= 0; */
  }
  /*@ loop invariant g >= 0 && i >= 0; */
  while (i < 3) {
    /*@ assert in_loop: i < 3; */
    i = i + 1;
  }
  /*@ assert last: i >= 3; */
  return;
}
"""


def test_obligations_keep_the_backward_order():
    # exit goals; then statements last first; a loop's preservation, body
    # and initiation; an if's then-branch before its else-branch
    p = parse(MIXED)
    assert [it.label for it in function_vcs(p.function("f"), p)] == [
        "ensures_1", "last", "loop_preserve", "in_loop", "loop_init",
        "requires_of_add", "then_a", "else_a", "first"]


def test_call_in_a_branch_is_pinned_by_its_ensures():
    # The callee's ensures fixes the fresh value of g, so no quantifier is
    # left and the VCs stay on the vectorized path.
    p = parse(MIXED)
    items = function_vcs(p.function("f"), p)
    assert not any(has_quantifier(it.goal) for it in items)
    assert all("$h1" not in v for it in items for v in free_vars(it.goal))
    t = transform(p)
    for vc in vcs_for(t, t.lemma_names):
        r = check_bounded(vc, 4)
        assert (r.status, r.method) in {("valid", "vectorized"),
                                        ("valid", "instantiation")}, vc.name


PINNED_IN_A_CONJUNCTION = """
int g;

/*@ assigns g \\from g, x;
    assigns \\result \\from g, x;
    ensures \\result == g && g == \\old(g) + x;
*/
int bump(int x) {
  g = g + x;
  return g;
}

/*@ assigns g \\from g, a;
    assigns \\result \\from g, a;
*/
int f(int a) {
  int r = 0;
  r = bump(a);
  /*@ assert top: r >= g - 1; */
  if (a > 0) {
    r = bump(r);
  }
  /*@ assert after: r >= g - 1; */
  return r;
}
"""


def test_one_point_rule_looks_inside_conjunctions():
    # \result is fixed by a later fresh name, which the next conjunct fixes
    # in turn: after a call and after a call in a branch, both names go.
    p = parse(PINNED_IN_A_CONJUNCTION)
    items = function_vcs(p.function("f"), p)
    assert [it.label for it in items] == ["after", "top"]
    assert not any(has_quantifier(it.goal) for it in items)
    assert all(free_vars(it.goal) == {"a", "g"} for it in items)
    t = transform(p)
    assert {check_bounded(v, 4).status for v in vcs_for(t, t.lemma_names)} \
        == {"valid"}


# -- obligation sets: each shared frame is built, checked and printed once ---------


H_CALLEE = """
/*@ assigns \\result \\from a;
    ensures {ensures};
*/
int h(int a) {{
  return a + 1;
}}
"""


@st.composite
def seq_ifs_like(draw) -> str:
    """`int f(int a, int b)`: a few sequential ifs on `a` or `b`, each
    adding to `x` and asserting a drawn comparison of `x` (some false);
    asserts between the ifs; at times a requires clause, and calls of `h`,
    whose ensures pins its result or only bounds it, before the ifs or in
    a branch. The VCs of one body mention `a`, `b` or both."""
    pinned = draw(st.booleans())
    lines = ["  int x = 0;", "  int y = 0;"]
    sometimes = st.integers(0, 3).map(lambda n: n == 0)
    if draw(sometimes):
        lines.append("  y = h(a);")
    cmp = st.sampled_from([">", ">=", "<", "!="])
    for _ in range(draw(st.integers(1, 5))):
        call = "    y = h(x);\n" if draw(sometimes) else ""
        lines.append(
            f"  if ({draw(st.sampled_from('ab'))} {draw(cmp)} "
            f"{draw(st.integers(-3, 3))}) {{\n{call}"
            f"    x = x + {draw(st.sampled_from(['a', 'b', 'y', '1']))};\n"
            f"    /*@ assert x {draw(cmp)} {draw(st.integers(-4, 4))}; */\n  }}")
        if draw(st.booleans()):
            lines.append(f"  /*@ assert x {draw(cmp)} "
                         f"{draw(st.integers(-4, 4))}; */")
    requires = "    requires a > -6;\n" if draw(st.booleans()) else ""
    return (H_CALLEE.format(ensures="\\result == a + 1" if pinned
                            else "\\result >= a")
            + f"\n/*@{requires}    assigns \\result \\from a, b;\n*/\n"
            + "int f(int a, int b) {\n" + "\n".join(lines)
            + "\n  return x;\n}\n")


def _outcome(vc: VerificationCondition, bound: int, budget: int):
    try:
        return check_bounded(vc, bound, budget)
    except BudgetExceeded as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seq_ifs_like(), st.integers(1, 3),
       st.sampled_from([DEFAULT_BUDGET, 60, 400]),
       st.sampled_from([bounded._CHUNK, 3, 5, 7, 12]))
def test_shared_check_and_script_agree_with_the_closed_goal(text, bound,
                                                           budget, chunk):
    # A chunk of a few cells cuts the box of `a` and `b` into blocks, so a
    # chain is counted and walked block by block as its frames' conjuncts.
    t = transform(parse(text))
    for vc in vcs_for(t, t.lemma_names):
        closed = VerificationCondition(vc.name, vc.function, vc.assertion,
                                       vc.kind, vc.goal, vc.hypotheses)
        assert closed.obligation.frame is None
        with mock.patch.object(bounded, "_CHUNK", chunk):
            assert _outcome(vc, bound, budget) == _outcome(closed, bound,
                                                           budget)
        # The goal's assert, second to last, may print the closed goal in
        # other bytes; every other line is the closed goal's, and the goal
        # expands to the closed goal's tree.
        lines = emit_smtlib(vc).splitlines()
        closed_lines = emit_smtlib(closed).splitlines()
        assert len(lines) == len(closed_lines)
        assert lines[:-2] + lines[-1:] == closed_lines[:-2] + closed_lines[-1:]
        assert lines[-2].startswith("(assert (not ")
        assert_script_is_tree(vc)


SIX_VARIABLES = """
/*@ assigns \\result \\from a, b, c, d, e, g; */
int f(int a, int b, int c, int d, int e, int g) {
  /*@ assert a <= b || c <= d; */
  /*@ assert e - g < 17; */
  if (e > 0) {
    /*@ assert a <= b || c <= d || e == 100; */
  }
  /*@ assert c + e != 3 || b <= g; */
  /*@ assert a - b <= 16 && c - d <= 16; */
  return a;
}
"""


def test_six_variable_set_is_decided_across_blocks_as_closed_goals_are():
    # Every VC but the first has a path of frames and six variables: 17^6
    # rows at bound 8, more than one block, so `path + forms` is decided
    # by the contraction, each factor over at most four variables. The
    # set keeps no box, and nothing is left to the closed goal.
    t = transform(parse(SIX_VARIABLES))
    decided = []
    some_row = bounded._some_row

    def deciding(forms, order, bound, cost):
        decided.append((len(forms), len(order),
                        some_row(forms, order, bound, cost)))
        return decided[-1][2]

    shared = []
    for vc in vcs_for(t, t.lemma_names):
        if vc.obligation.frame is None:
            continue
        decided.clear()
        with mock.patch.object(bounded, "_some_row", side_effect=deciding):
            got = check_bounded(vc, 8)
        assert vc.obligation._goal is None  # the closed goal was not built
        closed = VerificationCondition(vc.name, vc.function, vc.assertion,
                                       vc.kind, vc.goal, vc.hypotheses)
        want = check_bounded(closed, 8)
        assert (got.status, got.rows, got.assignment) == (
            want.status, want.rows, want.assignment)
        (forms, width, some), = decided
        assert forms > 1 and width == 6 and some is not None
        shared.append((some, got.status))
    assert sorted(shared) == [(False, "valid")] * 3 + [
        (True, "counterexample")]


def test_seq_ifs_obligations_share_frames_and_never_close():
    t = transform(parse(seq_ifs(20)))
    run = prove_program(t, 8)
    for vc in run.vcs:
        emit_smtlib(vc)
    sets = {vc.obligation.owner for vc in run.vcs}
    assert len(sets) == 1
    (oset,) = sets
    # a guard and a merged frame per if, the last if's merged frame unused
    assert len(oset.frames) == 2 * 20 - 1
    assert all(vc.obligation.frame is not None for vc in run.vcs)
    assert all(ob._goal is None for ob in oset.obligations)
    assert {r["status"] for r in run.results.values()} == {"valid"}
    # Each script joins the segments along its path, where an if's guard
    # and its merged frame both bind the nodes new in each. Expanding a
    # script builds the closed goal, so this comes after the check above.
    for vc in run.vcs:
        assert_script_is_tree(vc)


def _linear_work(text: str, counts: Counter, phase: list) -> dict:
    counts.clear()
    t = transform(parse(text))
    phase[0] = "check"
    run = prove_program(t, 8)
    phase[0] = "print"
    for vc in run.vcs:
        emit_smtlib(vc)
    return dict(counts)


@pytest.mark.parametrize("shape", [seq_ifs, seq_ifs3])
def test_obligation_sets_make_total_work_linear(monkeypatch, tmp_path,
                                                capsys, shape):
    counts: Counter = Counter()
    phase = ["check"]
    walk = logic.dag_walk

    def counted_walk(root, seen=None):
        for n in walk(root, seen):
            counts[phase[0]] += 1
            yield n

    for module in (bounded, vcgen, smtlib):
        monkeypatch.setattr(module, "dag_walk", counted_walk)
    for module, name, key in ((bounded, "_np_form", None),
                              (bounded, "_np_term", None),
                              (smtlib, "_node_text", None),
                              (logic, "_simplify_node", "_simplify_node")):
        def spy(*args, _orig=getattr(module, name), _key=key):
            counts[_key or phase[0]] += 1
            return _orig(*args)
        monkeypatch.setattr(module, name, spy)
    # k = 200 first, so nodes that outlive it could only make k = 100
    # cheaper
    big = _linear_work(shape(200), counts, phase)
    gc.collect()
    small = _linear_work(shape(100), counts, phase)
    for key in ("_simplify_node", "check", "print"):
        assert big[key] <= 2.25 * small[key], (key, small[key], big[key])
    monkeypatch.undo()
    path = tmp_path / "seq_ifs_200.mc"
    path.write_text(shape(200), encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["prove", str(path), "-o", str(tmp_path / "out"),
                     "--bound", "8"]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
