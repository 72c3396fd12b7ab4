"""The shared AST traversal, the Program index and the operator table."""

import operator

from relprop.logic import ARITH, CMP, ediv
from relprop.minic import (
    Bin, CallPure, Cmp, DeclStmt, IfStmt, IntLit, LogicApp, PExists, PForall,
    PImp, Pred, Binder, Node, Program, Var, walk, map_nodes, height, Span,
)
from relprop.parser import parse_program
from relprop.selfcomp import transform

from conftest import CORPUS, load


def test_walk_is_preorder_and_flattens_tuples():
    t = Bin("+", Var("a"), CallPure(1, "f", (Var("b"), IntLit(2))))
    kinds = [type(n).__name__ for n in walk(t)]
    assert kinds == ["Bin", "Var", "CallPure", "Var", "IntLit"]
    assert [n.name for n in walk((Var("x"), Var("y"))) if isinstance(n, Var)] \
        == ["x", "y"]


def test_walk_reaches_conditions_and_nested_bodies():
    body = (IfStmt(Cmp(">", Var("g"), IntLit(0)),
                   (DeclStmt("r", IntLit(1)),), ()),)
    names = [n.name for n in walk(body) if isinstance(n, (Var, DeclStmt))]
    assert names == ["g", "r"]


def _height(node, chain: bool = True) -> int:
    """`height` by its definition: nodes on the longest downward path, plus
    one for each predicate other than `==>` read as an implication chain
    (`chain`): at the root or under a node that is no predicate, a
    quantifier body, the right side of `==>`; and one for a negative
    literal."""
    if isinstance(node, tuple):
        return max((_height(n, chain) for n in node), default=0)
    if not isinstance(node, Node):
        return 0
    if isinstance(node, IntLit):
        return 1 + (node.value < 0)
    kids = [(getattr(node, f), not isinstance(node, Pred))
            for f in node.__dataclass_fields__ if f != "span"]
    if isinstance(node, PImp):
        kids = [(node.left, False), (node.right, True)]
    elif isinstance(node, (PForall, PExists)):
        kids = [(node.binders, False), (node.body, True)]
    own = chain and isinstance(node, Pred) and not isinstance(node, PImp)
    return 1 + own + max((_height(k, c) for k, c in kids), default=0)


def test_height_matches_its_definition_on_every_transformed_corpus_file():
    for path in sorted(CORPUS.rglob("*.mc")):
        program = transform(load(str(path.relative_to(CORPUS)))).program
        for item in program.items:
            assert height(item) == _height(item), (path.name, item)


def test_map_nodes_keeps_unchanged_nodes_and_spans():
    span = Span("f.mc", 1, 1, 1, 5)
    t = Bin("*", Var("a", span=span), IntLit(3), span=span)
    assert map_nodes(t, lambda n: None) is t
    out = map_nodes(t, lambda n: Var("b") if n == Var("a") else None)
    assert out == Bin("*", Var("b"), IntLit(3))
    assert out.span == span and out.right is t.right


def test_map_nodes_replacement_stops_descent():
    p = PForall((Binder("x"),), Cmp("==", Var("x"), Var("y")))
    seen = []

    def rule(n):
        seen.append(type(n).__name__)
        return p if isinstance(n, PForall) else None

    assert map_nodes(p, rule) is p
    assert seen == ["PForall"]


def test_map_nodes_rewrites_inside_logic_applications():
    t = LogicApp("dbl", (CallPure(1, "f", (Var("x"),)),))
    out = map_nodes(t, lambda n: LogicApp("f_acsl", n.args)
                    if isinstance(n, CallPure) else None)
    assert out == LogicApp("dbl", (LogicApp("f_acsl", (Var("x"),)),))


def test_program_index_matches_declaration_order():
    p = parse_program("""
    int f(int x) { return x; }
    int g(int x) { return x; }
    int f(int y) { return y; }
    """)
    assert isinstance(p, Program)
    assert p.function("f") is p.functions[0]
    assert p.function("g") is p.functions[1]
    assert p.function("h") is None


def test_operator_table_matches_integer_semantics():
    assert set(CMP) == {"==", "!=", "<=", ">=", "<", ">"}
    assert set(ARITH) == {"+", "-", "*", "/"}
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert CMP["<="](a, b) == (a <= b)
            assert CMP["!="](a, b) == (a != b)
            assert ARITH["-"](a, b) == a - b
            assert ARITH["/"](a, b) == ediv(a, b)
    assert ARITH["*"] is operator.mul
