"""One minimal program per message that `validate` can emit.

Each row is a program (MiniC source, or an AST for a location the parser
cannot produce) and one message `validate` must report for it, with a
span. `NEW_RULES` holds the rules of the single annotation checker that the
earlier checkers lacked; every other message was emitted before them, with
the same text."""

import pytest

from relprop.cli import main
from relprop.minic import (
    VOID, Program, FunctionDef, Contract, AssignsClause, FormalLoc, ReturnStmt,
)
from relprop.parser import parse_program
from relprop.validate import validate

PTR_PRED = """
/*@ axiomatic A {
  predicate P{L1, L2}(int *p) reads \\at(*p, L1), \\at(*p, L2);
  predicate Q(integer a);
  logic integer lg(integer a);
} */
"""


def _clause(pred: str, calls: str = "\\call(f, x1, id1)",
            binders: str = "\\forall int x1;") -> str:
    """`int f(int x)` with the clause `R: binders \\callset(calls) ==> pred`."""
    return f"""
/*@ assigns \\result \\from x;
    relational R: {binders}
      \\callset({calls}) ==> {pred};
*/
int f(int x) {{ return x; }}
"""


def _cond_fn(cond: str) -> str:
    """`void f(int x)` whose body is `if (cond) { x = 1; }`."""
    return f"void f(int x) {{ if ({cond}) {{ x = 1; }} return; }}"


EXISTING = [
    ("duplicate global g", "int g;\nint g;"),
    ("duplicate function f", "int f() { return 0; }\nint f() { return 0; }"),
    ("g is both a global and a function", "int g;\nint g() { return 0; }"),
    ("lg is both a global and a logic symbol", PTR_PRED + "int lg;"),
    ("duplicate formal x in f", "int f(int x, int x) { return x; }"),
    ("formal g shadows a global", "int g;\nint f(int g) { return 0; }"),
    ("f may fall off the end without returning",
     "int f(int x) { if (x > 0) { return 1; } }"),
    ("redeclaration of t", "int f() { int t = 0; int t = 1; return t; }"),
    ("local g shadows a global", "int g;\nint f() { int g = 0; return 0; }"),
    ("assignment to undefined y", "void f() { y = 1; return; }"),
    ("cannot reassign pointer p",
     "/*@ assigns *p \\from *p; */\nvoid f(int *p) { p = 1; return; }"),
    ("f returns void", "void f() { return 1; }"),
    ("f must return a value", "int f() { return; }"),
    ("dereference of undefined q", "int f() { return *q; }"),
    ("dereference of non-pointer x", "int f(int x) { return *x; }"),
    ("pointer globals such as p cannot be used",
     "int *p;\nint f() { return *p; }"),
    ("lg expects 1 arguments",
     PTR_PRED + "int f(int x) { int r = 0; r = lg(x, x); return r; }"),
    ("call to undefined function nope", "void f() { nope(); return; }"),
    ("h expects 1 arguments, got 2",
     "int h(int a) { return a; }\n"
     "int f(int x) { int r = 0; r = h(x, x); return r; }"),
    ("pointer arguments to calls are not supported",
     "/*@ assigns *p \\from *p; */\nvoid h(int *p) { *p = 1; return; }\n"
     "void f() { h(1); return; }"),
    ("h returns no value",
     "void h() { return; }\nint f() { int r = 0; r = h(); return r; }"),
    ("cannot assign call result to pointer p",
     "int h() { return 1; }\n"
     "/*@ assigns *p \\from *p; */\nvoid f(int *p) { p = h(); return; }"),
    ("float literals are not supported",
     "/*@ requires x > 1.5; */\nint f(int x) { return x; }"),
    ("undefined variable y", "int f(int x) { return y; }"),
    ("pointer p used in arithmetic",
     "/*@ assigns *p \\from *p; */\nvoid f(int *p) { *p = p + 1; return; }"),
    ("logic construct in program expression",
     _cond_fn("\\result > 0")),
    ("\\result outside an int function's ensures",
     "/*@ requires \\result > 0; */\nint f(int x) { return x; }"),
    ("label Pre_id1 is only meaningful inside a relational clause",
     "/*@ ensures \\at(x, Pre_id1) == 0; */\nint f(int x) { return x; }"),
    ("\\at expects a variable or dereference",
     "/*@ ensures \\at(1, Pre) == 1; */\nint f(int x) { return x; }"),
    ("==> is not a program operator",
     "void f(int x) { if (x > 0 ==> x > 1) { x = 1; } return; }"),
    ("quantifiers are not program expressions",
     _cond_fn("\\forall int y; y > 0")),
    ("\\separated is not a program expression",
     _cond_fn("\\separated(x, x)")),
    ("\\separated expects pointers, got x",
     "/*@ requires \\separated(x, x); */\nint f(int x) { return x; }"),
    ("\\separated expects pointer names",
     "/*@ requires \\separated(1, 2); */\nint f(int x) { return x; }"),
    ("predicate application in program expression",
     _cond_fn("Q(x)")),
    ("unknown predicate P", "/*@ requires P(x); */\nint f(int x) { return x; }"),
    ("P expects 2 labels",
     PTR_PRED + "/*@ assigns *p \\from *p;\n    requires P{Pre}(p); */\n"
     "void f(int *p) { *p = 1; return; }"),
    ("Q expects 1 arguments",
     PTR_PRED + "/*@ requires Q(x, x); */\nint f(int x) { return x; }"),
    ("\\true/\\false are not program expressions", _cond_fn("\\true")),
    ("cannot assign formal x as state",
     "/*@ assigns x \\from x; */\nvoid f(int x) { return; }"),
    ("unknown formal q",
     Program((FunctionDef("f", (), VOID, (ReturnStmt(None),), Contract(
         assigns=(AssignsClause(FormalLoc("q"), (FormalLoc("q"),)),))),))),
    ("unknown location zz", "/*@ assigns zz \\from zz; */\nvoid f() { return; }"),
    ("*q is not a pointer formal of f",
     "/*@ assigns *q \\from *q; */\nvoid f(int x) { return; }"),
    ("\\result in assigns of void f",
     "/*@ assigns \\result \\from x; */\nvoid f(int x) { return; }"),
    ("R: clause binders must have type int",
     _clause("\\true", "\\call(f, id1)", "\\forall int *p;")),
    ("R: duplicate binder x1", _clause("\\true", binders="\\forall int x1, x1;")),
    ("R: duplicate call id id1",
     _clause("\\true", "\\call(f, x1, id1), \\call(f, x1, id1)")),
    ("R: inlining option must be >= 1",
     _clause("\\true", "\\call(0, f, x1, id1)")),
    ("R: unknown function nope", _clause("\\true", "\\call(nope, x1, id1)")),
    ("R: g is declared after f; a relational clause belongs to the last "
     "function involved",
     _clause("\\true", "\\call(g, x1, id1)")
     + "/*@ assigns \\result \\from x; */\nint g(int x) { return x; }"),
    ("R: f takes 1 int arguments, got 2", _clause("\\true", "\\call(f, x1, x1, id1)")),
    ("R: call argument uses zz, which is not a clause binder",
     _clause("\\true", "\\call(f, zz, id1)")),
    ("R: \\callpure callee bump is not pure",
     "int g;\n/*@ assigns g \\from g;\n    assigns \\result \\from x; */\n"
     "int bump(int x) { g = g + 1; return x; }"
     + _clause("\\callpure(bump, x1) == 0")),
    ("R: \\at is not allowed in \\callpure arguments",
     "int g;\n/*@ assigns g \\from g; */\nvoid h() { g = g + 1; return; }\n"
     "/*@ assigns \\result \\from x; */\nint p(int x) { return x; }\n"
     "/*@ assigns g \\from g;\n    relational R: \\callset(\\call(h, id1))\n"
     "      ==> \\callpure(p, \\at(g, Pre_id1)) == 0;\n*/\n"
     "void f() { g = g + 0; return; }"),
    ("R: undefined variable zz", _clause("zz == 0")),
    ("R: bare dereference needs \\at with a call label", _clause("*q == 0")),
    ("R: \\callresult references unknown call id id3", _clause("\\callresult(id3) > 0")),
    ("R: call id1 returns no value",
     "/*@ assigns \\nothing; */\nvoid v() { return; }\n"
     "/*@ assigns \\result \\from x;\n    relational R: \\callset(\\call(v, id1))"
     " ==> \\callresult(id1) == 0;\n*/\nint f(int x) { return x; }"),
    ("R: label Pre is not Pre_<id> or Post_<id>", _clause("\\at(g, Pre) == 0")),
    ("R: label Pre_id9 references an unknown call id", _clause("\\at(g, Pre_id9) == 0")),
    ("R: \\at expects a global, got x1", _clause("\\at(x1, Pre_id1) == 0")),
    ("R: *q is not a pointer formal of the call's callee",
     _clause("\\at(*q, Pre_id1) == 0")),
    ("R: \\old/\\result are not relational constructs", _clause("\\result == 0")),
    ("R: \\separated is generated, not written, in relational predicates",
     _clause("\\separated(x1, x1)")),
    ("f is part of a relational property but has no assigns clause covering g",
     "int g;\n/*@ relational R: \\callset(\\call(f, id1), \\call(f, id2))\n"
     "      ==> \\at(g, Pre_id1) == \\at(g, Pre_id2);\n*/\n"
     "void f() { g = g + 1; return; }"),
    ("f: assigns clauses do not cover g",
     "int g;\n/*@ assigns \\result \\from x; */\nint f(int x) { g = x; return x; }\n"
     "int c(int y) { int a = 0; a = f(y); return a; }"),
    ("duplicate axiomatic item Q",
     "/*@ axiomatic A {\n  predicate Q(integer a);\n  predicate Q(integer a);\n} */"),
]

# Each construct code may not mention, written in code; the exact diagnostic
# validate reports for it.
CODE_CONTEXT = [
    ("int f(int x) { return \\result + 1; }",
     "t.mc:1:23: error: logic construct in program expression"),
    ("int f(int x) { return \\old(x); }",
     "t.mc:1:23: error: logic construct in program expression"),
    ("int f(int x) { return \\at(x, Pre); }",
     "t.mc:1:23: error: logic construct in program expression"),
    ("int f(int x) { return \\callresult(id1); }",
     "t.mc:1:23: error: logic construct in program expression"),
    ("int g(int x) { return x; }\nint f(int x) { return \\callpure(g, x); }",
     "t.mc:2:23: error: logic construct in program expression"),
    ("int g(int x) { return x; }\nint f(int x) { int y = g(x) + 1; return y; }",
     "t.mc:2:24: error: calls cannot be nested inside expressions"),
    (_cond_fn("\\true"), "t.mc:1:21: error: \\true/\\false are not program expressions"),
    (_cond_fn("\\forall int y; y > x"),
     "t.mc:1:21: error: quantifiers are not program expressions"),
    (_cond_fn("\\separated(x, x)"),
     "t.mc:1:21: error: \\separated is not a program expression"),
    (_cond_fn("p{Pre}(x)"),
     "t.mc:1:21: error: predicate application in program expression"),
]


@pytest.mark.parametrize("src, expected", CODE_CONTEXT,
                         ids=["result", "old", "at", "callresult", "callpure",
                              "nested_call", "true", "forall", "separated",
                              "labelled_predicate"])
def test_code_context_rule_from_source(src, expected):
    assert [str(d) for d in validate(_program(src))] == [expected]


# Rules of the one checker that no earlier check made; each of these
# programs was accepted (or crashed `prove`) before.
NEW_RULES = [
    ("\\callresult is only meaningful inside a relational clause",
     "/*@ ensures \\result == \\callresult(id1); */\nint f(int x) { return x; }"),
    ("unknown function nothere",
     "/*@ ensures \\result == \\callpure(nothere, x); */\nint f(int x) { return x; }"),
    ("\\callpure callee k is not pure",
     "int y;\n/*@ assigns y \\from y;\n    assigns \\result \\from x; */\n"
     "int k(int x) { y = y + 1; return x; }\n"
     "/*@ ensures \\result == \\callpure(k, x); */\nint f(int x) { return x; }"),
    ("R: v returns no value",
     "/*@ assigns \\nothing; */\nvoid v(int x) { return; }"
     + _clause("\\callresult(id1) == \\callpure(v, x1)")),
    ("R: f takes 1 int arguments, got 0", _clause("\\callpure(f) == 0")),
    ("R: \\callpure callee p takes a pointer",
     "/*@ assigns \\result \\from x; */\nint p(int *q, int x) { return x; }"
     + _clause("\\callpure(p, x1) == 0")),
    ("R: P cannot take the call label Pre_id1",
     PTR_PRED.replace("(int *p) reads \\at(*p, L1), \\at(*p, L2)", "(integer a)")
     + _clause("P{Pre_id1, Post_id1}(x1)")),
    ("unknown logic function foo",
     "/*@ ensures \\result == foo(x, x, x); */\nint f(int x) { return x; }"),
    ("L: f expects 1 arguments",
     "/*@ axiomatic A {\n  logic integer f(integer a);\n"
     "  lemma L: \\forall integer x; f(x, x) == x;\n} */"),
    ("P expects a pointer name for p",
     PTR_PRED + "/*@ ensures P{Pre, Post}(3); */\nint g(int x) { return x; }"),
    ("Q expects an integer for a",
     PTR_PRED + "/*@ assigns *p \\from *p;\n    requires Q(p); */\n"
     "void f(int *p) { *p = 1; return; }"),
    ("label Foo is only meaningful inside a relational clause",
     PTR_PRED + "/*@ assigns *p \\from *p;\n    ensures P{Foo, Post}(p); */\n"
     "void f(int *p) { *p = 1; return; }"),
    ("undefined variable t",
     "/*@ requires t > 0;\n    ensures \\result == t; */\n"
     "int g(int x) { int t = x; return t; }"),
    ("L: unknown predicate nope",
     "/*@ axiomatic A {\n  logic integer f(integer a);\n"
     "  lemma L: \\forall integer x; nope(x) ==> f(x) == x;\n} */"),
    ("L: \\old/\\result are not lemma constructs",
     "int g;\n/*@ axiomatic A {\n  lemma L: \\old(g) == g;\n} */"),
    ("L: unknown label Here",
     "int g;\n/*@ axiomatic A {\n  lemma L{L1}: \\at(g, Here) == g;\n} */"),
    ("R: undefined variable x",
     "/*@ axiomatic A {\n  predicate R{L1}(integer a) reads \\at(x, L1);\n} */"),
    ("R: reads expects \\at(location, label)",
     "/*@ axiomatic A {\n  predicate R{L1}(int *p) reads *p;\n} */"),
]


def _program(src) -> Program:
    if isinstance(src, Program):
        return src
    p = parse_program(src, "t.mc")
    assert isinstance(p, Program), [str(d) for d in p]
    return p


@pytest.mark.parametrize("message, src", EXISTING + NEW_RULES,
                         ids=[m for m, _ in EXISTING + NEW_RULES])
def test_validate_reports(message, src):
    diags = validate(_program(src))
    assert message in [d.message for d in diags]


def test_every_row_has_its_own_message():
    messages = [m for m, _ in EXISTING + NEW_RULES]
    assert len(messages) == len(set(messages))


@pytest.mark.parametrize("message, src",
                         [row for row in EXISTING + NEW_RULES
                          if not isinstance(row[1], Program)],
                         ids=[m for m, s in EXISTING + NEW_RULES
                              if not isinstance(s, Program)])
def test_parsed_input_diagnostics_carry_spans(message, src):
    assert all(d.span is not None for d in validate(_program(src)))


PROBES = {
    "callresult_in_contract": NEW_RULES[0][1],
    "unknown_callpure_in_contract": NEW_RULES[1][1],
    "impure_callpure_in_contract": NEW_RULES[2][1],
    "void_callpure_in_clause": NEW_RULES[3][1],
    "unknown_logic_function": NEW_RULES[5][1],
    "lemma_arity": NEW_RULES[6][1] + "\nint g(int x) { return x; }",
    "predicate_argument_kind": NEW_RULES[7][1],
    "contract_sees_no_locals": NEW_RULES[10][1],
    "lemma_unknown_predicate": NEW_RULES[11][1] + "\nint g(int x) { return x; }",
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_prove_rejects_probe_with_a_spanned_diagnostic(name, tmp_path, capsys):
    path = tmp_path / "t.mc"
    path.write_text(PROBES[name], encoding="utf-8")
    code = main(["prove", str(path), "-o", str(tmp_path / "out"), "--bound", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"{path}:")
    assert "error:" in err and "Traceback" not in err
