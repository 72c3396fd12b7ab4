"""Concrete syntax: lexing, parsing, diagnostics, spans."""

from unittest import mock

import pytest

from relprop.minic import (
    Program, CallSpec, IntLit, Var, Bin, CallResult, At, Cmp, PImp,
    RelationalClause, Diagnostic,
)
from relprop.parser import _Parser, parse_program, lex
from relprop.validate import validate


def test_fig2_clause_shape(fig2):
    clause = fig2.function("max").contract.relational[0]
    assert clause.name == "R1"
    assert [b.name for b in clause.binders] == ["x1", "y1"]
    assert [(c.callee, c.call_id, len(c.args)) for c in clause.calls] == \
        [("max", "id1", 2), ("abs", "id2", 1)]
    assert clause.calls[1].args[0] == Bin("-", Var("x1"), Var("y1"))
    assert clause.pred == Cmp(
        "==", CallResult("id1"),
        Bin("/", Bin("+", Bin("+", Var("x1"), Var("y1")), CallResult("id2")),
            IntLit(2)))


def test_fig5_clause_uses_call_labels(fig5):
    clause = fig5.function("h").contract.relational[0]
    assert clause.binders == ()
    assert clause.pred == PImp(
        Cmp("<", At(Var("y"), "Pre_id1"), At(Var("y"), "Pre_id2")),
        Cmp("<", At(Var("y"), "Post_id1"), At(Var("y"), "Post_id2")))


def test_parse_succeeds_with_dangling_call_id():
    src = """
    /*@ assigns \\result \\from x;
        relational R: \\forall int x;
          \\callset(\\call(f, x, id1)) ==> \\callresult(id3) > 0;
    */
    int f(int x) { return x; }
    """
    p = parse_program(src)
    assert isinstance(p, Program)  # the parser accepts; validate flags id3


def test_inlining_option_parses_and_defaults():
    src = """
    /*@ assigns \\result \\from x;
        relational R: \\forall int x;
          \\callset(\\call(3, f, x, id1), \\call(f, x, id2))
          ==> \\callresult(id1) == \\callresult(id2);
    */
    int f(int x) { return x; }
    """
    p = parse_program(src)
    assert isinstance(p, Program)
    clause = p.function("f").contract.relational[0]
    assert clause.calls[0].depth == 3
    assert clause.calls[1].depth == 1


def test_syntax_error_has_span():
    diags = parse_program("int f( { }", "bad.mc")
    assert isinstance(diags, list) and diags
    d = diags[0]
    assert d.severity == "error"
    assert d.span is not None and d.span.file == "bad.mc"
    assert d.span.start_line >= 1 and d.span.start_col >= 1


def test_unknown_annotation_keyword_is_error():
    src = "/*@ frobnicate x; */ int f() { return 0; }"
    diags = parse_program(src)
    assert isinstance(diags, list)
    assert "frobnicate" in diags[0].message


def test_unknown_backslash_construct_is_error():
    src = "/*@ requires \\frob(x); */ int f(int x) { return x; }"
    diags = parse_program(src)
    assert isinstance(diags, list)
    assert "\\frob" in diags[0].message


def test_whitespace_and_layout_insensitivity(fig5):
    text = (
        "int y;\n/*@ assigns y \\from y; relational R1: "
        "\\callset(\\call(h,id1),\\call(h,id2)) ==> "
        "\\at(y,Pre_id1)<\\at(y,Pre_id2) ==> "
        "\\at(y,Post_id1)<\\at(y,Post_id2); */\n"
        "void h(){int a=10;y=y+a;return;}"
    )
    p = parse_program(text)
    assert isinstance(p, Program)
    assert p == fig5


def test_line_annotations_and_comments():
    src = """
    // plain comment
    /* block comment */
    //@ assigns \\result \\from x;
    int f(int x) {
      /*@ assert positive_input: x == x; */
      return x;
    }
    """
    p = parse_program(src)
    assert isinstance(p, Program)
    assert p.function("f").contract.assigns


def test_span_within_input_bounds():
    src = "int f() {\n  return oops(;\n}"
    diags = parse_program(src, "x.mc")
    assert isinstance(diags, list)
    lines = src.split("\n")
    for d in diags:
        assert 1 <= d.span.start_line <= len(lines)
        assert 1 <= d.span.start_col <= len(lines[d.span.start_line - 1]) + 2


def test_calls_cannot_nest_in_expressions():
    # Code parses with the annotation grammar; validate rejects the call.
    src = "int f(int x) { return x; } int g(int x) { int y = f(x) + 1; return y; }"
    program = parse_program(src, "t.mc")
    assert isinstance(program, Program)
    assert [str(d) for d in validate(program)] == \
        ["t.mc:1:51: error: calls cannot be nested inside expressions"]


def test_loop_annotation_attaches_to_while():
    src = """
    int f(int n) {
      int i = 0;
      int s = 0;
      /*@ loop invariant s >= 0 && i >= 0; loop variant n - i; */
      while (i < n) {
        s = s + 1;
        i = i + 1;
      }
      return s;
    }
    """
    p = parse_program(src)
    assert isinstance(p, Program)
    body = p.function("f").body
    loop = body[2]
    assert loop.invariant is not None
    assert loop.variant == Bin("-", Var("n"), Var("i"))


def test_lexer_tracks_positions():
    toks = lex("int x;\n  x = 1;")
    names = [(t.value, t.line, t.col) for t in toks if t.kind != "EOF"]
    assert names[0] == ("int", 1, 1)
    assert names[3] == ("x", 2, 3)


# Malformed inputs with no logic construct in code, each with the exact
# diagnostic the parser reports for it.
PARSE_ERRORS = [
    ("int f(int x) { if (x > 0 { return 1; } return 0; }",
     "t.mc:1:26: error: expected ')', found '{'"),
    ("/*@ requiress x > 0; */\nint f(int x) { return x; }",
     "t.mc:1:5: error: unknown contract clause 'requiress'"),
    ("/*@ behavior B: assigns \\nothing; */\nint f(int x) { return x; }",
     "t.mc:1:14: error: behavior without ensures clause"),
    ("int f(int x) { if (0 < x < 9) { return 1; } return 0; }",
     "t.mc:1:26: error: chained comparisons are not supported"),
    ("/*@ relational R: \\forall int x;\n  \\callset(\\call(f, x + 1)) ==> \\true; */\n"
     "int f(int x) { return x; }",
     "t.mc:2:12: error: \\call must end with a call identifier"),
    ("int f(int x) { return x; }\n/*@ requires x > 0;\n",
     "t.mc:2:19: error: unterminated annotation"),
    ("int f(int x) {\n  /*@ loop invariant x >= 0; */\n  return x;\n}",
     "t.mc:3:3: error: loop annotation must precede a while statement"),
    ("int *f() { return 0; }", "t.mc:1:1: error: functions cannot return pointers"),
    ("void x;", "t.mc:1:1: error: void is not a valid variable type"),
    ("int f(int x) { return " + "(" * 101 + "x" + ")" * 101 + "; }",
     "t.mc:1:122: error: nesting deeper than 100 levels"),
]


@pytest.mark.parametrize("src, expected", PARSE_ERRORS,
                         ids=[e.split("error: ")[1] for _, e in PARSE_ERRORS])
def test_parse_error_diagnostics(src, expected):
    diags = parse_program(src, "t.mc")
    assert [str(d) for d in diags] == [expected]


def negated_clause(n: int) -> str:
    return ("/*@ relational R: \\forall int x1, x2;\n"
            "      \\callset(\\call(f, x1, id1), \\call(f, x2, id2))\n"
            "      ==> " + "!" * n + "(\\callresult(id1) == \\callresult(id2)); */\n"
            "int f(int x) { return x; }")


@pytest.mark.parametrize("n, expected", [
    (95, None),
    (96, None),
    (97, "t.mc:3:109: error: nesting deeper than 100 levels"),
])
def test_negations_past_the_limit_report_the_nesting(n, expected):
    # The parenthesized predicate costs one level, as a parenthesized term
    # does; at 97 both readings run out of levels, and the nesting is what
    # is reported.
    result = parse_program(negated_clause(n), "t.mc")
    if expected is None:
        assert isinstance(result, Program)
    else:
        assert [str(d) for d in result] == [expected]


# Nested predicate clauses, each with the largest depth the parser accepts:
# a parenthesis spends one level, whether it holds a predicate or a term.
NESTED_CLAUSES = {
    "parenthesized comparison": (lambda k: "requires " + "(" * k + "x > 0"
                                 + ")" * k, 97),
    "parenthesized term": (lambda k: "requires " + "(" * k + "x" + ")" * k
                           + " > 0", 97),
    "negated parentheses": (lambda k: "ensures " + "!(" * k + "\\result > 0"
                            + ")" * k, 48),
}


@pytest.mark.parametrize("shape", sorted(NESTED_CLAUSES))
def test_largest_accepted_clause_nesting(shape):
    clause, k = NESTED_CLAUSES[shape]

    def parse(depth):
        return parse_program(f"/*@ {clause(depth)}; */\n"
                             "int f(int x) { return x; }", "t.mc")

    assert isinstance(parse(k), Program)
    assert [d.message for d in parse(k + 1)] == \
        ["nesting deeper than 100 levels"]


@pytest.mark.parametrize("k, expected", [
    (97, None),
    (98, "t.mc:1:112: error: nesting deeper than 100 levels"),
])
def test_parenthesized_term_keeps_the_term_readings_levels(k, expected):
    # When the predicate reading of `(` fails, the term reading, which also
    # spends one level a parenthesis, still parses to 97.
    src = ("/*@ requires " + "(" * k + "x" + ")" * k + " + 1 > 0; */\n"
           "int f(int x) { return x; }")
    result = parse_program(src, "t.mc")
    if expected is None:
        assert isinstance(result, Program)
    else:
        assert [str(d) for d in result] == [expected]


def parse_unary_calls(src: str) -> tuple[int, object]:
    """How often parsing `src` calls `parse_unary`, and what it returns."""
    calls = []
    original = _Parser.parse_unary

    def counted(self):
        calls.append(None)
        return original(self)

    with mock.patch.object(_Parser, "parse_unary", counted):
        result = parse_program(src, "t.mc")
    return len(calls), result


@pytest.mark.parametrize("shape", sorted(NESTED_CLAUSES))
def test_nested_clauses_parse_in_linear_work(shape):
    # Each `(` is read once: the token after its matching `)` chooses the
    # term or the predicate reading, so doubling the depth at most doubles
    # the work (it was quadratic for the parenthesized term).
    clause, k = NESTED_CLAUSES[shape]
    half = min(40, k // 2)  # 40, or what the shape's limit leaves
    (n, p), (n2, p2) = (parse_unary_calls(f"/*@ {clause(depth)}; */\n"
                                          "int f(int x) { return x; }")
                        for depth in (half, 2 * half))
    assert isinstance(p, Program) and isinstance(p2, Program)
    assert n2 <= 2 * n + 4


def test_a_failing_nested_group_is_read_in_linear_work():
    # `(…(x)…)` is no predicate. Each group fails its predicate reading and
    # is then read as a term inside every group around it; it was read
    # again each time, quadratic work before the diagnostic.
    def calls(n):
        return parse_unary_calls("/*@ requires " + "(" * n + "x" + ")" * n
                                 + "; */\nint f(int x) { return x; }")

    (n, _), (n2, diags) = calls(40), calls(80)
    assert [str(d) for d in diags] == [
        "t.mc:1:175: error: expected comparison operator"]
    assert n2 <= 2 * n + 4


@pytest.mark.parametrize("n, expected", [
    (20, "t.mc:1:15: error: expected term, found '!'"),
    (95, "t.mc:1:15: error: expected term, found '!'"),
    (96, "t.mc:1:112: error: nesting deeper than 100 levels"),
    (98, "t.mc:1:113: error: nesting deeper than 100 levels"),
])
def test_a_term_followed_group_still_reports_the_predicates_nesting(n, expected):
    # An operator after the `)` chooses the term reading; when it fails,
    # the predicate reading still tells whether the nesting is to blame.
    src = ("/*@ requires (" + "!" * n + "(x == 1)) + 1 > 0; */\n"
           "int f(int x) { return x; }")
    assert [str(d) for d in parse_program(src, "t.mc")] == [expected]
