"""The front end against its references and its budgets.

The regex lexer must give the tokens (or the diagnostic) of the
character-at-a-time lexer it replaced; `walk`, which skips the fields that
cannot hold nodes, must yield the nodes of a walk over every field; and
`statements` must yield the statements `walk` yields. `parse_program` must
answer every input with a Program or diagnostics, never an exception."""

import dataclasses
import string

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relprop.cli import main
from relprop.minic import (
    Diagnostic, Node, Program, Span, Stmt, statements, walk,
)
from relprop.parser import (
    BACKSLASH_KEYWORDS, MAX_LITERAL_DIGITS, MAX_NESTING, PUNCT, ParseFailure,
    lex, parse_program,
)
from relprop.pretty import pretty_print
from relprop.selfcomp import TransformError, transform

from conftest import CORPUS
from strategies import clause_program_strategy, program_strategy

SUITE = settings(max_examples=500, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# References: the traversals as they were before they were made fast
# ---------------------------------------------------------------------------


def reference_lex(text: str, file: str = "<input>") -> list[tuple]:
    """The character loop: (kind, value, line, col, end_line, end_col)."""
    toks: list[tuple] = []
    i, line, col = 0, 1, 1
    n = len(text)
    in_annot = False
    in_line_annot = False

    def fail(sl, sc, el, ec, message):
        return ParseFailure(Diagnostic("error", Span(file, sl, sc, el, ec),
                                       message))

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def emit(kind: str, value: str, sl: int, sc: int) -> None:
        toks.append((kind, value, sl, sc, line, col))

    while i < n:
        c = text[i]
        if in_line_annot and c == "\n":
            emit("ANNOT_CLOSE", "", line, col)
            in_line_annot = False
            advance()
            continue
        if c in " \t\r\n":
            advance()
            continue
        sl, sc = line, col
        if not (in_annot or in_line_annot):
            if text.startswith("/*@", i):
                advance(3)
                emit("ANNOT_OPEN", "/*@", sl, sc)
                in_annot = True
                continue
            if text.startswith("//@", i):
                advance(3)
                emit("ANNOT_OPEN", "//@", sl, sc)
                in_line_annot = True
                continue
            if text.startswith("/*", i):
                j = text.find("*/", i + 2)
                if j < 0:
                    raise fail(sl, sc, sl, sc + 2, "unterminated comment")
                advance(j + 2 - i)
                continue
            if text.startswith("//", i):
                j = text.find("\n", i)
                advance((j if j >= 0 else n) - i)
                continue
        else:
            if in_annot and text.startswith("*/", i):
                advance(2)
                emit("ANNOT_CLOSE", "*/", sl, sc)
                in_annot = False
                continue
            if c == "@":
                advance()
                continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = j < n and text[j] == "." and j + 1 < n \
                and text[j + 1].isdigit()
            if is_float:
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            value = text[i:j]
            advance(j - i)
            emit("FLOAT" if is_float else "INT", value, sl, sc)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            value = text[i:j]
            advance(j - i)
            emit("IDENT", value, sl, sc)
            continue
        if c == "\\":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i + 1:j]
            if word not in BACKSLASH_KEYWORDS:
                raise fail(sl, sc, sl, sc + len(word) + 1,
                           f"unknown annotation construct \\{word}")
            advance(j - i)
            emit("BSKW", word, sl, sc)
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                advance(len(p))
                emit("PUNCT", p, sl, sc)
                break
        else:
            raise fail(sl, sc, sl, sc + 1, f"unexpected character {c!r}")
    if in_annot:
        _kind, _value, sl, sc, el, ec = toks[-1]
        raise fail(sl, sc, el, ec, "unterminated annotation")
    if in_line_annot:
        emit("ANNOT_CLOSE", "", line, col)
    toks.append(("EOF", "", line, col, line, col))
    return toks


def reference_walk(node):
    """Pre-order over every field but the span, as `walk` was."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, tuple):
            stack.extend(reversed(n))
        elif isinstance(n, Node):
            yield n
            stack.extend(reversed([getattr(n, f.name)
                                   for f in dataclasses.fields(n)
                                   if f.name != "span"]))


def _lexed(lexer, text: str):
    try:
        return [tuple(t) for t in lexer(text, "t.mc")]
    except ParseFailure as exc:
        return exc.diagnostic


# ---------------------------------------------------------------------------
# The lexer
# ---------------------------------------------------------------------------

# Pieces of ASCII MiniC, chosen to meet each lexer state at each edge:
# comments across lines, `//@` ended by a newline or by the end of the
# input, `\words` known and unknown, floats and almost-floats, unterminated
# comments and annotations, and characters no token starts with.
LEX_PIECES = [
    "int", "x", "_y1", "while", "requires", "0", "42", "3.14", "7.", ".5",
    " ", "\t", "\r", "\n", "  \n ", "/*", "*/", "/*@", "//@", "//", "/* a\n b */",
    "@", "*", "/", "\\", "\\forall", "\\result", "\\callset", "\\frob",
    "\\3", "==>", "==", "=", "!=", "!", "<=", "<", ">", ">=", "&&", "&",
    "||", "|", "{", "}", "(", ")", ",", ";", ":", "+", "-", "#", "$", "'",
    "\"", "~", "\f", "\v",
]


@SUITE
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join)
       | st.text(alphabet=string.printable, max_size=60))
def test_lexer_matches_the_character_loop(text):
    assert _lexed(lex, text) == _lexed(reference_lex, text)


def test_lexer_matches_the_character_loop_on_the_corpus():
    paths = sorted(CORPUS.rglob("*.mc"))
    assert len(paths) >= 13
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert _lexed(lex, text) == _lexed(reference_lex, text), path


def test_line_annotation_ends_at_newline_and_at_end_of_input():
    toks = [(t.kind, t.line, t.col) for t in lex("//@ assert x;\ny //@ z")]
    assert toks == [("ANNOT_OPEN", 1, 1), ("IDENT", 1, 5), ("IDENT", 1, 12),
                    ("PUNCT", 1, 13), ("ANNOT_CLOSE", 1, 14),
                    ("IDENT", 2, 1), ("ANNOT_OPEN", 2, 3), ("IDENT", 2, 7),
                    ("ANNOT_CLOSE", 2, 8), ("EOF", 2, 8)]


@pytest.mark.parametrize("char", ["²", "٣", "é"])
def test_non_ascii_code_is_an_unexpected_character(char):
    diags = parse_program(f"int f(int x) {{ int y = {char}; return y; }}")
    assert isinstance(diags, list)
    assert diags[0].message == f"unexpected character {char!r}"
    assert (diags[0].span.start_line, diags[0].span.start_col) == (1, 24)


def test_non_ascii_text_in_comments_is_skipped():
    p = parse_program("// é ²\n/* ٣ */ int f(int x) { return x; }")
    assert isinstance(p, Program)


def test_over_long_literal_is_a_diagnostic():
    digits = "9" * 5000
    diags = parse_program(f"int f(int x) {{ return {digits}; }}")
    assert isinstance(diags, list)
    assert f"longer than {MAX_LITERAL_DIGITS} digits" in diags[0].message
    span = diags[0].span
    assert (span.start_col, span.end_col) == (23, 23 + len(digits))
    assert isinstance(parse_program(
        f"int f(int x) {{ return {'9' * MAX_LITERAL_DIGITS}; }}"), Program)


# ---------------------------------------------------------------------------
# Nesting budget
# ---------------------------------------------------------------------------

DEEP = {
    "unary minus": lambda k: f"int f(int x) {{ return {'-' * k}x; }}",
    "parentheses": lambda k: f"int f(int x) {{ return {'(' * k}x{')' * k}; }}",
    "sum chain": lambda k: f"int f(int x) {{ return {' + '.join(['x'] * k)}; }}",
    "negations": lambda k: f"int f(int x) {{ if ({'!' * k}(x > 0)) "
                           "{ return 1; } return 0; }",
    "conjunction chain": lambda k: "int f(int x) { if ("
                                   + " && ".join(["x > 0"] * k)
                                   + ") { return 1; } return 0; }",
    "nested ifs": lambda k: "int f(int x) { " + "if (x > 0) { " * k
                            + "x = 1; " + "} " * k + "return x; }",
    "implication chain": lambda k: "/*@ ensures "
                                   + " ==> ".join(["x > 0"] * k)
                                   + "; */ int f(int x) { return x; }",
    "loop invariants": lambda k: "int f(int x) { int i = 0; /*@ "
                                 + "loop invariant i >= 0; " * k
                                 + "*/ while (i < x) { i = i + 1; } "
                                 "return i; }",
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_nesting_is_a_diagnostic_not_a_crash(shape):
    diags = parse_program(DEEP[shape](3000))
    assert isinstance(diags, list)
    assert diags[0].message == f"nesting deeper than {MAX_NESTING} levels"
    assert diags[0].span is not None


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_nesting_within_the_budget_parses(shape):
    assert isinstance(parse_program(DEEP[shape](MAX_NESTING // 2)), Program)


# A relational clause on f, so that `prove` and `test` have a wrapper to run.
DEEPEST_CLAUSE = """
/*@ assigns \\result \\from x;
    relational R: \\forall int a;
      \\callset(\\call(f, a, id1), \\call(f, a, id2))
      ==> \\callresult(id1) == \\callresult(id2);
*/
"""


@pytest.mark.parametrize("shape", ["unary minus", "sum chain", "nested ifs",
                                   "parentheses"])
def test_deepest_accepted_program_runs_every_command(shape, tmp_path, capsys):
    # The deepest program the parser accepts goes through every later
    # layer (several of them recursive) without overflowing.
    k = max(k for k in range(MAX_NESTING - 10, MAX_NESTING + 10)
            if isinstance(parse_program(DEEPEST_CLAUSE + DEEP[shape](k)),
                          Program))
    assert isinstance(parse_program(DEEPEST_CLAUSE + DEEP[shape](k + 1)), list)
    path = tmp_path / "deep.mc"
    path.write_text(DEEPEST_CLAUSE + DEEP[shape](k), encoding="utf-8")
    for command in (["transform"], ["prove", "--bound", "2"],
                    ["test", "--bound", "1", "--budget", "1"]):
        assert main([*command, str(path), "-o", str(tmp_path)]) == 0, \
            (command, capsys.readouterr())


# Programs whose transformed output nests one level deeper per k, each with
# the largest k whose output the parser reads back.
TRANSFORM_DEEP = {
    # f's returns become nested `if (done == 0)` blocks when inlined.
    "sequential returns": (lambda k: DEEPEST_CLAUSE + "int f(int x) { " + "".join(
        f"if (x > {i}) {{ return {i}; }} " for i in range(k)) + "return x; }", 97),
    # A negative literal is one node read as two levels, `-` and digits.
    "negative bounds": (lambda k: DEEPEST_CLAUSE + "int f(int x) { " + "".join(
        f"if (x > -{i + 1}) {{ return {i}; }} " for i in range(k))
        + "return x; }", 96),
    # The lemma puts the predicate under a quantifier.
    "negations": (lambda k: "/*@ relational R: \\forall int x1, x2;\n"
                  "  \\callset(\\call(f, x1, id1), \\call(f, x2, id2))\n"
                  "  ==> " + "!" * k + "(\\callresult(id1) == \\callresult(id2)); */\n"
                  "int f(int x) { return x; }", 94),
    # Without binders the lemma is as deep as the clause, and the wrapper's
    # assertion one block deeper.
    "differences": (lambda k: "/*@ relational R: "
                    "\\callset(\\call(f, 1, id1), \\call(f, 2, id2))\n"
                    "  ==> \\callresult(id1) == " + "1 - (" * k
                    + "\\callresult(id2)" + ")" * k + "; */\n"
                    "int f(int x) { return x; }", 96),
}


@pytest.mark.parametrize("shape", sorted(TRANSFORM_DEEP))
def test_transform_writes_only_what_the_parser_reads_back(shape):
    make, k = TRANSFORM_DEEP[shape]
    out = pretty_print(transform(parse_program(make(k), "t.mc")).program)
    assert isinstance(parse_program(out, "out.mc"), Program)
    deeper = parse_program(make(k + 1), "t.mc")
    assert isinstance(deeper, Program)
    with pytest.raises(TransformError) as err:
        transform(deeper)
    assert f"nests deeper than {MAX_NESTING} levels" \
        in err.value.diagnostics[0].message


# Pieces of MiniC programs, for inputs that are nearly programs.
PARSE_PIECES = [
    "int ", "void ", "f", "x", "(", ")", "{", "}", ";", ",", "=", " ",
    "int f(int x) {", "return x;", "return ", "if (x > 0) {", "} else {",
    "while (x < 3) {", "x = x + 1;", "*p = 2;", "y = f(x);", "-", "!",
    "/*@ requires x > 0; */", "/*@ assigns \\result \\from x; */",
    "/*@ loop invariant x >= 0; */", "//@ assert x > 0;\n", "/*@", "*/",
    "relational R: \\callset(\\call(f, x, id1)) ==> \\callresult(id1) > 0;",
    "\\forall int a;", "==>", "&&", "||", "1", "99999999999999999999",
    "axiomatic A { logic integer g(integer a); }", "\n", "²", "é",
]


@SUITE
@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=30).map("".join)
       | st.text(max_size=80))
def test_parse_program_returns_a_program_or_diagnostics(text):
    result = parse_program(text, "t.mc")
    if not isinstance(result, Program):
        assert isinstance(result, list) and result
        assert all(isinstance(d, Diagnostic) for d in result)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def _corpus_programs() -> list[Program]:
    out = []
    for path in sorted(CORPUS.rglob("*.mc")):
        p = parse_program(path.read_text(encoding="utf-8"), path.name)
        assert isinstance(p, Program), path
        out.append(p)
        try:
            out.append(transform(p).program)
        except TransformError:
            pass
    return out


def _same_nodes(a, b) -> bool:
    a, b = list(a), list(b)
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _assert_traversals_agree(program: Program) -> None:
    assert _same_nodes(walk(program), reference_walk(program))
    for fn in program.functions:
        assert _same_nodes(walk(fn.contract), reference_walk(fn.contract))
        assert _same_nodes(statements(fn.body),
                           (n for n in walk(fn.body) if isinstance(n, Stmt)))


LOOPS = """
int g = 0;
/*@ assigns g \\from g, n; */
int f(int n) {
  int i = 0;
  /*@ loop invariant i >= 0; loop variant n - i; */
  while (i < n) {
    if (i > 2) { int t = i; g = g + t; } else { while (g > 9) { g = g - 1; } }
    i = i + 1;
  }
  //@ assert i >= 0;
  return i;
}
"""


def test_traversals_agree_inside_loops():
    # No corpus file and no generated body has a loop.
    program = parse_program(LOOPS)
    assert isinstance(program, Program)
    _assert_traversals_agree(program)
    kinds = [type(s).__name__ for s in statements(program.functions[0].body)]
    assert kinds == ["DeclStmt", "WhileStmt", "IfStmt", "DeclStmt",
                     "AssignStmt", "WhileStmt", "AssignStmt", "AssignStmt",
                     "AssertStmt", "ReturnStmt"]


def test_traversals_agree_on_the_corpus_and_its_transforms():
    programs = _corpus_programs()
    assert len(programs) > 13  # sources and some transforms
    for program in programs:
        _assert_traversals_agree(program)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(program_strategy())
def test_traversals_agree_on_generated_programs(program):
    _assert_traversals_agree(program)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(clause_program_strategy())
def test_traversals_agree_on_generated_wrappers(case):
    program, _name = case
    _assert_traversals_agree(program)
    _assert_traversals_agree(transform(program).program)
