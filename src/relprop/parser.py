"""Lexer and recursive-descent parser for MiniC translation units.

Annotations live in `/*@ ... */` and `//@ ...` comments. Contract
annotations precede the function they describe, loop annotations precede
their `while`, assert annotations stand as statements, and `axiomatic`
blocks are top-level items. Unknown annotation keywords are parse errors,
never skipped. Code and annotations share one expression grammar; what code
may mention is for `validate` to decide, so `\\result` or `f(x) + 1` in a
statement parses and is reported there.

The lexer matches one compiled pattern per state (code, `/*@ ... */`,
`//@ ...`) and dispatches on the group that matched; a token's line and
column come from the offset of the last newline. Token classes are ASCII:
any other character outside a comment is an error. The parser looks ahead
by indexing a token list that ends in EOF.

`parse_program` returns either a `Program` or a non-empty list of
`Diagnostic`s; it never raises on bad input. Integer literals longer than
`MAX_LITERAL_DIGITS` and nesting deeper than `MAX_NESTING` (blocks, unary
operators, parentheses, operator chains) are diagnostics, so neither the
parser nor any recursive layer after it can overflow the stack.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple, Optional, Union

from .minic import (
    INT, PTR, VOID, ARITH_OPS, CMP_OPS,
    Span, Diagnostic, Program, GlobalDecl, FunctionDef, Param, Contract,
    AssignsClause, Behavior, RelationalClause, CallSpec, Binder,
    Axiomatic, PredicateDecl, LogicFnDecl, Lemma,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, IntLit, FloatLit, Var, Deref, Bin, CallResult, At, CallPure,
    OldTerm, ResultTerm, LogicApp,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
    Loc, GlobalLoc, DerefLoc, ResultLoc, NothingLoc, FormalLoc, height,
)

CODE_KEYWORDS = {"int", "void", "if", "else", "while", "return"}

# Annotation keywords are contextual: they are ordinary identifiers in code.
CLAUSE_KEYWORDS = {"requires", "ensures", "assigns", "behavior", "relational",
                   "axiomatic", "predicate", "logic", "integer", "lemma",
                   "reads", "loop", "invariant", "variant", "assert"}

BACKSLASH_KEYWORDS = {"forall", "exists", "true", "false", "callset", "call",
                      "callpure", "callresult", "at", "old", "result",
                      "separated", "from", "nothing"}

PUNCT = ["==>", "==", "!=", "<=", ">=", "&&", "||", "{", "}", "(", ")",
         ",", ";", ":", "<", ">", "!", "=", "+", "-", "*", "/"]


class Token(NamedTuple):
    kind: str   # IDENT INT FLOAT BSKW PUNCT ANNOT_OPEN ANNOT_CLOSE EOF
    value: str
    line: int
    col: int
    end_line: int
    end_col: int

    def span(self, file: str) -> Span:
        return Span(file, self.line, self.col, self.end_line, self.end_col)


class ParseFailure(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class NestingTooDeep(ParseFailure):
    """Nesting deeper than MAX_NESTING."""


def _fail(file: str, tok: Optional[Token], message: str) -> ParseFailure:
    span = tok.span(file) if tok is not None else None
    return ParseFailure(Diagnostic("error", span, message))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# The token classes every lexer state shares; any other character outside a
# comment is an error.
_TOKENS = (r"(?P<FLOAT>[0-9]+\.[0-9]+)|(?P<INT>[0-9]+)"
           r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<BSKW>\\[A-Za-z0-9_]*)"
           r"|(?P<PUNCT>" + "|".join(map(re.escape, PUNCT)) + ")|(?P<BAD>.)")
# One pattern per lexer state: code, inside `/*@ ... */`, inside `//@ ...`.
_CODE = re.compile(r"(?P<WS>[ \t\r\n]+)|(?P<OPEN>/\*@|//@)"
                   r"|(?P<COMMENT>/\*.*?\*/|//[^\n]*)|(?P<UNTERMINATED>/\*)|"
                   + _TOKENS, re.DOTALL)
_BLOCK = re.compile(r"(?P<WS>[ \t\r\n@]+)|(?P<CLOSE>\*/)|" + _TOKENS, re.DOTALL)
_LINE = re.compile(r"(?P<WS>[ \t\r@]+)|(?P<CLOSE>\n)|" + _TOKENS, re.DOTALL)
# Groups whose text is the token's value.
_VERBATIM = {"IDENT", "PUNCT", "INT", "FLOAT"}

# Longer literals are refused rather than handed to `int`.
MAX_LITERAL_DIGITS = 1000
# Deeper nesting is refused, so no recursive layer after the parser can
# overflow; the parser itself spends at most four frames on a level.
MAX_NESTING = 100


def lex(text: str, file: str = "<input>") -> list[Token]:
    """Tokens of `text`, ending in EOF. Keywords lex as IDENT, `\\word`
    as BSKW without its backslash; comments, whitespace and the decorative
    `@` inside annotations are skipped. Raises ParseFailure."""
    toks: list[Token] = []
    emit = toks.append
    new = tuple.__new__  # builds a Token without NamedTuple's Python __new__
    line, bol = 1, 0  # current line and the offset where it begins
    pattern = _CODE
    pos, n = 0, len(text)
    while pos < n:
        m = pattern.match(text, pos)
        kind = m.lastgroup
        end = m.end()
        col = pos - bol + 1
        if kind == "WS" or kind == "COMMENT":
            nl = text.count("\n", pos, end)
            if nl:
                line += nl
                bol = text.rindex("\n", pos, end) + 1
        elif kind in _VERBATIM:
            if kind == "INT" and end - pos > MAX_LITERAL_DIGITS:
                raise _fail(file, Token(kind, "", line, col, line, end - bol + 1),
                            f"integer literal longer than {MAX_LITERAL_DIGITS} digits")
            emit(new(Token, (kind, m.group(), line, col, line, end - bol + 1)))
        elif kind == "BSKW":
            word = text[pos + 1:end]
            if word not in BACKSLASH_KEYWORDS:
                raise _fail(file, Token(kind, word, line, col, line, end - bol + 1),
                            f"unknown annotation construct \\{word}")
            emit(new(Token, (kind, word, line, col, line, end - bol + 1)))
        elif kind == "OPEN":
            value = m.group()
            emit(Token("ANNOT_OPEN", value, line, col, line, col + 3))
            pattern = _BLOCK if value == "/*@" else _LINE
        elif kind == "CLOSE":
            if pattern is _LINE:  # the newline ends the annotation
                emit(Token("ANNOT_CLOSE", "", line, col, line, col))
                line += 1
                bol = end
            else:
                emit(Token("ANNOT_CLOSE", "*/", line, col, line, col + 2))
            pattern = _CODE
        elif kind == "UNTERMINATED":
            raise _fail(file, Token("PUNCT", "/*", line, col, line, col + 2),
                        "unterminated comment")
        else:
            c = m.group()
            raise _fail(file, Token("PUNCT", c, line, col, line, col + 1),
                        f"unexpected character {c!r}")
        pos = end
    col = n - bol + 1
    if pattern is _BLOCK:
        raise _fail(file, toks[-1], "unterminated annotation")
    if pattern is _LINE:
        emit(Token("ANNOT_CLOSE", "", line, col, line, col))
    emit(Token("EOF", "", line, col, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[Token], file: str):
        # A second EOF keeps one token of lookahead in range: `next` never
        # moves past the first.
        self.toks = toks + toks[-1:]
        self.pos = 0
        self.file = file
        self.depth = 0  # open blocks, unary operands, predicate atoms, ==>
        self.after: Optional[dict[int, int]] = None  # see `after_group`
        self.groups: dict = {}  # (pos, depth) -> (term or failure, end pos)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str, value: Optional[str] = None, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t.kind == kind and (value is None or t.value == value)

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        """The next token, consumed, if it matches; None otherwise."""
        t = self.toks[self.pos]
        if t.kind == kind and (value is None or t.value == value):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.accept(kind, value)
        if t is None:
            t = self.peek()
            want = value if value is not None else kind
            raise _fail(self.file, t, f"expected {want!r}, found {t.value or t.kind!r}")
        return t

    def punct(self, value: str) -> Token:
        return self.expect("PUNCT", value)

    def ident(self) -> Token:
        return self.expect("IDENT")

    def listed(self, item: Callable[[], Any]) -> tuple:
        """One or more `item`s, separated by commas."""
        out = [item()]
        while self.accept("PUNCT", ","):
            out.append(item())
        return tuple(out)

    def parens(self, item: Callable[[], Any]) -> tuple:
        """A parenthesized, possibly empty list of `item`s."""
        self.punct("(")
        out = () if self.at("PUNCT", ")") else self.listed(item)
        self.punct(")")
        return out

    def span_from(self, start: Token) -> Span:
        prev = self.toks[max(self.pos - 1, 0)]
        return Span(self.file, start.line, start.col, prev.end_line, prev.end_col)

    def enter(self) -> None:
        """Open one nesting level; every recursive rule passes through here,
        so the parser's own recursion stays bounded."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep(self.peek())

    def bounded(self, node, start: int):
        """`node`, parsed from token `start` on, if its nesting fits what the
        enclosing levels leave; a node is at most one level higher than the
        tokens it spans (the chain level of a predicate), so only long ones
        are measured."""
        room = MAX_NESTING - self.depth
        if self.pos - start >= room and height(node) > room:
            raise self.too_deep(self.toks[start])
        return node

    def too_deep(self, tok: Token) -> NestingTooDeep:
        return NestingTooDeep(Diagnostic(
            "error", tok.span(self.file),
            f"nesting deeper than {MAX_NESTING} levels"))

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> Program:
        items: list = []
        pending: list[list] = []  # contract clause groups awaiting a function
        while not self.at("EOF"):
            open_tok = self.accept("ANNOT_OPEN")
            if open_tok:
                if self.at("IDENT", "axiomatic"):
                    if pending:
                        raise _fail(self.file, open_tok,
                                    "contract annotation not attached to a function")
                    items.append(self.parse_axiomatic())
                    self.expect("ANNOT_CLOSE")
                else:
                    pending.append(self.parse_contract_clauses())
                continue
            if self.at("IDENT", "int") or self.at("IDENT", "void"):
                item = self.parse_declaration(pending)
                pending = []
                items.append(item)
                continue
            raise _fail(self.file, self.peek(), "expected declaration or annotation")
        if pending:
            raise _fail(self.file, self.peek(),
                        "contract annotation not attached to a function")
        return Program(tuple(items))

    def parse_declaration(self, pending: list[list]) -> Union[GlobalDecl, FunctionDef]:
        start = self.peek()
        base = self.next().value  # int | void
        is_ptr = self.accept("PUNCT", "*") is not None
        name = self.ident()
        if self.at("PUNCT", "("):
            ret = VOID if base == "void" else (PTR if is_ptr else INT)
            if ret == PTR:
                raise _fail(self.file, start, "functions cannot return pointers")
            return self.parse_function(name.value, ret, pending, start)
        # global variable
        if base == "void":
            raise _fail(self.file, start, "void is not a valid variable type")
        if pending:
            raise _fail(self.file, start,
                        "contract annotation not attached to a function")
        init: Optional[int] = None
        if self.accept("PUNCT", "="):
            neg = self.accept("PUNCT", "-")
            lit = self.expect("INT")
            init = -int(lit.value) if neg else int(lit.value)
        self.punct(";")
        return GlobalDecl(name.value, PTR if is_ptr else INT, init,
                          span=self.span_from(start))

    def parse_function(self, name: str, ret: str, pending: list[list],
                       start: Token) -> FunctionDef:
        formals: tuple[Param, ...] = ()
        if self.at("IDENT", "void", 1) and self.at("PUNCT", ")", 2):
            self.pos += 3  # `(void)`
        else:
            formals = self.parens(lambda: self.parse_param(code=True))
        body = self.parse_block()
        return FunctionDef(name, formals, ret, body, _contract(pending, formals),
                           span=self.span_from(start))

    def parse_param(self, code: bool) -> Param:
        tok = self.expect("IDENT")
        allowed = ("int",) if code else ("int", "integer")
        if tok.value not in allowed:
            raise _fail(self.file, tok, "expected parameter type")
        ty = PTR if self.accept("PUNCT", "*") else INT
        name = self.ident()
        return Param(name.value, ty, span=name.span(self.file))

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> tuple[Stmt, ...]:
        self.punct("{")
        self.enter()
        out: list[Stmt] = []
        while not self.at("PUNCT", "}"):
            out.extend(self.parse_stmt())
        self.punct("}")
        self.depth -= 1
        return tuple(out)

    def parse_stmt(self) -> list[Stmt]:
        start = self.peek()
        if self.at("ANNOT_OPEN"):
            return self.parse_stmt_annotation()
        if self.accept("IDENT", "int"):
            name = self.ident()
            init = self.parse_term() if self.accept("PUNCT", "=") else None
            self.punct(";")
            return [DeclStmt(name.value, init, span=self.span_from(start))]
        if self.accept("IDENT", "if"):
            self.punct("(")
            cond = self.parse_pred()
            self.punct(")")
            then = self.parse_block()
            orelse = self.parse_block() if self.accept("IDENT", "else") else ()
            return [IfStmt(cond, then, orelse, span=self.span_from(start))]
        if self.at("IDENT", "while"):
            return [self.parse_while(None, None, start)]
        if self.accept("IDENT", "return"):
            value = None if self.at("PUNCT", ";") else self.parse_term()
            self.punct(";")
            return [ReturnStmt(value, span=self.span_from(start))]
        if self.accept("PUNCT", "*"):
            name = self.ident()
            target = Deref(name.value, span=name.span(self.file))
            self.punct("=")
            value = self.parse_term()
            self.punct(";")
            return [AssignStmt(target, value, span=self.span_from(start))]
        name = self.accept("IDENT")
        if name:
            if self.at("PUNCT", "("):
                args = self.parens(self.parse_term)
                self.punct(";")
                return [CallStmt(None, name.value, args, span=self.span_from(start))]
            self.punct("=")
            if self.at("IDENT") and self.at("PUNCT", "(", 1):
                callee = self.next()
                args = self.parens(self.parse_term)
                self.punct(";")
                return [CallStmt(name.value, callee.value, args,
                                 span=self.span_from(start))]
            value = self.parse_term()
            self.punct(";")
            return [AssignStmt(Var(name.value, span=name.span(self.file)), value,
                               span=self.span_from(start))]
        raise _fail(self.file, start, "expected statement")

    def parse_stmt_annotation(self) -> list[Stmt]:
        first = self.pos
        start = self.expect("ANNOT_OPEN")
        out: list[Stmt] = []
        invariant: Optional[Pred] = None
        variant: Optional[Term] = None
        saw_loop = False
        while not self.at("ANNOT_CLOSE"):
            tok = self.peek()
            if self.accept("IDENT", "assert"):
                label: Optional[str] = None
                if self.at("IDENT") and self.at("PUNCT", ":", 1) and \
                        self.peek().value not in CLAUSE_KEYWORDS:
                    label = self.next().value
                    self.next()
                pred = self.parse_pred()
                self.punct(";")
                out.append(AssertStmt(label, pred, span=self.span_from(tok)))
                continue
            if self.accept("IDENT", "loop"):
                saw_loop = True
                kind = self.ident()
                if kind.value == "invariant":
                    p = self.parse_pred()
                    invariant = p if invariant is None else PAnd(invariant, p)
                elif kind.value == "variant":
                    variant = self.parse_term()
                else:
                    raise _fail(self.file, kind,
                                f"unknown loop annotation {kind.value!r}")
                self.punct(";")
                continue
            raise _fail(self.file, tok,
                        f"unexpected annotation {tok.value!r} in function body")
        self.expect("ANNOT_CLOSE")
        if invariant is not None:  # clauses merge into one conjunction chain
            invariant = self.bounded(invariant, first)
        if saw_loop:
            if out:
                raise _fail(self.file, start,
                            "loop annotations cannot mix with assertions")
            if not self.at("IDENT", "while"):
                raise _fail(self.file, self.peek(),
                            "loop annotation must precede a while statement")
            return [self.parse_while(invariant, variant, start)]
        return out

    def parse_while(self, invariant: Optional[Pred], variant: Optional[Term],
                    start: Token) -> Stmt:
        self.expect("IDENT", "while")
        self.punct("(")
        cond = self.parse_pred()
        self.punct(")")
        body = self.parse_block()
        return WhileStmt(cond, invariant, variant, body, span=self.span_from(start))

    # -- contracts -----------------------------------------------------------

    def parse_contract_clauses(self) -> list[tuple[str, object]]:
        """The clauses of one annotation block, each tagged with the
        `Contract` field it belongs to; `_contract` merges the groups."""
        clauses: list[tuple[str, object]] = []
        while not self.at("ANNOT_CLOSE"):
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value in ("requires", "ensures"):
                self.next()
                clauses.append((tok.value, self.parse_pred()))
                self.punct(";")
            elif self.accept("IDENT", "assigns"):
                targets = self.listed(self.parse_loc)
                sources = self.listed(self.parse_loc) \
                    if self.accept("BSKW", "from") else ()
                self.punct(";")
                clauses.extend(("assigns", AssignsClause(t, sources)) for t in targets)
            elif self.accept("IDENT", "behavior"):
                name = self.ident()
                self.punct(":")
                ens: list[Pred] = []
                while self.accept("IDENT", "ensures"):
                    ens.append(self.parse_pred())
                    self.punct(";")
                if not ens:
                    raise _fail(self.file, name, "behavior without ensures clause")
                clauses.append(("behaviors", Behavior(name.value, tuple(ens),
                                                      span=name.span(self.file))))
            elif self.accept("IDENT", "relational"):
                clauses.append(("relational", self.parse_relational()))
            else:
                raise _fail(self.file, tok,
                            f"unknown contract clause {tok.value or tok.kind!r}")
        self.expect("ANNOT_CLOSE")
        return clauses

    def parse_loc(self) -> Loc:
        tok = self.peek()
        if self.accept("BSKW", "result"):
            return ResultLoc(span=tok.span(self.file))
        if self.accept("BSKW", "nothing"):
            return NothingLoc(span=tok.span(self.file))
        if self.accept("PUNCT", "*"):
            name = self.ident()
            return DerefLoc(name.value, span=name.span(self.file))
        name = self.ident()
        # Globals versus formals are disambiguated during validation; the
        # parser records a bare name as a GlobalLoc placeholder.
        return GlobalLoc(name.value, span=name.span(self.file))

    def parse_relational(self) -> RelationalClause:
        name = self.ident()
        self.punct(":")
        binders: tuple[Binder, ...] = ()
        if self.accept("BSKW", "forall"):
            binders = self.parse_binders()
            self.punct(";")
        self.expect("BSKW", "callset")
        self.punct("(")
        calls = self.listed(self.parse_callspec)
        self.punct(")")
        self.punct("==>")
        pred = self.parse_pred()
        self.punct(";")
        return RelationalClause(name.value, binders, calls, pred,
                                span=self.span_from(name))

    def parse_callspec(self) -> CallSpec:
        start = self.expect("BSKW", "call")
        self.punct("(")
        depth = 1
        if self.at("INT"):
            depth = int(self.next().value)
            self.punct(",")
        callee = self.ident()
        rest = self.listed(self.parse_term) if self.accept("PUNCT", ",") else ()
        self.punct(")")
        if not rest or not isinstance(rest[-1], Var):
            raise _fail(self.file, start, "\\call must end with a call identifier")
        return CallSpec(depth, callee.value, rest[:-1], rest[-1].name,
                        span=self.span_from(start))

    def parse_binders(self) -> tuple[Binder, ...]:
        ty = INT  # a binder without a type takes the one before it

        def binder() -> Binder:
            nonlocal ty
            if self.accept("IDENT", "int") or self.accept("IDENT", "integer"):
                ty = PTR if self.accept("PUNCT", "*") else INT
            elif self.accept("PUNCT", "*"):
                ty = PTR
            name = self.ident()
            return Binder(name.value, ty, span=name.span(self.file))

        return self.listed(binder)

    # -- axiomatic blocks ------------------------------------------------------

    def parse_axiomatic(self) -> Axiomatic:
        start = self.expect("IDENT", "axiomatic")
        name = self.ident()
        self.punct("{")
        items: list = []
        while not self.at("PUNCT", "}"):
            tok = self.peek()
            if self.accept("IDENT", "predicate"):
                pname = self.ident()
                labels = self.parse_label_params()
                params = self.parens(lambda: self.parse_param(code=False))
                reads = self.listed(self.parse_term) \
                    if self.accept("IDENT", "reads") else ()
                self.punct(";")
                items.append(PredicateDecl(pname.value, labels, params, reads,
                                           span=pname.span(self.file)))
            elif self.accept("IDENT", "logic"):
                self.expect("IDENT", "integer")
                fname = self.ident()
                params = self.parens(lambda: self.parse_param(code=False))
                self.punct(";")
                items.append(LogicFnDecl(fname.value, params,
                                         span=fname.span(self.file)))
            elif self.accept("IDENT", "lemma"):
                lname = self.ident()
                labels = self.parse_label_params()
                self.punct(":")
                body = self.parse_pred()
                self.punct(";")
                items.append(Lemma(lname.value, labels, body,
                                   span=lname.span(self.file)))
            else:
                raise _fail(self.file, tok,
                            f"unknown axiomatic item {tok.value or tok.kind!r}")
        self.punct("}")
        return Axiomatic(name.value, tuple(items), span=self.span_from(start))

    def parse_label_params(self) -> tuple[str, ...]:
        if not self.accept("PUNCT", "{"):
            return ()
        labels = self.listed(lambda: self.ident().value)
        self.punct("}")
        return labels

    # -- predicates ------------------------------------------------------------

    def parse_pred(self) -> Pred:
        start = self.pos
        return self.bounded(self.parse_imp(), start)

    def parse_imp(self) -> Pred:
        """An implication chain on a level of its own, as a predicate, a
        quantifier body and the right side of `==>` are read."""
        self.enter()
        out = self.implication()
        self.depth -= 1
        return out

    def implication(self) -> Pred:
        start = self.peek()
        left = self.parse_or()
        if self.accept("PUNCT", "==>"):
            left = PImp(left, self.parse_imp(),  # right-associative
                        span=self.span_from(start))
        return left

    def parse_or(self) -> Pred:
        left = self.parse_and()
        while self.accept("PUNCT", "||"):
            left = POr(left, self.parse_and())
        return left

    def parse_and(self) -> Pred:
        left = self.parse_pred_atom()
        while self.accept("PUNCT", "&&"):
            left = PAnd(left, self.parse_pred_atom())
        return left

    def parse_pred_atom(self) -> Pred:
        self.enter()
        atom = self.pred_atom()
        self.depth -= 1
        return atom

    def pred_atom(self) -> Pred:
        tok = self.peek()
        if self.accept("PUNCT", "!"):
            return PNot(self.parse_pred_atom())
        if tok.kind == "BSKW" and tok.value in ("true", "false"):
            self.next()
            return PBool(tok.value == "true", span=tok.span(self.file))
        if tok.kind == "BSKW" and tok.value in ("forall", "exists"):
            self.next()
            binders = self.parse_binders()
            self.punct(";")
            body = self.parse_imp()
            cls = PForall if tok.value == "forall" else PExists
            return cls(binders, body, span=self.span_from(tok))
        if self.accept("BSKW", "separated"):
            self.punct("(")
            left = self.parse_term()
            self.punct(",")
            right = self.parse_term()
            self.punct(")")
            return Separated(left, right, span=self.span_from(tok))
        if tok.kind == "IDENT" and self.at("PUNCT", "{", 1):
            # label-parameterized predicate application: p{l1, l2}(args)
            self.next()
            labels = self.parse_label_params()
            args = self.parens(self.parse_term)
            return PredApp(tok.value, labels, args, span=self.span_from(tok))
        deep, term = None, False  # the predicate reading's nesting failure
        if tok.kind == "PUNCT" and tok.value == "(":
            # A parenthesized predicate, or a parenthesized term that starts
            # a comparison. Both readings end at the matching `)`, so the
            # token after it chooses: the term reading if a term operator
            # follows, else the predicate reading, then the term reading.
            # Each spends one level a parenthesis. If the term reading fails
            # short of the nesting limit, a nesting failure of the predicate
            # reading is what is reported.
            save = self.pos, self.depth
            after = self.after_group(self.pos)
            term = after.kind == "PUNCT" and (after.value in ARITH_OPS
                                              or after.value in CMP_OPS)
            if not term:
                inner, deep = self.predicate_reading()
                if inner is not None:
                    return inner
                self.pos, self.depth = save
        try:
            return self.comparison(tok)
        except NestingTooDeep:
            raise
        except ParseFailure:
            if term:
                self.pos, self.depth = save
                deep = self.predicate_reading()[1]
            if deep is None:
                raise
            raise deep from None

    def predicate_reading(self) -> tuple[Optional[Pred], Optional[NestingTooDeep]]:
        """`( implication )` here, or None and the nesting failure, if any."""
        try:
            self.next()
            inner = self.implication()
            self.punct(")")
            return inner, None
        except NestingTooDeep as exc:
            return None, exc
        except ParseFailure:
            return None, None

    def after_group(self, start: int) -> Token:
        """The token after the `)` that matches the `(` at token `start`, or
        EOF if none does; every group is matched in one pass, on first use."""
        if self.after is None:
            self.after, opened = {}, []
            for i, t in enumerate(self.toks):
                if t.kind == "PUNCT" and t.value == "(":
                    opened.append(i)
                elif t.kind == "PUNCT" and t.value == ")" and opened:
                    self.after[opened.pop()] = i + 1
        return self.toks[self.after.get(start, -1)]

    def comparison(self, tok: Token) -> Pred:
        """A comparison, or a bare application, starting at `tok`."""
        left = self.parse_term()
        if self.at_cmp():
            op = self.next().value
            right = self.parse_term()
            if self.at_cmp():
                raise _fail(self.file, self.peek(),
                            "chained comparisons are not supported")
            return Cmp(op, left, right, span=self.span_from(tok))
        if isinstance(left, LogicApp):
            # A bare application in predicate position is a predicate app.
            return PredApp(left.name, (), left.args, span=self.span_from(tok))
        raise _fail(self.file, self.peek(), "expected comparison operator")

    def at_cmp(self) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.value in CMP_OPS

    # -- terms -------------------------------------------------------------------

    def parse_term(self) -> Term:
        start = self.pos
        return self.bounded(self.parse_add(), start)

    def parse_add(self) -> Term:
        left = self.parse_mul()
        while self.at("PUNCT", "+") or self.at("PUNCT", "-"):
            op = self.next().value
            left = Bin(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Term:
        left = self.parse_unary()
        while self.at("PUNCT", "*") or self.at("PUNCT", "/"):
            # `*/` closes the annotation; `*` here is either multiplication or
            # an upcoming deref, both of which continue a term.
            op = self.next().value
            left = Bin(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Term:
        tok = self.peek()
        self.enter()
        if self.accept("PUNCT", "-"):
            inner = self.parse_unary()
            if isinstance(inner, IntLit):
                out = IntLit(-inner.value, span=tok.span(self.file))
            else:
                out = Bin("-", IntLit(0), inner)
        elif self.accept("PUNCT", "*"):
            name = self.ident()
            out = Deref(name.value, span=self.span_from(tok))
        else:
            out = self.parse_term_atom()
        self.depth -= 1
        return out

    def parse_term_atom(self) -> Term:
        tok = self.peek()
        kind = tok.kind
        if kind == "IDENT":
            self.next()
            if self.at("PUNCT", "("):
                args = self.parens(self.parse_term)
                return LogicApp(tok.value, args, span=self.span_from(tok))
            return Var(tok.value, span=tok.span(self.file))
        if kind == "INT":
            self.next()
            return IntLit(int(tok.value), span=tok.span(self.file))
        if kind == "FLOAT":
            self.next()
            return FloatLit(tok.value, span=tok.span(self.file))
        if kind == "BSKW":
            return self.parse_backslash_term()
        if kind == "PUNCT" and tok.value == "(":
            # A group that fails its predicate reading is read as a term in
            # each group around it; its start and depth decide the reading.
            key = self.pos, self.depth
            if key not in self.groups:
                try:
                    self.next()
                    inner = self.parse_add()
                    self.punct(")")
                    self.groups[key] = inner, self.pos
                except ParseFailure as exc:
                    self.groups[key] = exc, self.pos
            inner, self.pos = self.groups[key]
            if isinstance(inner, ParseFailure):
                raise inner
            return inner
        raise _fail(self.file, tok, f"expected term, found {tok.value or tok.kind!r}")

    def parse_backslash_term(self) -> Term:
        tok = self.next()
        word = tok.value
        if word == "result":
            return ResultTerm(span=tok.span(self.file))
        if word == "old":
            self.punct("(")
            inner = self.parse_term()
            self.punct(")")
            return OldTerm(inner, span=self.span_from(tok))
        if word == "callresult":
            self.punct("(")
            cid = self.ident()
            self.punct(")")
            return CallResult(cid.value, span=self.span_from(tok))
        if word == "at":
            self.punct("(")
            base = self.parse_unary()
            self.punct(",")
            label = self.ident()
            self.punct(")")
            return At(base, label.value, span=self.span_from(tok))
        if word == "callpure":
            self.punct("(")
            depth = 1
            if self.at("INT") and self.at("PUNCT", ",", 1):
                depth = int(self.next().value)
                self.next()
            callee = self.ident()
            args = self.listed(self.parse_term) if self.accept("PUNCT", ",") else ()
            self.punct(")")
            return CallPure(depth, callee.value, args, span=self.span_from(tok))
        raise _fail(self.file, tok, f"\\{word} is not a term")


def _contract(groups: list[list[tuple[str, object]]],
              formals: tuple[Param, ...]) -> Contract:
    """The contract of a function from its tagged clause groups. A bare name
    in an assigns/\\from list denotes a formal when the function has one by
    that name; formals are not state."""
    names = {p.name for p in formals}

    def fix(loc: Loc) -> Loc:
        if isinstance(loc, GlobalLoc) and loc.name in names:
            return FormalLoc(loc.name, span=loc.span)
        return loc

    fields: dict[str, list] = {}
    for group in groups:
        for field, clause in group:
            if field == "assigns":
                clause = AssignsClause(fix(clause.target),
                                       tuple(map(fix, clause.sources)))
            fields.setdefault(field, []).append(clause)
    return Contract(**{field: tuple(items) for field, items in fields.items()})


def parse_program(text: str, file: str = "<input>") -> Union[Program, list[Diagnostic]]:
    """Parse a MiniC translation unit.

    Returns the `Program` on success, or a non-empty list of error
    diagnostics on failure.
    """
    try:
        toks = lex(text, file)
        return _Parser(toks, file).parse_program()
    except ParseFailure as exc:
        return [exc.diagnostic]
