"""Lexer and recursive-descent parser for MiniC translation units.

Annotations live in `/*@ ... */` and `//@ ...` comments. Contract
annotations precede the function they describe, loop annotations precede
their `while`, assert annotations stand as statements, and `axiomatic`
blocks are top-level items. Unknown annotation keywords are parse errors,
never skipped.

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
from typing import NamedTuple, Optional, Union

from .minic import (
    INT, PTR, VOID,
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

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def at(self, kind: str, value: Optional[str] = None, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t.kind == kind and (value is None or t.value == value)

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise _fail(self.file, t, f"expected {want!r}, found {t.value or t.kind!r}")
        return self.next()

    def punct(self, value: str) -> Token:
        return self.expect("PUNCT", value)

    def ident(self) -> Token:
        return self.expect("IDENT")

    def span_from(self, start: Token) -> Span:
        prev = self.toks[max(self.pos - 1, 0)]
        return Span(self.file, start.line, start.col, prev.end_line, prev.end_col)

    def enter(self) -> None:
        """Open one nesting level; every recursive rule passes through here,
        so the parser's own recursion stays bounded."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _fail(self.file, self.peek(),
                        f"nesting deeper than {MAX_NESTING} levels")

    def bounded(self, node, start: int):
        """`node`, parsed from token `start` on, if its nesting fits what the
        enclosing levels leave; a node spans at least as many tokens as it
        is high, so only long ones are measured."""
        room = MAX_NESTING - self.depth
        if self.pos - start > room and height(node) > room:
            raise _fail(self.file, self.toks[start],
                        f"nesting deeper than {MAX_NESTING} levels")
        return node

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> Program:
        items: list = []
        pending: list[list] = []  # raw contract clause groups awaiting a function
        while not self.at("EOF"):
            if self.at("ANNOT_OPEN"):
                open_tok = self.next()
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
        is_ptr = False
        if self.at("PUNCT", "*"):
            self.next()
            is_ptr = True
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
        if self.at("PUNCT", "="):
            self.next()
            neg = False
            if self.at("PUNCT", "-"):
                self.next()
                neg = True
            lit = self.expect("INT")
            init = -int(lit.value) if neg else int(lit.value)
        self.punct(";")
        return GlobalDecl(name.value, PTR if is_ptr else INT, init,
                          span=self.span_from(start))

    def parse_function(self, name: str, ret: str, pending: list[list],
                       start: Token) -> FunctionDef:
        self.punct("(")
        formals: list[Param] = []
        if not self.at("PUNCT", ")"):
            if self.at("IDENT", "void") and self.at("PUNCT", ")", 1):
                self.next()
            else:
                while True:
                    formals.append(self.parse_param(code=True))
                    if self.at("PUNCT", ","):
                        self.next()
                        continue
                    break
        self.punct(")")
        body = self.parse_block()
        contract = self.assemble_contract(pending, start)
        contract = _resolve_formal_locs(contract, {p.name for p in formals})
        return FunctionDef(name, tuple(formals), ret, body, contract,
                           span=self.span_from(start))

    def parse_param(self, code: bool) -> Param:
        tok = self.expect("IDENT")
        allowed = ("int",) if code else ("int", "integer")
        if tok.value not in allowed:
            raise _fail(self.file, tok, "expected parameter type")
        ty = INT
        if self.at("PUNCT", "*"):
            self.next()
            ty = PTR
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
        if self.at("IDENT", "int"):
            self.next()
            name = self.ident()
            init: Optional[Term] = None
            if self.at("PUNCT", "="):
                self.next()
                init = self.parse_term(logic=False)
            self.punct(";")
            return [DeclStmt(name.value, init, span=self.span_from(start))]
        if self.at("IDENT", "if"):
            self.next()
            self.punct("(")
            cond = self.parse_pred(logic=False)
            self.punct(")")
            then = self.parse_block()
            orelse: tuple[Stmt, ...] = ()
            if self.at("IDENT", "else"):
                self.next()
                orelse = self.parse_block()
            return [IfStmt(cond, then, orelse, span=self.span_from(start))]
        if self.at("IDENT", "while"):
            return [self.parse_while(None, None, start)]
        if self.at("IDENT", "return"):
            self.next()
            value: Optional[Term] = None
            if not self.at("PUNCT", ";"):
                value = self.parse_term(logic=False)
            self.punct(";")
            return [ReturnStmt(value, span=self.span_from(start))]
        if self.at("PUNCT", "*"):
            self.next()
            name = self.ident()
            target = Deref(name.value, span=name.span(self.file))
            self.punct("=")
            value = self.parse_term(logic=False)
            self.punct(";")
            return [AssignStmt(target, value, span=self.span_from(start))]
        if self.at("IDENT"):
            name = self.next()
            if self.at("PUNCT", "("):
                args = self.parse_call_args()
                self.punct(";")
                return [CallStmt(None, name.value, args, span=self.span_from(start))]
            self.punct("=")
            if self.at("IDENT") and self.at("PUNCT", "(", 1):
                callee = self.next()
                args = self.parse_call_args()
                self.punct(";")
                return [CallStmt(name.value, callee.value, args,
                                 span=self.span_from(start))]
            value = self.parse_term(logic=False)
            self.punct(";")
            return [AssignStmt(Var(name.value, span=name.span(self.file)), value,
                               span=self.span_from(start))]
        raise _fail(self.file, start, "expected statement")

    def parse_call_args(self) -> tuple[Term, ...]:
        self.punct("(")
        args: list[Term] = []
        if not self.at("PUNCT", ")"):
            while True:
                args.append(self.parse_term(logic=False))
                if self.at("PUNCT", ","):
                    self.next()
                    continue
                break
        self.punct(")")
        return tuple(args)

    def parse_stmt_annotation(self) -> list[Stmt]:
        first = self.pos
        start = self.expect("ANNOT_OPEN")
        out: list[Stmt] = []
        invariant: Optional[Pred] = None
        variant: Optional[Term] = None
        saw_loop = False
        while not self.at("ANNOT_CLOSE"):
            tok = self.peek()
            if self.at("IDENT", "assert"):
                self.next()
                label: Optional[str] = None
                if self.at("IDENT") and self.at("PUNCT", ":", 1) and \
                        self.peek().value not in CLAUSE_KEYWORDS:
                    label = self.next().value
                    self.next()
                pred = self.parse_pred(logic=True)
                self.punct(";")
                out.append(AssertStmt(label, pred, span=self.span_from(tok)))
                continue
            if self.at("IDENT", "loop"):
                self.next()
                saw_loop = True
                kind = self.ident()
                if kind.value == "invariant":
                    p = self.parse_pred(logic=True)
                    invariant = p if invariant is None else PAnd(invariant, p)
                elif kind.value == "variant":
                    variant = self.parse_term(logic=True)
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
        cond = self.parse_pred(logic=False)
        self.punct(")")
        body = self.parse_block()
        return WhileStmt(cond, invariant, variant, body, span=self.span_from(start))

    # -- contracts -----------------------------------------------------------

    def parse_contract_clauses(self) -> list:
        """Parse the inside of one annotation block as contract clauses.

        Returns raw clause tuples; `assemble_contract` merges groups.
        """
        clauses: list = []
        while not self.at("ANNOT_CLOSE"):
            tok = self.peek()
            if self.at("IDENT", "requires"):
                self.next()
                p = self.parse_pred(logic=True)
                self.punct(";")
                clauses.append(("requires", p))
            elif self.at("IDENT", "ensures"):
                self.next()
                p = self.parse_pred(logic=True)
                self.punct(";")
                clauses.append(("ensures", p))
            elif self.at("IDENT", "assigns"):
                self.next()
                clauses.extend(self.parse_assigns())
            elif self.at("IDENT", "behavior"):
                self.next()
                name = self.ident()
                self.punct(":")
                ens: list[Pred] = []
                while self.at("IDENT", "ensures"):
                    self.next()
                    ens.append(self.parse_pred(logic=True))
                    self.punct(";")
                if not ens:
                    raise _fail(self.file, name, "behavior without ensures clause")
                clauses.append(("behavior", Behavior(name.value, tuple(ens),
                                                     span=name.span(self.file))))
            elif self.at("IDENT", "relational"):
                self.next()
                clauses.append(("relational", self.parse_relational()))
            else:
                raise _fail(self.file, tok,
                            f"unknown contract clause {tok.value or tok.kind!r}")
        self.expect("ANNOT_CLOSE")
        return clauses

    def assemble_contract(self, groups: list[list], start: Token) -> Contract:
        requires: list[Pred] = []
        assigns: list[AssignsClause] = []
        ensures: list[Pred] = []
        behaviors: list[Behavior] = []
        relational: list[RelationalClause] = []
        for group in groups:
            for kind, payload in group:
                if kind == "requires":
                    requires.append(payload)
                elif kind == "assigns":
                    assigns.append(payload)
                elif kind == "ensures":
                    ensures.append(payload)
                elif kind == "behavior":
                    behaviors.append(payload)
                else:
                    relational.append(payload)
        return Contract(tuple(requires), tuple(assigns), tuple(ensures),
                        tuple(behaviors), tuple(relational))

    def parse_assigns(self) -> list[tuple[str, AssignsClause]]:
        targets: list[Loc] = [self.parse_loc()]
        while self.at("PUNCT", ","):
            self.next()
            targets.append(self.parse_loc())
        sources: tuple[Loc, ...] = ()
        if self.at("BSKW", "from"):
            self.next()
            srcs = [self.parse_loc()]
            while self.at("PUNCT", ","):
                self.next()
                srcs.append(self.parse_loc())
            sources = tuple(srcs)
        self.punct(";")
        return [("assigns", AssignsClause(t, sources)) for t in targets]

    def parse_loc(self) -> Loc:
        tok = self.peek()
        if self.at("BSKW", "result"):
            self.next()
            return ResultLoc(span=tok.span(self.file))
        if self.at("BSKW", "nothing"):
            self.next()
            return NothingLoc(span=tok.span(self.file))
        if self.at("PUNCT", "*"):
            self.next()
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
        if self.at("BSKW", "forall"):
            self.next()
            binders = self.parse_binders()
            self.punct(";")
        kw = self.expect("BSKW", "callset")
        self.punct("(")
        calls: list[CallSpec] = [self.parse_callspec()]
        while self.at("PUNCT", ","):
            self.next()
            calls.append(self.parse_callspec())
        self.punct(")")
        self.punct("==>")
        pred = self.parse_pred(logic=True)
        self.punct(";")
        return RelationalClause(name.value, binders, tuple(calls), pred,
                                span=self.span_from(name))

    def parse_callspec(self) -> CallSpec:
        start = self.expect("BSKW", "call")
        self.punct("(")
        depth = 1
        if self.at("INT"):
            depth = int(self.next().value)
            self.punct(",")
        callee = self.ident()
        rest: list[Term] = []
        while self.at("PUNCT", ","):
            self.next()
            rest.append(self.parse_term(logic=True))
        self.punct(")")
        if not rest or not isinstance(rest[-1], Var):
            raise _fail(self.file, start, "\\call must end with a call identifier")
        call_id = rest[-1].name
        return CallSpec(depth, callee.value, tuple(rest[:-1]), call_id,
                        span=self.span_from(start))

    def parse_binders(self) -> tuple[Binder, ...]:
        binders: list[Binder] = []
        ty = INT
        while True:
            if self.at("IDENT", "int") or self.at("IDENT", "integer"):
                self.next()
                ty = INT
                if self.at("PUNCT", "*"):
                    self.next()
                    ty = PTR
            elif self.at("PUNCT", "*"):
                self.next()
                ty = PTR
            name = self.ident()
            binders.append(Binder(name.value, ty, span=name.span(self.file)))
            if self.at("PUNCT", ","):
                self.next()
                continue
            return tuple(binders)

    # -- axiomatic blocks ------------------------------------------------------

    def parse_axiomatic(self) -> Axiomatic:
        start = self.expect("IDENT", "axiomatic")
        name = self.ident()
        self.punct("{")
        items: list = []
        while not self.at("PUNCT", "}"):
            tok = self.peek()
            if self.at("IDENT", "predicate"):
                self.next()
                pname = self.ident()
                labels = self.parse_label_params()
                params = self.parse_logic_params()
                reads: list[Term] = []
                if self.at("IDENT", "reads"):
                    self.next()
                    reads.append(self.parse_term(logic=True))
                    while self.at("PUNCT", ","):
                        self.next()
                        reads.append(self.parse_term(logic=True))
                self.punct(";")
                items.append(PredicateDecl(pname.value, labels, params,
                                           tuple(reads), span=pname.span(self.file)))
            elif self.at("IDENT", "logic"):
                self.next()
                self.expect("IDENT", "integer")
                fname = self.ident()
                params = self.parse_logic_params()
                self.punct(";")
                items.append(LogicFnDecl(fname.value, params,
                                         span=fname.span(self.file)))
            elif self.at("IDENT", "lemma"):
                self.next()
                lname = self.ident()
                labels = self.parse_label_params()
                self.punct(":")
                body = self.parse_pred(logic=True)
                self.punct(";")
                items.append(Lemma(lname.value, labels, body,
                                   span=lname.span(self.file)))
            else:
                raise _fail(self.file, tok,
                            f"unknown axiomatic item {tok.value or tok.kind!r}")
        self.punct("}")
        return Axiomatic(name.value, tuple(items), span=self.span_from(start))

    def parse_label_params(self) -> tuple[str, ...]:
        if not self.at("PUNCT", "{"):
            return ()
        self.next()
        labels = [self.ident().value]
        while self.at("PUNCT", ","):
            self.next()
            labels.append(self.ident().value)
        self.punct("}")
        return tuple(labels)

    def parse_logic_params(self) -> tuple[Param, ...]:
        self.punct("(")
        params: list[Param] = []
        if not self.at("PUNCT", ")"):
            while True:
                params.append(self.parse_param(code=False))
                if self.at("PUNCT", ","):
                    self.next()
                    continue
                break
        self.punct(")")
        return tuple(params)

    # -- predicates ------------------------------------------------------------

    def parse_pred(self, logic: bool) -> Pred:
        start = self.pos
        return self.bounded(self.parse_imp(logic), start)

    def parse_imp(self, logic: bool) -> Pred:
        start = self.peek()
        self.enter()
        left = self.parse_or(logic)
        if self.at("PUNCT", "==>"):
            self.next()
            left = PImp(left, self.parse_imp(logic),  # right-associative
                        span=self.span_from(start))
        self.depth -= 1
        return left

    def parse_or(self, logic: bool) -> Pred:
        left = self.parse_and(logic)
        while self.at("PUNCT", "||"):
            self.next()
            left = POr(left, self.parse_and(logic))
        return left

    def parse_and(self, logic: bool) -> Pred:
        left = self.parse_pred_atom(logic)
        while self.at("PUNCT", "&&"):
            self.next()
            left = PAnd(left, self.parse_pred_atom(logic))
        return left

    def parse_pred_atom(self, logic: bool) -> Pred:
        self.enter()
        atom = self.pred_atom(logic)
        self.depth -= 1
        return atom

    def pred_atom(self, logic: bool) -> Pred:
        tok = self.peek()
        if self.at("PUNCT", "!"):
            self.next()
            return PNot(self.parse_pred_atom(logic))
        if logic and self.at("BSKW", "true"):
            self.next()
            return PBool(True, span=tok.span(self.file))
        if logic and self.at("BSKW", "false"):
            self.next()
            return PBool(False, span=tok.span(self.file))
        if logic and (self.at("BSKW", "forall") or self.at("BSKW", "exists")):
            kind = self.next().value
            binders = self.parse_binders()
            self.punct(";")
            body = self.parse_imp(logic)
            cls = PForall if kind == "forall" else PExists
            return cls(binders, body, span=self.span_from(tok))
        if logic and self.at("BSKW", "separated"):
            self.next()
            self.punct("(")
            left = self.parse_term(logic)
            self.punct(",")
            right = self.parse_term(logic)
            self.punct(")")
            return Separated(left, right, span=self.span_from(tok))
        if logic and self.at("IDENT") and self.at("PUNCT", "{", 1):
            # label-parameterized predicate application: p{l1, l2}(args)
            name = self.next()
            labels = self.parse_label_params()
            args = self.parse_call_args_logic()
            return PredApp(name.value, labels, args, span=self.span_from(tok))
        if self.at("PUNCT", "("):
            # Either a parenthesized predicate or a parenthesized term that
            # starts a comparison; try the predicate reading first.
            save, depth = self.pos, self.depth
            try:
                self.next()
                inner = self.parse_imp(logic)
                self.punct(")")
                if self.at_term_continuation():
                    raise _fail(self.file, self.peek(), "term context")
                return inner
            except ParseFailure:
                self.pos, self.depth = save, depth
        left = self.parse_term(logic)
        if self.at_cmp():
            op = self.next().value
            right = self.parse_term(logic)
            if self.at_cmp():
                raise _fail(self.file, self.peek(),
                            "chained comparisons are not supported")
            return Cmp(op, left, right, span=self.span_from(tok))
        if isinstance(left, LogicApp):
            # A bare application in predicate position is a predicate app.
            return PredApp(left.name, (), left.args, span=self.span_from(tok))
        raise _fail(self.file, self.peek(), "expected comparison operator")

    def at_cmp(self) -> bool:
        return self.peek().kind == "PUNCT" and self.peek().value in (
            "==", "!=", "<=", ">=", "<", ">")

    def at_term_continuation(self) -> bool:
        return self.peek().kind == "PUNCT" and self.peek().value in (
            "+", "-", "*", "/", "==", "!=", "<=", ">=", "<", ">")

    def parse_call_args_logic(self) -> tuple[Term, ...]:
        self.punct("(")
        args: list[Term] = []
        if not self.at("PUNCT", ")"):
            while True:
                args.append(self.parse_term(logic=True))
                if self.at("PUNCT", ","):
                    self.next()
                    continue
                break
        self.punct(")")
        return tuple(args)

    # -- terms -------------------------------------------------------------------

    def parse_term(self, logic: bool) -> Term:
        start = self.pos
        return self.bounded(self.parse_add(logic), start)

    def parse_add(self, logic: bool) -> Term:
        left = self.parse_mul(logic)
        while self.at("PUNCT", "+") or self.at("PUNCT", "-"):
            op = self.next().value
            left = Bin(op, left, self.parse_mul(logic))
        return left

    def parse_mul(self, logic: bool) -> Term:
        left = self.parse_unary(logic)
        while self.at("PUNCT", "*") or self.at("PUNCT", "/"):
            # `*/` closes the annotation; `*` here is either multiplication or
            # an upcoming deref, both of which continue a term.
            op = self.next().value
            left = Bin(op, left, self.parse_unary(logic))
        return left

    def parse_unary(self, logic: bool) -> Term:
        tok = self.peek()
        self.enter()
        if self.at("PUNCT", "-"):
            self.next()
            inner = self.parse_unary(logic)
            if isinstance(inner, IntLit):
                out = IntLit(-inner.value, span=tok.span(self.file))
            else:
                out = Bin("-", IntLit(0), inner)
        elif self.at("PUNCT", "*"):
            self.next()
            name = self.ident()
            out = Deref(name.value, span=self.span_from(tok))
        else:
            out = self.parse_term_atom(logic)
        self.depth -= 1
        return out

    def parse_term_atom(self, logic: bool) -> Term:
        tok = self.peek()
        if self.at("INT"):
            self.next()
            return IntLit(int(tok.value), span=tok.span(self.file))
        if self.at("FLOAT"):
            self.next()
            return FloatLit(tok.value, span=tok.span(self.file))
        if self.at("PUNCT", "("):
            self.next()
            inner = self.parse_add(logic)
            self.punct(")")
            return inner
        if self.at("BSKW"):
            if not logic:
                raise _fail(self.file, tok,
                            f"\\{tok.value} is not allowed in program expressions")
            return self.parse_backslash_term()
        if self.at("IDENT"):
            name = self.next()
            if logic and self.at("PUNCT", "("):
                args = self.parse_call_args_logic()
                return LogicApp(name.value, args, span=self.span_from(tok))
            if not logic and self.at("PUNCT", "("):
                raise _fail(self.file, tok,
                            "calls cannot be nested inside expressions")
            return Var(name.value, span=tok.span(self.file))
        raise _fail(self.file, tok, f"expected term, found {tok.value or tok.kind!r}")

    def parse_backslash_term(self) -> Term:
        tok = self.next()
        word = tok.value
        if word == "result":
            return ResultTerm(span=tok.span(self.file))
        if word == "old":
            self.punct("(")
            inner = self.parse_term(logic=True)
            self.punct(")")
            return OldTerm(inner, span=self.span_from(tok))
        if word == "callresult":
            self.punct("(")
            cid = self.ident()
            self.punct(")")
            return CallResult(cid.value, span=self.span_from(tok))
        if word == "at":
            self.punct("(")
            base = self.parse_unary(logic=True)
            self.punct(",")
            label = self.ident()
            self.punct(")")
            return At(base, label.value, span=self.span_from(tok))
        if word == "callpure":
            self.punct("(")
            depth = 1
            if self.at("INT") and self.at("PUNCT", ",", 1):
                depth = int(self.next().value)
                self.punct(",")
            callee = self.ident()
            args: list[Term] = []
            while self.at("PUNCT", ","):
                self.next()
                args.append(self.parse_term(logic=True))
            self.punct(")")
            return CallPure(depth, callee.value, tuple(args),
                            span=self.span_from(tok))
        raise _fail(self.file, tok, f"\\{word} is not a term")


def _resolve_formal_locs(contract: Contract, formals: set[str]) -> Contract:
    """A bare name in an assigns/\\from list denotes a formal when the
    enclosing function has one by that name; formals are not state."""

    def fix(loc: Loc) -> Loc:
        if isinstance(loc, GlobalLoc) and loc.name in formals:
            return FormalLoc(loc.name, span=loc.span)
        return loc

    assigns = tuple(AssignsClause(fix(a.target), tuple(fix(s) for s in a.sources),
                                  span=a.span)
                    for a in contract.assigns)
    return Contract(contract.requires, assigns, contract.ensures,
                    contract.behaviors, contract.relational)


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
