"""Deterministic pretty-printer; output re-parses to an equal AST."""

from __future__ import annotations

from .minic import (
    INT, PTR, VOID,
    Program, GlobalDecl, FunctionDef, Param, Contract,
    CallSpec, Binder,
    Axiomatic, PredicateDecl, LogicFnDecl, Lemma,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, IntLit, FloatLit, Var, Deref, Bin, CallResult, At, CallPure,
    OldTerm, ResultTerm, LogicApp,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
    loc_str,
)

_ADD, _MUL, _UNARY = 1, 2, 3


def term_str(t: Term, prec: int = 0) -> str:
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, FloatLit):
        return t.text
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Deref):
        s = f"*{t.name}"
        return f"({s})" if prec >= _UNARY else s
    if isinstance(t, Bin):
        mine = _MUL if t.op in ("*", "/") else _ADD
        # left-associative: right operand needs parens at equal precedence
        s = f"{term_str(t.left, mine - 1)} {t.op} {term_str(t.right, mine)}"
        return f"({s})" if prec >= mine else s
    if isinstance(t, CallResult):
        return f"\\callresult({t.call_id})"
    if isinstance(t, At):
        return f"\\at({term_str(t.base)}, {t.label})"
    if isinstance(t, CallPure):
        args = ", ".join(term_str(a) for a in t.args)
        sep = ", " if args else ""
        if t.depth == 1:
            return f"\\callpure({t.callee}{sep}{args})"
        return f"\\callpure({t.depth}, {t.callee}{sep}{args})"
    if isinstance(t, OldTerm):
        return f"\\old({term_str(t.term)})"
    if isinstance(t, ResultTerm):
        return "\\result"
    if isinstance(t, LogicApp):
        return f"{t.name}({', '.join(term_str(a) for a in t.args)})"
    raise TypeError(f"unknown term {t!r}")


_PIMP, _POR, _PAND, _PATOM = 1, 2, 3, 4


def pred_str(p: Pred, prec: int = 0) -> str:
    if isinstance(p, PBool):
        return "\\true" if p.value else "\\false"
    if isinstance(p, Cmp):
        return f"{term_str(p.left)} {p.op} {term_str(p.right)}"
    if isinstance(p, PImp):
        # right-associative
        s = f"{pred_str(p.left, _PIMP)} ==> {pred_str(p.right, _PIMP - 1)}"
        return f"({s})" if prec >= _PIMP else s
    if isinstance(p, POr):
        s = f"{pred_str(p.left, _POR - 1)} || {pred_str(p.right, _POR)}"
        return f"({s})" if prec >= _POR else s
    if isinstance(p, PAnd):
        s = f"{pred_str(p.left, _PAND - 1)} && {pred_str(p.right, _PAND)}"
        return f"({s})" if prec >= _PAND else s
    if isinstance(p, PNot):
        return f"!{pred_str(p.body, _PATOM)}"
    if isinstance(p, (PForall, PExists)):
        kw = "\\forall" if isinstance(p, PForall) else "\\exists"
        s = f"{kw} {binders_str(p.binders)}; {pred_str(p.body)}"
        return f"({s})" if prec >= _PIMP else s
    if isinstance(p, Separated):
        return f"\\separated({term_str(p.left)}, {term_str(p.right)})"
    if isinstance(p, PredApp):
        labels = "{" + ", ".join(p.labels) + "}" if p.labels else ""
        return f"{p.name}{labels}({', '.join(term_str(a) for a in p.args)})"
    raise TypeError(f"unknown predicate {p!r}")


def binders_str(binders: tuple[Binder, ...]) -> str:
    # Group consecutive binders of the same scalar type under one keyword;
    # pointer binders repeat the type, as in `int *p, int *q`.
    parts: list[str] = []
    prev_ty = None
    for b in binders:
        if b.ty == PTR:
            parts.append(f"int *{b.name}")
            prev_ty = PTR
        elif prev_ty == INT:
            parts.append(b.name)
        else:
            parts.append(f"int {b.name}")
            prev_ty = INT
    return ", ".join(parts)


def _param_str(p: Param) -> str:
    return f"int *{p.name}" if p.ty == PTR else f"int {p.name}"


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, s: str = "") -> None:
        self.lines.append(("  " * self.indent + s) if s else "")

    # -- statements ---------------------------------------------------------

    def stmts(self, body: tuple[Stmt, ...]) -> None:
        for s in body:
            self.stmt(s)

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, DeclStmt):
            if s.init is None:
                self.emit(f"int {s.name};")
            else:
                self.emit(f"int {s.name} = {term_str(s.init)};")
        elif isinstance(s, AssignStmt):
            self.emit(f"{term_str(s.target)} = {term_str(s.value)};")
        elif isinstance(s, CallStmt):
            call = f"{s.callee}({', '.join(term_str(a) for a in s.args)})"
            self.emit(f"{s.target} = {call};" if s.target else f"{call};")
        elif isinstance(s, IfStmt):
            self.emit(f"if ({pred_str(s.cond)}) {{")
            self.indent += 1
            self.stmts(s.then)
            self.indent -= 1
            if s.orelse:
                self.emit("} else {")
                self.indent += 1
                self.stmts(s.orelse)
                self.indent -= 1
            self.emit("}")
        elif isinstance(s, WhileStmt):
            if s.invariant is not None or s.variant is not None:
                parts = []
                if s.invariant is not None:
                    parts.append(f"loop invariant {pred_str(s.invariant)};")
                if s.variant is not None:
                    parts.append(f"loop variant {term_str(s.variant)};")
                self.emit(f"/*@ {' '.join(parts)} */")
            self.emit(f"while ({pred_str(s.cond)}) {{")
            self.indent += 1
            self.stmts(s.body)
            self.indent -= 1
            self.emit("}")
        elif isinstance(s, ReturnStmt):
            self.emit("return;" if s.value is None else f"return {term_str(s.value)};")
        elif isinstance(s, AssertStmt):
            label = f"{s.label}: " if s.label else ""
            self.emit(f"/*@ assert {label}{pred_str(s.pred)}; */")
        else:
            raise TypeError(f"unknown statement {s!r}")

    # -- declarations --------------------------------------------------------

    def contract(self, c: Contract) -> None:
        if c.is_empty():
            return
        body: list[str] = []
        for p in c.requires:
            body.append(f"requires {pred_str(p)};")
        for a in c.assigns:
            frm = f" \\from {', '.join(loc_str(s) for s in a.sources)}" if a.sources else ""
            body.append(f"assigns {loc_str(a.target)}{frm};")
        for p in c.ensures:
            body.append(f"ensures {pred_str(p)};")
        for b in c.behaviors:
            body.append(f"behavior {b.name}:")
            for p in b.ensures:
                body.append(f"  ensures {pred_str(p)};")
        for r in c.relational:
            body.append(f"relational {r.name}:")
            if r.binders:
                body.append(f"  \\forall {binders_str(r.binders)};")
            calls = ",".join("\n    " + self.callspec_str(cs) for cs in r.calls)
            body.append(f"  \\callset({calls})")
            body.append(f"  ==> {pred_str(r.pred)};")
        self.emit("/*@ " + body[0])
        for line in body[1:]:
            self.emit("    " + line)
        self.emit("*/")

    def callspec_str(self, cs: CallSpec) -> str:
        parts = [cs.callee] if cs.depth == 1 else [str(cs.depth), cs.callee]
        parts += [term_str(a) for a in cs.args]
        parts.append(cs.call_id)
        return f"\\call({', '.join(parts)})"

    def axiomatic(self, ax: Axiomatic) -> None:
        self.emit(f"/*@ axiomatic {ax.name} {{")
        for item in ax.items:
            if isinstance(item, PredicateDecl):
                labels = "{" + ", ".join(item.labels) + "}" if item.labels else ""
                params = ", ".join(_param_str(p) for p in item.params)
                line = f"  predicate {item.name}{labels}({params})"
                if item.reads:
                    line += f" reads {', '.join(term_str(t) for t in item.reads)}"
                self.emit(line + ";")
            elif isinstance(item, LogicFnDecl):
                params = ", ".join(f"integer {p.name}" for p in item.params)
                self.emit(f"  logic integer {item.name}({params});")
            elif isinstance(item, Lemma):
                labels = "{" + ", ".join(item.labels) + "}" if item.labels else ""
                self.emit(f"  lemma {item.name}{labels}:")
                self.emit(f"    {pred_str(item.body)};")
            else:
                raise TypeError(f"unknown axiomatic item {item!r}")
        self.emit("} */")

    def function(self, f: FunctionDef) -> None:
        self.contract(f.contract)
        params = ", ".join(_param_str(p) for p in f.formals)
        ret = "void" if f.ret == VOID else "int"
        self.emit(f"{ret} {f.name}({params}) {{")
        self.indent += 1
        self.stmts(f.body)
        self.indent -= 1
        self.emit("}")

    def program(self, p: Program) -> str:
        first = True
        for item in p.items:
            if isinstance(item, GlobalDecl):
                star = "*" if item.ty == PTR else ""
                init = f" = {item.init}" if item.init is not None else ""
                self.emit(f"int {star}{item.name}{init};")
                first = False
            elif isinstance(item, Axiomatic):
                if not first:
                    self.emit()
                self.axiomatic(item)
                first = False
            elif isinstance(item, FunctionDef):
                if not first:
                    self.emit()
                self.function(item)
                first = False
            else:
                raise TypeError(f"unknown top-level item {item!r}")
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def pretty_print(program: Program) -> str:
    """Render a program as MiniC source text.

    Deterministic, and a fixpoint of parsing: `parse_program(pretty_print(p))`
    equals `p` structurally for every parseable `p`.
    """
    return _Printer().program(program)
