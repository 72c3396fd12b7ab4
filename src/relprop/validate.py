"""Well-formedness checking and declaration-driven memory footprints.

`validate` is total: it returns diagnostics instead of raising, and an empty
list means every structural invariant holds. The later stages (`selfcomp`,
`vcgen`) rely on it and do not check again. `footprint_of` derives the
written/read state of a function from its `assigns ... \\from ...` clauses
(never inferred from the body), unioning in callee footprints.

One checker, `_check`, applies one rule per construct wherever it appears;
a scope says what the place may mention. The parser reads code and
annotations with one expression grammar, so this checker alone keeps logic
constructs out of code. There are four contexts:

- code (conditions, right-hand sides, arguments, returns): integers,
  arithmetic, comparisons, `&&`, `||`, `!`, the visible formals, locals and
  int globals, and `*p` for a pointer formal. No logic construct.
- contract/assert (requires, ensures, behaviors, asserts, loop invariants
  and variants): code plus `==>`, quantifiers, `\\true`/`\\false`,
  `\\separated` of pointer names, `\\old`, `\\at` with the labels Pre, Post,
  Here and Old, `\\result` in the ensures of an int function, declared logic
  functions and predicates (labels, arity and argument kinds checked), and
  `\\callpure` of a pure int function without pointer formals. A contract
  sees only the formals and globals; an assert sees the locals in scope
  where it stands.
- relational clause: the clause binders, globals and quantifier binders;
  `\\callresult(id)` of an int call, `\\at(g, Pre_id|Post_id)` of a global
  and `\\at(*p, ...)` of a pointer formal of call id's callee; logic
  applications, predicates without labels, and `\\callpure` as above
  without `\\at` in its arguments. No bare `*p`, `\\old`, `\\result` or
  `\\separated`. Call arguments see the binders only, and no call labels.
- lemma (and predicate `reads`): globals, quantifier binders (predicate
  parameters for `reads`), `\\at` with the declared labels, and logic
  applications. No `\\old`, `\\result` or `\\callresult`.
"""

from __future__ import annotations

from typing import Optional

from .frozen import Frozen
from .minic import (
    INT, PTR, VOID, BUILTIN_LABELS,
    Program, FunctionDef, AssignsClause,
    RelationalClause, CallSpec,
    PredicateDecl, LogicFnDecl, Lemma,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    FloatLit, Var, Deref, Bin, CallResult, At, CallPure,
    OldTerm, ResultTerm, LogicApp,
    PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
    Loc, GlobalLoc, DerefLoc, ResultLoc, FormalLoc,
    Diagnostic, loc_str, rel_label, statements, walk,
)


class MissingAssigns(Exception):
    """A function touches state its assigns clauses do not cover."""


class UnknownCallee(Exception):
    pass


class MemFootprint(Frozen):
    """Declared state of a function: assigns targets and \\from sources."""

    writes: frozenset[Loc]
    reads: frozenset[Loc]

    @property
    def is_pure(self) -> bool:
        return not self.writes and not self.reads


def _err(span, msg: str) -> Diagnostic:
    return Diagnostic("error", span, msg)


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------


def _declared_footprint(fn: FunctionDef) -> MemFootprint:
    # A bare name in a \from list may denote a formal; formals are not state.
    formals = {p.name for p in fn.formals}
    writes: set[Loc] = set()
    reads: set[Loc] = set()
    for clause in fn.contract.assigns:
        t = clause.target
        if isinstance(t, (GlobalLoc, DerefLoc)):
            writes.add(_strip(t))
        for s in clause.sources:
            if isinstance(s, GlobalLoc) and s.name not in formals:
                reads.add(_strip(s))
            elif isinstance(s, DerefLoc):
                reads.add(_strip(s))
    return MemFootprint(frozenset(writes), frozenset(reads))


def _strip(loc: Loc) -> Loc:
    # Drop the span so footprint sets compare by location identity.
    if isinstance(loc, GlobalLoc):
        return GlobalLoc(loc.name)
    if isinstance(loc, DerefLoc):
        return DerefLoc(loc.name)
    return loc


def _touched_state(fn: FunctionDef, program: Program) -> set[Loc]:
    """State locations a body mentions anywhere (conditions, asserts and
    call-result targets included): globals by name, derefs of the
    function's own pointer formals."""
    globals_ = {g.name for g in program.globals}
    pointers = {p.name for p in fn.formals if p.ty == PTR}
    out: set[Loc] = set()
    for n in walk(fn.body):
        if isinstance(n, CallStmt) and n.target in globals_:
            out.add(GlobalLoc(n.target))
        elif isinstance(n, Var) and n.name in globals_:
            out.add(GlobalLoc(n.name))
        elif isinstance(n, Deref) and n.name in pointers:
            out.add(DerefLoc(n.name))
    return out


def _uncovered(fn: FunctionDef, program: Program) -> tuple[Loc, ...]:
    """Touched state of `fn` that its assigns clauses do not declare, sorted;
    memoized per program."""
    key = ("uncovered", id(fn))
    hit = program.memo.get(key)
    if hit is None:
        declared = _declared_footprint(fn)
        hit = program.memo[key] = (fn, tuple(sorted(
            _touched_state(fn, program) - declared.writes - declared.reads,
            key=str)))
    return hit[1]


def _callees(body: tuple[Stmt, ...]) -> list[str]:
    return [s.callee for s in statements(body) if isinstance(s, CallStmt)]


def footprint_of(fn: FunctionDef, program: Program) -> MemFootprint:
    """Footprint of `fn`: its declared assigns/\\from locations plus the
    global locations declared by every function reachable from it.
    Memoized per program for every function the walk finishes, so asking in
    any order walks each body once.

    Raises MissingAssigns when a reachable body touches a global or deref
    that no assigns clause covers, and UnknownCallee for calls to undefined
    functions that also lack a logic declaration.
    """
    key = ("footprint", id(fn))
    if key not in program.memo:
        _memoize_footprints(fn, program)
    return program.memo[key][1]


def _globals(locs: set[Loc]) -> set[Loc]:
    return {l for l in locs if isinstance(l, GlobalLoc)}


def _memoize_footprints(root: FunctionDef, program: Program) -> None:
    """Memoize the footprint of every function reachable from `root` and not
    yet memoized, one strongly connected component of the call graph at a
    time (Tarjan's algorithm, iterative). The members of a component reach
    the same functions, so they share one set of reached global state;
    only the callees' global state propagates: their deref locations are
    framed on their own formals, and MiniC calls cannot pass pointers."""
    number: dict[str, int] = {}  # depth-first visit order
    low: dict[str, int] = {}
    reached: dict[str, tuple[set[Loc], set[Loc]]] = {}  # global writes, reads
    component: list[FunctionDef] = []  # visited, component not finished

    def enter(f: FunctionDef):
        missing = _uncovered(f, program)
        if missing:
            raise MissingAssigns(f"{f.name}: body touches {loc_str(missing[0])} "
                                 "but no assigns clause covers it")
        callees = []
        for name in _callees(f.body):
            callee = program.function(name)
            if callee is not None:
                callees.append(callee)
            elif name not in program.logic_decls():
                # (a declared logic application is pure by construction)
                raise UnknownCallee(f"{f.name} calls undefined function {name}")
        number[f.name] = low[f.name] = len(number)
        own = _declared_footprint(f)
        reached[f.name] = (_globals(own.writes), _globals(own.reads))
        component.append(f)
        return iter(callees)

    def add(name: str, writes: set[Loc], reads: set[Loc]) -> None:
        reached[name][0].update(writes)
        reached[name][1].update(reads)

    frames = [(root, enter(root))]
    while frames:
        f, callees = frames[-1]
        for callee in callees:
            done = program.memo.get(("footprint", id(callee)))
            if done is not None:
                # Memoized, so nothing below it raised.
                add(f.name, _globals(done[1].writes), _globals(done[1].reads))
            elif callee.name in number:  # in a component still open
                low[f.name] = min(low[f.name], number[callee.name])
            else:
                frames.append((callee, enter(callee)))
                break
        else:
            frames.pop()
            if low[f.name] == number[f.name]:
                # f roots its component; every member returned into f.
                writes, reads = reached[f.name]
                while True:
                    m = component.pop()
                    own = _declared_footprint(m)
                    program.memo[("footprint", id(m))] = (
                        m, MemFootprint(own.writes | writes, own.reads | reads))
                    if m is f:
                        break
            if frames:
                caller = frames[-1][0].name
                low[caller] = min(low[caller], low[f.name])
                add(caller, *reached[f.name])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


# Where an expression or annotation appears; see the module docstring.
CODE, CONTRACT, CLAUSE, LEMMA = "code", "contract", "clause", "lemma"

_BUILTIN = dict.fromkeys(BUILTIN_LABELS)

# What code may not mention; all but `==>` also stop the walk.
_NOT_CODE = {
    PImp: "==> is not a program operator",
    PForall: "quantifiers are not program expressions",
    PExists: "quantifiers are not program expressions",
    Separated: "\\separated is not a program expression",
    PredApp: "predicate application in program expression",
    PBool: "\\true/\\false are not program expressions",
    LogicApp: "calls cannot be nested inside expressions",
    **dict.fromkeys((CallResult, At, CallPure, OldTerm, ResultTerm),
                    "logic construct in program expression"),
}


class _Scope(Frozen):
    """What an expression may mention where it appears. Built once per
    annotation, statement sequence or quantifier, never per node."""

    program: Program
    ctx: str                      # CODE, CONTRACT, CLAUSE or LEMMA
    names: dict[str, str]         # visible names other than globals -> type
    globals: dict[str, str]
    # The labels that exist; a clause's Pre_<id>/Post_<id> map to <id>.
    labels: dict[str, Optional[str]]
    # A clause's call ids -> their callees (None if undefined).
    calls: dict[str, Optional[FunctionDef]]
    result: bool = False          # \result is visible
    where: str = ""               # message prefix: "R: " in clause or lemma R
    unbound: str = "undefined variable {}"  # how a name not visible is reported

    def replace(self, **changes) -> _Scope:
        """This scope with `changes`, copied without the constructor."""
        if not changes.keys() <= _Scope._fields:
            raise TypeError(f"no _Scope fields {set(changes) - _Scope._fields}")
        new = object.__new__(_Scope)
        vars(new).update(vars(self), **changes)
        return new

    def type_of(self, name: str) -> str | None:
        ty = self.names.get(name)
        return ty if ty is not None else self.globals.get(name)

    def err(self, diags: list[Diagnostic], node, msg: str) -> None:
        diags.append(_err(node.span, self.where + msg))


def validate(program: Program) -> list[Diagnostic]:
    """Check every structural invariant; empty result means well-formed.

    Total and deterministic: bad input yields diagnostics, never an
    exception, and validating twice yields the same list.
    """
    diags: list[Diagnostic] = []
    fn_names: set[str] = set()
    global_names: set[str] = set()
    logic_decls = program.logic_decls()

    for g in program.globals:
        if g.name in global_names:
            diags.append(_err(g.span, f"duplicate global {g.name}"))
        global_names.add(g.name)

    for fn in program.functions:
        if fn.name in fn_names:
            diags.append(_err(fn.span, f"duplicate function {fn.name}"))
        fn_names.add(fn.name)
        if fn.name in global_names:
            diags.append(_err(fn.span, f"{fn.name} is both a global and a function"))

    for name in sorted(global_names & set(logic_decls)):
        diags.append(_err(logic_decls[name].span,
                          f"{name} is both a global and a logic symbol"))

    base = _Scope(program, CODE, {}, {g.name: g.ty for g in program.globals}, {}, {})
    fn_index = {f.name: i for i, f in enumerate(program.functions)}
    for fn in program.functions:
        _validate_function(fn, base, fn_index, diags)

    # Footprints are derived for every callee and every function a
    # relational clause reaches, so their assigns clauses must cover them.
    involved = _relationally_involved(program)
    called = {name for fn in program.functions for name in _callees(fn.body)}
    for fn in program.functions:
        if fn.name in involved or fn.name in called:
            _check_assigns_coverage(fn, program, diags, fn.name in involved)

    for ax in program.axiomatics:
        _validate_axiomatic(ax, base, diags)

    return diags


def _relationally_involved(program: Program) -> set[str]:
    """Functions reachable from any relational clause (callset or callpure)."""
    work = sorted({n.callee for _fn, clause in program.clauses()
                   for n in walk(clause) if isinstance(n, (CallSpec, CallPure))})
    out: set[str] = set()
    while work:
        name = work.pop()
        if name in out:
            continue
        out.add(name)
        fn = program.function(name)
        if fn is not None:
            work.extend(_callees(fn.body))
    return out


def _check_assigns_coverage(fn: FunctionDef, program: Program,
                            diags: list[Diagnostic], involved: bool) -> None:
    missing = _uncovered(fn, program)
    if missing and not fn.contract.assigns and involved:
        diags.append(_err(fn.span,
                          f"{fn.name} is part of a relational property but has no "
                          f"assigns clause covering {loc_str(missing[0])}"))
    else:
        for loc in missing:
            diags.append(_err(fn.span,
                              f"{fn.name}: assigns clauses do not cover {loc_str(loc)}"))


def _validate_function(fn: FunctionDef, base: _Scope, fn_index: dict[str, int],
                       diags: list[Diagnostic]) -> None:
    formals: dict[str, str] = {}
    for p in fn.formals:
        if p.name in formals:
            diags.append(_err(p.span, f"duplicate formal {p.name} in {fn.name}"))
        formals[p.name] = p.ty
        if p.name in base.globals:
            diags.append(_err(p.span, f"formal {p.name} shadows a global"))

    _validate_stmts(fn.body, fn, base.replace(names=dict(formals)),
                    set(formals), diags)

    if fn.ret == INT and not _must_return(fn.body):
        diags.append(_err(fn.span, f"{fn.name} may fall off the end without returning"))

    # Contracts see the formals and globals, never the body's locals.
    contract = base.replace(ctx=CONTRACT, names=formals, labels=_BUILTIN)
    for p in fn.contract.requires:
        _check(p, contract, diags)
    ensures = contract.replace(result=fn.ret == INT)
    for p in fn.contract.ensures:
        _check(p, ensures, diags)
    for b in fn.contract.behaviors:
        for p in b.ensures:
            _check(p, ensures, diags)
    for a in fn.contract.assigns:
        _validate_assigns(a, fn, base, diags)
    for clause in fn.contract.relational:
        _validate_clause(clause, fn, base, fn_index, diags)


def _must_return(stmts: tuple[Stmt, ...]) -> bool:
    for i, s in enumerate(stmts):
        if isinstance(s, ReturnStmt):
            return True
        if isinstance(s, IfStmt) and s.orelse and \
                _must_return(s.then) and _must_return(s.orelse):
            return True
    return False


def _validate_stmts(stmts, fn: FunctionDef, scope: _Scope, declared: set[str],
                    diags: list[Diagnostic]) -> None:
    """Check a body in its code scope, which each declaration extends;
    `declared` holds every name declared so far (locals never shadow)."""
    for s in stmts:
        if isinstance(s, DeclStmt):
            if s.name in declared:
                diags.append(_err(s.span, f"redeclaration of {s.name}"))
            if s.name in scope.globals:
                diags.append(_err(s.span, f"local {s.name} shadows a global"))
            declared.add(s.name)
            scope.names[s.name] = INT
            if s.init is not None:
                _check(s.init, scope, diags)
        elif isinstance(s, AssignStmt):
            _check(s.value, scope, diags)
            if isinstance(s.target, Var):
                ty = scope.type_of(s.target.name)
                if ty is None:
                    diags.append(_err(s.span, f"assignment to undefined {s.target.name}"))
                elif ty == PTR:
                    diags.append(_err(s.span, f"cannot reassign pointer {s.target.name}"))
            else:
                _check(s.target, scope, diags)
        elif isinstance(s, CallStmt):
            _validate_call(s, scope, diags)
        elif isinstance(s, IfStmt):
            _check(s.cond, scope, diags)
            for branch in (s.then, s.orelse):
                _validate_stmts(branch, fn, scope.replace(names=dict(scope.names)),
                                declared, diags)
        elif isinstance(s, WhileStmt):
            _check(s.cond, scope, diags)
            logic = scope.replace(ctx=CONTRACT, labels=_BUILTIN)
            for annotation in (s.invariant, s.variant):
                if annotation is not None:
                    _check(annotation, logic, diags)
            _validate_stmts(s.body, fn, scope.replace(names=dict(scope.names)),
                            declared, diags)
        elif isinstance(s, ReturnStmt):
            if s.value is not None:
                if fn.ret == VOID:
                    diags.append(_err(s.span, f"{fn.name} returns void"))
                _check(s.value, scope, diags)
            elif fn.ret == INT:
                diags.append(_err(s.span, f"{fn.name} must return a value"))
        elif isinstance(s, AssertStmt):
            _check(s.pred, scope.replace(ctx=CONTRACT, labels=_BUILTIN), diags)


def _validate_call(s: CallStmt, scope: _Scope, diags: list[Diagnostic]) -> None:
    program = scope.program
    callee = program.function(s.callee)
    if callee is None:
        decl = program.logic_decls().get(s.callee)
        if isinstance(decl, LogicFnDecl):
            if len(s.args) != len(decl.params):
                diags.append(_err(s.span,
                                  f"{s.callee} expects {len(decl.params)} arguments"))
        else:
            diags.append(_err(s.span, f"call to undefined function {s.callee}"))
    else:
        if len(s.args) != len(callee.formals):
            diags.append(_err(s.span,
                              f"{s.callee} expects {len(callee.formals)} arguments, "
                              f"got {len(s.args)}"))
        else:
            for a, p in zip(s.args, callee.formals):
                if p.ty == PTR:
                    diags.append(_err(s.span,
                                      "pointer arguments to calls are not supported"))
        if s.target is not None and callee.ret == VOID:
            diags.append(_err(s.span, f"{s.callee} returns no value"))
    for a in s.args:
        _check(a, scope, diags)
    if s.target is not None:
        ty = scope.type_of(s.target)
        if ty is None:
            diags.append(_err(s.span, f"assignment to undefined {s.target}"))
        elif ty == PTR:
            diags.append(_err(s.span, f"cannot assign call result to pointer {s.target}"))


def _check(n, scope: _Scope, diags: list[Diagnostic]) -> None:
    """Check a term or predicate against what `scope` lets it mention: one
    rule per construct, wherever the construct appears."""
    if scope.ctx == CODE and type(n) in _NOT_CODE:
        scope.err(diags, n, _NOT_CODE[type(n)])
        if not isinstance(n, PImp):
            return
    if isinstance(n, Var):
        if scope.type_of(n.name) is None:
            scope.err(diags, n, scope.unbound.format(n.name))
    elif isinstance(n, Bin):
        for side in (n.left, n.right):
            if isinstance(side, Var) and scope.type_of(side.name) == PTR:
                scope.err(diags, side, f"pointer {side.name} used in arithmetic")
            _check(side, scope, diags)
    elif isinstance(n, (Cmp, PAnd, POr, PImp)):
        _check(n.left, scope, diags)
        _check(n.right, scope, diags)
    elif isinstance(n, PNot):
        _check(n.body, scope, diags)
    elif isinstance(n, (PForall, PExists)):
        names = dict(scope.names)
        names.update((b.name, b.ty) for b in n.binders)
        _check(n.body, scope.replace(names=names), diags)
    elif isinstance(n, Deref):
        ty = scope.type_of(n.name)
        if scope.ctx == CLAUSE:
            scope.err(diags, n, "bare dereference needs \\at with a call label")
        elif ty is None:
            scope.err(diags, n, f"dereference of undefined {n.name}")
        elif ty != PTR:
            scope.err(diags, n, f"dereference of non-pointer {n.name}")
        elif n.name not in scope.names:
            scope.err(diags, n, f"pointer globals such as {n.name} cannot be used")
    elif isinstance(n, FloatLit):
        scope.err(diags, n, "float literals are not supported")
    elif isinstance(n, At):
        _at_rule(n, scope, diags)
    elif isinstance(n, CallResult):
        if scope.ctx != CLAUSE:
            scope.err(diags, n,
                      "\\callresult is only meaningful inside a relational clause")
        elif n.call_id not in scope.calls:
            scope.err(diags, n,
                      f"\\callresult references unknown call id {n.call_id}")
        else:
            callee = scope.calls[n.call_id]
            if callee is None or callee.ret != INT:
                scope.err(diags, n, f"call {n.call_id} returns no value")
    elif isinstance(n, CallPure):
        _callpure_rule(n, scope, diags)
    elif isinstance(n, (OldTerm, ResultTerm)):
        if scope.ctx in (CLAUSE, LEMMA):
            kind = "relational" if scope.ctx == CLAUSE else "lemma"
            scope.err(diags, n, f"\\old/\\result are not {kind} constructs")
        elif isinstance(n, OldTerm):
            _check(n.term, scope, diags)
        elif not scope.result:
            scope.err(diags, n, "\\result outside an int function's ensures")
    elif isinstance(n, LogicApp):
        decl = scope.program.logic_decls().get(n.name)
        if not isinstance(decl, LogicFnDecl):
            scope.err(diags, n, f"unknown logic function {n.name}")
        elif len(n.args) != len(decl.params):
            scope.err(diags, n, f"{n.name} expects {len(decl.params)} arguments")
        for a in n.args:
            _check(a, scope, diags)
    elif isinstance(n, PredApp):
        _predapp_rule(n, scope, diags)
    elif isinstance(n, Separated):
        if scope.ctx == CLAUSE:
            scope.err(diags, n, "\\separated is generated, not written, "
                                "in relational predicates")
            return
        for side in (n.left, n.right):
            if not isinstance(side, Var):
                scope.err(diags, n, "\\separated expects pointer names")
            elif scope.type_of(side.name) != PTR:
                scope.err(diags, side, f"\\separated expects pointers, got {side.name}")


def _unknown_label(scope: _Scope, label: str) -> str:
    if scope.ctx == CONTRACT:
        return f"label {label} is only meaningful inside a relational clause"
    if scope.ctx == CLAUSE:
        if rel_label(label) is None:
            return f"label {label} is not Pre_<id> or Post_<id>"
        return f"label {label} references an unknown call id"
    return f"unknown label {label}"


def _at_rule(t: At, scope: _Scope, diags: list[Diagnostic]) -> None:
    if t.label not in scope.labels:
        scope.err(diags, t, _unknown_label(scope, t.label))
        return
    base = t.base
    call_id = scope.labels[t.label]
    if not isinstance(base, (Var, Deref)):
        scope.err(diags, t, "\\at expects a variable or dereference")
    elif call_id is None:
        _check(base, scope, diags)
    elif isinstance(base, Var):
        # A call label names the state of that call: its globals ...
        if base.name not in scope.globals:
            scope.err(diags, t, f"\\at expects a global, got {base.name}")
    else:
        # ... and the cells behind its callee's pointer formals.
        callee = scope.calls.get(call_id)
        if callee is None or all(p.name != base.name or p.ty != PTR
                                 for p in callee.formals):
            scope.err(diags, t, f"*{base.name} is not a pointer formal of "
                                "the call's callee")


def _callpure_rule(t: CallPure, scope: _Scope, diags: list[Diagnostic]) -> None:
    callee = scope.program.function(t.callee)
    if callee is None:
        scope.err(diags, t, f"unknown function {t.callee}")
    else:
        n_int = sum(p.ty == INT for p in callee.formals)
        if len(t.args) != n_int:
            scope.err(diags, t, f"{t.callee} takes {n_int} int arguments, "
                                f"got {len(t.args)}")
        if callee.ret != INT:
            scope.err(diags, t, f"{t.callee} returns no value")
        elif n_int < len(callee.formals):
            # Its mirror would be a predicate over labels, not a function.
            scope.err(diags, t, f"\\callpure callee {t.callee} takes a pointer")
        else:
            try:
                pure = footprint_of(callee, scope.program).is_pure
            except (MissingAssigns, UnknownCallee):
                pure = True  # the coverage check reports the fault
            if not pure:
                scope.err(diags, t, f"\\callpure callee {t.callee} is not pure")
    if t.depth < 1:
        scope.err(diags, t, "inlining option must be >= 1")
    if scope.ctx == CLAUSE:
        for n in walk(t.args):
            if isinstance(n, At):
                scope.err(diags, n, "\\at is not allowed in \\callpure arguments")
    for a in t.args:
        _check(a, scope, diags)


def _predapp_rule(p: PredApp, scope: _Scope, diags: list[Diagnostic]) -> None:
    decl = scope.program.logic_decls().get(p.name)
    if not isinstance(decl, PredicateDecl):
        scope.err(diags, p, f"unknown predicate {p.name}")
    else:
        if len(p.labels) != len(decl.labels):
            scope.err(diags, p, f"{p.name} expects {len(decl.labels)} labels")
        for label in p.labels:
            if label not in scope.labels:
                scope.err(diags, p, _unknown_label(scope, label))
            elif scope.labels[label] is not None:
                # A call label names one call's copy of the state.
                scope.err(diags, p, f"{p.name} cannot take the call label {label}")
        if len(p.args) != len(decl.params):
            scope.err(diags, p, f"{p.name} expects {len(decl.params)} arguments")
        else:
            # A pointer parameter takes a pointer name, an int one a term.
            for param, a in zip(decl.params, p.args):
                is_ptr = isinstance(a, Var) and scope.type_of(a.name) == PTR
                if is_ptr != (param.ty == PTR):
                    kind = "a pointer name" if param.ty == PTR else "an integer"
                    scope.err(diags, p, f"{p.name} expects {kind} for {param.name}")
    for a in p.args:
        _check(a, scope, diags)


def _validate_assigns(a: AssignsClause, fn: FunctionDef, scope: _Scope,
                      diags: list[Diagnostic]) -> None:
    formals = {p.name: p.ty for p in fn.formals}

    def check(loc: Loc, is_target: bool) -> None:
        if isinstance(loc, FormalLoc):
            if is_target:
                diags.append(_err(loc.span,
                                  f"cannot assign formal {loc.name} as state"))
            elif loc.name not in formals:
                diags.append(_err(loc.span, f"unknown formal {loc.name}"))
        elif isinstance(loc, GlobalLoc):
            if loc.name in formals:
                if is_target:
                    diags.append(_err(loc.span,
                                      f"cannot assign formal {loc.name} as state"))
                # in a \from list a bare formal is fine: formals are not state
            elif loc.name not in scope.globals:
                diags.append(_err(loc.span, f"unknown location {loc.name}"))
        elif isinstance(loc, DerefLoc):
            if formals.get(loc.name) != PTR:
                diags.append(_err(loc.span,
                                  f"*{loc.name} is not a pointer formal of {fn.name}"))
        elif isinstance(loc, ResultLoc) and is_target and fn.ret != INT:
            diags.append(_err(loc.span, f"\\result in assigns of void {fn.name}"))

    check(a.target, True)
    for s in a.sources:
        check(s, False)


def _validate_clause(clause: RelationalClause, fn: FunctionDef, base: _Scope,
                     fn_index: dict[str, int], diags: list[Diagnostic]) -> None:
    """Structure of a clause (binders, call ids, callee order, argument
    counts), then its call arguments and predicate through `_check`."""
    where = f"{clause.name}: "
    binders: dict[str, str] = {}
    for b in clause.binders:
        if b.ty == PTR:
            diags.append(_err(b.span, f"{where}clause binders must have type int"))
        if b.name in binders:
            diags.append(_err(b.span, f"{where}duplicate binder {b.name}"))
        binders[b.name] = INT

    # Arguments are evaluated before any call, from the binders alone.
    args = base.replace(ctx=CLAUSE, names=binders, globals={}, where=where,
                   unbound="call argument uses {}, which is not a clause binder")
    calls: dict[str, Optional[FunctionDef]] = {}
    labels: dict[str, Optional[str]] = {}
    for cs in clause.calls:
        if cs.call_id in calls:
            diags.append(_err(cs.span, f"{where}duplicate call id {cs.call_id}"))
        if cs.depth < 1:
            diags.append(_err(cs.span, f"{where}inlining option must be >= 1"))
        callee = calls[cs.call_id] = base.program.function(cs.callee)
        labels[f"Pre_{cs.call_id}"] = labels[f"Post_{cs.call_id}"] = cs.call_id
        if callee is None:
            diags.append(_err(cs.span, f"{where}unknown function {cs.callee}"))
            continue
        if fn_index.get(cs.callee, 0) > fn_index.get(fn.name, 0):
            diags.append(_err(cs.span,
                              f"{where}{cs.callee} is declared after {fn.name}; "
                              "a relational clause belongs to the last function involved"))
        int_formals = [p for p in callee.formals if p.ty == INT]
        if len(cs.args) != len(int_formals):
            diags.append(_err(cs.span,
                              f"{where}{cs.callee} takes {len(int_formals)} "
                              f"int arguments, got {len(cs.args)}"))
        for a in cs.args:
            _check(a, args, diags)

    _check(clause.pred, base.replace(ctx=CLAUSE, names=binders, labels=labels,
                                calls=calls, where=where), diags)


def _validate_axiomatic(ax, base: _Scope, diags: list[Diagnostic]) -> None:
    seen: set[str] = set()
    for item in ax.items:
        if item.name in seen:
            diags.append(_err(item.span, f"duplicate axiomatic item {item.name}"))
        seen.add(item.name)
        if isinstance(item, Lemma):
            lemma = base.replace(ctx=LEMMA, labels=dict.fromkeys(item.labels),
                            where=f"{item.name}: ")
            _check(item.body, lemma, diags)
        elif isinstance(item, PredicateDecl) and item.reads:
            scope = base.replace(ctx=LEMMA,
                            names={p.name: p.ty for p in item.params},
                            labels=dict.fromkeys(item.labels),
                            where=f"{item.name}: ")
            for r in item.reads:
                if isinstance(r, At):
                    _check(r, scope, diags)
                else:
                    scope.err(diags, item, "reads expects \\at(location, label)")
