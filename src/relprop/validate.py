"""Well-formedness checking and declaration-driven memory footprints.

`validate` is total: it returns diagnostics instead of raising, and an empty
list means every structural invariant holds. `footprint_of` derives the
written/read state of a function from its `assigns ... \\from ...` clauses
(never inferred from the body), unioning in callee footprints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .minic import (
    INT, PTR, VOID, BUILTIN_LABELS,
    Program, FunctionDef, AssignsClause,
    RelationalClause, CallSpec,
    PredicateDecl, LogicFnDecl,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, FloatLit, Var, Deref, Bin, CallResult, At, CallPure,
    OldTerm, ResultTerm, LogicApp,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
    Loc, GlobalLoc, DerefLoc, ResultLoc, FormalLoc,
    Diagnostic, rel_label, walk,
)


class MissingAssigns(Exception):
    """A function touches state its assigns clauses do not cover."""


class UnknownCallee(Exception):
    pass


@dataclass(frozen=True)
class MemFootprint:
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


def _callees(node) -> list[str]:
    return [s.callee for s in walk(node) if isinstance(s, CallStmt)]


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
            raise MissingAssigns(f"{f.name}: body touches {_loc_str(missing[0])} "
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


def _loc_str(loc: Loc) -> str:
    if isinstance(loc, GlobalLoc):
        return loc.name
    if isinstance(loc, DerefLoc):
        return f"*{loc.name}"
    return type(loc).__name__


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class _FnScope:
    def __init__(self, fn: FunctionDef, program: Program):
        self.fn = fn
        self.program = program
        self.formals = {p.name: p.ty for p in fn.formals}
        self.locals: dict[str, str] = {}   # currently visible
        self.declared: set[str] = set()    # ever declared (no shadowing)
        self.globals = {g.name: g.ty for g in program.globals}

    def type_of(self, name: str) -> str | None:
        if name in self.locals:
            return self.locals[name]
        if name in self.formals:
            return self.formals[name]
        return self.globals.get(name)


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
        diags.append(_err(None, f"{name} is both a global and a logic symbol"))

    for fn in program.functions:
        _validate_function(fn, program, logic_decls, diags)

    # Footprints are derived for every callee and every function a
    # relational clause reaches, so their assigns clauses must cover them.
    involved = _relationally_involved(program)
    called = set(_callees(program.functions))
    for fn in program.functions:
        if fn.name in involved or fn.name in called:
            _check_assigns_coverage(fn, program, diags, fn.name in involved)

    for ax in program.axiomatics:
        _validate_axiomatic(ax, program, diags)

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
                          f"assigns clause covering {_loc_str(missing[0])}"))
    else:
        for loc in missing:
            diags.append(_err(fn.span,
                              f"{fn.name}: assigns clauses do not cover {_loc_str(loc)}"))


def _validate_function(fn: FunctionDef, program: Program,
                       logic_decls: dict, diags: list[Diagnostic]) -> None:
    scope = _FnScope(fn, program)
    seen_formals: set[str] = set()
    for p in fn.formals:
        if p.name in seen_formals:
            diags.append(_err(p.span, f"duplicate formal {p.name} in {fn.name}"))
        seen_formals.add(p.name)
        if p.name in scope.globals:
            diags.append(_err(p.span, f"formal {p.name} shadows a global"))

    _validate_stmts(fn.body, fn, scope, program, logic_decls, diags, in_loop=False)

    if fn.ret == INT and not _must_return(fn.body):
        diags.append(_err(fn.span, f"{fn.name} may fall off the end without returning"))

    for p in fn.contract.requires:
        _validate_pred(p, scope, diags, ctx="requires")
    for p in fn.contract.ensures:
        _validate_pred(p, scope, diags, ctx="ensures", ret=fn.ret)
    for b in fn.contract.behaviors:
        for p in b.ensures:
            _validate_pred(p, scope, diags, ctx="ensures", ret=fn.ret)
    for a in fn.contract.assigns:
        _validate_assigns(a, fn, scope, diags)
    fn_index = {f.name: i for i, f in enumerate(program.functions)}
    for clause in fn.contract.relational:
        _validate_clause(clause, fn, program, diags, fn_index)


def _must_return(stmts: tuple[Stmt, ...]) -> bool:
    for i, s in enumerate(stmts):
        if isinstance(s, ReturnStmt):
            return True
        if isinstance(s, IfStmt) and s.orelse and \
                _must_return(s.then) and _must_return(s.orelse):
            return True
    return False


def _validate_stmts(stmts, fn, scope, program, logic_decls, diags, in_loop) -> None:
    for s in stmts:
        if isinstance(s, DeclStmt):
            if s.name in scope.declared or s.name in scope.formals:
                diags.append(_err(s.span, f"redeclaration of {s.name}"))
            if s.name in scope.globals:
                diags.append(_err(s.span, f"local {s.name} shadows a global"))
            scope.declared.add(s.name)
            scope.locals[s.name] = INT
            if s.init is not None:
                _validate_term(s.init, scope, diags, logic=False)
        elif isinstance(s, AssignStmt):
            _validate_term(s.value, scope, diags, logic=False)
            if isinstance(s.target, Var):
                ty = scope.type_of(s.target.name)
                if ty is None:
                    diags.append(_err(s.span, f"assignment to undefined {s.target.name}"))
                elif ty == PTR:
                    diags.append(_err(s.span, f"cannot reassign pointer {s.target.name}"))
            elif isinstance(s.target, Deref):
                _check_deref(s.target, scope, diags)
        elif isinstance(s, CallStmt):
            _validate_call(s, fn, scope, program, logic_decls, diags)
        elif isinstance(s, IfStmt):
            _validate_pred(s.cond, scope, diags, ctx="code")
            visible = dict(scope.locals)
            _validate_stmts(s.then, fn, scope, program, logic_decls, diags, in_loop)
            scope.locals = dict(visible)
            _validate_stmts(s.orelse, fn, scope, program, logic_decls, diags, in_loop)
            scope.locals = visible
        elif isinstance(s, WhileStmt):
            _validate_pred(s.cond, scope, diags, ctx="code")
            if s.invariant is not None:
                _validate_pred(s.invariant, scope, diags, ctx="assert")
            if s.variant is not None:
                _validate_term(s.variant, scope, diags, logic=True)
            visible = dict(scope.locals)
            _validate_stmts(s.body, fn, scope, program, logic_decls, diags, True)
            scope.locals = visible
        elif isinstance(s, ReturnStmt):
            if s.value is not None:
                if fn.ret == VOID:
                    diags.append(_err(s.span, f"{fn.name} returns void"))
                _validate_term(s.value, scope, diags, logic=False)
            elif fn.ret == INT:
                diags.append(_err(s.span, f"{fn.name} must return a value"))
        elif isinstance(s, AssertStmt):
            _validate_pred(s.pred, scope, diags, ctx="assert")


def _check_deref(t: Deref, scope: _FnScope, diags: list[Diagnostic]) -> None:
    ty = scope.type_of(t.name)
    if ty is None:
        diags.append(_err(t.span, f"dereference of undefined {t.name}"))
    elif ty != PTR:
        diags.append(_err(t.span, f"dereference of non-pointer {t.name}"))
    elif t.name in scope.globals and t.name not in scope.formals \
            and t.name not in scope.locals:
        diags.append(_err(t.span,
                          f"pointer globals such as {t.name} cannot be used"))


def _validate_call(s: CallStmt, fn, scope, program, logic_decls, diags) -> None:
    callee = program.function(s.callee)
    if callee is None:
        decl = logic_decls.get(s.callee)
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
        _validate_term(a, scope, diags, logic=False)
    if s.target is not None:
        ty = scope.type_of(s.target)
        if ty is None:
            diags.append(_err(s.span, f"assignment to undefined {s.target}"))
        elif ty == PTR:
            diags.append(_err(s.span, f"cannot assign call result to pointer {s.target}"))


def _validate_term(t: Term, scope: _FnScope, diags: list[Diagnostic],
                   logic: bool, extra: dict[str, str] | None = None,
                   ret=None) -> None:
    env = extra or {}
    if isinstance(t, FloatLit):
        diags.append(_err(t.span, "float literals are not supported"))
    elif isinstance(t, Var):
        ty = env.get(t.name) or scope.type_of(t.name)
        if ty is None:
            diags.append(_err(t.span, f"undefined variable {t.name}"))
    elif isinstance(t, Deref):
        if t.name in env:
            if env[t.name] != PTR:
                diags.append(_err(t.span, f"dereference of non-pointer {t.name}"))
        else:
            _check_deref(t, scope, diags)
    elif isinstance(t, Bin):
        for side in (t.left, t.right):
            if isinstance(side, Var):
                ty = env.get(side.name) or scope.type_of(side.name)
                if ty == PTR:
                    diags.append(_err(side.span,
                                      f"pointer {side.name} used in arithmetic"))
        _validate_term(t.left, scope, diags, logic, extra, ret)
        _validate_term(t.right, scope, diags, logic, extra, ret)
    elif isinstance(t, (CallResult, At, CallPure, OldTerm, ResultTerm, LogicApp)):
        if not logic:
            diags.append(_err(t.span, "logic construct in program expression"))
            return
        if isinstance(t, OldTerm):
            _validate_term(t.term, scope, diags, logic, extra, ret)
        elif isinstance(t, ResultTerm):
            if ret != INT:
                diags.append(_err(t.span, "\\result outside an int function's ensures"))
        elif isinstance(t, At):
            if t.label not in BUILTIN_LABELS:
                diags.append(_err(t.span,
                                  f"label {t.label} is only meaningful inside a "
                                  "relational clause"))
            if not isinstance(t.base, (Var, Deref)):
                diags.append(_err(t.span, "\\at expects a variable or dereference"))
            else:
                _validate_term(t.base, scope, diags, logic, extra, ret)
        elif isinstance(t, (CallPure, LogicApp)):
            for a in t.args:
                _validate_term(a, scope, diags, logic, extra, ret)


def _validate_pred(p: Pred, scope: _FnScope, diags: list[Diagnostic],
                   ctx: str, extra: dict[str, str] | None = None,
                   ret=None) -> None:
    logic = ctx != "code"
    allow_result = INT if (ctx == "ensures" and ret == INT) else None
    if isinstance(p, Cmp):
        _validate_term(p.left, scope, diags, logic, extra, allow_result)
        _validate_term(p.right, scope, diags, logic, extra, allow_result)
    elif isinstance(p, (PAnd, POr, PImp)):
        if isinstance(p, PImp) and ctx == "code":
            diags.append(_err(p.span, "==> is not a program operator"))
        _validate_pred(p.left, scope, diags, ctx, extra, ret)
        _validate_pred(p.right, scope, diags, ctx, extra, ret)
    elif isinstance(p, PNot):
        _validate_pred(p.body, scope, diags, ctx, extra, ret)
    elif isinstance(p, (PForall, PExists)):
        if ctx == "code":
            diags.append(_err(p.span, "quantifiers are not program expressions"))
            return
        inner = dict(extra or {})
        for b in p.binders:
            inner[b.name] = b.ty
        _validate_pred(p.body, scope, diags, ctx, inner, ret)
    elif isinstance(p, Separated):
        if ctx == "code":
            diags.append(_err(p.span, "\\separated is not a program expression"))
            return
        for side in (p.left, p.right):
            if isinstance(side, Var):
                ty = (extra or {}).get(side.name) or scope.type_of(side.name)
                if ty != PTR:
                    diags.append(_err(side.span,
                                      f"\\separated expects pointers, got {side.name}"))
            else:
                diags.append(_err(p.span, "\\separated expects pointer names"))
    elif isinstance(p, PredApp):
        if ctx == "code":
            diags.append(_err(p.span, "predicate application in program expression"))
            return
        decl = scope.program.logic_decls().get(p.name)
        if not isinstance(decl, PredicateDecl):
            diags.append(_err(p.span, f"unknown predicate {p.name}"))
        else:
            if len(p.labels) != len(decl.labels):
                diags.append(_err(p.span,
                                  f"{p.name} expects {len(decl.labels)} labels"))
            if len(p.args) != len(decl.params):
                diags.append(_err(p.span,
                                  f"{p.name} expects {len(decl.params)} arguments"))
        for a in p.args:
            _validate_term(a, scope, diags, True, extra, ret)
    elif isinstance(p, PBool):
        if ctx == "code":
            diags.append(_err(p.span, "\\true/\\false are not program expressions"))


def _validate_assigns(a: AssignsClause, fn: FunctionDef, scope: _FnScope,
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


def _validate_clause(clause: RelationalClause, fn: FunctionDef, program: Program,
                     diags: list[Diagnostic], fn_index: dict[str, int]) -> None:
    binder_env: dict[str, str] = {}
    for b in clause.binders:
        if b.ty == PTR:
            diags.append(_err(b.span,
                              f"{clause.name}: clause binders must have type int"))
        if b.name in binder_env:
            diags.append(_err(b.span, f"{clause.name}: duplicate binder {b.name}"))
        binder_env[b.name] = INT

    ids: set[str] = set()
    int_returning: set[str] = set()
    for cs in clause.calls:
        if cs.call_id in ids:
            diags.append(_err(cs.span,
                              f"{clause.name}: duplicate call id {cs.call_id}"))
        ids.add(cs.call_id)
        if cs.depth < 1:
            diags.append(_err(cs.span, f"{clause.name}: inlining option must be >= 1"))
        callee = program.function(cs.callee)
        if callee is None:
            diags.append(_err(cs.span, f"{clause.name}: unknown function {cs.callee}"))
            continue
        if fn_index.get(cs.callee, 0) > fn_index.get(fn.name, 0):
            diags.append(_err(cs.span,
                              f"{clause.name}: {cs.callee} is declared after {fn.name}; "
                              "a relational clause belongs to the last function involved"))
        if callee.ret == INT:
            int_returning.add(cs.call_id)
        int_formals = [p for p in callee.formals if p.ty == INT]
        if len(cs.args) != len(int_formals):
            diags.append(_err(cs.span,
                              f"{clause.name}: {cs.callee} takes {len(int_formals)} "
                              f"int arguments, got {len(cs.args)}"))
        for a in cs.args:
            free = {n.name for n in walk(a) if isinstance(n, Var)}
            for name in sorted(free - set(binder_env)):
                diags.append(_err(cs.span,
                                  f"{clause.name}: call argument uses {name}, "
                                  "which is not a clause binder"))
            _check_callpure(a, clause, program, diags)

    _validate_clause_pred(clause.pred, clause, fn, program, diags,
                          binder_env, ids, int_returning)


def _check_callpure(t: Term, clause, program, diags) -> None:
    if isinstance(t, CallPure):
        callee = program.function(t.callee)
        if callee is None:
            diags.append(_err(t.span,
                              f"{clause.name}: unknown function {t.callee}"))
        else:
            try:
                fp = footprint_of(callee, program)
            except (MissingAssigns, UnknownCallee):
                fp = None
            if fp is not None and not fp.is_pure:
                diags.append(_err(t.span,
                                  f"{clause.name}: \\callpure callee {t.callee} "
                                  "is not pure"))
        if t.depth < 1:
            diags.append(_err(t.span, f"{clause.name}: inlining option must be >= 1"))
        for a in t.args:
            _check_callpure(a, clause, program, diags)
    elif isinstance(t, Bin):
        _check_callpure(t.left, clause, program, diags)
        _check_callpure(t.right, clause, program, diags)
    elif isinstance(t, At):
        diags.append(_err(t.span,
                          f"{clause.name}: \\at is not allowed in \\callpure arguments"))


def _validate_clause_pred(p: Pred, clause, fn, program, diags,
                          binder_env, ids, int_returning,
                          extra: dict[str, str] | None = None) -> None:
    env = dict(binder_env)
    if extra:
        env.update(extra)
    globals_ = {g.name for g in program.globals}

    def term(t: Term) -> None:
        if isinstance(t, FloatLit):
            diags.append(_err(t.span, "float literals are not supported"))
        elif isinstance(t, Var):
            if t.name not in env and t.name not in globals_:
                diags.append(_err(t.span,
                                  f"{clause.name}: undefined variable {t.name}"))
        elif isinstance(t, Deref):
            diags.append(_err(t.span,
                              f"{clause.name}: bare dereference needs \\at with a "
                              "call label"))
        elif isinstance(t, Bin):
            term(t.left)
            term(t.right)
        elif isinstance(t, CallResult):
            if t.call_id not in ids:
                diags.append(_err(t.span,
                                  f"{clause.name}: \\callresult references unknown "
                                  f"call id {t.call_id}"))
            elif t.call_id not in int_returning:
                diags.append(_err(t.span,
                                  f"{clause.name}: call {t.call_id} returns no value"))
        elif isinstance(t, At):
            parsed = rel_label(t.label)
            if parsed is None:
                diags.append(_err(t.span,
                                  f"{clause.name}: label {t.label} is not "
                                  "Pre_<id> or Post_<id>"))
            elif parsed[1] not in ids:
                diags.append(_err(t.span,
                                  f"{clause.name}: label {t.label} references "
                                  "an unknown call id"))
            else:
                cid = parsed[1]
                callee = next((program.function(c.callee)
                               for c in clause.calls if c.call_id == cid), None)
                if isinstance(t.base, Var):
                    if t.base.name not in globals_:
                        diags.append(_err(t.span,
                                          f"{clause.name}: \\at expects a global, "
                                          f"got {t.base.name}"))
                elif isinstance(t.base, Deref):
                    if callee is None or all(
                            p.name != t.base.name or p.ty != PTR
                            for p in callee.formals):
                        diags.append(_err(t.span,
                                          f"{clause.name}: *{t.base.name} is not a "
                                          f"pointer formal of the call's callee"))
                else:
                    diags.append(_err(t.span, "\\at expects a variable or dereference"))
        elif isinstance(t, CallPure):
            _check_callpure(t, clause, program, diags)
            for a in t.args:
                term(a)
        elif isinstance(t, (OldTerm, ResultTerm)):
            diags.append(_err(t.span,
                              f"{clause.name}: \\old/\\result are not relational "
                              "constructs"))
        elif isinstance(t, LogicApp):
            for a in t.args:
                term(a)

    if isinstance(p, Cmp):
        term(p.left)
        term(p.right)
    elif isinstance(p, (PAnd, POr, PImp)):
        _validate_clause_pred(p.left, clause, fn, program, diags,
                              binder_env, ids, int_returning, extra)
        _validate_clause_pred(p.right, clause, fn, program, diags,
                              binder_env, ids, int_returning, extra)
    elif isinstance(p, PNot):
        _validate_clause_pred(p.body, clause, fn, program, diags,
                              binder_env, ids, int_returning, extra)
    elif isinstance(p, (PForall, PExists)):
        inner = dict(extra or {})
        for b in p.binders:
            inner[b.name] = b.ty
        _validate_clause_pred(p.body, clause, fn, program, diags,
                              binder_env, ids, int_returning, inner)
    elif isinstance(p, Separated):
        diags.append(_err(p.span,
                          f"{clause.name}: \\separated is generated, not written, "
                          "in relational predicates"))
    elif isinstance(p, PredApp):
        for a in p.args:
            term(a)


def _validate_axiomatic(ax, program: Program, diags: list[Diagnostic]) -> None:
    seen: set[str] = set()
    for item in ax.items:
        if item.name in seen:
            diags.append(_err(item.span, f"duplicate axiomatic item {item.name}"))
        seen.add(item.name)
