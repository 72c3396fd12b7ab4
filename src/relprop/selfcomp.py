"""Self-composition transformation for relational clauses.

Each clause produces:
  * duplicated state (one copy of every footprint location per call),
  * a wrapper function inlining every call of the callset on its own copy,
    ending with an `assert Rpp:` equivalent to the relational predicate,
  * an axiomatic layer: an `_acsl` symbol per involved function (a logic
    function for pure functions, a predicate over state values or over state
    labels otherwise), a lemma restating the property over those symbols,
    and `ensures` behaviors linking each C function to its symbol.

The wrapper proves the property; the lemma lets other proofs use it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .frozen import Frozen
from .minic import (
    INT, PTR, VOID,
    Program, GlobalDecl, FunctionDef, Param, Contract,
    Behavior, RelationalClause, CallSpec, Binder,
    Axiomatic, PredicateDecl, LogicFnDecl, Lemma,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, IntLit, Var, Deref, Bin, CallResult, At, CallPure,
    ResultTerm, LogicApp,
    Pred, Cmp, PAnd, POr, PImp, PForall, PExists, Separated,
    PredApp,
    GlobalLoc, DerefLoc, Loc, Diagnostic, height, rel_label, statements, walk,
    map_nodes,
)
from .parser import MAX_NESTING
from .validate import validate, footprint_of

WRAPPER_PREFIX = "relational_wrapper_"
AXIOM_PREFIX = "Relational_axiom_"
LEMMA_PREFIX = "Relational_lemma_"
BEHAVIOR_PREFIX = "Relational_behavior_"
ASSERT_LABEL = "Rpp"

# How a function is mirrored in the logic world.
STYLE_PURE = "pure"      # logic function over the int formals
STYLE_VALUES = "values"  # predicate over result/formals plus global pre/post values
STYLE_LABELS = "labels"  # label-parameterized predicate with a reads footprint


class TransformError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class Renaming(Frozen):
    """Fresh names giving one callset call its own copy of the state."""

    call_id: str
    index: int  # 1-based position within the callset
    globals: dict[str, str]   # footprint global -> duplicated global
    pointers: dict[str, str]  # callee pointer formal -> wrapper pointer formal
    locals: dict[str, str]    # callee locals and int formals -> suffixed names
    ret_var: Optional[str]


class WrapperFunction(Frozen):
    fn: FunctionDef
    clause: str
    renamings: tuple[Renaming, ...]
    binder_params: tuple[str, ...]
    pointer_params: tuple[str, ...]
    dup_globals: tuple[str, ...]


class ClauseArtifacts(Frozen):
    clause: RelationalClause
    index: int
    wrapper: WrapperFunction
    axiomatic: Axiomatic
    lemma_name: str


class TransformedProgram(Frozen):
    """Original program plus everything generated from its clauses."""

    program: Program
    source: Program
    entries: tuple[ClauseArtifacts, ...]
    acsl_symbols: dict[str, tuple[str, str]]  # fn name -> (symbol, style)

    def provenance(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for e in self.entries:
            out[e.wrapper.fn.name] = e.clause.name
            out[e.axiomatic.name] = e.clause.name
            out[e.lemma_name] = e.clause.name
            for g in e.wrapper.dup_globals:
                out[g] = e.clause.name
            for p in e.wrapper.pointer_params:
                out[p] = e.clause.name
        return out

    @property
    def lemma_names(self) -> frozenset[str]:
        return frozenset(e.lemma_name for e in self.entries)

    def wrapper_for(self, clause_name: str) -> Optional[WrapperFunction]:
        for e in self.entries:
            if e.clause.name == clause_name:
                return e.wrapper
        return None

    def lemma_of_wrapper(self, wrapper_name: str) -> Optional[str]:
        for e in self.entries:
            if e.wrapper.fn.name == wrapper_name:
                return e.lemma_name
        return None


# ---------------------------------------------------------------------------
# Naming and styles
# ---------------------------------------------------------------------------


class _Names:
    """Deterministic fresh-name allocator avoiding every existing name."""

    def __init__(self, program: Program):
        used: set[str] = set()
        for g in program.globals:
            used.add(g.name)
        for fn in program.functions:
            used.add(fn.name)
            used.update(p.name for p in fn.formals)
            used.update(_frame_names(fn))
        used.update(program.logic_decls())
        self.used = used

    def fresh(self, base: str) -> str:
        name = base
        k = 2
        while name in self.used:
            name = f"{base}_{k}"
            k += 1
        self.used.add(name)
        return name


def _frame_names(fn: FunctionDef) -> list[str]:
    """What an inlined copy of `fn` renames: int formals, then locals."""
    return [p.name for p in fn.formals if p.ty == INT] + \
        sorted({s.name for s in statements(fn.body) if isinstance(s, DeclStmt)})


def footprint_locs(fn: FunctionDef, program: Program) -> list[Loc]:
    """Footprint locations in canonical order: globals in declaration order,
    then derefs in formal order."""
    fp = footprint_of(fn, program)
    locs = fp.writes | fp.reads
    out: list[Loc] = []
    for g in program.globals:
        if GlobalLoc(g.name) in locs:
            out.append(GlobalLoc(g.name))
    for p in fn.formals:
        if p.ty == PTR and DerefLoc(p.name) in locs:
            out.append(DerefLoc(p.name))
    return out


def acsl_style(fn: FunctionDef, program: Program) -> str:
    fp = footprint_of(fn, program)
    has_ptr = any(p.ty == PTR for p in fn.formals)
    has_deref = any(isinstance(l, DerefLoc) for l in fp.writes | fp.reads)
    if has_ptr or has_deref:
        return STYLE_LABELS
    if fp.writes or fp.reads:
        return STYLE_VALUES
    return STYLE_PURE if fn.ret == INT else STYLE_VALUES


def acsl_symbol(fn_name: str) -> str:
    return f"{fn_name}_acsl"


# ---------------------------------------------------------------------------
# Renamings
# ---------------------------------------------------------------------------


def make_renamings(clause: RelationalClause, program: Program,
                   names: Optional[_Names] = None) -> list[Renaming]:
    """One Renaming per callset call; only footprint locations and callee
    locals are duplicated, never the whole state."""
    names = names or _Names(program)
    names.used.update(b.name for b in clause.binders)
    out: list[Renaming] = []
    for idx, cs in enumerate(clause.calls, 1):
        callee = program.function(cs.callee)
        globals_map: dict[str, str] = {}
        pointers_map: dict[str, str] = {}
        for loc in footprint_locs(callee, program):
            if isinstance(loc, GlobalLoc):
                globals_map[loc.name] = names.fresh(f"{loc.name}_{cs.call_id}")
            else:
                pointers_map[loc.name] = names.fresh(f"{loc.name}_{cs.call_id}")
        for p in callee.formals:
            if p.ty == PTR and p.name not in pointers_map:
                pointers_map[p.name] = names.fresh(f"{p.name}_{cs.call_id}")
        locals_map = {v: names.fresh(f"{v}_{idx}") for v in _frame_names(callee)}
        ret_var = names.fresh(f"ret_{cs.call_id}") if callee.ret == INT else None
        out.append(Renaming(cs.call_id, idx, globals_map, pointers_map,
                            locals_map, ret_var))
    return out


# ---------------------------------------------------------------------------
# Inlining
# ---------------------------------------------------------------------------


def _rename(node, env: dict[str, str]):
    """Rename variables and dereferenced pointers in a term or predicate;
    quantifier binders shadow the renaming."""

    def rule(n):
        if isinstance(n, (Var, Deref)) and n.name in env:
            return type(n)(env[n.name])
        if isinstance(n, (PForall, PExists)):
            bound = {b.name for b in n.binders}
            return type(n)(n.binders, _rename(n.body, {k: v for k, v in env.items()
                                                       if k not in bound}))
        return None

    return map_nodes(node, rule)


def lower_returns(stmts: Sequence[Stmt], ret_target: Optional[str],
                  flag_name: Callable[[], str]) -> list[Stmt]:
    """Rewrite returns into straight-line code, in one walk: a return
    becomes `ret_target = value` (nothing without a value or a target).
    One that later code must skip also sets a completion flag, which guards
    the rest of its block (`if (flag == 0) {...}`) and each loop around it;
    the flag is declared, and `flag_name()` called, only then."""
    sets: list[str] = []  # the flag's name, once for each return setting it

    def done(value: int) -> Cmp:
        return Cmp("==", Var(sets[0]), IntLit(value))

    def block(body: Sequence[Stmt], follows: bool) -> list[Stmt]:
        """`body` lowered; `follows` says whether code runs after it."""
        out: list[Stmt] = []
        for i, s in enumerate(body):
            after, before = follows or i + 1 < len(body), len(sets)
            if isinstance(s, ReturnStmt):
                if s.value is not None and ret_target is not None:
                    out.append(AssignStmt(Var(ret_target), s.value))
                if after:
                    sets.append(sets[0] if sets else flag_name())
                    out.append(AssignStmt(Var(sets[0]), IntLit(1)))
            elif isinstance(s, IfStmt):
                out.append(IfStmt(s.cond, tuple(block(s.then, after)),
                                  tuple(block(s.orelse, after)), span=s.span))
            elif isinstance(s, WhileStmt):
                loop = tuple(block(s.body, True))
                if len(sets) > before:
                    inv = None if s.invariant is None else \
                        POr(done(1), s.invariant)
                    s = WhileStmt(PAnd(done(0), s.cond), inv, s.variant, loop,
                                  span=s.span)
                out.append(s)
            else:
                out.append(s)
            if len(sets) > before and i + 1 < len(body):
                rest = block(body[i + 1:], follows)
                out.append(IfStmt(done(0), tuple(rest), ()))
                break
        return out

    out = block(stmts, False)
    return [DeclStmt(sets[0], IntLit(0))] + out if sets else out


class _Inliner:
    def __init__(self, program: Program, names: _Names):
        self.program = program
        self.names = names
        self.opaque_callees: set[str] = set()
        self.site: Optional[CallSpec] = None  # the \call being emitted

    def too_deep(self) -> TransformError:
        return TransformError([Diagnostic(
            "error", self.site.span,
            f"inlining {self.site.callee} nests deeper than {MAX_NESTING} "
            "levels; lower the inlining option")])

    def inline(self, callee: FunctionDef, arg_terms: list[Term],
               state_env: dict[str, str], tag: str, depth: int,
               ret_target: Optional[str],
               frame_env: Optional[dict[str, str]] = None,
               nesting: int = 1, levels: int = 1) -> list[Stmt]:
        """Inline one call: bind int formals to locals (fresh ones unless
        `frame_env` names them and the callee's locals), rename the body
        through the call's state copy, convert returns, and unfold nested
        calls while the depth budget lasts. `nesting` counts the blocks
        around the call in the wrapper and `levels` the inlined calls, this
        one included; past MAX_NESTING of either the wrapper is refused,
        before the recursion that builds it can overflow."""
        if nesting > MAX_NESTING or levels > MAX_NESTING:
            raise self.too_deep()
        out: list[Stmt] = []
        env = dict(state_env)
        env.update(frame_env if frame_env is not None else
                   {v: self.names.fresh(f"{v}_{tag}") for v in _frame_names(callee)})
        int_formals = [p for p in callee.formals if p.ty == INT]
        for p, arg in zip(int_formals, arg_terms):
            out.append(DeclStmt(env[p.name], arg))
        body = self.rename_stmts(list(callee.body), env, tag, depth,
                                 nesting, levels)
        out.extend(lower_returns(body, ret_target,
                                 lambda: self.names.fresh(f"done_{tag}")))
        return out

    def lower_arg(self, t: Term, tag: str, out: list[Stmt]) -> Term:
        """Replace nested \\callpure in an argument term by a fresh local
        computed by inlining the pure callee first."""
        if isinstance(t, CallPure):
            args = [self.lower_arg(a, tag, out) for a in t.args]
            callee = self.program.function(t.callee)
            aux = self.names.fresh(f"{t.callee}_{tag}")
            out.append(DeclStmt(aux, None))
            out.extend(self.inline(callee, args, {}, aux, t.depth, aux))
            return Var(aux)
        if isinstance(t, Bin):
            return Bin(t.op,
                       self.lower_arg(t.left, tag, out),
                       self.lower_arg(t.right, tag, out))
        return t

    def rename_stmts(self, stmts: list[Stmt], env: dict[str, str], tag: str,
                     depth: int, nesting: int, levels: int) -> list[Stmt]:
        out: list[Stmt] = []
        seq = 0
        inner = nesting + 1
        for s in stmts:
            if isinstance(s, DeclStmt):
                out.append(DeclStmt(env.get(s.name, s.name), _rename(s.init, env)))
            elif isinstance(s, AssignStmt):
                out.append(AssignStmt(_rename(s.target, env),
                                      _rename(s.value, env)))
            elif isinstance(s, CallStmt):
                seq += 1
                out.extend(self._inline_nested(s, env, f"{tag}_{seq}", depth,
                                               nesting, levels))
            elif isinstance(s, IfStmt):
                out.append(IfStmt(_rename(s.cond, env),
                                  tuple(self.rename_stmts(list(s.then), env, tag,
                                                          depth, inner, levels)),
                                  tuple(self.rename_stmts(list(s.orelse), env, tag,
                                                          depth, inner, levels))))
            elif isinstance(s, WhileStmt):
                out.append(WhileStmt(_rename(s.cond, env),
                                     _rename(s.invariant, env),
                                     _rename(s.variant, env),
                                     tuple(self.rename_stmts(list(s.body), env, tag,
                                                             depth, inner, levels))))
            elif isinstance(s, ReturnStmt):
                out.append(ReturnStmt(_rename(s.value, env)))
            elif isinstance(s, AssertStmt):
                out.append(AssertStmt(s.label, _rename(s.pred, env)))
            else:
                raise TypeError(f"unknown statement {s!r}")
        return out

    def _inline_nested(self, s: CallStmt, env: dict[str, str], tag: str,
                       depth: int, nesting: int, levels: int) -> list[Stmt]:
        target = env.get(s.target, s.target) if s.target else None
        args = list(_rename(s.args, env))
        callee = self.program.function(s.callee)
        if callee is None:
            # Already an opaque logic application; keep it.
            return [CallStmt(target, s.callee, tuple(args))]
        if depth > 1:
            return self.inline(callee, args, dict(env), tag, depth - 1, target,
                               nesting=nesting, levels=levels + 1)
        # Depth exhausted: replace with an opaque application of the callee's
        # logic mirror, constrained only by contracts and admitted lemmas.
        if not footprint_of(callee, self.program).is_pure or callee.ret != INT:
            raise TransformError([Diagnostic(
                "error", s.span,
                f"inlining budget exhausted at call to {s.callee}, which has "
                "side effects; raise the inlining option")])
        self.opaque_callees.add(callee.name)
        return [CallStmt(target, acsl_symbol(callee.name), tuple(args))]


def _emit_call(spec: CallSpec, renaming: Renaming, inliner: _Inliner) -> list[Stmt]:
    """Emit the inlined block for one callset call under its renaming; the
    block nests at most MAX_NESTING levels deep (`height`)."""
    inliner.site = spec
    callee = inliner.program.function(spec.callee)
    out: list[Stmt] = []
    tag = str(renaming.index)
    args = [inliner.lower_arg(a, tag, out) for a in spec.args]
    if renaming.ret_var is not None:
        out.append(DeclStmt(renaming.ret_var, None))
    out.extend(inliner.inline(callee, args, {**renaming.globals, **renaming.pointers},
                              tag, spec.depth, renaming.ret_var, renaming.locals))
    if height(tuple(out)) > MAX_NESTING:
        raise inliner.too_deep()
    return out


# ---------------------------------------------------------------------------
# Predicate translation
# ---------------------------------------------------------------------------


def translate_pred(pred: Pred, renamings: list[Renaming],
                   program: Optional[Program] = None,
                   flavor: str = "wrapper",
                   clause: Optional[RelationalClause] = None) -> Pred:
    """Translate a relational predicate into its wrapper or lemma form.

    Wrapper flavor: `\\at(x, Pre_id)` becomes `\\at(x_id, Pre)`,
    `\\at(x, Post_id)` becomes `\\at(x_id, Here)`, `\\callresult(id)` becomes
    `ret_id`, and `\\callpure(k, f, a)` becomes the application `f_acsl(a)`.

    Lemma flavor: per-call state is named by quantified values
    (`g_id_pre`/`g_id_post`) or per-call labels (`pre_id`/`post_id`), and
    results of pure callees become applications over their argument terms.

    In both flavors a global that a call leaves alone keeps its own name.
    """
    by_id = {r.call_id: r for r in renamings}
    calls = {c.call_id: c for c in clause.calls} if clause is not None else {}

    def style(call_id: str) -> Optional[str]:
        cs = calls.get(call_id)
        callee = program.function(cs.callee) if cs and program else None
        return acsl_style(callee, program) if callee is not None else None

    def rule(t):
        if isinstance(t, CallResult):
            r = by_id[t.call_id]
            if flavor == "lemma" and style(t.call_id) == STYLE_PURE:
                cs = calls[t.call_id]
                return LogicApp(acsl_symbol(cs.callee), map_nodes(cs.args, rule))
            return Var(r.ret_var or f"ret_{t.call_id}")
        if isinstance(t, At) and (parsed := rel_label(t.label)) is not None:
            kind, cid = parsed
            r = by_id[cid]
            name = t.base.name
            if flavor == "wrapper":
                dup = (r.globals if isinstance(t.base, Var) else r.pointers).get(
                    name, name)
                return At(type(t.base)(dup), "Pre" if kind == "Pre" else "Here")
            label = f"{kind.lower()}_{cid}"
            if isinstance(t.base, Deref):
                return At(Deref(r.pointers.get(name, name)), label)
            if name not in r.globals:
                return Var(name)
            if style(cid) == STYLE_LABELS:
                return At(Var(name), label)
            return Var(f"{name}_{cid}_{kind.lower()}")
        if isinstance(t, CallPure):
            return LogicApp(acsl_symbol(t.callee), map_nodes(t.args, rule))
        return None

    return map_nodes(pred, rule)


# ---------------------------------------------------------------------------
# Wrapper and axiomatic construction
# ---------------------------------------------------------------------------


def build_wrapper(clause: RelationalClause, program: Program, index: int = 1,
                  names: Optional[_Names] = None,
                  renamings: Optional[list[Renaming]] = None,
                  inliner: Optional[_Inliner] = None) -> WrapperFunction:
    names = names or _Names(program)
    renamings = renamings if renamings is not None else \
        make_renamings(clause, program, names)
    inliner = inliner or _Inliner(program, names)

    body: list[Stmt] = []
    for cs, ren in zip(clause.calls, renamings):
        body.extend(_emit_call(cs, ren, inliner))
    body.append(_readable(AssertStmt(ASSERT_LABEL,
                                     translate_pred(clause.pred, renamings,
                                                    program, "wrapper", clause)),
                          clause, "assertion"))

    requires: list[Pred] = []
    for i, ri in enumerate(renamings):
        for rj in renamings[i + 1:]:
            for p in ri.pointers.values():
                for q in rj.pointers.values():
                    requires.append(Separated(Var(p), Var(q)))

    binder_params = tuple(b.name for b in clause.binders)
    pointer_params: list[str] = []
    for ren in renamings:
        pointer_params.extend(ren.pointers.values())
    formals = tuple(Param(b, INT) for b in binder_params) + \
        tuple(Param(p, PTR) for p in pointer_params)

    dup_globals: list[str] = []
    for ren in renamings:
        dup_globals.extend(ren.globals.values())

    fn = FunctionDef(
        name=names.fresh(f"{WRAPPER_PREFIX}{index}"),
        formals=formals,
        ret=VOID,
        body=tuple(body),
        contract=Contract(requires=tuple(requires)),
    )
    return WrapperFunction(fn, clause.name, tuple(renamings), binder_params,
                           tuple(pointer_params), tuple(dup_globals))


def involved_functions(clause: RelationalClause, program: Program) -> list[str]:
    """Callset callees, then \\callpure callees, in first-occurrence order."""
    names = [cs.callee for cs in clause.calls]
    names += [n.callee for n in walk(clause) if isinstance(n, CallPure)]
    return list(dict.fromkeys(names))


def _acsl_params(fn: FunctionDef, program: Program, style: str) -> tuple[Param, ...]:
    if style == STYLE_PURE:
        return tuple(Param(p.name, INT) for p in fn.formals if p.ty == INT)
    params: list[Param] = []
    if fn.ret == INT:
        params.append(Param("res", INT))
    params.extend(Param(p.name, p.ty) for p in fn.formals)
    if style == STYLE_VALUES:
        for loc in footprint_locs(fn, program):
            params.append(Param(f"{loc.name}_pre", INT))
            params.append(Param(f"{loc.name}_post", INT))
    return tuple(params)


def _acsl_decl(fn: FunctionDef, program: Program):
    style = acsl_style(fn, program)
    name = acsl_symbol(fn.name)
    params = _acsl_params(fn, program, style)
    if style == STYLE_PURE:
        return LogicFnDecl(name, params)
    if style == STYLE_VALUES:
        return PredicateDecl(name, (), params)
    reads: list[Term] = []
    for loc in footprint_locs(fn, program):
        base = Var(loc.name) if isinstance(loc, GlobalLoc) else Deref(loc.name)
        reads.append(At(base, "post"))
        reads.append(At(base, "pre"))
    return PredicateDecl(name, ("pre", "post"), params, tuple(reads))


def _link_ensures(fn: FunctionDef, program: Program) -> Pred:
    """The ensures clause tying a C function to its logic mirror."""
    style = acsl_style(fn, program)
    name = acsl_symbol(fn.name)
    if style == STYLE_PURE:
        pure_args = tuple(Var(p.name) for p in fn.formals if p.ty == INT)
        return Cmp("==", ResultTerm(), LogicApp(name, pure_args))
    args: list[Term] = []
    if fn.ret == INT:
        args.append(ResultTerm())
    args.extend(Var(p.name) for p in fn.formals)
    if style == STYLE_VALUES:
        for loc in footprint_locs(fn, program):
            args.append(At(Var(loc.name), "Pre"))
            args.append(At(Var(loc.name), "Post"))
        return PredApp(name, (), tuple(args))
    return PredApp(name, ("Pre", "Post"), tuple(args))


def build_axiomatic(clause: RelationalClause, program: Program, index: int = 1,
                    renamings: Optional[list[Renaming]] = None,
                    declared: Optional[set[str]] = None,
                    extra_decls: tuple[str, ...] = ()) -> Axiomatic:
    """Axiomatic block for one clause: the `_acsl` symbols of its functions
    that neither an earlier block nor the source declares, plus the lemma
    restating the property."""
    renamings = renamings if renamings is not None else \
        make_renamings(clause, program)
    declared = declared if declared is not None else set()
    items: list = []
    for fname in involved_functions(clause, program) + list(extra_decls):
        if fname in declared:
            continue
        declared.add(fname)
        fn = program.function(fname)
        # A source axiomatic may already declare the mirror.
        if acsl_symbol(fname) not in program.logic_decls():
            items.append(_acsl_decl(fn, program))
    items.append(_build_lemma(clause, program, index, renamings))
    return Axiomatic(f"{AXIOM_PREFIX}{index}", tuple(items))


def _build_lemma(clause: RelationalClause, program: Program, index: int,
                 renamings: list[Renaming]) -> Lemma:
    # Quantifier layout follows the generated-code convention: clause
    # binders first, then per-call state groups with the last call first.
    labels: list[str] = []
    binders: list[Binder] = list(clause.binders)
    hyps: list[Pred] = []

    per_call = list(zip(clause.calls, renamings))
    for cs, ren in reversed(per_call):
        callee = program.function(cs.callee)
        style = acsl_style(callee, program)
        if style == STYLE_LABELS:
            labels.extend((f"pre_{cs.call_id}", f"post_{cs.call_id}"))
            for p in callee.formals:
                if p.ty == PTR:
                    binders.append(Binder(ren.pointers[p.name], PTR))
        if style != STYLE_PURE and callee.ret == INT:
            binders.append(Binder(ren.ret_var, INT))
        if style == STYLE_VALUES:
            for loc in footprint_locs(callee, program):
                binders.append(Binder(f"{loc.name}_{cs.call_id}_pre", INT))
                binders.append(Binder(f"{loc.name}_{cs.call_id}_post", INT))

    for i, (_, ri) in enumerate(per_call):
        for _, rj in per_call[i + 1:]:
            for p in ri.pointers.values():
                for q in rj.pointers.values():
                    hyps.append(Separated(Var(p), Var(q)))

    for cs, ren in reversed(per_call):
        callee = program.function(cs.callee)
        style = acsl_style(callee, program)
        if style == STYLE_PURE:
            continue
        args: list[Term] = []
        if callee.ret == INT:
            args.append(Var(ren.ret_var))
        if style == STYLE_VALUES:
            args.extend(map_nodes(cs.args, _logic_app))
            for loc in footprint_locs(callee, program):
                args.append(Var(f"{loc.name}_{cs.call_id}_pre"))
                args.append(Var(f"{loc.name}_{cs.call_id}_post"))
            hyps.append(PredApp(acsl_symbol(cs.callee), (), tuple(args)))
        else:
            int_args = iter(cs.args)
            for p in callee.formals:
                if p.ty == PTR:
                    args.append(Var(ren.pointers[p.name]))
                else:
                    args.append(map_nodes(next(int_args), _logic_app))
            hyps.append(PredApp(acsl_symbol(cs.callee),
                                (f"pre_{cs.call_id}", f"post_{cs.call_id}"),
                                tuple(args)))

    body = translate_pred(clause.pred, renamings, program, "lemma", clause)
    for h in reversed(hyps):
        body = PImp(h, body)
    if binders:
        body = PForall(tuple(binders), body)
    return Lemma(f"{LEMMA_PREFIX}{index}", tuple(labels),
                 _readable(body, clause, "lemma"))


def _readable(node, clause: RelationalClause, what: str):
    """`node`, the wrapper's assertion or the lemma's body generated for
    `clause`, if it nests no deeper than the parser reads back."""
    if height(node) > MAX_NESTING:
        raise TransformError([Diagnostic(
            "error", clause.span,
            f"the {what} of {clause.name} nests deeper than {MAX_NESTING} levels")])
    return node


def _logic_app(t):
    """map_nodes rule: `\\callpure(k, f, a)` becomes the application `f_acsl(a)`."""
    if isinstance(t, CallPure):
        return LogicApp(acsl_symbol(t.callee), map_nodes(t.args, _logic_app))
    return None


# ---------------------------------------------------------------------------
# Whole-program transformation
# ---------------------------------------------------------------------------


def transform(program: Program) -> TransformedProgram:
    """Apply the self-composition transformation to every relational clause,
    in declaration order. Raises TransformError (with every diagnostic) if
    the input does not validate; never emits partial output."""
    diags = [d for d in validate(program) if d.severity == "error"]
    if diags:
        raise TransformError(diags)

    clauses = program.clauses()
    if not clauses:
        return TransformedProgram(program, program, (), {})

    names = _Names(program)
    inliner = _Inliner(program, names)

    built: list[tuple[RelationalClause, int, WrapperFunction, list[Renaming]]] = []
    for n, (_host, clause) in enumerate(clauses, 1):
        renamings = make_renamings(clause, program, names)
        wrapper = build_wrapper(clause, program, n, names, renamings, inliner)
        built.append((clause, n, wrapper, renamings))

    declared: set[str] = set()
    linked: set[str] = set()
    axiomatics: list[Axiomatic] = []
    entries: list[ClauseArtifacts] = []
    behaviors_by_fn: dict[str, list[Behavior]] = {}
    acsl_symbols: dict[str, tuple[str, str]] = {}
    tail: list = []

    for clause, n, wrapper, renamings in built:
        # Residual opaque callees surface while wrappers are built; declare
        # any still-missing mirrors in the last axiomatic block.
        extra = tuple(sorted(inliner.opaque_callees - declared
                             - set(involved_functions(clause, program)))) \
            if n == len(built) else ()
        ax = build_axiomatic(clause, program, n, renamings, declared, extra)
        axiomatics.append(ax)
        for fname in sorted(declared):
            fn = program.function(fname)
            acsl_symbols[fname] = (acsl_symbol(fname), acsl_style(fn, program))
            if fname not in linked:
                linked.add(fname)
                behaviors_by_fn.setdefault(fname, []).append(
                    Behavior(f"{BEHAVIOR_PREFIX}{n}",
                             (_link_ensures(fn, program),)))
        for g in wrapper.dup_globals:
            tail.append(GlobalDecl(g, INT, None))
        tail.append(wrapper.fn)
        entries.append(ClauseArtifacts(clause, n, wrapper, ax,
                                       f"{LEMMA_PREFIX}{n}"))

    items: list = []
    items.extend(program.globals)
    items.extend(program.axiomatics)
    items.extend(axiomatics)
    for fn in program.functions:
        c = fn.contract
        items.append(FunctionDef(fn.name, fn.formals, fn.ret, fn.body,
                                 Contract(c.requires, c.assigns, c.ensures,
                                          c.behaviors + tuple(
                                              behaviors_by_fn.get(fn.name, ())),
                                          ())))
    items.extend(tail)

    result = Program(tuple(items))
    out_diags = [d for d in validate(result) if d.severity == "error"]
    if out_diags:
        raise TransformError(out_diags)
    return TransformedProgram(result, program, tuple(entries), acsl_symbols)
