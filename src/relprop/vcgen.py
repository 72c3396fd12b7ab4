"""Weakest-precondition verification conditions for transformed programs.

Statements are compiled backwards by substitution; pointer dereferences are
scalarized (each `*p` is the integer variable `p$cell`, sound under the
generated separation hypotheses and the no-aliasing restriction); loops use
the invariant rule with havoc renaming of modified variables; calls havoc
the callee's written state and assume its ensures clauses, including the
generated `_acsl` link behaviors, which is how relational lemmas become
usable in client proofs.

A VC's hypothesis environment carries the function's requires clauses and
the admitted relational lemmas, minus the VC's own clause lemma for wrapper
assertions (the lemma may never justify its own wrapper).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .minic import (
    INT, VOID,
    Program, FunctionDef,
    PredicateDecl, Lemma,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, IntLit, Var, Deref, Bin, At, CallPure,
    OldTerm, ResultTerm, LogicApp,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
    GlobalLoc, Span, walk,
)
from .logic import (
    TermF, Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FOr, FImp, FQuant, FApp,
    TRUE, conj, imp, subst, subst_term, rename, simplify,
    simplify_term, free_vars,
)
from .selfcomp import (
    TransformedProgram, ASSERT_LABEL, BEHAVIOR_PREFIX,
    acsl_symbol, footprint_locs, _tail_convert, _flag_convert,
)
from .validate import footprint_of

RESULT_VAR = "$ret"


class MissingLoopInvariant(Exception):
    pass


@dataclass(frozen=True)
class VerificationCondition:
    name: str                 # unique, used for .smt2 file names
    function: str
    assertion: str            # assert label, ensures id, or loop role
    kind: str                 # assert | wrapper-assert | ensures | lemma |
                              # loop-init | loop-preserve | call-requires
    goal: Form
    hypotheses: tuple[tuple[str, Form], ...]
    links: tuple[str, ...] = ()   # callees whose link ensures were assumed
    clause: Optional[str] = None  # owning relational clause, if any
    replayable: bool = False      # counterexample maps onto wrapper inputs
    span: Optional[Span] = field(default=None, compare=False)

    def hypothesis_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.hypotheses)


# ---------------------------------------------------------------------------
# Compiling surface predicates to formulas
# ---------------------------------------------------------------------------


def cell(name: str) -> str:
    return f"{name}$cell"


def pre_of(name: str) -> str:
    return f"{name}$pre"


StateEnv = dict[str, TermF]  # logic-variable name -> term


def _lookup(env: Optional[StateEnv], name: str, default: TermF) -> TermF:
    if env is not None and name in env:
        return env[name]
    return default


class CompileError(Exception):
    pass


def compile_term(t: Term, cur: Optional[StateEnv] = None,
                 pre: Optional[StateEnv] = None,
                 result: Optional[TermF] = None) -> TermF:
    """Compile a contract-level term. `cur` overrides current-state reads,
    `pre` overrides pre-state reads (defaulting to `name$pre` variables)."""
    if isinstance(t, IntLit):
        return ICon(t.value)
    if isinstance(t, Var):
        return _lookup(cur, t.name, IVar(t.name))
    if isinstance(t, Deref):
        return _lookup(cur, cell(t.name), IVar(cell(t.name)))
    if isinstance(t, Bin):
        return IOp(t.op, compile_term(t.left, cur, pre, result),
                   compile_term(t.right, cur, pre, result))
    if isinstance(t, OldTerm):
        pre_env = pre if pre is not None else {}
        return compile_term(t.term, _pre_as_cur(t.term, pre_env), pre, result)
    if isinstance(t, At):
        if t.label in ("Post", "Here"):
            return compile_term(t.base, cur, pre, result)
        if t.label in ("Pre", "Old"):
            if isinstance(t.base, Var):
                return _lookup(pre, t.base.name, IVar(pre_of(t.base.name)))
            if isinstance(t.base, Deref):
                return _lookup(pre, cell(t.base.name),
                               IVar(pre_of(cell(t.base.name))))
        raise CompileError(f"label {t.label} outside a relational clause")
    if isinstance(t, ResultTerm):
        if result is None:
            raise CompileError("\\result outside an ensures clause")
        return result
    if isinstance(t, LogicApp):
        return IApp(t.name, tuple(compile_term(a, cur, pre, result)
                                  for a in t.args))
    if isinstance(t, CallPure):
        return IApp(acsl_symbol(t.callee),
                    tuple(compile_term(a, cur, pre, result) for a in t.args))
    raise CompileError(f"cannot compile term {t!r}")


def _pre_as_cur(t: Term, pre: StateEnv) -> StateEnv:
    """Environment that makes current-state reads inside \\old resolve to the
    pre-state."""
    out: StateEnv = dict(pre)
    for n in walk(t):
        if isinstance(n, (Var, Deref)):
            name = n.name if isinstance(n, Var) else cell(n.name)
            out.setdefault(name, IVar(pre_of(name)))
    return out


LabelValue = Callable[[Term, str], TermF]  # (resolved base, label) -> value


def scalarize_predapp(p: PredApp, program: Program,
                      term_of: Callable[[Term], TermF],
                      label_value: LabelValue) -> FApp:
    """Compile a predicate application to its scalar form.

    Label-parameterized predicates lose their pointer arguments; instead,
    every location of the `reads` footprint contributes its value at each
    instance label, in declaration order with the earlier label first.
    """
    decl = program.logic_decls().get(p.name)
    if not isinstance(decl, PredicateDecl):
        raise CompileError(f"unknown predicate {p.name}")
    if not decl.labels:
        return FApp(p.name, tuple(term_of(a) for a in p.args))
    label_map = dict(zip(decl.labels, p.labels))
    args: list[TermF] = []
    by_param: dict[str, Term] = {}
    for param, arg in zip(decl.params, p.args):
        by_param[param.name] = arg
        if param.ty == INT:
            args.append(term_of(arg))
    bases: list[Term] = []
    for r in decl.reads:
        assert isinstance(r, At)
        if r.base not in bases:
            bases.append(r.base)
    for base in bases:
        if isinstance(base, Deref):
            inst = by_param.get(base.name)
            if not isinstance(inst, Var):
                raise CompileError(
                    f"{p.name}: pointer parameter {base.name} must be "
                    "instantiated with a pointer name")
            resolved: Term = Deref(inst.name)
        else:
            resolved = base
        for decl_label in decl.labels:
            args.append(label_value(resolved, label_map[decl_label]))
    return FApp(p.name, tuple(args))


def compile_pred(p: Pred, program: Program,
                 cur: Optional[StateEnv] = None,
                 pre: Optional[StateEnv] = None,
                 result: Optional[TermF] = None,
                 label_value: Optional[LabelValue] = None) -> Form:
    """Compile a contract-level predicate to a formula."""

    def term(t: Term) -> TermF:
        return compile_term(t, cur, pre, result)

    def default_label_value(base: Term, label: str) -> TermF:
        if label in ("Pre", "Old"):
            return compile_term(At(base, "Pre"), cur, pre, result)
        if label in ("Post", "Here"):
            return term(base)
        raise CompileError(f"label {label} outside a relational clause")

    lv = label_value or default_label_value

    if isinstance(p, PBool):
        return FBool(p.value)
    if isinstance(p, Cmp):
        return FCmp(p.op, term(p.left), term(p.right))
    if isinstance(p, PAnd):
        return conj([compile_pred(p.left, program, cur, pre, result, label_value),
                     compile_pred(p.right, program, cur, pre, result, label_value)])
    if isinstance(p, POr):
        return FOr((compile_pred(p.left, program, cur, pre, result, label_value),
                    compile_pred(p.right, program, cur, pre, result, label_value)))
    if isinstance(p, PImp):
        return FImp(compile_pred(p.left, program, cur, pre, result, label_value),
                    compile_pred(p.right, program, cur, pre, result, label_value))
    if isinstance(p, PNot):
        return FNot(compile_pred(p.body, program, cur, pre, result, label_value))
    if isinstance(p, (PForall, PExists)):
        kind = "forall" if isinstance(p, PForall) else "exists"
        names = tuple(b.name for b in p.binders)
        shadow_cur = dict(cur) if cur else {}
        for n in names:
            shadow_cur.pop(n, None)
        body = compile_pred(p.body, program, shadow_cur or None, pre, result,
                            label_value)
        return FQuant(kind, names, body)
    if isinstance(p, Separated):
        # Distinct scalarized cells are separated by construction.
        return TRUE
    if isinstance(p, PredApp):
        return scalarize_predapp(p, program, term, lv)
    raise CompileError(f"cannot compile predicate {p!r}")


def compile_lemma(lemma: Lemma, program: Program) -> Form:
    """Compile a generated lemma into a closed formula. Pointer binders
    disappear; their cells become `ptr$label` variables, quantified along
    with everything else."""
    body = lemma.body
    binder_order: list[str] = []
    if isinstance(body, PForall):
        binder_order = [b.name for b in body.binders if b.ty == INT]
        body = body.body

    def lv(base: Term, label: str) -> TermF:
        name = base.name if isinstance(base, (Var, Deref)) else None
        if name is None:
            raise CompileError("\\at expects a variable or dereference")
        return IVar(f"{name}${label}")

    def term(t: Term) -> TermF:
        if isinstance(t, At):
            return lv(t.base, t.label)
        if isinstance(t, Bin):
            return IOp(t.op, term(t.left), term(t.right))
        if isinstance(t, IntLit):
            return ICon(t.value)
        if isinstance(t, Var):
            return IVar(t.name)
        if isinstance(t, LogicApp):
            return IApp(t.name, tuple(term(a) for a in t.args))
        raise CompileError(f"cannot compile lemma term {t!r}")

    def walk(p: Pred) -> Form:
        if isinstance(p, PBool):
            return FBool(p.value)
        if isinstance(p, Cmp):
            return FCmp(p.op, term(p.left), term(p.right))
        if isinstance(p, PAnd):
            return conj([walk(p.left), walk(p.right)])
        if isinstance(p, POr):
            return FOr((walk(p.left), walk(p.right)))
        if isinstance(p, PImp):
            return FImp(walk(p.left), walk(p.right))
        if isinstance(p, PNot):
            return FNot(walk(p.body))
        if isinstance(p, (PForall, PExists)):
            kind = "forall" if isinstance(p, PForall) else "exists"
            return FQuant(kind, tuple(b.name for b in p.binders if b.ty == INT),
                          walk(p.body))
        if isinstance(p, Separated):
            return TRUE
        if isinstance(p, PredApp):
            return scalarize_predapp(p, program, term, lv)
        raise CompileError(f"cannot compile lemma predicate {p!r}")

    form = simplify(walk(body))
    extra = sorted(free_vars(form) - set(binder_order))
    allvars = tuple(v for v in binder_order + extra if v in free_vars(form))
    return FQuant("forall", allvars, form) if allvars else form


# ---------------------------------------------------------------------------
# Weakest preconditions
# ---------------------------------------------------------------------------


@dataclass
class _Item:
    kind: str
    label: str
    span: Optional[Span]
    form: Form
    links: set[str]


class _WP:
    """One backward pass over a (return-free) body, carrying the main goals
    and every obligation picked up along the way."""

    def __init__(self, fn: FunctionDef, program: Program):
        self.fn = fn
        self.program = program
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}$h{self.counter}"

    # -- modified variables (logic names) ------------------------------------

    def modified(self, stmts: tuple[Stmt, ...]) -> set[str]:
        out: set[str] = set()
        for s in walk(stmts):
            if isinstance(s, DeclStmt):
                out.add(s.name)
            elif isinstance(s, AssignStmt):
                if isinstance(s.target, Var):
                    out.add(s.target.name)
                else:
                    out.add(cell(s.target.name))
            elif isinstance(s, CallStmt):
                if s.target:
                    out.add(s.target)
                callee = self.program.function(s.callee)
                if callee is not None:
                    for loc in footprint_of(callee, self.program).writes:
                        if isinstance(loc, GlobalLoc):
                            out.add(loc.name)
        return out

    # -- substitution fast path for branch merging ----------------------------

    def subst_map(self, stmts: tuple[Stmt, ...],
                  env: dict[str, TermF]) -> Optional[dict[str, TermF]]:
        env = dict(env)
        for s in stmts:
            if isinstance(s, DeclStmt):
                env[s.name] = subst_term(compile_term(s.init), env) \
                    if s.init is not None else ICon(0)
            elif isinstance(s, AssignStmt):
                value = subst_term(compile_term(s.value), env)
                name = s.target.name if isinstance(s.target, Var) \
                    else cell(s.target.name)
                env[name] = value
            elif isinstance(s, IfStmt):
                c = simplify(subst(compile_pred(s.cond, self.program), env))
                then_env = self.subst_map(s.then, env)
                else_env = self.subst_map(s.orelse, env)
                if then_env is None or else_env is None:
                    return None
                merged = dict(env)
                for name in set(then_env) | set(else_env):
                    base = env.get(name, IVar(name))
                    a = then_env.get(name, base)
                    b = else_env.get(name, base)
                    merged[name] = a if a is b or a == b else \
                        simplify_term(IIte(c, a, b))
                env = merged
            else:
                return None
        return env

    # -- statement rules -------------------------------------------------------

    def wp_seq(self, stmts: tuple[Stmt, ...],
               items: list[_Item]) -> list[_Item]:
        """Transform items backwards through `stmts`.

        The result extends `items` positionally: the first len(items)
        entries are the incoming goals pulled back to the sequence entry,
        and obligations discovered inside (assertions, loop conditions, call
        preconditions) are appended, also expressed at the entry point.
        """
        for s in reversed(stmts):
            items = self.wp_stmt(s, items)
        return items

    def wp_stmt(self, s: Stmt, items: list[_Item]) -> list[_Item]:
        if isinstance(s, DeclStmt):
            # Locals without an initializer start at zero, as in the
            # interpreter.
            init = compile_term(s.init) if s.init is not None else ICon(0)
            return self._subst_all(items, {s.name: init})
        if isinstance(s, AssignStmt):
            e = compile_term(s.value)
            name = s.target.name if isinstance(s.target, Var) \
                else cell(s.target.name)
            return self._subst_all(items, {name: e})
        if isinstance(s, AssertStmt):
            p = compile_pred(s.pred, self.program)
            label = s.label or "assert"
            kind = "wrapper-assert" if s.label == ASSERT_LABEL else "assert"
            out = [replace(it, form=imp(p, it.form), links=set(it.links))
                   for it in items]
            out.append(_Item(kind, label, s.span, p, set()))
            return out
        if isinstance(s, IfStmt):
            merged_env = self.subst_map((s,), {})
            if merged_env is not None:
                return self._subst_all(items, merged_env)
            c = compile_pred(s.cond, self.program)
            n = len(items)
            then_items = self.wp_seq(s.then, _copy_items(items))
            else_items = self.wp_seq(s.orelse, _copy_items(items))
            out: list[_Item] = []
            for base, a, b in zip(items, then_items[:n], else_items[:n]):
                out.append(replace(base,
                                   form=conj([imp(c, a.form),
                                              imp(FNot(c), b.form)]),
                                   links=a.links | b.links))
            out.extend(replace(o, form=imp(c, o.form)) for o in then_items[n:])
            out.extend(replace(o, form=imp(FNot(c), o.form))
                       for o in else_items[n:])
            return out
        if isinstance(s, WhileStmt):
            return self._wp_while(s, items)
        if isinstance(s, CallStmt):
            return self._wp_call(s, items)
        if isinstance(s, ReturnStmt):
            raise AssertionError("returns are eliminated before wp")
        raise TypeError(f"unknown statement {s!r}")

    def _subst_all(self, items: list[_Item],
                   env: dict[str, TermF]) -> list[_Item]:
        return [replace(it, form=subst(it.form, env), links=set(it.links))
                for it in items]

    def _wp_while(self, s: WhileStmt, items: list[_Item]) -> list[_Item]:
        if s.invariant is None:
            raise MissingLoopInvariant(
                f"{self.fn.name}: while loop needs a loop invariant")
        inv = compile_pred(s.invariant, self.program)
        cond = compile_pred(s.cond, self.program)
        havoc = {m: self.fresh(m) for m in sorted(self.modified(s.body))}

        # Anything to prove after the loop holds in an arbitrary exit state.
        out = [replace(it,
                       form=rename(imp(conj([inv, FNot(cond)]), it.form), havoc),
                       links=set(it.links))
               for it in items]
        # Preservation plus everything to prove inside the body, in an
        # arbitrary iteration state.
        body_items = self.wp_seq(
            s.body, [_Item("loop-preserve", "loop_preserve", s.span, inv, set())])
        for o in body_items:
            out.append(replace(o,
                               form=rename(imp(conj([inv, cond]), o.form), havoc),
                               links=set(o.links)))
        # Initiation keeps flowing back to the function entry.
        out.append(_Item("loop-init", "loop_init", s.span, inv, set()))
        return out

    def _wp_call(self, s: CallStmt, items: list[_Item]) -> list[_Item]:
        callee = self.program.function(s.callee)
        args = [compile_term(a) for a in s.args]
        if callee is None:
            # Application of a declared logic function: pure, no havoc.
            if s.target is None:
                return items
            return self._subst_all(items, {s.target: IApp(s.callee, tuple(args))})

        formal_env: StateEnv = {p.name: a for p, a in zip(callee.formals, args)}
        fp = footprint_of(callee, self.program)
        writes = [loc.name for loc in footprint_locs(callee, self.program)
                  if isinstance(loc, GlobalLoc) and loc in fp.writes]

        fresh_vars: list[str] = []
        havoc_env: dict[str, TermF] = {}
        post_env: StateEnv = dict(formal_env)
        result_term: Optional[TermF] = None
        if s.target is not None:
            r = self.fresh(s.target)
            fresh_vars.append(r)
            havoc_env[s.target] = IVar(r)
            result_term = IVar(r)
        for g in writes:
            gv = self.fresh(g)
            fresh_vars.append(gv)
            havoc_env[g] = IVar(gv)
            post_env[g] = IVar(gv)
        # The callee's pre-state is the current point; globals keep their
        # names, formals denote the argument terms.
        pre_env: StateEnv = dict(formal_env)
        for loc in fp.writes | fp.reads:
            if isinstance(loc, GlobalLoc):
                pre_env.setdefault(loc.name, IVar(loc.name))

        ens: list[Form] = []
        link_used = False
        for p in callee.contract.ensures:
            ens.append(compile_pred(p, self.program, post_env, pre_env,
                                    result_term))
        for b in callee.contract.behaviors:
            for p in b.ensures:
                ens.append(compile_pred(p, self.program, post_env, pre_env,
                                        result_term))
                if b.name.startswith(BEHAVIOR_PREFIX):
                    link_used = True
        ens_form = conj(ens)

        out: list[_Item] = []
        for it in items:
            form = subst(it.form, havoc_env)
            form = imp(ens_form, form)
            if fresh_vars:
                form = simplify(FQuant("forall", tuple(fresh_vars), form))
            links = set(it.links)
            if link_used:
                links.add(s.callee)
            out.append(replace(it, form=form, links=links))

        reqs = [compile_pred(p, self.program, formal_env, formal_env)
                for p in callee.contract.requires]
        if reqs:
            out.append(_Item("call-requires", f"requires_of_{s.callee}",
                             s.span, conj(reqs), set()))
        return out


def _copy_items(items: list[_Item]) -> list[_Item]:
    return [replace(it, links=set(it.links)) for it in items]


def _strip_pre_suffix(form: Form) -> Form:
    """At function entry the `$pre` snapshots coincide with the variables
    themselves."""
    mapping = {}
    for v in free_vars(form):
        if v.endswith("$pre"):
            mapping[v] = v[:-len("$pre")]
    return rename(form, mapping) if mapping else form


def wp(stmt, post: Form, fn: Optional[FunctionDef] = None,
       program: Optional[Program] = None) -> Form:
    """Weakest precondition of a statement (or statement sequence) against a
    postcondition, folding loop obligations into one conjunction."""
    program = program or Program(())
    fn = fn or FunctionDef("$wp", (), VOID, ())
    stmts = tuple(stmt) if isinstance(stmt, (list, tuple)) else (stmt,)
    engine = _WP(fn, program)
    items = engine.wp_seq(stmts, [_Item("goal", "post", None, post, set())])
    return conj([it.form for it in items])


# ---------------------------------------------------------------------------
# VC assembly
# ---------------------------------------------------------------------------


def _function_items(fn: FunctionDef, program: Program) -> list[_Item]:
    """Exit goals of a function: its user-written ensures clauses. Generated
    link behaviors are definitional (they define the `_acsl` mirror) and get
    no goal."""
    items: list[_Item] = []
    result = IVar(RESULT_VAR) if fn.ret == INT else None
    for i, p in enumerate(fn.contract.ensures, 1):
        items.append(_Item("ensures", f"ensures_{i}", p.span,
                           compile_pred(p, program, None, None, result), set()))
    for b in fn.contract.behaviors:
        if b.name.startswith(BEHAVIOR_PREFIX):
            continue
        for i, p in enumerate(b.ensures, 1):
            items.append(_Item("ensures", f"{b.name}_ensures_{i}", p.span,
                               compile_pred(p, program, None, None, result),
                               set()))
    return items


def function_vcs(fn: FunctionDef, program: Program) -> list[_Item]:
    """All proof obligations of one function, expressed at entry (before
    requires hypotheses are attached)."""
    engine = _WP(fn, program)
    body = _tail_convert(list(fn.body), RESULT_VAR)
    if body is None:
        body = _flag_convert(list(fn.body), RESULT_VAR, "$done")
    items = _function_items(fn, program)
    out = engine.wp_seq(tuple(body), items)
    for it in out:
        it.form = simplify(_strip_pre_suffix(it.form))
    return out


def vcs_for(transformed: TransformedProgram,
            admitted: frozenset[str]) -> list[VerificationCondition]:
    """Verification conditions of a transformed program.

    `admitted` names the relational lemmas allowed into hypothesis
    environments, which list them in sorted order after the requires
    clauses. A wrapper assertion never sees the lemma of its own clause.
    """
    program = transformed.program
    lemma_forms: dict[str, Form] = {}
    for ax in program.axiomatics:
        for lem in ax.lemmas():
            lemma_forms[lem.name] = compile_lemma(lem, program)
    admitted_set = set(admitted) & set(lemma_forms)

    wrapper_names = {e.wrapper.fn.name: e for e in transformed.entries}

    out: list[VerificationCondition] = []
    used_names: set[str] = set()

    def unique(base: str) -> str:
        name = base
        k = 2
        while name in used_names:
            name = f"{base}_{k}"
            k += 1
        used_names.add(name)
        return name

    for fn in program.functions:
        requires = [("requires_%d" % i,
                     simplify(compile_pred(p, program, None, None)))
                    for i, p in enumerate(fn.contract.requires, 1)]
        requires = [(n, f) for n, f in requires if f != TRUE]
        entry = wrapper_names.get(fn.name)
        clause = entry.clause.name if entry is not None else None
        own_lemma = entry.lemma_name if entry is not None else None
        for item in function_vcs(fn, program):
            # a lemma cannot justify its own wrapper
            hyps = requires + [(n, lemma_forms[n]) for n in sorted(admitted_set)
                               if item.kind != "wrapper-assert" or n != own_lemma]
            replayable = False
            if item.kind == "wrapper-assert" and entry is not None:
                slots = set(entry.wrapper.binder_params)
                slots |= set(entry.wrapper.dup_globals)
                slots |= {cell(p) for p in entry.wrapper.pointer_params}
                replayable = free_vars(item.form) <= slots
            out.append(VerificationCondition(
                name=unique(f"{fn.name}__{item.label}"), function=fn.name,
                assertion=item.label, kind=item.kind, goal=item.form,
                hypotheses=tuple(hyps), links=tuple(sorted(item.links)),
                clause=clause, replayable=replayable, span=item.span))

    # Lemma VCs: the goal restates the property over the `_acsl` mirrors.
    # Their proof reduces to the wrapper assertion plus the link behaviors,
    # so provers report them through their wrapper's status.
    for e in transformed.entries:
        out.append(VerificationCondition(
            name=unique(f"lemma__{e.lemma_name}"), function=e.wrapper.fn.name,
            assertion=e.lemma_name, kind="lemma", goal=lemma_forms[e.lemma_name],
            hypotheses=(), links=tuple(sorted(transformed.acsl_symbols)),
            clause=e.clause.name))
    return out
