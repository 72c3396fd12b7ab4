"""Weakest-precondition verification conditions for transformed programs.

One forward pass over each (return-free) body computes them, in the style
of Flanagan & Saxe (POPL 2001) and Leino (IPL 2005). The pass keeps a
state, mapping each variable to its value as a term over the entry values
(assignments update it; after an `if`, each variable both branches left
alone keeps its term and every other one becomes `ite(c, then, else)`), and
a path of *frames*. A frame is an assumption plus the fresh `$h` names it
introduces: an assertion, once checked, is a frame, and so is a call, which
havocs the callee's written state under fresh names and assumes its ensures
clauses, including the generated `_acsl` link behaviors (this is how
relational lemmas become usable in client proofs). The frames a branch adds
become one frame after the `if`, `(c ==> A_then) && (!c ==> A_else)` over
both branches' fresh names, except that a fresh name a branch fixes as
`v == t` is replaced by `t`. Loops use the invariant rule: the modified
variables get fresh names that stay free, the body runs under
`inv && cond`, and the code after the loop under `inv && !cond`. Terms are
shared, not copied, so a VC's dag, and its SMT text, grow linearly with
the body.

Each obligation met on the way (an assertion, a callee's requires, a
loop's initiation and preservation) holds under the frames on its path:
`A ==> goal`, and `forall fresh. A ==> goal` simplified at a frame with
fresh names, so the one-point rule removes the names that ensures pin
down. The obligations of one function are one `ObligationSet`: the frames
once, each simplified into a `SharedFrame`, and each obligation as its
innermost frame plus its local goal, so a body with k asserts costs work
linear in k, not k closed goals of O(k) nodes. A frame with fresh names is
a closure boundary: an obligation under it is closed over it, and over the
frames inside it, as above. A `VerificationCondition` is a view of one
obligation, and its closed `goal` (the chain `F1 ==> (... (Fn ==> local))`
that closing and simplifying would give) is built only when asked for.
Pointer dereferences are scalarized (each `*p` is the integer variable
`p$cell`, sound under the generated separation hypotheses and the
no-aliasing restriction).

Contracts compile once, independently of any state, over canonical names
(see `compile_term`). A call binds its callee's requires and ensures with the
capture-avoiding `subst` the pass uses for assignments: formals go to the
argument terms, pre-state names to the call point, the result and the
written globals to fresh names; then the caller's state applies.

A VC's hypothesis environment carries the function's requires clauses and
the admitted relational lemmas, minus the VC's own clause lemma for wrapper
assertions (the lemma may never justify its own wrapper).
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from .frozen import Frozen
from .minic import (
    INT, VOID,
    Program, FunctionDef,
    Lemma,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, IntLit, Var, Deref, Bin, At, CallPure,
    OldTerm, ResultTerm, LogicApp,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
    GlobalLoc, Span, statements,
)
from .logic import (
    TermF, Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FOr, FImp, FQuant, FApp,
    TRUE, FALSE, conj, imp, subst, rename, simplify,
    simplify_term, free_vars, symbols, has_quantifier, point, dag_walk,
)
from .selfcomp import (
    TransformedProgram, ASSERT_LABEL, BEHAVIOR_PREFIX,
    acsl_symbol, footprint_locs, lower_returns,
)
from .validate import footprint_of

RESULT_VAR = "$ret"


class MissingLoopInvariant(Exception):
    pass


class VerificationCondition(Frozen):
    name: str                 # unique, used for .smt2 file names
    function: str
    assertion: str            # assert label, ensures id, or loop role
    kind: str                 # assert | wrapper-assert | ensures | lemma |
                              # loop-init | loop-preserve | call-requires
    obligation: "Obligation"  # a bare goal formula is an obligation alone
    hypotheses: tuple[tuple[str, Form], ...]
    links: tuple[str, ...] = ()   # callees whose link ensures were assumed
    clause: Optional[str] = None  # owning relational clause, if any
    replayable: bool = False      # counterexample maps onto wrapper inputs
    span: Optional[Span] = field(default=None, compare=False)

    def __init__(self, *args, **kwargs):
        Frozen.__init__(self, *args, **kwargs)
        if not isinstance(self.obligation, Obligation):
            object.__setattr__(self, "obligation",
                               Obligation(None, self.obligation))

    @property
    def goal(self) -> Form:
        """The closed goal, built on first use."""
        return self.obligation.goal

    def hypothesis_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.hypotheses)


# ---------------------------------------------------------------------------
# Compiling surface predicates to formulas
# ---------------------------------------------------------------------------


def cell(name: str) -> str:
    return f"{name}$cell"


def pre_of(name: str) -> str:
    return f"{name}$pre"


def _target(t: Term) -> str:
    return t.name if isinstance(t, Var) else cell(t.name)


StateEnv = dict[str, TermF]  # logic-variable name -> term


def compile_term(t: Term, bound: frozenset[str] = frozenset()) -> TermF:
    """Compile a contract-level term over canonical names: `x` and `p$cell`
    for the current state, `x$pre` for `\\old` and `\\at(·, Pre|Old)`,
    `$ret` for `\\result`, and `x$L` (`p$L` for `*p`) at any other label L.
    The logic binders in `bound` have no state: under `\\old` or `\\at` they
    stay themselves. A call binds these names with `subst`."""
    return _compile_term(t, "", bound)


def _compile_term(t: Term, suffix: str, bound: frozenset[str]) -> TermF:
    """`t` with its state names suffixed by `suffix`: "" for the current
    state, `$pre` inside `\\old`."""
    if isinstance(t, IntLit):
        return ICon(t.value)
    if isinstance(t, Var) and t.name in bound:
        return IVar(t.name)
    if isinstance(t, (Var, Deref)):
        return IVar(_target(t) + suffix)
    if isinstance(t, Bin):
        return IOp(t.op, _compile_term(t.left, suffix, bound),
                   _compile_term(t.right, suffix, bound))
    if isinstance(t, OldTerm):
        return _compile_term(t.term, "$pre", bound)
    if isinstance(t, At):
        if t.label in ("Post", "Here"):
            return _compile_term(t.base, suffix, bound)
        if t.label in ("Pre", "Old"):
            return _compile_term(t.base, "$pre", bound)
        if isinstance(t.base, Var) and t.base.name in bound:
            return IVar(t.base.name)
        return IVar(f"{t.base.name}${t.label}")
    if isinstance(t, ResultTerm):
        return IVar(RESULT_VAR)
    if isinstance(t, LogicApp):
        return IApp(t.name, tuple(_compile_term(a, suffix, bound)
                                  for a in t.args))
    if isinstance(t, CallPure):
        return IApp(acsl_symbol(t.callee),
                    tuple(_compile_term(a, suffix, bound) for a in t.args))
    raise TypeError(f"cannot compile term {t!r}")


def scalarize_predapp(p: PredApp, program: Program,
                      bound: frozenset[str] = frozenset()) -> FApp:
    """Compile a predicate application to its scalar form.

    Label-parameterized predicates lose their pointer arguments; instead,
    every location of the `reads` footprint contributes its value at each
    instance label, in declaration order with the earlier label first.
    """
    decl = program.logic_decls()[p.name]
    if not decl.labels:
        return FApp(p.name, tuple(compile_term(a, bound) for a in p.args))
    label_map = dict(zip(decl.labels, p.labels))
    args: list[TermF] = []
    by_param: dict[str, Term] = {}
    for param, arg in zip(decl.params, p.args):
        by_param[param.name] = arg
        if param.ty == INT:
            args.append(compile_term(arg, bound))
    bases: list[Term] = []
    for r in decl.reads:  # each an \at, as validated
        if r.base not in bases:
            bases.append(r.base)
    for base in bases:
        # A pointer parameter is instantiated with a pointer name.
        resolved = Deref(by_param[base.name].name) \
            if isinstance(base, Deref) else base
        for decl_label in decl.labels:
            args.append(compile_term(At(resolved, label_map[decl_label])))
    return FApp(p.name, tuple(args))


def compile_pred(p: Pred, program: Program,
                 bound: frozenset[str] = frozenset()) -> Form:
    """Compile a contract-level predicate to a formula over the canonical
    names of `compile_term`; `bound` holds the enclosing quantifiers' int
    binders. Quantifiers bind their int binders; pointer binders have no
    scalar value."""

    def pred(q: Pred) -> Form:
        return compile_pred(q, program, bound)

    if isinstance(p, PBool):
        return FBool(p.value)
    if isinstance(p, Cmp):
        return FCmp(p.op, compile_term(p.left, bound),
                    compile_term(p.right, bound))
    if isinstance(p, PAnd):
        return conj([pred(p.left), pred(p.right)])
    if isinstance(p, POr):
        return FOr((pred(p.left), pred(p.right)))
    if isinstance(p, PImp):
        return FImp(pred(p.left), pred(p.right))
    if isinstance(p, PNot):
        return FNot(pred(p.body))
    if isinstance(p, (PForall, PExists)):
        kind = "forall" if isinstance(p, PForall) else "exists"
        names = tuple(b.name for b in p.binders if b.ty == INT)
        return FQuant(kind, names,
                      compile_pred(p.body, program, bound | set(names)))
    if isinstance(p, Separated):
        # Distinct scalarized cells are separated by construction.
        return TRUE
    if isinstance(p, PredApp):
        return scalarize_predapp(p, program, bound)
    raise TypeError(f"cannot compile predicate {p!r}")


def compile_lemma(lemma: Lemma, program: Program) -> Form:
    """Compile a generated lemma into a closed formula. Pointer binders
    disappear; their cells become `ptr$label` variables, quantified along
    with everything else: int binders first, then the rest sorted."""
    body = lemma.body
    binder_order: list[str] = []
    if isinstance(body, PForall):
        binder_order = [b.name for b in body.binders if b.ty == INT]
        body = body.body

    form = simplify(compile_pred(body, program))
    free = free_vars(form)
    extra = sorted(free - set(binder_order))
    allvars = tuple(v for v in binder_order + extra if v in free)
    return FQuant("forall", allvars, form) if allvars else form


# ---------------------------------------------------------------------------
# Weakest preconditions: one forward pass
# ---------------------------------------------------------------------------


class _Item(Frozen):
    kind: str
    label: str
    span: Optional[Span]
    form: Form                # the goal where it is met
    path: Optional["_Frame"]  # the frames assumed there


class _Frame(Frozen, eq=False):
    """One assumption on the path to a program point, innermost first:
    `assume` holds for every value of the `fresh` names it introduces, and
    `links` names the callees whose link ensures it contains. `path_links`
    holds the links of every frame on the path, and `binder` is its
    outermost frame with fresh names, if any."""
    assume: Form
    fresh: tuple[str, ...] = ()
    links: frozenset[str] = frozenset()
    outer: Optional["_Frame"] = None
    path_links: frozenset[str] = field(init=False, repr=False)
    binder: Optional["_Frame"] = field(init=False, repr=False)

    def __init__(self, assume: Form, fresh: tuple[str, ...] = (),
                 links: frozenset[str] = frozenset(),
                 outer: Optional[_Frame] = None):
        inherited = outer.path_links if outer is not None else frozenset()
        binder = outer.binder if outer is not None else None
        set_ = object.__setattr__
        set_(self, "assume", assume)
        set_(self, "fresh", fresh)
        set_(self, "links", links)
        set_(self, "outer", outer)
        set_(self, "path_links",
             inherited if links <= inherited else inherited | links)
        set_(self, "binder", binder or (self if fresh else None))


def _close(path: Optional[_Frame], form: Form,
           stop: Optional[_Frame] = None) -> Form:
    """`form` under every frame of `path` out to `stop`, exclusive."""
    while path is not stop:
        form = imp(path.assume, form)
        if path.fresh:
            form = simplify(FQuant("forall", path.fresh, form))
        path = path.outer
    return form


def _frames_since(path: Optional[_Frame], stop: _Frame) -> list[_Frame]:
    out = []
    while path is not stop:
        out.append(path)
        path = path.outer
    return out[::-1]


def _pin(frames: list[_Frame]) -> tuple[StateEnv, list[_Frame]]:
    """The one-point rule over the frames one branch added: a fresh name
    that a frame's assumption fixes as `v == t` becomes `t` there and in
    every later frame, and is no longer fresh. Returns the replacements,
    for the branch's state, and the frames. Sound after the merge because a
    branch's fresh names occur only under its guard."""
    pinned: StateEnv = {}
    out = []
    for f in frames:
        assume, fresh = subst(f.assume, pinned), list(f.fresh)
        while (eq := point(fresh, assume)) is not None:
            v, t, rest = eq
            pinned = {k: subst(x, {v: t}) for k, x in pinned.items()}
            pinned[v] = t
            fresh.remove(v)
            assume = simplify(subst(rest, {v: t}))
        out.append(_Frame(assume, tuple(fresh), f.links))
    return pinned, out


class _Forward:
    """One forward pass over a (return-free) body. The state maps each
    variable to its value as a term over entry values and fresh names; the
    path is the chain of frames assumed so far. Each obligation is closed
    over its path where it is met."""

    def __init__(self, fn: FunctionDef, program: Program):
        self.fn = fn
        self.program = program
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}$h{self.counter}"

    def modified(self, stmts: tuple[Stmt, ...]) -> set[str]:
        """Logic names a statement sequence may write."""
        out: set[str] = set()
        for s in statements(stmts):
            if isinstance(s, DeclStmt):
                out.add(s.name)
            elif isinstance(s, AssignStmt):
                out.add(_target(s.target))
            elif isinstance(s, CallStmt):
                if s.target:
                    out.add(s.target)
                callee = self.program.function(s.callee)
                if callee is not None:
                    for loc in footprint_of(callee, self.program).writes:
                        if isinstance(loc, GlobalLoc):
                            out.add(loc.name)
        return out

    def run(self, stmts: tuple[Stmt, ...], state: StateEnv,
            path: Optional[_Frame]) -> tuple[Optional[_Frame], list[_Item]]:
        """Run `stmts` from `state`, which it updates, under `path`. Returns
        the final path and the obligations met: the last statement's first,
        as a backward pass would list them."""
        found: list[list[_Item]] = []
        for s in stmts:
            path, items = self.step(s, state, path)
            found.append(items)
        return path, [it for items in reversed(found) for it in items]

    def step(self, s: Stmt, state: StateEnv, path: Optional[_Frame]
             ) -> tuple[Optional[_Frame], list[_Item]]:
        if isinstance(s, DeclStmt):
            # Locals without an initializer start at zero, as in the
            # interpreter.
            state[s.name] = subst(compile_term(s.init), state) \
                if s.init is not None else ICon(0)
        elif isinstance(s, AssignStmt):
            state[_target(s.target)] = subst(compile_term(s.value), state)
        elif isinstance(s, AssertStmt):
            p = subst(compile_pred(s.pred, self.program), state)
            kind = "wrapper-assert" if s.label == ASSERT_LABEL else "assert"
            return _Frame(p, outer=path), [
                _Item(kind, s.label or "assert", s.span, p, path)]
        elif isinstance(s, IfStmt):
            return self._if(s, state, path)
        elif isinstance(s, WhileStmt):
            return self._while(s, state, path)
        elif isinstance(s, CallStmt):
            return self._call(s, state, path)
        elif isinstance(s, ReturnStmt):
            raise AssertionError("returns are eliminated before wp")
        else:
            raise TypeError(f"unknown statement {s!r}")
        return path, []

    def _if(self, s: IfStmt, state: StateEnv, path: Optional[_Frame]
            ) -> tuple[Optional[_Frame], list[_Item]]:
        c = simplify(subst(compile_pred(s.cond, self.program), state))
        then_guard = _Frame(c, outer=path)
        else_guard = _Frame(FNot(c), outer=path)
        then_state, else_state = dict(state), dict(state)
        then_path, then_items = self.run(s.then, then_state, then_guard)
        else_path, else_items = self.run(s.orelse, else_state, else_guard)
        # What each branch assumed becomes one frame, guarded by its side.
        then_pins, then_frames = _pin(_frames_since(then_path, then_guard))
        else_pins, else_frames = _pin(_frames_since(else_path, else_guard))
        for name in then_state | else_state:
            base = state.get(name, IVar(name))
            a = then_state.get(name, base)
            b = else_state.get(name, base)
            if a is not base or b is not base:
                a, b = subst(a, then_pins), subst(b, else_pins)
                state[name] = a if a is b else \
                    simplify_term(IIte(c, a, b))
        frames = then_frames + else_frames
        if frames:
            path = _Frame(
                conj([imp(c, conj([f.assume for f in then_frames])),
                      imp(FNot(c), conj([f.assume for f in else_frames]))]),
                tuple(v for f in frames for v in f.fresh),
                frozenset().union(*(f.links for f in frames)), path)
        return path, then_items + else_items

    def _while(self, s: WhileStmt, state: StateEnv, path: Optional[_Frame]
               ) -> tuple[Optional[_Frame], list[_Item]]:
        if s.invariant is None:
            raise MissingLoopInvariant(
                f"{self.fn.name}: while loop needs a loop invariant")
        inv = compile_pred(s.invariant, self.program)
        cond = compile_pred(s.cond, self.program)
        # Initiation holds on entry; the loop then runs from an arbitrary
        # state where the modified variables carry fresh names, left free.
        init = _Item("loop-init", "loop_init", s.span, subst(inv, state),
                     path)
        for m in sorted(self.modified(s.body)):
            state[m] = IVar(self.fresh(m))
        body_state = dict(state)
        body_path, body_items = self.run(
            s.body, body_state, _Frame(subst(conj([inv, cond]), state),
                                       outer=path))
        preserve = _Item("loop-preserve", "loop_preserve", s.span,
                         subst(inv, body_state), body_path)
        exit_frame = _Frame(subst(conj([inv, FNot(cond)]), state), outer=path)
        return exit_frame, [preserve] + body_items + [init]

    def _call(self, s: CallStmt, state: StateEnv, path: Optional[_Frame]
              ) -> tuple[Optional[_Frame], list[_Item]]:
        callee = self.program.function(s.callee)
        args = [compile_term(a) for a in s.args]
        if callee is None:
            # Application of a declared logic function: pure, no havoc.
            if s.target is not None:
                state[s.target] = subst(IApp(s.callee, tuple(args)), state)
            return path, []

        # The callee's pre-state is the call point: formals denote the
        # argument terms, globals keep their names.
        pre: StateEnv = {}
        for p, a in zip(callee.formals, args):
            pre[p.name] = pre[pre_of(p.name)] = a
        fp = footprint_of(callee, self.program)
        for loc in fp.writes | fp.reads:
            if isinstance(loc, GlobalLoc):
                pre[pre_of(loc.name)] = IVar(loc.name)
        # After the call, the result and the written globals are fresh.
        post: StateEnv = dict(pre)
        havoc: StateEnv = {}
        fresh_vars: list[str] = []
        if callee.ret == INT:
            post[RESULT_VAR] = IVar(self.fresh(s.target or RESULT_VAR))
            fresh_vars.append(post[RESULT_VAR].name)
            if s.target is not None:
                havoc[s.target] = post[RESULT_VAR]
        for loc in footprint_locs(callee, self.program):
            if isinstance(loc, GlobalLoc) and loc in fp.writes:
                post[loc.name] = havoc[loc.name] = IVar(self.fresh(loc.name))
                fresh_vars.append(post[loc.name].name)

        ens: list[Form] = []
        link_used = False
        for p in callee.contract.ensures:
            ens.append(compile_pred(p, self.program))
        for b in callee.contract.behaviors:
            for p in b.ensures:
                ens.append(compile_pred(p, self.program))
                if b.name.startswith(BEHAVIOR_PREFIX):
                    link_used = True

        items = []
        reqs = [compile_pred(p, self.program) for p in callee.contract.requires]
        if reqs:
            items.append(_Item(
                "call-requires", f"requires_of_{s.callee}", s.span,
                subst(subst(conj(reqs), pre), state), path))
        frame = _Frame(subst(subst(conj(ens), post), state), tuple(fresh_vars),
                       frozenset({s.callee} if link_used else ()), path)
        state.update(havoc)
        return frame, items


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
    state: StateEnv = {}
    path, items = _Forward(fn, program).run(stmts, state, None)
    return conj([_close(path, subst(post, state))]
                + [_close(it.path, it.form) for it in items])


# ---------------------------------------------------------------------------
# VC assembly
# ---------------------------------------------------------------------------


def _function_items(fn: FunctionDef, program: Program, state: StateEnv,
                    path: Optional[_Frame]) -> list[_Item]:
    """Exit goals of a function: its user-written ensures clauses, met in
    the exit `state` under `path`. Generated link behaviors are
    definitional (they define the `_acsl` mirror) and get no goal."""
    clauses = [(f"ensures_{i}", p) for i, p in enumerate(fn.contract.ensures, 1)]
    clauses += [(f"{b.name}_ensures_{i}", p) for b in fn.contract.behaviors
                if not b.name.startswith(BEHAVIOR_PREFIX)
                for i, p in enumerate(b.ensures, 1)]
    return [_Item("ensures", label, p.span,
                  subst(compile_pred(p, program), state), path)
            for label, p in clauses]


class SharedFrame:
    """A frame as the obligations under it assume it: simplified, `$pre`
    names stripped, never `true`. `outer` is the next such frame out, and
    `depth` counts the frames on the path, this one included. The path's
    free variables, symbols and quantifier flag are kept, so asking about
    a path costs one frame, not its length."""

    __slots__ = ("form", "outer", "depth", "free", "symbols", "quantified",
                 "regular")

    def __init__(self, form: Form, outer: Optional["SharedFrame"]):
        self.form, self.outer = form, outer
        free, syms = free_vars(form), symbols(form)
        self.quantified = has_quantifier(form)
        self.depth = 1
        # The closed goal is the chain `F1 ==> (F2 ==> ... local)` exactly
        # when no frame is `false`, each is already simplified, and none
        # is `G ==> ...` with G the next frame in, which `simplify` would
        # fold to `true`.
        self.regular = form is not FALSE and simplify(form) is form
        if outer is not None:
            self.depth += outer.depth
            free = outer.free if free <= outer.free else outer.free | free
            if not syms.items() <= outer.symbols.items():
                syms = {**outer.symbols, **syms}
            else:
                syms = outer.symbols
            self.quantified = self.quantified or outer.quantified
            self.regular = self.regular and outer.regular and not (
                isinstance(outer.form, FImp) and outer.form.hyp is form)
        self.free, self.symbols = free, syms

    def path(self) -> list["SharedFrame"]:
        """The frames on the path, outermost first."""
        out, f = [], self
        while f is not None:
            out.append(f)
            f = f.outer
        return out[::-1]


class Obligation:
    """One proof obligation: `local` under every frame on the path that
    ends at `frame`. Its goal is `F1 ==> (F2 ==> ... (Fn ==> local))`, the
    formula that closing `local` over the path and simplifying would give;
    it is built on first use. An obligation with `frame` None has nothing
    to share: `local` is its whole goal."""

    def __init__(self, frame: Optional[SharedFrame], local: Form,
                 kind: str = "assert", label: str = "assert",
                 span: Optional[Span] = None,
                 links: frozenset[str] = frozenset(),
                 owner: Optional["ObligationSet"] = None):
        self.frame, self.local = frame, local
        self.kind, self.label, self.span, self.links = kind, label, span, links
        self.owner = owner
        self._goal: Optional[Form] = None if frame is not None else local

    @property
    def goal(self) -> Form:
        if self._goal is None:
            self._goal = _fold(self.frame, self.local)
        return self._goal

    def free_vars(self) -> frozenset[str]:
        free = free_vars(self.local)
        return free if self.frame is None else self.frame.free | free


def _fold(frame: Optional[SharedFrame], local: Form) -> Form:
    """`local` under each frame out from `frame`, as `simplify` rewrites
    `F ==> G` when F and G are simplified."""
    goal = local
    while frame is not None:
        hyp = frame.form
        goal = TRUE if hyp is FALSE or goal is TRUE or hyp is goal \
            else FImp(hyp, goal)
        frame = frame.outer
    return goal


class ObligationSet:
    """The proof obligations of one function over its shared frames.

    The forward pass meets each obligation with the chain of frames
    assumed on its path, and the obligations of one body share the frames
    on their common path. Each frame is simplified once into a
    `SharedFrame`, and each obligation keeps its frame and its local goal,
    so the layers after `vcgen` can do their work once per frame instead
    of once per obligation. A frame with fresh names stays a closure
    boundary: an obligation under it is closed over it, and over every
    frame inside it, exactly as a lone goal would be."""

    def __init__(self, function: str, items: list[_Item]):
        self.function = function
        self.frames: list[SharedFrame] = []  # each after its outer frame
        self._walked: Optional[tuple[dict, dict]] = None
        shared: dict[_Frame, Optional[SharedFrame]] = {}
        self.obligations = [self._obligation(it, shared) for it in items]

    def _obligation(self, it: _Item, shared: dict) -> Obligation:
        path, local = it.path, it.form
        links = path.path_links if path is not None else frozenset()
        if path is not None and path.binder is not None:
            local = _close(path, local, path.binder.outer)
            path = path.binder.outer
        local = simplify(_strip_pre_suffix(local))
        frame = self._share(path, shared)
        if frame is not None and not (
                frame.regular and local is not TRUE and local is not frame.form
                and simplify(local) is local):
            frame, local = None, _fold(frame, local)
        return Obligation(frame, local, it.kind, it.label, it.span, links, self)

    def _share(self, path: Optional[_Frame], shared: dict
               ) -> Optional[SharedFrame]:
        """The innermost shared frame of `path`; frames that simplify to
        `true` are left out."""
        todo = []
        while path is not None and path not in shared:
            todo.append(path)
            path = path.outer
        out = shared[path] if path is not None else None
        for raw in reversed(todo):
            form = simplify(_strip_pre_suffix(raw.assume))
            if form is not TRUE:
                out = SharedFrame(form, out)
                self.frames.append(out)
            shared[raw] = out
        return out

    def new_nodes(self, at) -> list:
        """The nodes of a frame's or an obligation's formula that no frame
        further out on its path holds, children first."""
        return self._walk()[0][at]

    def path_size(self, frame: SharedFrame) -> int:
        """The number of distinct nodes in the formulas of the frames on
        the path that ends at `frame`."""
        return self._walk()[1][frame]

    def _walk(self) -> tuple[dict, dict]:
        """`new_nodes` and `path_size` of everything in the set, from one
        walk over the tree of frames that keeps the nodes on the current
        path in one set."""
        if self._walked is not None:
            return self._walked
        inner: dict = {}
        for f in self.frames:
            inner.setdefault(f.outer, []).append(f)
        for ob in self.obligations:
            inner.setdefault(ob.frame, []).append(ob)
        new: dict = {}
        sizes: dict = {None: 0}
        on_path: set = set()
        stack: list = [(x, False) for x in reversed(inner.get(None, ()))]
        while stack:
            at, leaving = stack.pop()
            if leaving:
                on_path.difference_update(new[at])
                continue
            if isinstance(at, SharedFrame):
                new[at] = list(dag_walk(at.form, on_path))
                sizes[at] = sizes[at.outer] + len(new[at])
            else:
                new[at] = list(dag_walk(at.local, on_path))
            stack.append((at, True))
            stack.extend((x, False) for x in reversed(inner.get(at, ())))
        self._walked = new, sizes
        return self._walked


def function_vcs(fn: FunctionDef, program: Program) -> list[Obligation]:
    """All proof obligations of one function, expressed at entry (before
    requires hypotheses are attached): exit goals first, then the body's
    obligations, as one `ObligationSet`."""
    body = lower_returns(fn.body, RESULT_VAR, lambda: "$done")
    state: StateEnv = {}
    path, items = _Forward(fn, program).run(tuple(body), state, None)
    goals = _function_items(fn, program, state, path)
    return ObligationSet(fn.name, goals + items).obligations


def vcs_for(transformed: TransformedProgram,
            admitted: frozenset[str]) -> list[VerificationCondition]:
    """Verification conditions of a transformed program.

    `admitted` names the relational lemmas allowed into hypothesis
    environments, which list them in sorted order after the requires
    clauses. A wrapper assertion never sees the lemma of its own clause.
    """
    program = transformed.program
    # Only the generated lemmas can be admitted; source lemmas are not
    # compiled.
    lemma_forms = {lem.name: compile_lemma(lem, program)
                   for e in transformed.entries for lem in e.axiomatic.lemmas()}
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
        requires = [("requires_%d" % i, simplify(compile_pred(p, program)))
                    for i, p in enumerate(fn.contract.requires, 1)]
        requires = [(n, f) for n, f in requires if f != TRUE]
        entry = wrapper_names.get(fn.name)
        clause = entry.clause.name if entry is not None else None
        own_lemma = entry.lemma_name if entry is not None else None
        for ob in function_vcs(fn, program):
            # a lemma cannot justify its own wrapper
            hyps = requires + [(n, lemma_forms[n]) for n in sorted(admitted_set)
                               if ob.kind != "wrapper-assert" or n != own_lemma]
            replayable = False
            if ob.kind == "wrapper-assert" and entry is not None:
                slots = set(entry.wrapper.binder_params)
                slots |= set(entry.wrapper.dup_globals)
                slots |= {cell(p) for p in entry.wrapper.pointer_params}
                replayable = ob.free_vars() <= slots
            out.append(VerificationCondition(
                name=unique(f"{fn.name}__{ob.label}"), function=fn.name,
                assertion=ob.label, kind=ob.kind, obligation=ob,
                hypotheses=tuple(hyps), links=tuple(sorted(ob.links)),
                clause=clause, replayable=replayable, span=ob.span))

    # Lemma VCs: the goal restates the property over the `_acsl` mirrors.
    # Their proof reduces to the wrapper assertion plus the link behaviors,
    # so provers report them through their wrapper's status.
    for e in transformed.entries:
        out.append(VerificationCondition(
            name=unique(f"lemma__{e.lemma_name}"), function=e.wrapper.fn.name,
            assertion=e.lemma_name, kind="lemma",
            obligation=lemma_forms[e.lemma_name],
            hypotheses=(), links=tuple(sorted(transformed.acsl_symbols)),
            clause=e.clause.name))
    return out
