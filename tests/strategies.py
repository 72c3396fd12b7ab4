"""Hypothesis strategies for random well-formed MiniC programs.

The generators build ASTs directly and stay within the fragment where every
analysis is total: no division in executable positions (no runtime
division-by-zero), small literals (no 64-bit overflow), no loops in randomly
generated bodies. Inside an if, a block may return early (the completion-flag
path of return elimination) or call a pure one-argument helper. Contracts
over-approximate: every global gets an assigns clause, which is always a
sound footprint.
"""

from hypothesis import strategies as st

from relprop.logic import (
    IVar, ICon, IOp, IIte, IApp, FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant,
    FApp,
)
from relprop.minic import (
    INT, VOID, Program, GlobalDecl, FunctionDef, Param, Contract,
    AssignsClause, GlobalLoc, FormalLoc, ResultLoc, RelationalClause,
    CallSpec, Binder,
    DeclStmt, AssignStmt, CallStmt, IfStmt, ReturnStmt,
    IntLit, Var, Bin, CallResult, At, Term,
    Cmp, PAnd, POr, PImp, PNot, Pred,
)

LOCALS = ["t0", "t1", "t2"]
CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]


def term_strategy(names: list[str], depth: int = 2,
                  ops: tuple[str, ...] = ("+", "-", "*")) -> st.SearchStrategy[Term]:
    leaf = st.integers(-9, 9).map(IntLit)
    if names:
        leaf = leaf | st.sampled_from(names).map(Var)
    if depth == 0:
        return leaf
    sub = term_strategy(names, depth - 1, ops)
    return leaf | st.builds(Bin, st.sampled_from(list(ops)), sub, sub)


def cond_strategy(names: list[str], depth: int = 1) -> st.SearchStrategy[Pred]:
    term = term_strategy(names, 1)
    leaf = st.builds(Cmp, st.sampled_from(CMP_OPS), term, term)
    if depth == 0:
        return leaf
    sub = cond_strategy(names, depth - 1)
    return leaf | st.builds(PAnd, sub, sub) | st.builds(POr, sub, sub) \
        | st.builds(PNot, sub)


@st.composite
def body_strategy(draw, readable: list[str], writable: list[str],
                  depth: int = 2, taken: set[str] | None = None,
                  ret: str | None = None, callees: tuple[str, ...] = ()
                  ) -> tuple:
    """A block of declarations, assignments and ifs. Inside an if, a block
    may end in an early return (`ret` is the function's return type) and
    may call the one-argument int functions `callees`."""
    # `taken` is shared across nested blocks: locals are function-scoped.
    stmts = []
    names = list(readable)
    top = taken is None
    taken = taken if taken is not None else set(names)
    n = draw(st.integers(1, 4))
    for _ in range(n):
        free_locals = [l for l in LOCALS if l not in taken]
        kinds = ["assign"]
        if free_locals:
            kinds.append("decl")
        if depth > 0:
            kinds.append("if")
        if not top and callees and writable:
            kinds.append("call")
        if not top and ret is not None:
            kinds.append("return")
        kind = draw(st.sampled_from(kinds))
        if kind == "decl":
            name = free_locals[0]
            taken.add(name)
            stmts.append(DeclStmt(name, draw(term_strategy(names))))
            names.append(name)
            writable = writable + [name]
        elif kind == "assign" and writable:
            target = draw(st.sampled_from(writable))
            stmts.append(AssignStmt(Var(target), draw(term_strategy(names))))
        elif kind == "if":
            cond = draw(cond_strategy(names))
            then = draw(body_strategy(names, writable, depth - 1, taken, ret,
                                      callees))
            orelse = draw(body_strategy(names, writable, depth - 1, taken,
                                        ret, callees)) \
                if draw(st.booleans()) else ()
            stmts.append(IfStmt(cond, then, orelse))
        elif kind == "call":
            stmts.append(CallStmt(draw(st.sampled_from(writable)),
                                  draw(st.sampled_from(list(callees))),
                                  (draw(term_strategy(names, 1)),)))
        elif kind == "return":
            value = draw(term_strategy(names)) if ret == INT else None
            stmts.append(ReturnStmt(value))
            break
    return tuple(stmts)


@st.composite
def function_strategy(draw, name: str, global_names: list[str],
                      n_formals: int, ret: str,
                      callees: tuple[str, ...] = ()) -> FunctionDef:
    formals = tuple(Param(f"p{i}", INT) for i in range(n_formals))
    readable = [p.name for p in formals] + list(global_names)
    body = list(draw(body_strategy(readable, list(global_names), ret=ret,
                                   callees=callees)))
    locals_in_scope = readable + [s.name for s in body
                                  if isinstance(s, DeclStmt)]
    if ret == INT:
        body.append(ReturnStmt(draw(term_strategy(locals_in_scope))))
    assigns = []
    for g in global_names:
        assigns.append(AssignsClause(
            GlobalLoc(g), tuple(GlobalLoc(h) for h in global_names)))
    if ret == INT:
        assigns.append(AssignsClause(
            ResultLoc(), tuple(FormalLoc(p.name) for p in formals)))
    return FunctionDef(name, formals, ret, tuple(body),
                       Contract(assigns=tuple(assigns)))


@st.composite
def rel_pred_strategy(draw, binders: list[str], call_ids: list[str],
                      int_calls: list[str], global_names: list[str],
                      depth: int = 1) -> Pred:
    leaves: list[st.SearchStrategy[Term]] = [st.integers(-9, 9).map(IntLit)]
    if binders:
        leaves.append(st.sampled_from(binders).map(Var))
    if int_calls:
        leaves.append(st.sampled_from(int_calls).map(CallResult))
    if global_names:
        leaves.append(st.builds(
            At, st.sampled_from(global_names).map(Var),
            st.sampled_from([f"{k}_{i}" for i in call_ids
                             for k in ("Pre", "Post")])))
    leaf = st.one_of(leaves)
    term = leaf | st.builds(Bin, st.sampled_from(["+", "-", "*"]), leaf, leaf)
    atom = st.builds(Cmp, st.sampled_from(CMP_OPS), term, term)
    if depth == 0:
        return draw(atom)
    sub = rel_pred_strategy(binders, call_ids, int_calls, global_names,
                            depth - 1)
    return draw(atom | st.builds(PImp, sub, sub) | st.builds(PAnd, sub, sub)
                | st.builds(POr, sub, sub))


@st.composite
def clause_program_strategy(draw) -> tuple[Program, str]:
    """A validated program with one relational clause; returns it with the
    clause name."""
    n_globals = draw(st.integers(0, 2))
    global_names = ["g", "w"][:n_globals]
    n_formals = draw(st.integers(0, 2))
    ret = draw(st.sampled_from([INT, VOID])) if n_globals else INT
    # An optional pure helper `h`, which f may call inside a branch; each
    # call of f is inlined two levels deep, so h's body is inlined too.
    helpers = [draw(function_strategy("h", [], 1, INT))] \
        if draw(st.booleans()) else []
    fn = draw(function_strategy("f", global_names, n_formals, ret,
                                tuple(h.name for h in helpers)))

    n_calls = draw(st.integers(1, 2))
    call_ids = [f"id{i + 1}" for i in range(n_calls)]
    binders = []
    calls = []
    for i, cid in enumerate(call_ids):
        args = []
        for j in range(n_formals):
            b = f"x{i + 1}_{j}"
            binders.append(Binder(b, INT))
            args.append(Var(b))
        calls.append(CallSpec(1 + len(helpers), "f", tuple(args), cid))
    int_calls = call_ids if ret == INT else []
    pred = draw(rel_pred_strategy([b.name for b in binders], call_ids,
                                  int_calls, global_names))
    clause = RelationalClause("R", tuple(binders), tuple(calls), pred)
    c = fn.contract
    fn = FunctionDef(fn.name, fn.formals, fn.ret, fn.body,
                     Contract(c.requires, c.assigns, c.ensures, c.behaviors,
                              (clause,)))
    items = tuple(GlobalDecl(g, INT, None) for g in global_names) \
        + tuple(helpers) + (fn,)
    return Program(items), "R"


@st.composite
def program_strategy(draw) -> Program:
    """A validated program without relational clauses, for syntax testing."""
    n_globals = draw(st.integers(0, 2))
    global_names = ["g", "w"][:n_globals]
    items: list = [GlobalDecl(g, INT, draw(st.none() | st.integers(-5, 5)))
                   for g in global_names]
    callees: tuple[str, ...] = ()
    for i in range(draw(st.integers(1, 2))):
        n_formals = draw(st.integers(0, 2))
        fn = draw(function_strategy(
            f"f{i}", global_names, n_formals,
            draw(st.sampled_from([INT, VOID])), callees))
        items.append(fn)
        if fn.ret == INT and n_formals == 1:
            callees = (fn.name,)
    return Program(tuple(items))


@st.composite
def formula_dag_strategy(draw, max_steps: int = 12) -> list:
    """A pool of logic formulas built bottom-up: each new node takes its
    children from the terms and formulas built before it, so subterms are
    shared within a formula and between formulas. `a` and `b` are free; `v`
    and `w` are bound by quantifiers, and so is `a` at times (free in one
    place, bound in another); `g` and `p` are uninterpreted. A capture
    step builds `forall v. v == t ==> Q u. phi`, where `t` mentions `u` and
    `phi` mentions `v`: the one-point rule then substitutes `t` under the
    binder of `u`, which capture-avoiding substitution must rename."""
    terms: list = [IVar(n) for n in "abvw"] + [ICon(draw(st.integers(-2, 2)))]
    forms: list = [FCmp("==", terms[2], terms[0])]

    def term():
        return draw(st.sampled_from(terms))

    def form():
        return draw(st.sampled_from(forms))

    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(
            ["op", "ite", "app", "cmp", "not", "and", "or", "imp", "forall",
             "exists", "pred", "bool", "capture"]))
        if kind == "op":
            terms.append(IOp(draw(st.sampled_from("+-*/")), term(), term()))
        elif kind == "ite":
            terms.append(IIte(form(), term(), term()))
        elif kind == "app":
            terms.append(IApp("g", (term(),)))
        elif kind == "cmp":
            forms.append(FCmp(draw(st.sampled_from(CMP_OPS)), term(), term()))
        elif kind == "not":
            forms.append(FNot(form()))
        elif kind in ("and", "or"):
            items = tuple(form() for _ in range(draw(st.integers(2, 3))))
            forms.append(FAnd(items) if kind == "and" else FOr(items))
        elif kind == "imp":
            forms.append(FImp(form(), form()))
        elif kind in ("forall", "exists"):
            names = draw(st.lists(st.sampled_from("vwa"), min_size=1,
                                  max_size=2, unique=True))
            forms.append(FQuant(kind, tuple(names), form()))
        elif kind == "capture":
            u = draw(st.sampled_from("wa"))
            inner = FQuant(draw(st.sampled_from(["forall", "exists"])), (u,),
                           FAnd((form(), FCmp(draw(st.sampled_from(CMP_OPS)),
                                              IVar("v"), IVar(u)))))
            t = IOp(draw(st.sampled_from("+-*")), IVar(u), term())
            forms.append(FQuant("forall", ("v",),
                                FImp(FCmp("==", IVar("v"), t), inner)))
        elif kind == "pred":
            forms.append(FApp("p", (term(), term())))
        else:
            forms.append(FBool(draw(st.booleans())))
    return forms
