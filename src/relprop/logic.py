"""First-order formulas over unbounded integers with uninterpreted symbols.

This is the language verification conditions live in: integer variables,
arithmetic with Euclidean division, if-then-else terms, comparisons, the
boolean connectives, quantifiers, and applications of uninterpreted
functions (`IApp`, integer-valued) and predicates (`FApp`, boolean-valued).
All nodes are immutable records (`frozen.Frozen`: dataclass fields, with
constructor, repr and frozen assignment shared by every node class);
substitution is capture-avoiding.

Nodes are hash-consed: every node is built through one intern table, so
two structurally equal nodes are one object, and `==` and `hash` are
identity. Formulas are dags: a subterm built twice, by one VC or by two,
is one node shared by all its parents; rewrites that leave a node's
children alone return that node; every traversal visits each distinct
node once, and the SMT printer binds every repeated subterm by `let`.

Each node keeps its derived analyses: its free variables, uninterpreted
symbols and whether it contains a quantifier (`free_vars`, `symbols`,
`has_quantifier`, all read from one children-first pass that stops at
nodes already analysed), and its `simplify` result. This is safe because a
node never changes, so an answer computed once stays right, and because
the cache is not a field, so it never enters repr. Since equal
nodes are one node, each structurally distinct node is analysed once,
however many VCs and layers build or ask about it.
"""

from __future__ import annotations

import operator
import weakref
from typing import NamedTuple, Optional, Union

from .frozen import Frozen


class _Interned(type):
    """Calling a node class with the arguments of a live node returns that
    node. The key is the class and the arguments: strings and numbers
    compare by value, child nodes (and tuples of them) by identity, so
    building bottom-up makes structurally equal nodes identical, and the
    node classes compare and hash by identity (`eq=False`). The table holds
    each node by a weak reference, so a node nothing uses is freed, and its
    entry goes with it."""

    def __call__(cls, *args):
        key = (cls, *args)
        ref = _TABLE.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = super().__call__(*args)

            def gone(dead, key=key):
                # A node built again under this key after the old one died
                # owns the entry now.
                if _TABLE.get(key) is dead:
                    del _TABLE[key]

            _TABLE[key] = weakref.ref(node, gone)
        return node


_TABLE: dict[tuple, weakref.ref] = {}


# -- terms -------------------------------------------------------------------


class IVar(Frozen, metaclass=_Interned, eq=False):
    name: str


class ICon(Frozen, metaclass=_Interned, eq=False):
    value: int


class IOp(Frozen, metaclass=_Interned, eq=False):
    op: str  # + - * /
    left: "TermF"
    right: "TermF"


class IIte(Frozen, metaclass=_Interned, eq=False):
    cond: "Form"
    then: "TermF"
    other: "TermF"


class IApp(Frozen, metaclass=_Interned, eq=False):
    fn: str
    args: tuple["TermF", ...]


TermF = Union[IVar, ICon, IOp, IIte, IApp]


# -- formulas ----------------------------------------------------------------


class FBool(Frozen, metaclass=_Interned, eq=False):
    value: bool


class FCmp(Frozen, metaclass=_Interned, eq=False):
    op: str  # == != <= >= < >
    left: TermF
    right: TermF


class FNot(Frozen, metaclass=_Interned, eq=False):
    body: "Form"


class FAnd(Frozen, metaclass=_Interned, eq=False):
    items: tuple["Form", ...]


class FOr(Frozen, metaclass=_Interned, eq=False):
    items: tuple["Form", ...]


class FImp(Frozen, metaclass=_Interned, eq=False):
    hyp: "Form"
    concl: "Form"


class FQuant(Frozen, metaclass=_Interned, eq=False):
    kind: str  # "forall" | "exists"
    vars: tuple[str, ...]
    body: "Form"


class FApp(Frozen, metaclass=_Interned, eq=False):
    pred: str
    args: tuple[TermF, ...]


Form = Union[FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp]

TRUE = FBool(True)
FALSE = FBool(False)


def conj(items: list[Form]) -> Form:
    items = [i for i in items if i is not TRUE]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return FAnd(tuple(items))


def imp(hyp: Form, concl: Form) -> Form:
    if hyp is TRUE:
        return concl
    if concl is TRUE:
        return TRUE
    return FImp(hyp, concl)


def ediv(a: int, b: int) -> int:
    """Euclidean integer division (the SMT-LIB convention): the remainder is
    always in [0, |b|). Division by zero is totalized to 0."""
    if b == 0:
        return 0
    return a // b if b > 0 else -(a // -b)


# What the comparison and arithmetic operators mean on integers; each engine
# applies its own policy for overflow and zero divisors around them.
CMP = {"==": operator.eq, "!=": operator.ne, "<=": operator.le,
       ">=": operator.ge, "<": operator.lt, ">": operator.gt}
ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": ediv}


# -- traversals -----------------------------------------------------------------

# Children of each node type, left to right.
_CHILDREN = {
    IVar: lambda n: (), ICon: lambda n: (), FBool: lambda n: (),
    IOp: lambda n: (n.left, n.right),
    IIte: lambda n: (n.cond, n.then, n.other),
    IApp: lambda n: n.args, FApp: lambda n: n.args,
    FCmp: lambda n: (n.left, n.right),
    FNot: lambda n: (n.body,), FQuant: lambda n: (n.body,),
    FAnd: lambda n: n.items, FOr: lambda n: n.items,
    FImp: lambda n: (n.hyp, n.concl),
}


def children(n: Union[TermF, Form]) -> tuple:
    return _CHILDREN[type(n)](n)


def dag_walk(root: Union[TermF, Form], seen: Optional[set] = None):
    """Each distinct node under `root` once, by identity, children before
    their parents. Iterative, so deep chains need no recursion, and shared
    subterms cost one visit however many paths reach them. Nodes already
    in `seen` are skipped with everything under them, and every node
    yielded is added to it."""
    seen = set() if seen is None else seen
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(children(node))
                     if c not in seen)


# Derived analyses live on the node they describe, in its `__dict__` but
# not among its fields: a node is immutable, so what is computed from it
# once stays true, and the cache never takes part in eq, hash or repr.
# `_FACTS` holds the facts pass's result. `_SIMPLIFIED` holds `simplify`'s,
# or `True` when that is the node itself: a reference to itself would keep
# the node alive until the cycle collector runs.
_FACTS = "_facts"
_SIMPLIFIED = "_simplified"


class _Facts(NamedTuple):
    free: frozenset[str]                 # free variables
    symbols: dict[str, tuple[int, str]]  # name -> (arity, "int" | "bool")
    quantified: bool                     # contains a quantifier


_NO_FACTS = _Facts(frozenset(), {}, False)


def _node_facts(n, kids: list[_Facts]) -> _Facts:
    """One node's facts from its children's. A child's set or dict that
    already holds the others is reused, not copied."""
    if isinstance(n, IVar):
        return _Facts(frozenset((n.name,)), {}, False)
    if not kids:
        return _NO_FACTS
    free, syms, quantified = kids[0]
    for k in kids[1:]:
        if not k.free <= free:
            free = k.free if free <= k.free else free | k.free
        if not k.symbols.items() <= syms.items():
            syms = k.symbols if syms.items() <= k.symbols.items() \
                else {**syms, **k.symbols}
        quantified = quantified or k.quantified
    if isinstance(n, FQuant):
        return _Facts(free - set(n.vars), syms, True)
    if isinstance(n, (IApp, FApp)):
        name = n.fn if isinstance(n, IApp) else n.pred
        sig = (len(n.args), "int" if isinstance(n, IApp) else "bool")
        if syms.get(name) != sig:
            syms = {**syms, name: sig}
    if len(kids) == 1 and syms is kids[0].symbols:
        return kids[0]
    return _Facts(free, syms, quantified)


def _facts(root: Union[TermF, Form]) -> _Facts:
    """The facts of `root`, computed once per node: one iterative pass,
    children first, that stops at nodes already analysed."""
    done = root.__dict__.get(_FACTS)
    if done is not None:
        return done
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if _FACTS in node.__dict__:
            continue
        kids = children(node)
        if expanded:
            node.__dict__[_FACTS] = _node_facts(
                node, [c.__dict__[_FACTS] for c in kids])
            continue
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(kids)
                     if _FACTS not in c.__dict__)
    return root.__dict__[_FACTS]


def free_vars(root: Union[TermF, Form]) -> frozenset[str]:
    """Free variables of a term or formula."""
    return _facts(root).free


def symbols(f: Form) -> dict[str, tuple[int, str]]:
    """Uninterpreted symbols of a formula: name -> (arity, "int" | "bool")."""
    return dict(_facts(f).symbols)


def has_quantifier(f: Form) -> bool:
    return _facts(f).quantified


# Each node type rebuilt over new children.
_REBUILD = {
    IVar: lambda n, k: n, ICon: lambda n, k: n, FBool: lambda n, k: n,
    IOp: lambda n, k: IOp(n.op, *k), IIte: lambda n, k: IIte(*k),
    IApp: lambda n, k: IApp(n.fn, tuple(k)),
    FApp: lambda n, k: FApp(n.pred, tuple(k)),
    FCmp: lambda n, k: FCmp(n.op, *k), FNot: lambda n, k: FNot(*k),
    FAnd: lambda n, k: FAnd(tuple(k)), FOr: lambda n, k: FOr(tuple(k)),
    FImp: lambda n, k: FImp(*k), FQuant: lambda n, k: FQuant(n.kind, n.vars, *k),
}


def _rebuild(n, kids):
    """`n` over the children `kids`: `n` itself when they are its own."""
    return _REBUILD[type(n)](n, kids)


# -- substitution ----------------------------------------------------------------


_fresh_counter = 0


def _fresh(base: str) -> str:
    global _fresh_counter
    _fresh_counter += 1
    return f"{base}${_fresh_counter}"


def _subst(n, env: dict[str, TermF], memo: dict):
    # Substituted dags share structure heavily; the memo keeps the work
    # proportional to the dag, not the tree.
    hit = memo.get(n)
    if hit is not None:
        return hit
    if isinstance(n, IVar):
        out = env.get(n.name, n)
    elif isinstance(n, FQuant):
        body_vars = free_vars(n.body)
        inner = {k: v for k, v in env.items()
                 if k in body_vars and k not in n.vars}
        if not inner:
            out = n
        else:
            reached = set().union(*(free_vars(t) for t in inner.values()))
            captured = [v for v in n.vars if v in reached]
            vars_ = list(n.vars)
            body = n.body
            if captured:
                ren = {v: IVar(_fresh(v)) for v in captured}
                body = subst(body, ren)
                vars_ = [ren[v].name if v in ren else v for v in vars_]
            out = FQuant(n.kind, tuple(vars_), subst(body, inner))
    else:
        out = _rebuild(n, [_subst(c, env, memo) for c in children(n)])
    memo[n] = out
    return out


def subst(f, env: dict[str, TermF]):
    """Capture-avoiding simultaneous substitution of variables by terms, in
    a term or a formula."""
    return _subst(f, env, {}) if env else f


def rename(f: Form, mapping: dict[str, str]) -> Form:
    return subst(f, {k: IVar(v) for k, v in mapping.items()})


# -- simplification ----------------------------------------------------------------


def _remember(n, out):
    """Keep `out` on `n` as its simplified form."""
    n.__dict__[_SIMPLIFIED] = True if out is n else out
    return out


def simplify_term(t: TermF) -> TermF:
    hit = t.__dict__.get(_SIMPLIFIED)
    if hit is not None:
        return t if hit is True else hit
    if isinstance(t, (IVar, ICon)):
        return t
    if isinstance(t, IOp):
        left = simplify_term(t.left)
        right = simplify_term(t.right)
        if isinstance(left, ICon) and isinstance(right, ICon):
            out: TermF = ICon(ARITH[t.op](left.value, right.value))
        else:
            out = _rebuild(t, (left, right))
    elif isinstance(t, IIte):
        cond = simplify(t.cond)
        then = simplify_term(t.then)
        other = simplify_term(t.other)
        if isinstance(cond, FBool):
            out = then if cond.value else other
        elif then is other:
            out = then
        else:
            out = _rebuild(t, (cond, then, other))
    elif isinstance(t, IApp):
        out = _rebuild(t, [simplify_term(a) for a in t.args])
    else:
        raise TypeError(f"unknown term {t!r}")
    return _remember(t, out)


def _cmp_over_ite(op: str, left: TermF, right: TermF) -> Optional[Form]:
    """Push a comparison into an if-then-else with constant branches against
    a constant (the shape completion flags produce), turning flag tests back
    into boolean structure."""
    if isinstance(left, IIte) and isinstance(left.then, ICon) \
            and isinstance(left.other, ICon) and isinstance(right, ICon):
        return FOr((FAnd((left.cond, FCmp(op, left.then, right))),
                    FAnd((FNot(left.cond), FCmp(op, left.other, right)))))
    if isinstance(right, IIte) and isinstance(right.then, ICon) \
            and isinstance(right.other, ICon) and isinstance(left, ICon):
        return FOr((FAnd((right.cond, FCmp(op, left, right.then))),
                    FAnd((FNot(right.cond), FCmp(op, left, right.other)))))
    return None


def simplify(f: Form) -> Form:
    """Light normalization: constant folding, true/false absorption,
    flag-test collapsing, and the one-point rule (forall v, v == t ==> phi
    ~~> phi[t/v]), which keeps bounded checking of call-heavy code from
    enumerating forced values. The result is kept on `f` (and on every
    subterm), so each node is simplified once."""
    hit = f.__dict__.get(_SIMPLIFIED)
    if hit is not None:
        return f if hit is True else hit
    return _remember(f, _simplify_node(f))


def _simplify_node(f: Form) -> Form:
    if isinstance(f, FCmp):
        left = simplify_term(f.left)
        right = simplify_term(f.right)
        if isinstance(left, ICon) and isinstance(right, ICon):
            return FBool(CMP[f.op](left.value, right.value))
        if left is right:
            return FBool(f.op in ("==", "<=", ">="))
        pushed = _cmp_over_ite(f.op, left, right)
        if pushed is not None:
            return simplify(pushed)
        return _rebuild(f, (left, right))
    if isinstance(f, FNot):
        body = simplify(f.body)
        if isinstance(body, FBool):
            return FBool(not body.value)
        if isinstance(body, FNot):
            return body.body
        return _rebuild(f, (body,))
    if isinstance(f, FAnd):
        items = []
        for i in f.items:
            s = simplify(i)
            if s is FALSE:
                return FALSE
            items.append(s)
        return conj(items)
    if isinstance(f, FOr):
        items = []
        for i in f.items:
            s = simplify(i)
            if s is TRUE:
                return TRUE
            if s is not FALSE:
                items.append(s)
        if not items:
            return FALSE
        if len(items) == 1:
            return items[0]
        return _rebuild(f, items)
    if isinstance(f, FImp):
        hyp = simplify(f.hyp)
        concl = simplify(f.concl)
        if hyp is FALSE or concl is TRUE or hyp is concl:
            return TRUE
        if hyp is TRUE:
            return concl
        return _rebuild(f, (hyp, concl))
    if isinstance(f, FQuant):
        body = simplify(f.body)
        if f.kind == "forall":
            body = _one_point(tuple(f.vars), body)
            remaining = tuple(v for v in f.vars if v in free_vars(body))
            if isinstance(body, FBool) or not remaining:
                return body
            if remaining != f.vars:
                return FQuant("forall", remaining, body)
        if isinstance(body, FBool):
            return body
        return _rebuild(f, (body,))
    if isinstance(f, FApp):
        return _rebuild(f, [simplify_term(a) for a in f.args])
    return f


def point(names, hyp: Form) -> Optional[tuple[str, TermF, Form]]:
    """A conjunct `v == t` of `hyp` with v in `names` and not free in t, as
    (v, t, the other conjuncts): the one-point rule's equation."""
    parts = hyp.items if isinstance(hyp, FAnd) else (hyp,)
    for i, part in enumerate(parts):
        if isinstance(part, FCmp) and part.op == "==":
            for v, t in ((part.left, part.right), (part.right, part.left)):
                if isinstance(v, IVar) and v.name in names \
                        and v.name not in free_vars(t):
                    return v.name, t, conj(list(parts[:i] + parts[i + 1:]))
    return None


def _one_point(vars_: tuple[str, ...], body: Form) -> Form:
    """Eliminate `v == t` antecedent conjuncts for quantified v not free in
    t."""
    while isinstance(body, FImp) \
            and (eq := point(vars_, body.hyp)) is not None:
        v, t, rest = eq
        body = simplify(subst(imp(rest, body.concl), {v: t}))
    return body


# -- matching ------------------------------------------------------------------


def match_term(pattern: TermF, target: TermF, vars_: frozenset[str],
               binding: dict[str, TermF]) -> bool:
    if isinstance(pattern, IVar) and pattern.name in vars_:
        if pattern.name in binding:
            return binding[pattern.name] is target
        binding[pattern.name] = target
        return True
    if type(pattern) is not type(target):
        return False
    if isinstance(pattern, IVar):
        return pattern.name == target.name
    if isinstance(pattern, ICon):
        return pattern.value == target.value
    if isinstance(pattern, IOp):
        return pattern.op == target.op \
            and match_term(pattern.left, target.left, vars_, binding) \
            and match_term(pattern.right, target.right, vars_, binding)
    if isinstance(pattern, IApp):
        return pattern.fn == target.fn and len(pattern.args) == len(target.args) \
            and all(match_term(p, t, vars_, binding)
                    for p, t in zip(pattern.args, target.args))
    return False


def match_form(pattern: Form, target: Form, vars_: frozenset[str],
               binding: dict[str, TermF]) -> bool:
    if type(pattern) is not type(target):
        return False
    if isinstance(pattern, FBool):
        return pattern.value == target.value
    if isinstance(pattern, FCmp):
        return pattern.op == target.op \
            and match_term(pattern.left, target.left, vars_, binding) \
            and match_term(pattern.right, target.right, vars_, binding)
    if isinstance(pattern, FNot):
        return match_form(pattern.body, target.body, vars_, binding)
    if isinstance(pattern, (FAnd, FOr)):
        return len(pattern.items) == len(target.items) and all(
            match_form(p, t, vars_, binding)
            for p, t in zip(pattern.items, target.items))
    if isinstance(pattern, FImp):
        return match_form(pattern.hyp, target.hyp, vars_, binding) \
            and match_form(pattern.concl, target.concl, vars_, binding)
    if isinstance(pattern, FApp):
        return pattern.pred == target.pred \
            and len(pattern.args) == len(target.args) \
            and all(match_term(p, t, vars_, binding)
                    for p, t in zip(pattern.args, target.args))
    return False


def instance_of(hypothesis: Form, goal: Form) -> bool:
    """True when `goal` is a substitution instance of a forall-hypothesis."""
    if isinstance(hypothesis, FQuant) and hypothesis.kind == "forall":
        return match_form(hypothesis.body, goal,
                          frozenset(hypothesis.vars), {})
    return hypothesis is goal
