"""SMT-LIB v2 emission for verification conditions.

One script per VC: UFNIA logic, sorted declarations for every free symbol,
one assert per hypothesis, the negated goal, `(check-sat)`. An `unsat`
answer means the VC is valid. Output is deterministic byte-for-byte.

VC formulas are dags: the forward VC pass shares each variable's current
value among every later use. Each assert prints a shared node once, under a
`let`, so the text grows with the dag, not with the tree it unfolds to. A
node that mentions quantifier-bound names, such as a chain of shared values
over a call's fresh names that the one-point rule did not remove, is bound
inside the innermost quantifier that binds them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import count
from typing import Iterator, Optional

from .logic import (
    Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp,
    children, dag_walk, free_vars, symbols,
)
from .vcgen import VerificationCondition

_OPS = {"+": "+", "-": "-", "*": "*", "/": "div"}
_CMPS = {"==": "=", "<=": "<=", ">=": ">=", "<": "<", ">": ">"}
_NOWHERE = -1  # no one quantifier binds this name


def _sym(name: str) -> str:
    # $ is legal in SMT-LIB simple symbols; quote anything else exotic.
    if all(c.isalnum() or c in "_$." for c in name) and not name[0].isdigit():
        return name
    return f"|{name}|"


def _node_text(n, kids: list[str]) -> str:
    """One node's s-expression, given its children's texts in order."""
    if isinstance(n, IVar):
        return _sym(n.name)
    if isinstance(n, ICon):
        return str(n.value) if n.value >= 0 else f"(- {-n.value})"
    if isinstance(n, FBool):
        return "true" if n.value else "false"
    if isinstance(n, (IApp, FApp)):
        name = _sym(n.fn if isinstance(n, IApp) else n.pred)
        return f"({name} {' '.join(kids)})" if kids else name
    if isinstance(n, IOp):
        return f"({_OPS[n.op]} {kids[0]} {kids[1]})"
    if isinstance(n, IIte):
        return f"(ite {' '.join(kids)})"
    if isinstance(n, FCmp):
        if n.op == "!=":
            return f"(not (= {kids[0]} {kids[1]}))"
        return f"({_CMPS[n.op]} {kids[0]} {kids[1]})"
    if isinstance(n, FNot):
        return f"(not {kids[0]})"
    if isinstance(n, (FAnd, FOr)):
        return f"({'and' if isinstance(n, FAnd) else 'or'} {' '.join(kids)})"
    if isinstance(n, FImp):
        return f"(=> {kids[0]} {kids[1]})"
    if isinstance(n, FQuant):
        binders = " ".join(f"({_sym(v)} Int)" for v in n.vars)
        return f"({n.kind} ({binders}) {kids[0]})"
    raise TypeError(f"unknown node {n!r}")


def form_sexpr(f: Form, names: Iterator[int]) -> str:
    """A formula's s-expression. Every compound node reached more than once
    is printed once, bound by `let` to `$sN` (N drawn from `names`, in
    children-first order). A node that mentions no quantifier-bound name is
    bound in front of the formula; one that does is bound just inside the
    innermost quantifier that binds its names, which every occurrence of
    the node lies under. A node that mentions a name bound by two
    quantifiers, or bound and also free, has no such place and is printed
    inline. The bindings of one place that use no other binding share a
    `let`."""
    order = list(dag_walk(f))
    refs: Counter = Counter(c for n in order for c in children(n))
    # bound name -> position in `order` of the one quantifier binding it;
    # children come first, so an inner quantifier has the lower position
    binder: dict[str, int] = {}
    for i, n in enumerate(order):
        if isinstance(n, FQuant):
            for v in n.vars:
                binder[v] = _NOWHERE if v in binder else i
    for v in free_vars(f) & binder.keys():
        binder[v] = _NOWHERE
    text: dict = {}
    level: dict = {}  # deepest `let` a node's text refers to
    # place (None in front of the formula, else a quantifier's position) ->
    # level -> bindings
    lets: dict[Optional[int], dict[int, list[str]]] = \
        defaultdict(lambda: defaultdict(list))

    def under_lets(place: Optional[int], body: str) -> str:
        bindings = lets.pop(place, {})
        for depth in sorted(bindings, reverse=True):
            body = f"(let ({' '.join(bindings[depth])}) {body})"
        return body

    for i, n in enumerate(order):
        kids = children(n)
        level[n] = max((level[c] for c in kids), default=0)
        kid_texts = [text[c] for c in kids]
        if isinstance(n, FQuant):
            kid_texts = [under_lets(i, kid_texts[0])]
        text[n] = _node_text(n, kid_texts)
        if not kids or refs[n] < 2:
            continue
        places = {binder[v] for v in free_vars(n) & binder.keys()}
        if _NOWHERE in places:
            continue
        name = f"$s{next(names)}"
        level[n] += 1
        lets[min(places, default=None)][level[n]].append(
            f"({name} {text[n]})")
        text[n] = name
    return under_lets(None, text[f])


def emit_smtlib(vc: VerificationCondition) -> str:
    """Render one VC as an SMT-LIB v2 script; `unsat` means the VC holds."""
    consts: set[str] = set(free_vars(vc.goal))
    syms: dict[str, tuple[int, str]] = dict(symbols(vc.goal))
    for _, h in vc.hypotheses:
        consts |= free_vars(h)
        for name, sig in symbols(h).items():
            syms[name] = sig

    lines = [
        f"; vc: {vc.name}",
        f"; provenance: function {vc.function}, {vc.kind} {vc.assertion}",
        "(set-logic UFNIA)",
    ]
    for name in sorted(consts):
        lines.append(f"(declare-fun {_sym(name)} () Int)")
    for name in sorted(syms):
        arity, kind = syms[name]
        doms = " ".join(["Int"] * arity)
        ret = "Bool" if kind == "bool" else "Int"
        lines.append(f"(declare-fun {_sym(name)} ({doms}) {ret})")
    names = count(1)
    for hname, h in vc.hypotheses:
        lines.append(f"; hypothesis: {hname}")
        lines.append(f"(assert {form_sexpr(h, names)})")
    lines.append("(assert (not %s))" % form_sexpr(vc.goal, names))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
