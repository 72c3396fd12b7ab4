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

The VCs of one function share frames (see `vcgen.ObligationSet`). Each
quantifier-free frame and local goal of a set is printed once, as a
segment: the `let`s of the bound nodes that are new there, around the text
of its formula. A VC's goal joins the segments along its path,
`head1 (=> F1 ... headn (=> Fn head local))`, so each node's text is
computed once per set and each script still stands alone. Such a goal
means its closed goal `F1 ==> (... local)` but is not its bytes: it may
bind a node that it references only once, and it names each binding by
its number in the set. A goal with no shared frame or with a quantifier
on its path prints from its closed goal, as a lone goal does. A
function's script bytes grow with the sum of its VCs' dags.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import count
from typing import Iterator, Optional

from .logic import (
    Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp,
    children, dag_walk, free_vars, symbols, has_quantifier,
)
from .vcgen import Obligation, ObligationSet, VerificationCondition

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


def _bind(n, kid_texts: list[str], text: dict, level: dict, shared: bool,
          names: Iterator[int]) -> Optional[str]:
    """Print `n` from its children's texts into `text`, and its `level`:
    the deepest `let` its text refers to. A `shared` compound node is
    bound to the next name `$sN`: its text becomes the name, its level
    rises by one, and its binding is returned."""
    kids = children(n)
    level[n] = max((level[c] for c in kids), default=0)
    text[n] = _node_text(n, kid_texts)
    if not kids or not shared:
        return None
    name = f"$s{next(names)}"
    level[n] += 1
    binding = f"({name} {text[n]})"
    text[n] = name
    return binding


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
    level: dict = {}
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
        kid_texts = [text[c] for c in children(n)]
        if isinstance(n, FQuant):
            kid_texts = [under_lets(i, kid_texts[0])]
        places = {binder[v] for v in free_vars(n) & binder.keys()} \
            if refs[n] > 1 else {_NOWHERE}
        binding = _bind(n, kid_texts, text, level, _NOWHERE not in places,
                        names)
        if binding is not None:
            lets[min(places, default=None)][level[n]].append(binding)
    return under_lets(None, text[f])


def emit_smtlib(vc: VerificationCondition) -> str:
    """Render one VC as an SMT-LIB v2 script; `unsat` means the VC holds."""
    ob = vc.obligation
    segmented = _in_segments(ob)
    if segmented:
        consts = set(ob.free_vars())
        syms = {**ob.frame.symbols, **symbols(ob.local)}
    else:
        consts = set(free_vars(vc.goal))
        syms = dict(symbols(vc.goal))
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
    goal = _goal_text(ob) if segmented else form_sexpr(vc.goal, names)
    lines.append(f"(assert (not {goal}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _in_segments(ob: Obligation) -> bool:
    """Whether the obligation's goal is printed from its set's segments:
    it has a shared frame, and no quantifier on its path."""
    return ob.frame is not None and not ob.frame.quantified \
        and not has_quantifier(ob.local)


# The segments of a set live on the set, in its `__dict__`, as `logic`
# nodes keep their analyses: they are computed once and go with the set.
_SEGMENTS = "_smt_segments"


def _segments(oset: ObligationSet) -> dict:
    """Frame or obligation -> its segment `(head, text, depth)`: `head`
    opens its `depth` `let` groups, which bind the set's shared nodes that
    are new there, by level; `text` is its formula's. A node is shared
    when the set's nodes reference it twice. A node new in two sibling
    frames, such as an `if`'s guard and its merged frame, is bound in
    both segments."""
    segments = oset.__dict__.get(_SEGMENTS)
    if segments is not None:
        return segments
    entries = [(f, f.form) for f in oset.frames if not f.quantified] \
        + [(ob, ob.local) for ob in oset.obligations if _in_segments(ob)]
    refs = Counter(c for at, _ in entries for n in oset.new_nodes(at)
                   for c in children(n))
    text: dict = {}
    level: dict = {}
    binding: dict = {}
    names = count(1)
    segments = {}
    for at, root in entries:
        lets: dict[int, list[str]] = defaultdict(list)
        for n in oset.new_nodes(at):
            if n not in text:
                binding[n] = _bind(n, [text[c] for c in children(n)], text,
                                   level, refs[n] > 1, names)
            if binding[n] is not None:
                lets[level[n]].append(binding[n])
        head = "".join(f"(let ({' '.join(lets[d])}) " for d in sorted(lets))
        segments[at] = head, text[root], len(lets)
    oset.__dict__[_SEGMENTS] = segments
    return segments


def _goal_text(ob: Obligation) -> str:
    """The obligation's goal, joined from the segments along its path."""
    segments = _segments(ob.owner)
    parts, close = [], 0
    for f in ob.frame.path():
        head, text, depth = segments[f]
        parts.append(f"{head}(=> {text} ")
        close += depth + 1
    head, text, depth = segments[ob]
    return "".join(parts) + head + text + ")" * (close + depth)
