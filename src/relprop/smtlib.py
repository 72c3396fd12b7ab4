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

The VCs of one function share frames (see `vcgen.ObligationSet`). For a
set of several obligations, one printer computes each node's text once,
with a placeholder for each node that some script may bind, and one walk
over the set's tree of frames keeps those nodes' references and `let`
levels along the path; each quantifier-free VC's script is filled in from
those texts. Each script is byte for byte the one its closed goal
`F1 ==> (... local)` would print, and still stands alone, so the bytes of
a function's scripts grow with the sum of its VCs' dags.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from itertools import count
from typing import Iterator, Optional

from .logic import (
    Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp,
    children, dag_walk, free_vars, symbols, has_quantifier,
)
from .vcgen import (
    Obligation, ObligationSet, SharedFrame, VerificationCondition,
)

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
    ob = vc.obligation
    printer = _printer(ob)
    if printer is None:
        consts = set(free_vars(vc.goal))
        syms = dict(symbols(vc.goal))
    else:
        consts = set(ob.free_vars())
        syms = {**ob.frame.symbols, **symbols(ob.local)}
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
    goal = form_sexpr(vc.goal, names) if printer is None \
        else printer.goal_text(ob, names)
    lines.append(f"(assert (not {goal}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _quantifier_free(ob: Obligation) -> bool:
    return not has_quantifier(ob.local) and (
        ob.frame is None or not ob.frame.quantified)


# One set is printed at a time, so only the last set's printer is kept; it
# goes when its set does.
_kept: Optional["_SetPrinter"] = None


def _forget(ref: weakref.ref) -> None:
    global _kept
    if _kept is not None and _kept.oset is ref:
        _kept = None


def _printer(ob: Obligation) -> Optional["_SetPrinter"]:
    """The printer of the obligation's set; None for an obligation printed
    from its closed goal: one with no shared frame, the only one of its
    set, one with a quantifier, and one whose local goal lies inside a
    frame of its path."""
    global _kept
    oset = ob.owner
    if ob.frame is None or len(oset.obligations) < 2 \
            or not _quantifier_free(ob):
        return None
    if _kept is None or _kept.oset() is not oset:
        _kept = _SetPrinter(oset)
    return _kept if id(ob) in _kept.scripts else None


# The kinds of `_SetPrinter.log` entries.
_NEW, _REF, _LEVEL = "new", "ref", "level"


class _SetPrinter:
    """The goal texts of one obligation set's quantifier-free obligations,
    each the text `form_sexpr` gives its closed goal
    `F1 ==> (F2 ==> ... (Fn ==> local))`.

    A node may be bound in some script only if the set's frames and local
    goals, with the chain's references to them, reference it twice. Each
    such candidate is a placeholder in the texts of the nodes above it,
    and every node's text is computed once. One walk over the set's tree
    of frames then keeps, for each candidate on the current path, its
    references and its `let` level, as `form_sexpr` would count them for
    the chain that ends there: entering a frame adds its new nodes, and
    leaving it undoes the log. At each obligation the script
    fills in its candidates in walk order: a bound one is written `{i}`,
    its number in the set, and gets a binding; any other is replaced by
    its text. `goal_text` then renames each `{i}` to `$sN` in order of
    binding, as `form_sexpr` numbers them."""

    def __init__(self, oset: ObligationSet):
        self.oset = weakref.ref(oset, _forget)
        # id of an obligation -> (its text, the numbers of its bindings by
        # rank); ids, so that the printer does not keep the set alive
        self.scripts: dict = {}
        frames = [f for f in oset.frames if not f.quantified]
        obligations = [ob for ob in oset.obligations if ob.frame is not None
                       and _quantifier_free(ob) and oset.new_nodes(ob)]
        entries = [(f, oset.new_nodes(f), f.form) for f in frames] \
            + [(ob, oset.new_nodes(ob), ob.local) for ob in obligations]
        refs = Counter(root for _, _, root in entries)
        refs.update(c for _, new, _ in entries for n in new
                    for c in children(n))
        self.index: dict = {}     # candidate -> its number in the set
        # node -> its text, with `{k}` for the k-th candidate it names
        self.template: dict = {}
        self.below: dict = {}     # node -> the candidates its text names
        for _, new, _ in entries:
            for n in new:
                if n in self.template:  # new in two branches
                    continue
                kids, texts, below = children(n), [], []
                for c in kids:
                    if c in self.index:
                        texts.append("{%d}" % len(below))
                        below.append(c)
                    else:
                        texts.append(self.template[c].format(*[
                            "{%d}" % (len(below) + k)
                            for k in range(len(self.below[c]))]))
                        below.extend(self.below[c])
                self.template[n] = _node_text(n, texts)
                self.below[n] = below
                if kids and refs[n] > 1:
                    self.index[n] = len(self.index)
                if isinstance(n, (IVar, IApp, FApp)):
                    name = n.name if isinstance(n, IVar) else n.fn \
                        if isinstance(n, IApp) else n.pred
                    if "{" in name or "}" in name:
                        return  # a name would read as a placeholder

        self.refs: dict = {}   # candidate on the path -> its references
        self.level: dict = {}  # candidate on the path -> its `let` level
        self.above: dict = defaultdict(list)  # candidate -> those naming it
        self.bound: set = set()  # candidates with two references
        self.cands: list = []  # the path's candidates, children first
        self.roots: list = []  # the path's frame formulas, outermost first
        self.log: list = []    # what entering did, for `_undo`
        inner: dict = {}
        for at, new, root in entries:
            outer = at.outer if isinstance(at, SharedFrame) else at.frame
            inner.setdefault(outer, []).append((at, new, root))
        stack: list = [(x, None) for x in reversed(inner.get(None, ()))]
        while stack:
            (at, new, root), mark = stack.pop()
            if mark is not None:
                self._undo(mark)
                continue
            mark = self._enter(new, root)
            if isinstance(at, Obligation):
                self.scripts[id(at)] = self._script(root)
                self._undo(mark)
                continue
            self.roots.append(root)
            stack.append(((at, new, root), mark))
            stack.extend((x, None) for x in reversed(inner.get(at, ())))

    def _enter(self, new: list, root) -> tuple:
        """Add a frame's or a local goal's new nodes, children first, and
        the chain's reference to its formula `root`."""
        mark = (len(self.log), len(self.cands), len(self.roots))
        index, level = self.index, self.level
        for n in new:
            for c in children(n):
                if c in index:
                    self._add_ref(c)
            if n in index:
                below = self.below[n]
                level[n] = max([level[c] for c in below], default=0)
                for c in below:
                    self.above[c].append(n)
                self.refs[n] = 0
                self.cands.append(n)
                self.log.append((_NEW, n))
        if root in index:
            self._add_ref(root)
        return mark

    def _add_ref(self, n) -> None:
        self.refs[n] += 1
        self.log.append((_REF, n))
        if self.refs[n] == 2:
            self.bound.add(n)
            self._raise(n, self.level[n] + 1)

    def _raise(self, n, to: int) -> None:
        """Raise the level of `n` to `to`, and of the candidates above it
        as far as that raises theirs."""
        todo = [(n, to)]
        while todo:
            n, to = todo.pop()
            if to <= self.level[n]:
                continue
            self.log.append((_LEVEL, n, self.level[n]))
            self.level[n] = to
            todo.extend((m, to + (m in self.bound)) for m in self.above[n])

    def _undo(self, mark: tuple) -> None:
        log, cands, roots = mark
        while len(self.log) > log:
            entry = self.log.pop()
            kind, n = entry[0], entry[1]
            if kind is _LEVEL:
                self.level[n] = entry[2]
            elif kind is _REF:
                if self.refs[n] == 2:
                    self.bound.discard(n)
                self.refs[n] -= 1
            else:
                for c in self.below[n]:
                    self.above[c].pop()
                del self.refs[n], self.level[n]
        del self.cands[cands:]
        del self.roots[roots:]

    def _script(self, local) -> tuple[str, list[int]]:
        index, template, below = self.index, self.template, self.below
        filled: dict = {}  # candidate -> its text in this script
        lets: dict[int, list[str]] = defaultdict(list)
        ranked = []

        def text(n) -> str:
            return template[n].format(*[filled[c] for c in below[n]])

        for n in self.cands:
            i = index[n]
            if n in self.bound:
                filled[n] = "{%d}" % i
                lets[self.level[n]].append("({%d} %s)" % (i, text(n)))
                ranked.append(i)
            else:
                filled[n] = text(n)

        def ref(n) -> str:
            return filled[n] if n in filled else text(n)

        depths = sorted(lets)
        return "".join(
            [f"(let ({' '.join(lets[d])}) " for d in depths]
            + ["(=> %s " % ref(r) for r in self.roots]
            + [ref(local), ")" * (len(self.roots) + len(depths))]), ranked

    def goal_text(self, ob: Obligation, names: Iterator[int]) -> str:
        """The text `form_sexpr(ob.goal, names)` gives."""
        text, ranked = self.scripts[id(ob)]
        slots: list = [None] * len(self.index)
        for i, n in zip(ranked, names):
            slots[i] = "$s%d" % n
        return text.format(*slots)
