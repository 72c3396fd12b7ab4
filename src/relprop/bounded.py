"""Solver-free bounded validity checking of verification conditions.

The negated VC (hypotheses and the goal's negation) is searched for a
falsifying assignment with every integer variable ranging over
[-bound, bound]. Uninterpreted symbols are instantiated lazily and
pointwise: only argument tuples actually reached during evaluation get a
table entry, itself enumerated over the bound.

Outcomes:
  * valid          -- no falsifying assignment within bounds (bounded-valid);
                      also returned outright when the goal is a substitution
                      instance of a hypothesis.
  * counterexample -- a falsifying assignment over entry-state variables
                      only; replaying it through the interpreter violates
                      the wrapper assertion.
  * unknown        -- falsifiable only by choosing uninterpreted tables or
                      havoc'd loop/call states, which no concrete run need
                      reproduce.

Quantifier-free, table-free problems whose terms provably stay within
int64 take a vectorized numpy path; the exact scalar evaluator (unbounded
integers) handles quantifiers, tables and everything that could overflow
int64. The int64 bound is a worst-case magnitude that each node keeps,
per bound. The vectorized path has one evaluator, `_Box`: one block of
the box, each variable on its own axis and each node evaluated once over
its own variables' axes. It evaluates every block of the walk, the
decision's factors and the frames of an obligation set. Each term node is
held in the narrowest signed integer type (int8, int16, int32 or int64)
that holds its magnitude at the box's bound: a variable's values in the
bound's type, a constant in its own, `+ - *` computed in the widest of
their operands' types and the node's, `/` and `ite` in their operands'
promoted type. Every value fits its type, so no step wraps.

A VC with shared frames (see `vcgen.ObligationSet`) is searched without
building its closed goal `F1 ==> (... local)`. Its problem is its
hypotheses and `not local` under the path of frames, the conjuncts of the
closed goal's negation, with the closed goal's node count for the budget,
so the result is the one the closed goal would give. When the VC's box
fits one block, the box is kept for the set's next VC and the rows each
frame's path admits are computed once per frame; it spans every variable
of the set when that fits one block, and a VC over fewer variables
reduces the rows over the axes it does not mention. A VC whose box spans
several blocks is decided and walked with its frames as conjuncts. The
closed goal is built only where it decides: when a hypothesis is an
implication that `instance_of` could match, when the problem needs the
scalar search, and when the local goal has no node new on its path.

The vectorized path decides before it walks. The negated VC is a
conjunction of facts that each mention few variables (a self-composed
wrapper inlines every call over its own copy of the inputs), so whether
some row falsifies it is decided by bucket elimination over per-conjunct
bool factors (module `bucket`, loaded on first use), with no BLAS
routine and no count. When no row falsifies, the VC is valid with every
row of the box examined; otherwise the block walk finds the first
falsifying row in lexicographic order. The decision runs only when the
box spans more than one block, every factor and pairwise join fits in
one block, and einsum's FLOP estimate is below the walk's cost of rows
times dag nodes.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Optional

import numpy as np

from .frozen import Frozen
from .logic import (
    TermF, Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp,
    TRUE, ARITH, CMP, simplify, free_vars, symbols, has_quantifier,
    instance_of, rename, dag_walk, children,
)
from .vcgen import Obligation, ObligationSet, VerificationCondition

DEFAULT_BUDGET = 10_000_000_000  # elementary evaluation steps


class BudgetExceeded(Exception):
    pass


class BoundedResult(Frozen):
    status: str  # "valid" | "counterexample" | "unknown"
    bound: int
    assignment: Optional[dict[str, int]] = None
    method: str = "enumeration"  # instantiation | vectorized | enumeration
    rows: int = 0                # variable assignments examined
    reason: Optional[str] = None  # for unknown: "tables" | "havoc"


def _dirty(name: str) -> bool:
    return "$h" in name or "$sk" in name


def _node_count(f: Form) -> int:
    # Dag-aware: shared subterms are evaluated once, so count them once.
    return sum(1 for _ in dag_walk(f))


_INT64_MAX = 2 ** 63 - 1

# Each node keeps, beside the analyses `logic` keeps, `(bound, m)`: with
# every variable in [-bound, bound], a term node's value has magnitude at
# most m, and m is -1 when some term node under it may leave int64.
_MAG = "_mag"


def _magnitude(n, bound: int) -> int:
    """The kept worst-case magnitude of `n` at `bound`, computed once per
    node by one iterative pass, children first, that stops at nodes
    already measured at this bound."""
    kept = n.__dict__.get(_MAG)
    if kept is not None and kept[0] == bound:
        return kept[1]
    stack = [(n, False)]
    while stack:
        node, expanded = stack.pop()
        kept = node.__dict__.get(_MAG)
        if kept is not None and kept[0] == bound:
            continue
        kids = children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in kids)
            continue
        mags = [c.__dict__[_MAG][1] for c in kids]
        if -1 in mags or isinstance(node, (IApp, FApp, FQuant)):
            m = -1  # tables and quantifiers never reach the vectorized path
        elif isinstance(node, IVar):
            m = bound
        elif isinstance(node, ICon):
            m = abs(node.value)
        elif isinstance(node, IOp):
            a, b = mags
            m = a if node.op == "/" else a * b if node.op == "*" else a + b
        elif isinstance(node, IIte):
            m = max(mags[1], mags[2])
        else:
            m = 0  # a formula: its terms fit
        node.__dict__[_MAG] = (bound, m if m <= _INT64_MAX else -1)
    return n.__dict__[_MAG][1]


# The signed integer types by width, each with the largest magnitude it
# holds.
_INT_TYPES = tuple((np.iinfo(t).max, t)
                   for t in (np.int8, np.int16, np.int32, np.int64))


def _int_type(m: int):
    """The narrowest signed integer type that holds every value of
    magnitude at most `m` (which is at most _INT64_MAX)."""
    return next(t for top, t in _INT_TYPES if m <= top)


def _fits_int64(forms: list[Form], bound: int) -> bool:
    """True when no term can leave int64 with every variable in
    [-bound, bound], and so none is a table and none is quantified: a
    worst-case magnitude per term node, kept on it."""
    return all(_magnitude(f, bound) >= 0 for f in forms)


# ---------------------------------------------------------------------------
# Problem normalization
# ---------------------------------------------------------------------------


def _skolemize_exists(f: Form, taken: set[str], counter: list[int]) -> Form:
    """Strip top-level existentials of a hypothesis into fresh free vars."""
    while isinstance(f, FQuant) and f.kind == "exists":
        mapping = {}
        for v in f.vars:
            counter[0] += 1
            fresh = f"{v}$sk{counter[0]}"
            taken.add(fresh)
            mapping[v] = fresh
        f = rename(f.body, mapping)
    return f


def _negate_goal(goal: Form, taken: set[str], counter: list[int]) -> Form:
    """Negate the goal, turning a leading forall prefix into free variables
    (renamed when they would collide)."""
    while isinstance(goal, FQuant) and goal.kind == "forall":
        mapping = {}
        for v in goal.vars:
            name = v
            if name in taken:
                counter[0] += 1
                name = f"{v}$sk{counter[0]}"
                mapping[v] = name
            taken.add(name)
        goal = rename(goal.body, mapping) if mapping else goal.body
    return FNot(goal)


def _prepare(goal: Form, hyps: list[Form]) -> tuple[list[Form], set[str]]:
    """Hypotheses plus negated goal (both already simplified), Skolemized."""
    taken: set[str] = set(free_vars(goal))
    for h in hyps:
        taken |= free_vars(h)
    counter = [0]
    neg_goal = _negate_goal(goal, taken, counter)
    forms = _prepare_hyps(hyps, taken, counter) + [simplify(neg_goal)]
    free: set[str] = set()
    for f in forms:
        free |= free_vars(f)
    return forms, free


def _prepare_hyps(hyps: list[Form], taken: set[str],
                  counter: list[int]) -> list[Form]:
    """The hypotheses the search assumes, Skolemized.

    Quantified hypotheses over uninterpreted symbols (admitted lemmas) are
    excluded from the search: instantiating their tables at every quantified
    point blows up combinatorially, and they are already exploited by the
    instance fast path in check_bounded. Dropping hypotheses only makes
    validity harder to conclude, and any falsification that involves tables
    is reported as unknown rather than as a counterexample, so soundness is
    unaffected.
    """
    forms: list[Form] = []
    for h in hyps:
        h = simplify(_skolemize_exists(h, taken, counter))
        if h == TRUE:
            continue
        if symbols(h) and has_quantifier(h):
            continue
        forms.append(h)
    return forms


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------

_CHUNK = 1 << 21


def _np_ediv(a, b):
    bz = b == 0
    safe = np.where(bz, 1, b)
    q = np.where(safe > 0, a // safe, -(a // -safe))
    return np.where(bz, 0, q)


# `/` goes through _np_ediv.
_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _np_term(t: TermF, box: "_Box") -> np.ndarray:
    """The value of `t` over `box`, in the narrowest integer type that
    holds its magnitude at the box's bound: `+ - *` compute in the widest
    of their operands' types and that one, `/` and `ite` in their
    operands' promoted type."""
    hit = box.memo.get(t)
    if hit is not None:
        return hit
    if isinstance(t, IVar):
        out = box.env[t.name]
    elif isinstance(t, ICon):
        out = _int_type(abs(t.value))(t.value)
    elif isinstance(t, IOp):
        a, b = _np_term(t.left, box), _np_term(t.right, box)
        if t.op == "/":
            out = _np_ediv(a, b)
        else:
            own = _int_type(_magnitude(t, box.bound))
            out = _UFUNC[t.op](a, b, dtype=np.promote_types(
                np.result_type(a, b), own))
    elif isinstance(t, IIte):
        out = np.where(_np_form(t.cond, box), _np_term(t.then, box),
                       _np_term(t.other, box))
    else:
        raise TypeError(f"vectorized path cannot evaluate {t!r}")
    box.memo[t] = out
    return out


def _np_form(f: Form, box: "_Box") -> np.ndarray:
    hit = box.memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, FBool):
        out = np.bool_(f.value)
    elif isinstance(f, FCmp):
        out = CMP[f.op](_np_term(f.left, box), _np_term(f.right, box))
    elif isinstance(f, FNot):
        out = ~_np_form(f.body, box)
    elif isinstance(f, FAnd):
        out = _np_form(f.items[0], box)
        for i in f.items[1:]:
            out = out & _np_form(i, box)
    elif isinstance(f, FOr):
        out = _np_form(f.items[0], box)
        for i in f.items[1:]:
            out = out | _np_form(i, box)
    elif isinstance(f, FImp):
        out = ~_np_form(f.hyp, box) | _np_form(f.concl, box)
    else:
        raise TypeError(f"vectorized path cannot evaluate {f!r}")
    box.memo[f] = out
    return out


_NEGATED = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


def _conjuncts(forms: list[Form]) -> list[Form]:
    """Top-level conjuncts of the conjunction of `forms`, pushing a negation
    through an implication, a disjunction or a comparison."""
    out: list[Form] = []
    stack = list(forms)
    while stack:
        f = stack.pop()
        body = f.body if isinstance(f, FNot) else None
        if isinstance(f, FAnd):
            stack.extend(f.items)
        elif isinstance(body, FImp):
            stack += [body.hyp, FNot(body.concl)]
        elif isinstance(body, FOr):
            stack.extend(FNot(i) for i in body.items)
        elif isinstance(body, FCmp):
            out.append(FCmp(_NEGATED[body.op], body.left, body.right))
        else:
            out.append(f)
    return out


def _distinct(t: np.ndarray) -> np.ndarray:
    """The sorted distinct values of `t`, by one sort: on a 17^4-cell int64
    tensor this takes a tenth of np.unique's time (numpy 2.4)."""
    s = np.sort(t, axis=None)
    return s[np.r_[True, s[1:] != s[:-1]]]


def _some_row(forms: list[Form], order: list[str], bound: int,
              walk_cost: int) -> Optional[bool]:
    """Whether some row of the box satisfies every form, decided by
    `bucket.satisfiable` over the conjuncts, each a bool tensor over its
    own variables' axes; None when some factor or join would not fit in a
    block or the joins are not estimated cheaper than `walk_cost`.

    A comparison whose sides lie on incomparable sets of variables becomes
    three factors instead of one tensor over their union: a one-hot tensor
    per side, which adds an axis over the side's distinct values, and the
    comparison's table over those two value axes."""
    size = 2 * bound + 1
    k = len(order)
    axis = {v: i for i, v in enumerate(order)}
    box = _Box(bound, order)
    factors: list[tuple[np.ndarray, list[int]]] = []  # (tensor, its axes)
    labels = k  # the next value axis

    def over_own_axes(node, evaluate) -> Optional[tuple[np.ndarray, list[int]]]:
        axes = sorted(axis[v] for v in free_vars(node))
        if size ** len(axes) > _CHUNK:
            return None
        shape = [size if i in axes else 1 for i in range(k)]
        out = np.broadcast_to(evaluate(node, box), shape)
        return out.reshape([size] * len(axes)), axes

    def one_hot(t: np.ndarray, vals: np.ndarray) -> np.ndarray:
        return vals.reshape((-1,) + (1,) * t.ndim) == t  # value axis first

    for c in _conjuncts(forms):
        # Only the factors outlive their conjunct: keeping every
        # conjunct's node tensors set the decision's peak memory.
        box.memo.clear()
        sides = ([over_own_axes(s, _np_term) for s in (c.left, c.right)]
                 if isinstance(c, FCmp) else [None])
        if None not in sides:
            (tl, al), (tr, ar) = sides
            if not set(al) <= set(ar) and not set(ar) <= set(al):
                vl, vr = _distinct(tl), _distinct(tr)
                if max(tl.size * vl.size, tr.size * vr.size,
                       vl.size * vr.size) <= _CHUNK:
                    factors += [(one_hot(tl, vl), [labels] + al),
                                (one_hot(tr, vr), [labels + 1] + ar),
                                (CMP[c.op](vl[:, None], vr[None, :]),
                                 [labels, labels + 1])]
                    labels += 2
                    continue
        factor = over_own_axes(c, _np_form)
        if factor is None:
            return None
        factors.append(factor)
    if labels > 52:  # einsum's axis labels
        return None
    box.memo.clear()
    from .bucket import satisfiable  # only a box of several blocks gets here
    return satisfiable(factors, _CHUNK, walk_cost)


def _vectorized_search(forms: list[Form], order: list[str], bound: int,
                       budget: int, frame=None, nodes: Optional[int] = None,
                       box: Optional["_Box"] = None
                       ) -> tuple[int, Optional[dict[str, int]]]:
    """Rows examined and the first assignment of `order`, in lexicographic
    order, where every form and the path of frames ending at `frame` hold,
    or None. `nodes` is the problem's node count when the forms are not
    the whole problem, and `box` a kept box that holds the whole of
    `order`'s box in one block. A box of more than one block is first
    decided by _some_row; when no row falsifies, the block walk is
    skipped."""
    size = 2 * bound + 1
    total = size ** len(order)
    if nodes is None:
        nodes = sum(_node_count(f) for f in forms)
    cost = total * max(nodes, 1)
    if cost > budget:
        raise BudgetExceeded(
            f"{total} assignments x {nodes} nodes exceeds the budget")
    if total > _CHUNK:
        path = [f.form for f in frame.path()] if frame is not None else []
        if _some_row(path + forms, order, bound, cost) is False:
            return total, None
    for block in [box] if box is not None else _blocks(bound, order):
        idx = block.first(frame, forms, order)
        if idx is not None:
            row = int(np.ravel_multi_index(idx, (size,) * len(order)))
            return row + 1, {v: i - bound for v, i in zip(order, idx)}
    return total, None


class _Box:
    """One block of a box of values, each variable on its own axis: every
    node is evaluated once, over its own variables' axes, and the rows
    each path of frames admits once per frame. The block spans `widths`
    values from `starts` on each axis, the whole box by default."""

    def __init__(self, bound: int, order: list[str], starts=None, widths=None):
        size = 2 * bound + 1
        self.bound = bound
        self.order = order
        self.starts = starts or [0] * len(order)
        widths = widths or [size] * len(order)
        values = np.arange(-bound, bound + 1, dtype=_int_type(bound))
        cuts = [values[s:s + w] for s, w in zip(self.starts, widths)]
        self.shape = tuple(len(c) for c in cuts)
        self.env = dict(zip(order, np.ix_(*cuts)))  # variable i on axis i
        self.memo: dict = {}
        self.admitted: dict = {}  # frame -> rows its whole path admits

    def path(self, frame):
        todo = []
        while frame is not None and frame not in self.admitted:
            todo.append(frame)
            frame = frame.outer
        mask = self.admitted[frame] if frame is not None else np.bool_(True)
        for f in reversed(todo):
            mask = self.admitted[f] = mask & _np_form(f.form, self)
        return mask

    def first(self, frame, forms: list[Form], order: list[str]
              ) -> Optional[list[int]]:
        """The value indices, one per variable of `order`, of the block's
        first row where the path of `frame` and every form hold; None when
        no row does. The axes of variables outside `order` are reduced
        away."""
        mask = self.path(frame)
        for f in forms:
            if not mask.any():
                return None
            mask = mask & _np_form(f, self)
        if not mask.any():
            return None
        kept = [i for i, v in enumerate(self.order) if v in order]
        mask = np.asarray(mask)
        if mask.ndim:
            mask = np.any(mask, axis=tuple(
                i for i in range(len(self.order)) if i not in kept))
        shape = tuple(self.shape[i] for i in kept)
        at = np.argmax(np.broadcast_to(mask, shape))
        return [self.starts[i] + int(c)
                for i, c in zip(kept, np.unravel_index(at, shape))]


def _blocks(bound: int, order: list[str]):
    """The box over `order` in blocks of at most _CHUNK cells, in
    lexicographic order. A block spans the last `whole` axes, a slice of
    the axis before them, and one value of each earlier axis."""
    size = 2 * bound + 1
    k = len(order)
    whole = 0
    while whole < k - 1 and size ** (whole + 1) <= _CHUNK:
        whole += 1
    widths = ([1] * (k - 1 - whole) + [_CHUNK // size ** whole]
              + [size] * whole)[:k]  # no axis at all when k is 0
    for starts in itertools.product(*(range(0, size, w) for w in widths)):
        yield _Box(bound, order, list(starts), widths)


# ---------------------------------------------------------------------------
# Scalar evaluation with lazy tables
# ---------------------------------------------------------------------------


class _Choice(Exception):
    def __init__(self, key, kind: str):
        self.key = key
        self.kind = kind


class _Scalar:
    def __init__(self, bound: int, budget: int):
        self.bound = bound
        self.budget = budget
        self.steps = 0
        self.tables: dict = {}

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceeded(f"evaluation exceeded {self.budget} steps")

    def term(self, t: TermF, env: dict[str, int]) -> int:
        self.tick()
        if isinstance(t, IVar):
            return env[t.name]
        if isinstance(t, ICon):
            return t.value
        if isinstance(t, IOp):
            return ARITH[t.op](self.term(t.left, env), self.term(t.right, env))
        if isinstance(t, IIte):
            return self.term(t.then, env) if self.form(t.cond, env) \
                else self.term(t.other, env)
        if isinstance(t, IApp):
            key = (t.fn, tuple(self.term(a, env) for a in t.args))
            if key not in self.tables:
                raise _Choice(key, "int")
            return self.tables[key]
        raise TypeError(f"unknown term {t!r}")

    def form(self, f: Form, env: dict[str, int]) -> bool:
        self.tick()
        if isinstance(f, FBool):
            return f.value
        if isinstance(f, FCmp):
            return CMP[f.op](self.term(f.left, env), self.term(f.right, env))
        if isinstance(f, FNot):
            return not self.form(f.body, env)
        if isinstance(f, FAnd):
            return all(self.form(i, env) for i in f.items)
        if isinstance(f, FOr):
            return any(self.form(i, env) for i in f.items)
        if isinstance(f, FImp):
            return (not self.form(f.hyp, env)) or self.form(f.concl, env)
        if isinstance(f, FQuant):
            rng = range(-self.bound, self.bound + 1)
            want_all = f.kind == "forall"
            for values in itertools.product(rng, repeat=len(f.vars)):
                inner = dict(env)
                inner.update(zip(f.vars, values))
                v = self.form(f.body, inner)
                if want_all and not v:
                    return False
                if not want_all and v:
                    return True
            return want_all
        if isinstance(f, FApp):
            key = (f.pred, tuple(self.term(a, env) for a in f.args))
            if key not in self.tables:
                raise _Choice(key, "bool")
            return self.tables[key]
        raise TypeError(f"unknown formula {f!r}")


def _scalar_search(forms: list[Form], order: list[str], bound: int,
                   budget: int) -> tuple[int, Optional[dict[str, int]], bool]:
    """Returns (rows, assignment, used_tables). Enumeration is
    lexicographic; tables are branched lazily at reached points."""
    ev = _Scalar(bound, budget)
    rng = range(-bound, bound + 1)

    def attempt(env: dict[str, int]) -> bool:
        try:
            return all(ev.form(f, env) for f in forms)
        except _Choice as c:
            domain = (list(rng) if c.kind == "int" else [False, True])
            for v in domain:
                ev.tables[c.key] = v
                if attempt(env):
                    return True
                del ev.tables[c.key]
            return False

    rows = 0
    for values in itertools.product(rng, repeat=len(order)):
        rows += 1
        env = dict(zip(order, values))
        ev.tables.clear()
        if attempt(env):
            return rows, env, bool(ev.tables)
    return rows, None, False


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_bounded(vc: VerificationCondition, bound: int,
                  budget: int = DEFAULT_BUDGET) -> BoundedResult:
    """Bounded validity check of one VC; see the module docstring.

    Raises BudgetExceeded when exhaustive enumeration would blow the
    configured node limit.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    hyps = [simplify(h) for _name, h in vc.hypotheses]
    if vc.obligation.frame is not None:
        shared = _shared_problem(vc.obligation, hyps, bound)
        if shared is not None:
            forms, order, frame, nodes, box = shared
            return _verdict(bound, "vectorized", *_vectorized_search(
                forms, order, bound, budget, frame, nodes, box))
    goal = simplify(vc.goal)
    if goal == TRUE or any(instance_of(h, goal) for h in hyps):
        return BoundedResult("valid", bound, method="instantiation", rows=0)
    forms, free = _prepare(goal, hyps)
    order = sorted(free)
    if _fits_int64(forms, bound):
        return _verdict(bound, "vectorized",
                        *_vectorized_search(forms, order, bound, budget))
    rows, assignment, used_tables = _scalar_search(forms, order, bound, budget)
    return _verdict(bound, "enumeration", rows, assignment, used_tables)


def _verdict(bound: int, method: str, rows: int,
             assignment: Optional[dict[str, int]],
             used_tables: bool = False) -> BoundedResult:
    if assignment is None:
        return BoundedResult("valid", bound, method=method, rows=rows)
    if used_tables or any(_dirty(v) for v in assignment):
        reason = "tables" if used_tables else "havoc"
        return BoundedResult("unknown", bound, assignment,
                             method=method, rows=rows, reason=reason)
    return BoundedResult("counterexample", bound, assignment,
                         method=method, rows=rows)


# ---------------------------------------------------------------------------
# The obligations of one function, checked together
# ---------------------------------------------------------------------------

class _SetCheck:
    """What checking one obligation set at one bound keeps between its
    VCs: the variables of its shared obligations, whether each frame's
    path fits int64, and one box of one block. The box spans every
    variable of the set when that fits one block, so each frame is
    evaluated once for all its VCs; otherwise it spans the last VC's
    variables and is kept for the VCs over the same ones. A VC whose own
    box spans several blocks is walked block by block, and nothing of it
    is kept."""

    def __init__(self, oset: ObligationSet, bound: int):
        self.oset = weakref.ref(oset, _forget)
        self.bound = bound
        free: frozenset[str] = frozenset()
        for ob in oset.obligations:
            if ob.frame is not None:
                free |= ob.free_vars()
        self.free = free
        self.fits: dict = {}
        for f in oset.frames:
            self.fits[f] = (f.outer is None or self.fits[f.outer]) \
                and _magnitude(f.form, bound) >= 0
        self.box: Optional[_Box] = None

    def box_for(self, order: list[str]) -> Optional[_Box]:
        size = 2 * self.bound + 1
        if size ** len(order) > _CHUNK:
            return None
        wide = sorted(self.free.union(order))
        if size ** len(wide) <= _CHUNK:
            order = wide
        if self.box is None or self.box.order != order:
            self.box = _Box(self.bound, order)
        return self.box


# One set is checked at a time, so only the last set's check is kept; it
# goes when its set does.
_kept: Optional[_SetCheck] = None


def _forget(ref: weakref.ref) -> None:
    global _kept
    if _kept is not None and _kept.oset is ref:
        _kept = None


def _set_check(oset: ObligationSet, bound: int) -> _SetCheck:
    global _kept
    if _kept is None or _kept.oset() is not oset or _kept.bound != bound:
        _kept = _SetCheck(oset, bound)
    return _kept


def _shared_problem(ob: Obligation, hyps: list[Form], bound: int):
    """The `_vectorized_search` problem, bound and budget aside, of the
    closed goal of `ob` under `hyps`, with the goal left unbuilt; None
    when only the closed goal can decide.

    The goal is `F1 ==> (... (Fn ==> local))`, not `true` (see
    `Obligation`), and its node count is the count of the path's distinct
    nodes plus the local goal's new ones, the n implications and the
    negation. When the local goal has no new node, it lies inside a frame,
    and an implication of the chain may too, so that count is not exact."""
    if any(isinstance(h, FImp) or isinstance(h, FQuant) and h.kind == "forall"
           and isinstance(h.body, FImp) for h in hyps):
        return None
    frame, oset = ob.frame, ob.owner
    forms = _prepare_hyps(hyps, set(), [0])
    new = oset.new_nodes(ob)
    check = _set_check(oset, bound)
    if not (new and check.fits[frame]
            and _fits_int64(forms + [ob.local], bound)):
        return None
    nodes = oset.path_size(frame) + len(new) + frame.depth + 1 \
        + sum(_node_count(f) for f in forms)
    order = sorted(ob.free_vars().union(*map(free_vars, forms)))
    return forms + [FNot(ob.local)], order, frame, nodes, check.box_for(order)
