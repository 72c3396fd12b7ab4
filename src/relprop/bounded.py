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
int64 take a vectorized numpy path that evaluates each node over its own
variables' axes; the exact scalar evaluator (unbounded integers) handles
quantifiers, tables and everything that could overflow int64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .logic import (
    TermF, Form, IVar, ICon, IOp, IIte, IApp,
    FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp,
    TRUE, ARITH, CMP, simplify, free_vars, symbols, has_quantifier,
    instance_of, rename, dag_walk,
)
from .vcgen import VerificationCondition

DEFAULT_BUDGET = 10_000_000_000  # elementary evaluation steps


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class BoundedResult:
    status: str  # "valid" | "counterexample" | "unknown"
    bound: int
    assignment: Optional[dict[str, int]] = None
    method: str = "enumeration"  # instantiation | vectorized | enumeration
    rows: int = 0                # variable assignments examined
    reason: Optional[str] = None  # for unknown: "tables" | "havoc"

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


def _dirty(name: str) -> bool:
    return "$h" in name or "$sk" in name


def _node_count(f: Form) -> int:
    # Dag-aware: shared subterms are evaluated once, so count them once.
    return sum(1 for _ in dag_walk(f))


_INT64_MAX = 2 ** 63 - 1


def _fits_int64(forms: list[Form], bound: int) -> bool:
    """True when no term can leave int64 with every variable in
    [-bound, bound]: a worst-case magnitude per term node, over the dag."""
    mag: dict[int, int] = {}
    for f in forms:
        for n in dag_walk(f):
            if id(n) in mag:
                continue
            if isinstance(n, IVar):
                m = bound
            elif isinstance(n, ICon):
                m = abs(n.value)
            elif isinstance(n, IOp):
                a, b = mag[id(n.left)], mag[id(n.right)]
                m = a if n.op == "/" else a * b if n.op == "*" else a + b
            elif isinstance(n, IIte):
                m = max(mag[id(n.then)], mag[id(n.other)])
            else:
                continue
            if m > _INT64_MAX:
                return False
            mag[id(n)] = m
    return True


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


def _negate_goal(goal: Form, taken: set[str],
                 counter: list[int]) -> tuple[Form, set[str]]:
    """Negate the goal, turning a leading forall prefix into free variables
    (renamed when they would collide)."""
    opened: set[str] = set()
    while isinstance(goal, FQuant) and goal.kind == "forall":
        mapping = {}
        for v in goal.vars:
            name = v
            if name in taken:
                counter[0] += 1
                name = f"{v}$sk{counter[0]}"
                mapping[v] = name
            taken.add(name)
            opened.add(name)
        goal = rename(goal.body, mapping) if mapping else goal.body
    return FNot(goal), opened


def _prepare(goal: Form, hyps: list[Form]) -> tuple[list[Form], set[str]]:
    """Hypotheses plus negated goal (both already simplified), Skolemized.

    Quantified hypotheses over uninterpreted symbols (admitted lemmas) are
    excluded from the search: instantiating their tables at every quantified
    point blows up combinatorially, and they are already exploited by the
    instance fast path in check_bounded. Dropping hypotheses only makes
    validity harder to conclude, and any falsification that involves tables
    is reported as unknown rather than as a counterexample, so soundness is
    unaffected.
    """
    taken: set[str] = set(free_vars(goal))
    for h in hyps:
        taken |= free_vars(h)
    counter = [0]
    neg_goal, _ = _negate_goal(goal, taken, counter)
    forms: list[Form] = []
    for h in hyps:
        h = simplify(_skolemize_exists(h, taken, counter))
        if h == TRUE:
            continue
        if symbols(h) and has_quantifier(h):
            continue
        forms.append(h)
    forms.append(simplify(neg_goal))
    free: set[str] = set()
    for f in forms:
        free |= free_vars(f)
    return forms, free


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------

_CHUNK = 1 << 21


def _np_ediv(a, b):
    bz = b == 0
    safe = np.where(bz, 1, b)
    q = np.where(safe > 0, a // safe, -(a // -safe))
    return np.where(bz, 0, q)


def _np_term(t: TermF, env, memo) -> np.ndarray:
    key = id(t)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(t, IVar):
        out = env[t.name]
    elif isinstance(t, ICon):
        out = np.int64(t.value)
    elif isinstance(t, IOp):
        a, b = _np_term(t.left, env, memo), _np_term(t.right, env, memo)
        out = _np_ediv(a, b) if t.op == "/" else ARITH[t.op](a, b)
    elif isinstance(t, IIte):
        out = np.where(_np_form(t.cond, env, memo), _np_term(t.then, env, memo),
                       _np_term(t.other, env, memo))
    else:
        raise TypeError(f"vectorized path cannot evaluate {t!r}")
    memo[key] = (t, out)
    return out


def _np_form(f: Form, env, memo=None) -> np.ndarray:
    memo = memo if memo is not None else {}
    key = id(f)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(f, FBool):
        out = np.bool_(f.value)
    elif isinstance(f, FCmp):
        out = CMP[f.op](_np_term(f.left, env, memo), _np_term(f.right, env, memo))
    elif isinstance(f, FNot):
        out = ~_np_form(f.body, env, memo)
    elif isinstance(f, FAnd):
        out = _np_form(f.items[0], env, memo)
        for i in f.items[1:]:
            out = out & _np_form(i, env, memo)
    elif isinstance(f, FOr):
        out = _np_form(f.items[0], env, memo)
        for i in f.items[1:]:
            out = out | _np_form(i, env, memo)
    elif isinstance(f, FImp):
        out = ~_np_form(f.hyp, env, memo) | _np_form(f.concl, env, memo)
    else:
        raise TypeError(f"vectorized path cannot evaluate {f!r}")
    memo[key] = (f, out)
    return out


def _vectorized_search(forms: list[Form], order: list[str], bound: int,
                       budget: int) -> tuple[int, Optional[dict[str, int]]]:
    """Lexicographic enumeration by numpy broadcasting, in blocks of at most
    _CHUNK cells; returns (rows, first falsifying assignment or None)."""
    size = 2 * bound + 1
    k = len(order)
    total = size ** k
    nodes = sum(_node_count(f) for f in forms)
    if total * max(nodes, 1) > budget:
        raise BudgetExceeded(
            f"{total} assignments x {nodes} nodes exceeds the budget")
    if k == 0:
        env: dict[str, np.ndarray] = {}
        ok = all(bool(np.all(_np_form(f, env))) for f in forms)
        return 1, ({} if ok else None)
    # A block spans the last `whole` axes, a slice of the axis before them,
    # and one value of each earlier axis.
    whole = 0
    while whole < k - 1 and size ** (whole + 1) <= _CHUNK:
        whole += 1
    widths = [1] * (k - 1 - whole) + [_CHUNK // size ** whole] + [size] * whole
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    for starts in itertools.product(*(range(0, size, w) for w in widths)):
        cuts = [values[s:s + w] for s, w in zip(starts, widths)]
        env = dict(zip(order, np.ix_(*cuts)))  # variable i on axis i
        mask = np.bool_(True)
        memo: dict = {}
        for f in forms:
            mask = mask & _np_form(f, env, memo)
            if not mask.any():
                break
        if mask.any():
            shape = tuple(len(c) for c in cuts)
            at = np.argmax(np.broadcast_to(mask, shape))
            idx = [s + int(c) for s, c in zip(starts, np.unravel_index(at, shape))]
            return (int(np.ravel_multi_index(idx, (size,) * k)) + 1,
                    {v: i - bound for v, i in zip(order, idx)})
    return total, None


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
    goal = simplify(vc.goal)
    if goal == TRUE:
        return BoundedResult("valid", bound, method="instantiation", rows=0)
    hyps = [simplify(h) for _name, h in vc.hypotheses]
    if any(instance_of(h, goal) for h in hyps):
        return BoundedResult("valid", bound, method="instantiation", rows=0)

    forms, free = _prepare(goal, hyps)
    order = sorted(free)
    any_tables = any(symbols(f) for f in forms)
    any_quant = any(has_quantifier(f) for f in forms)

    if not any_tables and not any_quant and _fits_int64(forms, bound):
        rows, assignment = _vectorized_search(forms, order, bound, budget)
        if assignment is None:
            return BoundedResult("valid", bound, method="vectorized", rows=rows)
        if any(_dirty(v) for v in assignment):
            return BoundedResult("unknown", bound, assignment,
                                 method="vectorized", rows=rows, reason="havoc")
        return BoundedResult("counterexample", bound, assignment,
                             method="vectorized", rows=rows)

    rows, assignment, used_tables = _scalar_search(forms, order, bound, budget)
    if assignment is None:
        return BoundedResult("valid", bound, method="enumeration", rows=rows)
    if used_tables or any(_dirty(v) for v in assignment):
        reason = "tables" if used_tables else "havoc"
        return BoundedResult("unknown", bound, assignment,
                             method="enumeration", rows=rows, reason=reason)
    return BoundedResult("counterexample", bound, assignment,
                         method="enumeration", rows=rows)
