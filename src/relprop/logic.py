"""First-order formulas over unbounded integers with uninterpreted symbols.

This is the language verification conditions live in: integer variables,
arithmetic with Euclidean division, if-then-else terms, comparisons, the
boolean connectives, quantifiers, and applications of uninterpreted
functions (`IApp`, integer-valued) and predicates (`FApp`, boolean-valued).
All nodes are immutable; substitution is capture-avoiding.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union


# -- terms -------------------------------------------------------------------


@dataclass(frozen=True)
class IVar:
    name: str


@dataclass(frozen=True)
class ICon:
    value: int


@dataclass(frozen=True)
class IOp:
    op: str  # + - * /
    left: "TermF"
    right: "TermF"


@dataclass(frozen=True)
class IIte:
    cond: "Form"
    then: "TermF"
    other: "TermF"


@dataclass(frozen=True)
class IApp:
    fn: str
    args: tuple["TermF", ...]


TermF = Union[IVar, ICon, IOp, IIte, IApp]


# -- formulas ----------------------------------------------------------------


@dataclass(frozen=True)
class FBool:
    value: bool


@dataclass(frozen=True)
class FCmp:
    op: str  # == != <= >= < >
    left: TermF
    right: TermF


@dataclass(frozen=True)
class FNot:
    body: "Form"


@dataclass(frozen=True)
class FAnd:
    items: tuple["Form", ...]


@dataclass(frozen=True)
class FOr:
    items: tuple["Form", ...]


@dataclass(frozen=True)
class FImp:
    hyp: "Form"
    concl: "Form"


@dataclass(frozen=True)
class FQuant:
    kind: str  # "forall" | "exists"
    vars: tuple[str, ...]
    body: "Form"


@dataclass(frozen=True)
class FApp:
    pred: str
    args: tuple[TermF, ...]


Form = Union[FBool, FCmp, FNot, FAnd, FOr, FImp, FQuant, FApp]

TRUE = FBool(True)
FALSE = FBool(False)


def conj(items: list[Form]) -> Form:
    items = [i for i in items if i != TRUE]
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return FAnd(tuple(items))


def imp(hyp: Form, concl: Form) -> Form:
    if hyp == TRUE:
        return concl
    if concl == TRUE:
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


def emod(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - b * ediv(a, b)


# -- traversals -----------------------------------------------------------------


def term_free_vars(t: TermF) -> set[str]:
    if isinstance(t, IVar):
        return {t.name}
    if isinstance(t, ICon):
        return set()
    if isinstance(t, IOp):
        return term_free_vars(t.left) | term_free_vars(t.right)
    if isinstance(t, IIte):
        return free_vars(t.cond) | term_free_vars(t.then) | term_free_vars(t.other)
    if isinstance(t, IApp):
        out: set[str] = set()
        for a in t.args:
            out |= term_free_vars(a)
        return out
    raise TypeError(f"unknown term {t!r}")


def free_vars(f: Form) -> set[str]:
    if isinstance(f, FBool):
        return set()
    if isinstance(f, FCmp):
        return term_free_vars(f.left) | term_free_vars(f.right)
    if isinstance(f, FNot):
        return free_vars(f.body)
    if isinstance(f, (FAnd, FOr)):
        out: set[str] = set()
        for i in f.items:
            out |= free_vars(i)
        return out
    if isinstance(f, FImp):
        return free_vars(f.hyp) | free_vars(f.concl)
    if isinstance(f, FQuant):
        return free_vars(f.body) - set(f.vars)
    if isinstance(f, FApp):
        out = set()
        for a in f.args:
            out |= term_free_vars(a)
        return out
    raise TypeError(f"unknown formula {f!r}")


def symbols(f: Form) -> dict[str, tuple[int, str]]:
    """Uninterpreted symbols of a formula: name -> (arity, "int" | "bool")."""
    out: dict[str, tuple[int, str]] = {}

    def term(t: TermF) -> None:
        if isinstance(t, IOp):
            term(t.left)
            term(t.right)
        elif isinstance(t, IIte):
            walk(t.cond)
            term(t.then)
            term(t.other)
        elif isinstance(t, IApp):
            out[t.fn] = (len(t.args), "int")
            for a in t.args:
                term(a)

    def walk(g: Form) -> None:
        if isinstance(g, FCmp):
            term(g.left)
            term(g.right)
        elif isinstance(g, FNot):
            walk(g.body)
        elif isinstance(g, (FAnd, FOr)):
            for i in g.items:
                walk(i)
        elif isinstance(g, FImp):
            walk(g.hyp)
            walk(g.concl)
        elif isinstance(g, FQuant):
            walk(g.body)
        elif isinstance(g, FApp):
            out[g.pred] = (len(g.args), "bool")
            for a in g.args:
                term(a)

    walk(f)
    return out


def has_quantifier(f: Form) -> bool:
    if isinstance(f, FQuant):
        return True
    if isinstance(f, FNot):
        return has_quantifier(f.body)
    if isinstance(f, (FAnd, FOr)):
        return any(has_quantifier(i) for i in f.items)
    if isinstance(f, FImp):
        return has_quantifier(f.hyp) or has_quantifier(f.concl)
    if isinstance(f, FCmp):
        return _term_has_quant(f.left) or _term_has_quant(f.right)
    if isinstance(f, FApp):
        return any(_term_has_quant(a) for a in f.args)
    return False


def _term_has_quant(t: TermF) -> bool:
    if isinstance(t, IOp):
        return _term_has_quant(t.left) or _term_has_quant(t.right)
    if isinstance(t, IIte):
        return has_quantifier(t.cond) or _term_has_quant(t.then) \
            or _term_has_quant(t.other)
    if isinstance(t, IApp):
        return any(_term_has_quant(a) for a in t.args)
    return False


# -- substitution ----------------------------------------------------------------


_fresh_counter = 0


def _fresh(base: str) -> str:
    global _fresh_counter
    _fresh_counter += 1
    return f"{base}${_fresh_counter}"


def subst_term(t: TermF, env: dict[str, TermF],
               _memo: Optional[dict] = None) -> TermF:
    # Substituted trees share structure heavily; the id-keyed memo keeps the
    # output sharing (and the work) proportional to the dag, not the tree.
    memo = _memo if _memo is not None else {}
    key = id(t)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(t, IVar):
        out: TermF = env.get(t.name, t)
    elif isinstance(t, ICon):
        out = t
    elif isinstance(t, IOp):
        out = IOp(t.op, subst_term(t.left, env, memo),
                  subst_term(t.right, env, memo))
    elif isinstance(t, IIte):
        out = IIte(subst(t.cond, env, memo), subst_term(t.then, env, memo),
                   subst_term(t.other, env, memo))
    elif isinstance(t, IApp):
        out = IApp(t.fn, tuple(subst_term(a, env, memo) for a in t.args))
    else:
        raise TypeError(f"unknown term {t!r}")
    memo[key] = (t, out)
    return out


def subst(f: Form, env: dict[str, TermF], _memo: Optional[dict] = None) -> Form:
    """Capture-avoiding simultaneous substitution of variables by terms."""
    if not env:
        return f
    memo = _memo if _memo is not None else {}
    key = id(f)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(f, FBool):
        out: Form = f
    elif isinstance(f, FCmp):
        out = FCmp(f.op, subst_term(f.left, env, memo),
                   subst_term(f.right, env, memo))
    elif isinstance(f, FNot):
        out = FNot(subst(f.body, env, memo))
    elif isinstance(f, FAnd):
        out = FAnd(tuple(subst(i, env, memo) for i in f.items))
    elif isinstance(f, FOr):
        out = FOr(tuple(subst(i, env, memo) for i in f.items))
    elif isinstance(f, FImp):
        out = FImp(subst(f.hyp, env, memo), subst(f.concl, env, memo))
    elif isinstance(f, FQuant):
        inner = {k: v for k, v in env.items() if k not in f.vars}
        if not inner:
            out = f
        else:
            captured = [v for v in f.vars
                        if any(v in term_free_vars(t) for t in inner.values())]
            vars_ = list(f.vars)
            body = f.body
            if captured:
                ren = {v: IVar(_fresh(v)) for v in captured}
                body = subst(body, ren)
                vars_ = [ren[v].name if v in ren else v for v in vars_]
            out = FQuant(f.kind, tuple(vars_), subst(body, inner))
    elif isinstance(f, FApp):
        out = FApp(f.pred, tuple(subst_term(a, env, memo) for a in f.args))
    else:
        raise TypeError(f"unknown formula {f!r}")
    memo[key] = (f, out)
    return out


def rename(f: Form, mapping: dict[str, str]) -> Form:
    return subst(f, {k: IVar(v) for k, v in mapping.items()})


# -- simplification ----------------------------------------------------------------


def simplify_term(t: TermF, _memo: Optional[dict] = None) -> TermF:
    memo = _memo if _memo is not None else {}
    key = id(t)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(t, (IVar, ICon)):
        out: TermF = t
    elif isinstance(t, IOp):
        left = simplify_term(t.left, memo)
        right = simplify_term(t.right, memo)
        if isinstance(left, ICon) and isinstance(right, ICon):
            out = ICon(ARITH[t.op](left.value, right.value))
        else:
            out = IOp(t.op, left, right)
    elif isinstance(t, IIte):
        cond = simplify(t.cond, memo)
        then = simplify_term(t.then, memo)
        other = simplify_term(t.other, memo)
        if isinstance(cond, FBool):
            out = then if cond.value else other
        elif then == other:
            out = then
        else:
            out = IIte(cond, then, other)
    elif isinstance(t, IApp):
        out = IApp(t.fn, tuple(simplify_term(a, memo) for a in t.args))
    else:
        raise TypeError(f"unknown term {t!r}")
    memo[key] = (t, out)
    return out


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


def simplify(f: Form, _memo: Optional[dict] = None) -> Form:
    """Light normalization: constant folding, true/false absorption,
    flag-test collapsing, and the one-point rule (forall v, v == t ==> phi
    ~~> phi[t/v]), which keeps bounded checking of call-heavy code from
    enumerating forced values. Memoized over shared subterms."""
    memo = _memo if _memo is not None else {}
    key = id(f)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    out = _simplify_node(f, memo)
    memo[key] = (f, out)
    return out


def _simplify_node(f: Form, memo: dict) -> Form:
    if isinstance(f, FCmp):
        left = simplify_term(f.left, memo)
        right = simplify_term(f.right, memo)
        if isinstance(left, ICon) and isinstance(right, ICon):
            return FBool(CMP[f.op](left.value, right.value))
        if left == right:
            return FBool(f.op in ("==", "<=", ">="))
        pushed = _cmp_over_ite(f.op, left, right)
        if pushed is not None:
            return simplify(pushed, memo)
        return FCmp(f.op, left, right)
    if isinstance(f, FNot):
        body = simplify(f.body, memo)
        if isinstance(body, FBool):
            return FBool(not body.value)
        if isinstance(body, FNot):
            return body.body
        return FNot(body)
    if isinstance(f, FAnd):
        items = []
        for i in f.items:
            s = simplify(i, memo)
            if s == FALSE:
                return FALSE
            if s != TRUE:
                items.append(s)
        return conj(items)
    if isinstance(f, FOr):
        items = []
        for i in f.items:
            s = simplify(i, memo)
            if s == TRUE:
                return TRUE
            if s != FALSE:
                items.append(s)
        if not items:
            return FALSE
        if len(items) == 1:
            return items[0]
        return FOr(tuple(items))
    if isinstance(f, FImp):
        hyp = simplify(f.hyp, memo)
        concl = simplify(f.concl, memo)
        if hyp == FALSE or concl == TRUE or hyp == concl:
            return TRUE
        if hyp == TRUE:
            return concl
        return FImp(hyp, concl)
    if isinstance(f, FQuant):
        body = simplify(f.body, memo)
        if f.kind == "forall":
            body = _one_point(tuple(f.vars), body)
            remaining = [v for v in f.vars if v in free_vars(body)]
            if isinstance(body, FBool) or not remaining:
                return body
            return FQuant("forall", tuple(remaining), body)
        if isinstance(body, FBool):
            return body
        return FQuant(f.kind, f.vars, body)
    if isinstance(f, FApp):
        return FApp(f.pred, tuple(simplify_term(a, memo) for a in f.args))
    return f


def _one_point(vars_: tuple[str, ...], body: Form) -> Form:
    """Eliminate `v == t ==> ...` antecedents for quantified v not free in t."""
    changed = True
    while changed:
        changed = False
        if isinstance(body, FImp) and isinstance(body.hyp, FCmp) \
                and body.hyp.op == "==":
            for var_side, term_side in ((body.hyp.left, body.hyp.right),
                                        (body.hyp.right, body.hyp.left)):
                if isinstance(var_side, IVar) and var_side.name in vars_ \
                        and var_side.name not in term_free_vars(term_side):
                    body = simplify(subst(body.concl,
                                          {var_side.name: term_side}))
                    changed = True
                    break
    return body


# -- matching ------------------------------------------------------------------


def match_term(pattern: TermF, target: TermF, vars_: frozenset[str],
               binding: dict[str, TermF]) -> bool:
    if isinstance(pattern, IVar) and pattern.name in vars_:
        if pattern.name in binding:
            return binding[pattern.name] == target
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
    return hypothesis == goal


# -- printing (debugging aid) ----------------------------------------------------


def term_str(t: TermF) -> str:
    if isinstance(t, IVar):
        return t.name
    if isinstance(t, ICon):
        return str(t.value)
    if isinstance(t, IOp):
        return f"({term_str(t.left)} {t.op} {term_str(t.right)})"
    if isinstance(t, IIte):
        return f"ite({form_str(t.cond)}, {term_str(t.then)}, {term_str(t.other)})"
    if isinstance(t, IApp):
        return f"{t.fn}({', '.join(term_str(a) for a in t.args)})"
    raise TypeError


def form_str(f: Form) -> str:
    if isinstance(f, FBool):
        return "true" if f.value else "false"
    if isinstance(f, FCmp):
        return f"{term_str(f.left)} {f.op} {term_str(f.right)}"
    if isinstance(f, FNot):
        return f"!({form_str(f.body)})"
    if isinstance(f, FAnd):
        return "(" + " && ".join(form_str(i) for i in f.items) + ")"
    if isinstance(f, FOr):
        return "(" + " || ".join(form_str(i) for i in f.items) + ")"
    if isinstance(f, FImp):
        return f"({form_str(f.hyp)} ==> {form_str(f.concl)})"
    if isinstance(f, FQuant):
        return f"({f.kind} {', '.join(f.vars)}. {form_str(f.body)})"
    if isinstance(f, FApp):
        return f"{f.pred}({', '.join(term_str(a) for a in f.args)})"
    raise TypeError
