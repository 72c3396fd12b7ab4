"""Abstract syntax for MiniC programs and their contract annotations.

MiniC is a deliberately small C subset: int and int* types, assignments,
if/else, while (with invariant annotations), non-nested calls and returns.
Contracts follow the ACSL style: requires/ensures/assigns clauses plus
`relational` clauses that relate several calls of (possibly distinct)
functions through a `\\callset`.

All nodes are immutable records (`frozen.Frozen`) whose fields are
dataclass fields and which compare by value; source spans are carried for
diagnostics but declared `compare=False`, so parse/pretty round-trips
compare equal AST-to-AST.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

from .frozen import Frozen

INT = "int"
PTR = "int*"
VOID = "void"

ARITH_OPS = ("+", "-", "*", "/")
CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

BUILTIN_LABELS = ("Pre", "Post", "Here", "Old")


class Span(Frozen):
    """Half-open source region, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class Diagnostic(Frozen):
    severity: str  # "error" | "warning"
    span: Optional[Span]
    message: str

    def __str__(self) -> str:
        where = str(self.span) if self.span is not None else "<unknown>"
        return f"{where}: {self.severity}: {self.message}"


class Node(Frozen):
    span: Optional[Span] = field(default=None, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Terms (arithmetic expressions, both program-level and logic-level)
# ---------------------------------------------------------------------------


class Term(Node):
    pass


class IntLit(Term):
    value: int


class FloatLit(Term):
    # Parsed per the annotation grammar, rejected by validation.
    text: str


class Var(Term):
    name: str


class Deref(Term):
    name: str


class Bin(Term):
    op: str
    left: Term
    right: Term


class CallResult(Term):
    """`\\callresult(id)`: value returned by the callset call named `id`."""

    call_id: str


class At(Term):
    """`\\at(e, L)`: e evaluated in the state named by label L.

    L is either a built-in label (Pre/Post/Here/Old) or a per-call label
    Pre_<call-id> / Post_<call-id>.
    """

    base: Term  # Var or Deref
    label: str


class CallPure(Term):
    """`\\callpure(k, f, args)`: result of pure function f, unfolded up to k."""

    depth: int
    callee: str
    args: tuple[Term, ...]


class OldTerm(Term):
    """`\\old(e)` inside an ensures clause."""

    term: Term


class ResultTerm(Term):
    """`\\result` inside an ensures clause."""


class LogicApp(Term):
    """Application of a declared logic function, e.g. `max_acsl(x, y)`."""

    name: str
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Pred(Node):
    pass


class PBool(Pred):
    value: bool


class Cmp(Pred):
    op: str
    left: Term
    right: Term


class PAnd(Pred):
    left: Pred
    right: Pred


class POr(Pred):
    left: Pred
    right: Pred


class PImp(Pred):
    left: Pred
    right: Pred


class PNot(Pred):
    body: Pred


class Binder(Node):
    name: str
    ty: str = INT


class PForall(Pred):
    binders: tuple[Binder, ...]
    body: Pred


class PExists(Pred):
    binders: tuple[Binder, ...]
    body: Pred


class Separated(Pred):
    """`\\separated(p, q)`: p and q address disjoint memory."""

    left: Term
    right: Term


class PredApp(Pred):
    """Application of a declared predicate, optionally label-parameterized,
    e.g. `h_acsl(y_pre, y_post)` or `k_acsl{Pre, Post}(y)`."""

    name: str
    labels: tuple[str, ...]
    args: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


class DeclStmt(Stmt):
    name: str
    init: Optional[Term]


class AssignStmt(Stmt):
    target: Term  # Var or Deref
    value: Term


class CallStmt(Stmt):
    """`x = f(args);` or `f(args);` — calls are statements, never nested."""

    target: Optional[str]
    callee: str
    args: tuple[Term, ...]


class IfStmt(Stmt):
    cond: Pred
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


class WhileStmt(Stmt):
    cond: Pred
    invariant: Optional[Pred]
    variant: Optional[Term]
    body: tuple[Stmt, ...]


class ReturnStmt(Stmt):
    value: Optional[Term]


class AssertStmt(Stmt):
    label: Optional[str]
    pred: Pred


# ---------------------------------------------------------------------------
# Contracts and relational clauses
# ---------------------------------------------------------------------------


class Loc(Node):
    pass


class GlobalLoc(Loc):
    name: str


class DerefLoc(Loc):
    name: str  # a pointer-typed formal of the enclosing function


class ResultLoc(Loc):
    pass


class NothingLoc(Loc):
    pass


class FormalLoc(Loc):
    """A plain formal named in a `\\from` list; formals are not state."""

    name: str


def loc_str(loc: Loc) -> str:
    """A location as an assigns clause writes it."""
    if isinstance(loc, DerefLoc):
        return f"*{loc.name}"
    if isinstance(loc, (GlobalLoc, FormalLoc)):
        return loc.name
    if isinstance(loc, ResultLoc):
        return "\\result"
    if isinstance(loc, NothingLoc):
        return "\\nothing"
    raise TypeError(f"unknown location {loc!r}")


class AssignsClause(Node):
    target: Loc
    sources: tuple[Loc, ...]


class Behavior(Node):
    name: str
    ensures: tuple[Pred, ...]


class CallSpec(Node):
    """One `\\call(k, f, args, id)` inside a `\\callset`."""

    depth: int
    callee: str
    args: tuple[Term, ...]
    call_id: str


class RelationalClause(Node):
    name: str
    binders: tuple[Binder, ...]
    calls: tuple[CallSpec, ...]
    pred: Pred


class Contract(Node):
    requires: tuple[Pred, ...] = ()
    assigns: tuple[AssignsClause, ...] = ()
    ensures: tuple[Pred, ...] = ()
    behaviors: tuple[Behavior, ...] = ()
    relational: tuple[RelationalClause, ...] = ()

    def is_empty(self) -> bool:
        return not (self.requires or self.assigns or self.ensures
                    or self.behaviors or self.relational)


# ---------------------------------------------------------------------------
# Axiomatic blocks (generated logic layer, also parseable from source)
# ---------------------------------------------------------------------------


class Param(Node):
    name: str
    ty: str = INT


class PredicateDecl(Node):
    name: str
    labels: tuple[str, ...]
    params: tuple[Param, ...]
    reads: tuple[Term, ...] = ()


class LogicFnDecl(Node):
    name: str
    params: tuple[Param, ...]


class Lemma(Node):
    name: str
    labels: tuple[str, ...]
    body: Pred


AxiomItem = Union[PredicateDecl, LogicFnDecl, Lemma]


class Axiomatic(Node):
    name: str
    items: tuple[AxiomItem, ...]

    def lemmas(self) -> tuple[Lemma, ...]:
        return tuple(i for i in self.items if isinstance(i, Lemma))


# ---------------------------------------------------------------------------
# Top-level
# ---------------------------------------------------------------------------


class GlobalDecl(Node):
    name: str
    ty: str = INT  # INT or PTR
    init: Optional[int] = None


class FunctionDef(Node):
    name: str
    formals: tuple[Param, ...]
    ret: str  # INT or VOID
    body: tuple[Stmt, ...]
    contract: Contract = Contract()


TopItem = Union[GlobalDecl, Axiomatic, FunctionDef]


class Program(Node):
    """A translation unit; `items` preserves declaration order."""

    items: tuple[TopItem, ...] = ()

    @property
    def globals(self) -> tuple[GlobalDecl, ...]:
        return tuple(i for i in self.items if isinstance(i, GlobalDecl))

    @property
    def functions(self) -> tuple[FunctionDef, ...]:
        return tuple(i for i in self.items if isinstance(i, FunctionDef))

    @property
    def axiomatics(self) -> tuple[Axiomatic, ...]:
        return tuple(i for i in self.items if isinstance(i, Axiomatic))

    @cached_property
    def _function_index(self) -> dict[str, FunctionDef]:
        out: dict[str, FunctionDef] = {}
        for f in self.functions:
            out.setdefault(f.name, f)  # the first definition wins
        return out

    def function(self, name: str) -> Optional[FunctionDef]:
        return self._function_index.get(name)

    @cached_property
    def _logic_index(self) -> dict[str, Union[PredicateDecl, LogicFnDecl]]:
        return {item.name: item for ax in self.axiomatics for item in ax.items
                if isinstance(item, (PredicateDecl, LogicFnDecl))}

    def logic_decls(self) -> dict[str, Union[PredicateDecl, LogicFnDecl]]:
        """Logic symbols by name (a later declaration wins); read-only."""
        return self._logic_index

    @cached_property
    def memo(self) -> dict:
        """Cache for facts derived from this immutable program, such as
        footprints; each analysis keys its own entries."""
        return {}

    def clauses(self) -> tuple[tuple[FunctionDef, RelationalClause], ...]:
        """All relational clauses paired with their host function, in
        declaration order (the order used to number generated artifacts)."""
        out = []
        for f in self.functions:
            for c in f.contract.relational:
                out.append((f, c))
        return tuple(out)


def rel_label(label: str) -> Optional[tuple[str, str]]:
    """Split a Pre_<id>/Post_<id> label into (kind, call-id), else None."""
    for kind in ("Pre", "Post"):
        prefix = kind + "_"
        if label.startswith(prefix) and len(label) > len(prefix):
            return kind, label[len(prefix):]
    return None


# Field annotations that cannot hold a node.
_SCALARS = {"str", "int", "bool", "Optional[str]", "Optional[int]",
            "Optional[bool]", "tuple[str, ...]"}
# Per node class, the fields that can hold nodes, last field first.
_NODE_FIELDS: dict[type, tuple[str, ...]] = {}


def _node_fields(cls: type) -> tuple[str, ...]:
    names = _NODE_FIELDS.get(cls)
    if names is None:
        names = _NODE_FIELDS[cls] = tuple(
            f.name for f in reversed(fields(cls))
            if f.name != "span" and f.type not in _SCALARS)
    return names


def walk(node) -> Iterator[Node]:
    """Pre-order iteration over `node` (a Node or a tuple of them) and every
    Node below it, fields in declaration order; spans are not visited."""
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        n = pop()
        names = _NODE_FIELDS.get(type(n))
        if names is None:
            if isinstance(n, tuple):
                stack.extend(reversed(n))
                continue
            if not isinstance(n, Node):
                continue
            names = _node_fields(type(n))
        yield n
        for name in names:
            push(getattr(n, name))


def statements(stmts) -> Iterator[Stmt]:
    """Pre-order iteration over the statements of `stmts` (a sequence) and of
    the branches and loop bodies nested in them: the `Stmt`s `walk` yields,
    without visiting a term, predicate or annotation."""
    stack = list(reversed(stmts))
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, IfStmt):
            stack.extend(reversed(s.orelse))
            stack.extend(reversed(s.then))
        elif isinstance(s, WhileStmt):
            stack.extend(reversed(s.body))


# Per node class: the level it costs beyond its own node where the parser
# reads an implication chain (1 for a predicate other than PImp; a PImp is
# that level), and its node fields, each with whether a chain is read there.
_LEVELS: dict[type, tuple[int, tuple[tuple[str, bool], ...]]] = {}


def _levels(cls: type) -> tuple[int, tuple[tuple[str, bool], ...]]:
    out = _LEVELS.get(cls)
    if out is None:
        chains = {PImp: ("right",), PForall: ("body",), PExists: ("body",)}.get(
            cls, () if issubclass(cls, Pred) else _node_fields(cls))
        extra = int(issubclass(cls, Pred) and cls is not PImp)
        out = _LEVELS[cls] = (extra, tuple((name, name in chains)
                                           for name in _node_fields(cls)))
    return out


def height(node) -> int:
    """Nesting levels the parser spends on `node` (a Node or a tuple of
    them): the nodes on the longest downward path, plus one for each
    predicate other than `==>` where the parser reads an implication chain
    on a level of its own: at the root or under a node that is no
    predicate, as a quantifier body and as the right side of `==>`; and
    one for a negative literal, read as `-` and its digits. Computed
    without recursion, so any depth is measured."""
    best = 0
    stack = [(node, 0, True)]
    pop, push = stack.pop, stack.append
    while stack:
        n, d, chain = pop()
        levels = _LEVELS.get(type(n))
        if levels is None:
            if isinstance(n, tuple):
                stack.extend([(c, d, chain) for c in n])
                continue
            if not isinstance(n, Node):
                continue
            levels = _levels(type(n))
        extra, kids = levels
        d += 1 + (extra if chain else 0)
        if n.__class__ is IntLit and n.value < 0:
            d += 1
        if d > best:
            best = d
        for name, opens in kids:
            push((getattr(n, name), d, opens))
    return best


def map_nodes(node, fn: Callable[[Node], Optional[Node]]):
    """Rebuild `node` (a Node or a tuple of them) top-down. Where `fn(n)`
    returns a node, that node replaces n whole; where it returns None, n's
    children are mapped and n is rebuilt with its span, or kept as is when
    no child changed."""
    if isinstance(node, tuple):
        items = tuple(map_nodes(n, fn) for n in node)
        return node if all(a is b for a, b in zip(node, items)) else items
    if not isinstance(node, Node):
        return node
    out = fn(node)
    if out is not None:
        return out
    old = [getattr(node, f) for f in node.__match_args__]  # all but the span
    new = [map_nodes(v, fn) for v in old]
    if all(a is b for a, b in zip(old, new)):
        return node
    return type(node)(*new, span=node.span)
