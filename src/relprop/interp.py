"""Big-step interpreter for MiniC with labeled state snapshots.

Program arithmetic is 64-bit two's-complement with overflow reported as a
runtime error (never wrapped); division is Euclidean, matching the logic,
and errors on a zero divisor. Assertions are evaluated against the snapshot
table (`Pre` is taken at function entry, `Here` is the current state);
applications of generated `_acsl` logic functions are evaluated by running
the mirrored C function on an isolated copy of the global state. Quantifiers
and predicate applications are not executable.
"""

from __future__ import annotations

from typing import Optional

from .frozen import Frozen
from .minic import (
    INT,
    Program, FunctionDef,
    Stmt, DeclStmt, AssignStmt, CallStmt, IfStmt, WhileStmt, ReturnStmt,
    AssertStmt,
    Term, IntLit, Var, Deref, Bin, At, CallPure, OldTerm, ResultTerm,
    LogicApp, CallResult,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot, PForall, PExists, Separated,
    PredApp,
)
from .logic import ARITH, CMP

INT_MIN = -(2 ** 63)
INT_MAX = 2 ** 63 - 1
# Deepest MiniC call nesting a run may reach. Each MiniC call costs several
# Python frames, so this stays well below Python's recursion limit.
MAX_CALL_DEPTH = 64


class InterpError(Exception):
    pass


class DivisionByZero(InterpError):
    pass


class Overflow(InterpError):
    pass


class FuelExhausted(InterpError):
    pass


class NotExecutable(InterpError):
    pass


class AssertViolated(InterpError):
    def __init__(self, label: str, state: "State"):
        super().__init__(f"assertion {label} violated")
        self.label = label
        self.state = state


class Snapshot(Frozen):
    globals: dict[str, int]
    heap: dict[int, int]
    frame: dict[str, int]


class State:
    """Mutable machine state: globals, heap cells, and label snapshots.
    Pointer values are heap cell ids; snapshots are frozen copies."""

    def __init__(self, globals: Optional[dict] = None,
                 heap: Optional[dict] = None, snapshots: Optional[dict] = None):
        self.globals = {} if globals is None else globals
        self.heap = {} if heap is None else heap
        self.snapshots = {} if snapshots is None else snapshots
        self._next_cell = 1

    def alloc(self, value: int) -> int:
        cid = self._next_cell
        self._next_cell += 1
        self.heap[cid] = value
        return cid

    def snapshot(self, label: str, frame: dict[str, int]) -> None:
        self.snapshots[label] = Snapshot(dict(self.globals), dict(self.heap),
                                         dict(frame))


class Fuel:
    """Shared budget for loop iterations and calls; `Interp` also bounds
    the call depth by MAX_CALL_DEPTH."""

    def __init__(self, amount: int):
        self.remaining = amount

    def burn(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted("fuel exhausted")


def _check64(v: int) -> int:
    if v < INT_MIN or v > INT_MAX:
        raise Overflow(f"value {v} exceeds 64-bit range")
    return v


class _Return(Exception):
    def __init__(self, value: Optional[int]):
        self.value = value


def init_state(program: Program) -> State:
    state = State()
    for g in program.globals:
        if g.ty == INT:
            state.globals[g.name] = g.init if g.init is not None else 0
    return state


class Interp:
    def __init__(self, program: Program, fuel: Fuel):
        self.program = program
        self.fuel = fuel
        self.depth = 0

    # -- expressions --------------------------------------------------------

    def term(self, t: Term, state: State, frame: dict[str, int]) -> int:
        if isinstance(t, IntLit):
            return t.value
        if isinstance(t, Var):
            if t.name in frame:
                return frame[t.name]
            if t.name in state.globals:
                return state.globals[t.name]
            raise InterpError(f"unbound variable {t.name}")
        if isinstance(t, Deref):
            cid = self.term(Var(t.name), state, frame)
            if cid not in state.heap:
                raise InterpError(f"dangling pointer {t.name}")
            return state.heap[cid]
        if isinstance(t, Bin):
            a = self.term(t.left, state, frame)
            b = self.term(t.right, state, frame)
            if t.op == "/" and b == 0:
                raise DivisionByZero("division by zero")
            return _check64(ARITH[t.op](a, b))
        raise NotExecutable(f"term {t!r} is not a program expression")

    def cond(self, p: Pred, state: State, frame: dict[str, int]) -> bool:
        if isinstance(p, Cmp):
            return CMP[p.op](self.term(p.left, state, frame),
                             self.term(p.right, state, frame))
        if isinstance(p, PAnd):
            return self.cond(p.left, state, frame) and self.cond(p.right, state, frame)
        if isinstance(p, POr):
            return self.cond(p.left, state, frame) or self.cond(p.right, state, frame)
        if isinstance(p, PNot):
            return not self.cond(p.body, state, frame)
        raise NotExecutable(f"condition {p!r} is not executable")

    # -- statements -----------------------------------------------------------

    def run(self, fn: FunctionDef, args: list[int], state: State) -> Optional[int]:
        self.fuel.burn()
        if self.depth >= MAX_CALL_DEPTH:
            raise FuelExhausted(f"call depth exceeds {MAX_CALL_DEPTH}")
        if len(args) != len(fn.formals):
            raise InterpError(f"{fn.name} expects {len(fn.formals)} arguments")
        frame = {p.name: a for p, a in zip(fn.formals, args)}
        state.snapshot("Pre", frame)
        self.depth += 1
        try:
            self.stmts(fn.body, state, frame)
        except _Return as r:
            return r.value
        finally:
            self.depth -= 1
            state.snapshots.pop("Pre", None)
        return None

    def stmts(self, body: tuple[Stmt, ...], state: State,
              frame: dict[str, int]) -> None:
        for s in body:
            self.stmt(s, state, frame)

    def stmt(self, s: Stmt, state: State, frame: dict[str, int]) -> None:
        if isinstance(s, DeclStmt):
            frame[s.name] = self.term(s.init, state, frame) if s.init is not None else 0
        elif isinstance(s, AssignStmt):
            value = self.term(s.value, state, frame)
            if isinstance(s.target, Var):
                if s.target.name in frame:
                    frame[s.target.name] = value
                elif s.target.name in state.globals:
                    state.globals[s.target.name] = value
                else:
                    raise InterpError(f"unbound variable {s.target.name}")
            else:
                cid = self.term(Var(s.target.name), state, frame)
                if cid not in state.heap:
                    raise InterpError(f"dangling pointer {s.target.name}")
                state.heap[cid] = value
        elif isinstance(s, CallStmt):
            value = self.call(s.callee, [self.term(a, state, frame)
                                         for a in s.args], state)
            if s.target is not None:
                self.stmt(AssignStmt(Var(s.target), IntLit(value or 0)),
                          state, frame)
        elif isinstance(s, IfStmt):
            branch = s.then if self.cond(s.cond, state, frame) else s.orelse
            self.stmts(branch, state, frame)
        elif isinstance(s, WhileStmt):
            while self.cond(s.cond, state, frame):
                self.fuel.burn()
                self.stmts(s.body, state, frame)
        elif isinstance(s, ReturnStmt):
            raise _Return(self.term(s.value, state, frame)
                          if s.value is not None else None)
        elif isinstance(s, AssertStmt):
            # `Here` is the live state: `_label_value` reads it directly.
            if not self.logic_pred(s.pred, state, frame):
                raise AssertViolated(s.label or "assert", state)
        else:
            raise TypeError(f"unknown statement {s!r}")

    def call(self, callee: str, args: list[int], state: State) -> Optional[int]:
        fn = self.program.function(callee)
        if fn is not None:
            saved = {lbl: state.snapshots[lbl] for lbl in list(state.snapshots)}
            state.snapshots.clear()
            try:
                return self.run(fn, args, state)
            finally:
                state.snapshots.clear()
                state.snapshots.update(saved)
        # Application of a generated logic mirror: run the mirrored function.
        base = self._mirrored(callee)
        if base is not None:
            return self.run_isolated(base, args)
        raise InterpError(f"call to undefined function {callee}")

    def _mirrored(self, name: str) -> Optional[FunctionDef]:
        if name.endswith("_acsl"):
            return self.program.function(name[:-len("_acsl")])
        return None

    def run_isolated(self, fn: FunctionDef, args: list[int]) -> Optional[int]:
        """Run a pure function on a throwaway copy of the global state."""
        iso = State()
        iso.globals = {g.name: (g.init or 0) for g in self.program.globals
                       if g.ty == INT}
        return self.run(fn, args, iso)

    # -- logic evaluation (runtime assertion checking) ---------------------------

    def _label_value(self, base: Term, label: str, state: State,
                     frame: dict[str, int]) -> int:
        if label == "Here" or label == "Post":
            return self.term(base, state, frame)
        snap = state.snapshots.get(label if label != "Old" else "Pre")
        if snap is None:
            raise NotExecutable(f"label {label} has no snapshot here")
        if isinstance(base, Var):
            if base.name in snap.frame:
                return snap.frame[base.name]
            if base.name in snap.globals:
                return snap.globals[base.name]
            raise InterpError(f"unbound variable {base.name}")
        if isinstance(base, Deref):
            cid = self.term(Var(base.name), state, frame)
            if cid not in snap.heap:
                raise InterpError(f"dangling pointer {base.name}")
            return snap.heap[cid]
        raise NotExecutable(f"\\at on {base!r}")

    def logic_term(self, t: Term, state: State, frame: dict[str, int]) -> int:
        if isinstance(t, At):
            return self._label_value(t.base, t.label, state, frame)
        if isinstance(t, OldTerm):
            return self.logic_term(At(t.term, "Pre"), state, frame) \
                if isinstance(t.term, (Var, Deref)) \
                else self._old_general(t.term, state, frame)
        if isinstance(t, Bin):
            a = self.logic_term(t.left, state, frame)
            b = self.logic_term(t.right, state, frame)
            if t.op == "/" and b == 0:
                raise DivisionByZero("division by zero in annotation")
            return ARITH[t.op](a, b)
        if isinstance(t, (LogicApp, CallPure)):
            name = t.name if isinstance(t, LogicApp) else t.callee
            args = [self.logic_term(a, state, frame) for a in t.args]
            fn = self._mirrored(name) or self.program.function(name)
            if fn is None:
                raise NotExecutable(f"{name} has no executable definition")
            value = self.run_isolated(fn, args)
            if value is None:
                raise NotExecutable(f"{name} returns no value")
            return value
        if isinstance(t, (ResultTerm, CallResult)):
            raise NotExecutable(f"{t!r} is not executable here")
        return self.term(t, state, frame)

    def _old_general(self, t: Term, state: State, frame: dict[str, int]) -> int:
        snap = state.snapshots.get("Pre")
        if snap is None:
            raise NotExecutable("\\old outside a function body")
        shadow = State(dict(snap.globals), dict(snap.heap), dict(state.snapshots))
        return self.logic_term(t, shadow, dict(snap.frame))

    def logic_pred(self, p: Pred, state: State, frame: dict[str, int]) -> bool:
        if isinstance(p, PBool):
            return p.value
        if isinstance(p, Cmp):
            return CMP[p.op](self.logic_term(p.left, state, frame),
                             self.logic_term(p.right, state, frame))
        if isinstance(p, PAnd):
            return self.logic_pred(p.left, state, frame) and \
                self.logic_pred(p.right, state, frame)
        if isinstance(p, POr):
            return self.logic_pred(p.left, state, frame) or \
                self.logic_pred(p.right, state, frame)
        if isinstance(p, PImp):
            return (not self.logic_pred(p.left, state, frame)) or \
                self.logic_pred(p.right, state, frame)
        if isinstance(p, PNot):
            return not self.logic_pred(p.body, state, frame)
        if isinstance(p, Separated):
            a = self.logic_term(p.left, state, frame)
            b = self.logic_term(p.right, state, frame)
            return a != b
        if isinstance(p, (PForall, PExists)):
            raise NotExecutable("quantifiers are not executable at runtime")
        if isinstance(p, PredApp):
            raise NotExecutable(f"predicate {p.name} is not executable")
        raise TypeError(f"unknown predicate {p!r}")


def interpret(fn: FunctionDef, args: list[int], state: Optional[State] = None,
              fuel: int = 100_000,
              program: Optional[Program] = None) -> tuple[Optional[int], State]:
    """Interpret one function call; returns (return value, final state).

    Raises DivisionByZero, Overflow, FuelExhausted, AssertViolated, or
    NotExecutable. The fuel bounds loop iterations and calls;
    MAX_CALL_DEPTH bounds call nesting.
    """
    if program is None:
        program = Program((fn,))
    if state is None:
        state = init_state(program)
    interp = Interp(program, Fuel(fuel))
    value = interp.run(fn, list(args), state)
    return value, state
