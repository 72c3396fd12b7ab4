"""Dynamic analysis of relational properties.

`run_wrapper` executes a generated wrapper on a concrete input vector and
reports whether the final `Rpp` assertion held. `find_counterexample`
searches for a falsifying vector, exhaustively over a bounded box or with
seeded random sampling. `runtime_check` replays recorded vectors, the
runtime-verification analog: a counterexample found by searching must fail
again when replayed.

`evaluate_clause` is the independent oracle: it interprets every callset
call of the original (untransformed) program on its own isolated state and
evaluates the relational predicate over the recorded snapshots, with no
wrapper involved.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from typing import Optional

from .frozen import Frozen
from .minic import (
    INT, PTR,
    Program, RelationalClause,
    Term, IntLit, Var, Bin, CallResult, At, CallPure,
    Pred, PBool, Cmp, PAnd, POr, PImp, PNot,
    rel_label,
)
from .logic import ARITH, CMP
from .selfcomp import TransformedProgram, WrapperFunction
from .interp import (
    Fuel, Interp, InterpError, AssertViolated, init_state,
)

DEFAULT_FUEL = 100_000
RANDOM_SPAN = 2 ** 16  # random draws are uniform over [-RANDOM_SPAN, RANDOM_SPAN]
BOUNDARY_SHARE = 0.1   # share of draws taken from {-1, 0, 1}


class InputVector(Frozen):
    """Concrete inputs for one wrapper run: clause binders by name, pointer
    cell contents as `*name`, duplicated globals by name."""

    values: dict[str, int]
    property: Optional[str] = None
    strategy: Optional[str] = None
    seed: Optional[int] = None

    def to_json(self) -> dict:
        out = {"property": self.property, "assignment": dict(self.values)}
        if self.strategy is not None:
            out["strategy"] = self.strategy
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @staticmethod
    def from_json(data: object) -> "InputVector":
        """Raises ValueError unless `data` is an object whose `assignment`
        maps names to integers (a boolean is not one)."""
        if not isinstance(data, dict) or not isinstance(data["assignment"], dict) \
                or any(type(v) is not int for v in data["assignment"].values()):
            raise ValueError("a vector must be an object whose assignment "
                             "maps names to integers")
        return InputVector(values=dict(data["assignment"]),
                           property=data.get("property"),
                           strategy=data.get("strategy"),
                           seed=data.get("seed"))


class CheckReport(Frozen):
    property: str
    outcome: str  # "pass" | "fail" | "error"
    input: InputVector
    error: Optional[str] = None
    trace: tuple[tuple[str, dict[str, int]], ...] = ()
    seconds: float = 0.0


def wrapper_slots(wrapper: WrapperFunction) -> list[str]:
    """Input slots of a wrapper, in a fixed order: binder formals, pointer
    cell contents, duplicated globals."""
    slots = list(wrapper.binder_params)
    slots += [f"*{p}" for p in wrapper.pointer_params]
    slots += list(wrapper.dup_globals)
    return slots


def run_wrapper(wrapper: WrapperFunction, input: InputVector,
                transformed: TransformedProgram,
                fuel: int = DEFAULT_FUEL) -> CheckReport:
    """Execute the wrapper body on one input vector.

    Pointer formals receive pairwise-distinct fresh cells, so separation
    holds by construction; duplicated globals start at their given
    pre-state values; interpreter errors are reported as `error`, a failed
    `Rpp` assertion as `fail`.
    """
    program = transformed.program
    t0 = time.perf_counter()
    state = init_state(program)
    for g in wrapper.dup_globals:
        state.globals[g] = input.values.get(g, 0)
    args: list[int] = []
    for p in wrapper.fn.formals:
        if p.ty == INT:
            args.append(input.values.get(p.name, 0))
        else:
            args.append(state.alloc(input.values.get(f"*{p.name}", 0)))
    interp = Interp(program, Fuel(fuel))
    outcome, error = "pass", None
    trace: list[tuple[str, dict[str, int]]] = []
    entry = dict(state.globals)
    entry.update({f"*{p.name}": state.heap[c]
                  for p, c in zip(wrapper.fn.formals, args) if p.ty == PTR})
    trace.append(("Pre", entry))
    try:
        interp.run(wrapper.fn, args, state)
    except AssertViolated:
        outcome = "fail"
    except InterpError as exc:
        outcome, error = "error", f"{type(exc).__name__}: {exc}"
    exit_env = dict(state.globals)
    exit_env.update({f"*{p.name}": state.heap.get(c, 0)
                     for p, c in zip(wrapper.fn.formals, args) if p.ty == PTR})
    trace.append(("Here", exit_env))
    return CheckReport(property=wrapper.clause, outcome=outcome, input=input,
                       error=error, trace=tuple(trace),
                       seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


def _exhaustive_vectors(slots: list[str], bound: int):
    rng = range(-bound, bound + 1)
    for values in itertools.product(rng, repeat=len(slots)):
        yield dict(zip(slots, values))


def _random_vector(slots: list[str], rng: random.Random) -> dict[str, int]:
    out = {}
    for s in slots:
        if rng.random() < BOUNDARY_SHARE:
            out[s] = rng.choice((-1, 0, 1))
        else:
            out[s] = rng.randint(-RANDOM_SPAN, RANDOM_SPAN)
    return out


def find_counterexample(wrapper: WrapperFunction,
                        transformed: TransformedProgram,
                        strategy: tuple = ("exhaustive", 8),
                        budget_seconds: float = 30.0,
                        fuel: int = DEFAULT_FUEL) -> Optional[InputVector]:
    """First input vector whose wrapper run fails, or None within budget.

    Strategies: ("exhaustive", bound) enumerates [-bound, bound] per slot in
    lexicographic order; ("random", seed, trials) draws reproducibly from a
    wide span with extra weight on boundary values.
    """
    slots = wrapper_slots(wrapper)
    deadline = time.monotonic() + budget_seconds
    kind = strategy[0]
    if kind == "exhaustive":
        bound = int(strategy[1])
        vectors = _exhaustive_vectors(slots, bound)
        meta: dict = {"strategy": f"exhaustive({bound})", "seed": None}
    elif kind == "random":
        seed = int(strategy[1])
        trials = int(strategy[2]) if len(strategy) > 2 else 100_000
        rng = random.Random(seed)
        vectors = (_random_vector(slots, rng) for _ in range(trials))
        meta = {"strategy": f"random({seed})", "seed": seed}
    else:
        raise ValueError(f"unknown strategy {kind!r}")

    for values in vectors:
        if time.monotonic() > deadline:
            return None
        vec = InputVector(values=values, property=wrapper.clause,
                          strategy=meta["strategy"], seed=meta["seed"])
        if run_wrapper(wrapper, vec, transformed, fuel).outcome == "fail":
            return vec
    return None


def runtime_check(transformed: TransformedProgram,
                  vectors: list[InputVector],
                  fuel: int = DEFAULT_FUEL) -> list[CheckReport]:
    """Replay recorded input vectors; one report per vector, errors isolated
    per vector."""
    out: list[CheckReport] = []
    for vec in vectors:
        wrapper = None
        if vec.property is not None:
            wrapper = transformed.wrapper_for(vec.property)
        elif len(transformed.entries) == 1:
            wrapper = transformed.entries[0].wrapper
        if wrapper is None:
            out.append(CheckReport(property=vec.property or "?",
                                   outcome="error", input=vec,
                                   error="no wrapper for this property"))
            continue
        out.append(run_wrapper(wrapper, vec, transformed, fuel))
    return out


# ---------------------------------------------------------------------------
# Independent clause oracle
# ---------------------------------------------------------------------------


class ClauseOracleError(Exception):
    pass


def evaluate_clause(clause: RelationalClause, wrapper: WrapperFunction,
                    source: Program, input: InputVector,
                    fuel: int = DEFAULT_FUEL) -> bool:
    """Evaluate the relational predicate directly: interpret each callset
    call of the original program on its own isolated state copy, snapshot
    pre/post, then evaluate the predicate over those snapshots. Raises
    ClauseOracleError when a run errors."""
    binder_env = {b.name: input.values.get(b.name, 0) for b in clause.binders}
    pre_snaps: dict[str, dict] = {}
    post_snaps: dict[str, dict] = {}
    rets: dict[str, Optional[int]] = {}

    def callpure(t: CallPure, args: list[int], interp: Interp) -> int:
        try:
            value = interp.run_isolated(source.function(t.callee), args)
        except InterpError as exc:
            raise ClauseOracleError(str(exc)) from exc
        if value is None:
            raise ClauseOracleError(f"{t.callee} returned nothing")
        return value

    def eval_arg(t: Term, interp: Interp) -> int:
        if isinstance(t, IntLit):
            return t.value
        if isinstance(t, Var):
            return binder_env[t.name]
        if isinstance(t, Bin):
            a, b = eval_arg(t.left, interp), eval_arg(t.right, interp)
            if t.op == "/" and b == 0:
                raise ClauseOracleError("division by zero in call argument")
            return ARITH[t.op](a, b)
        if isinstance(t, CallPure):
            return callpure(t, [eval_arg(a, interp) for a in t.args], interp)
        raise ClauseOracleError(f"cannot evaluate argument {t!r}")

    for cs, ren in zip(clause.calls, wrapper.renamings):
        callee = source.function(cs.callee)
        if callee is None:
            raise ClauseOracleError(f"unknown function {cs.callee}")
        state = init_state(source)
        for g, dup in ren.globals.items():
            state.globals[g] = input.values.get(dup, 0)
        interp = Interp(source, Fuel(fuel))
        args: list[int] = []
        int_args = iter(cs.args)
        cells: dict[str, int] = {}
        for p in callee.formals:
            if p.ty == PTR:
                dup = ren.pointers[p.name]
                cid = state.alloc(input.values.get(f"*{dup}", 0))
                cells[p.name] = cid
                args.append(cid)
            else:
                args.append(eval_arg(next(int_args), interp))
        pre = {g: state.globals[g] for g in state.globals}
        pre.update({f"*{p}": state.heap[c] for p, c in cells.items()})
        try:
            ret = interp.run(callee, args, state)
        except InterpError as exc:
            raise ClauseOracleError(str(exc)) from exc
        post = {g: state.globals[g] for g in state.globals}
        post.update({f"*{p}": state.heap[c] for p, c in cells.items()})
        pre_snaps[cs.call_id] = pre
        post_snaps[cs.call_id] = post
        rets[cs.call_id] = ret

    helper = Interp(source, Fuel(fuel))

    def term(t: Term) -> int:
        if isinstance(t, IntLit):
            return t.value
        if isinstance(t, Var):
            if t.name in binder_env:
                return binder_env[t.name]
            raise ClauseOracleError(f"unbound {t.name}")
        if isinstance(t, Bin):
            a, b = term(t.left), term(t.right)
            if t.op == "/" and b == 0:
                raise ClauseOracleError("division by zero in predicate")
            return ARITH[t.op](a, b)
        if isinstance(t, CallResult):
            value = rets[t.call_id]
            if value is None:
                raise ClauseOracleError(f"call {t.call_id} returned nothing")
            return value
        if isinstance(t, At):
            parsed = rel_label(t.label)
            if parsed is None:
                raise ClauseOracleError(f"label {t.label} in clause predicate")
            kind, cid = parsed
            snaps = pre_snaps if kind == "Pre" else post_snaps
            key = t.base.name if isinstance(t.base, Var) else f"*{t.base.name}"
            if key not in snaps[cid]:
                raise ClauseOracleError(f"{key} not in snapshot of {cid}")
            return snaps[cid][key]
        if isinstance(t, CallPure):
            return callpure(t, [term(a) for a in t.args], helper)
        raise ClauseOracleError(f"cannot evaluate {t!r}")

    def walk(p: Pred) -> bool:
        if isinstance(p, PBool):
            return p.value
        if isinstance(p, Cmp):
            return CMP[p.op](term(p.left), term(p.right))
        if isinstance(p, PAnd):
            return walk(p.left) and walk(p.right)
        if isinstance(p, POr):
            return walk(p.left) or walk(p.right)
        if isinstance(p, PImp):
            return (not walk(p.left)) or walk(p.right)
        if isinstance(p, PNot):
            return not walk(p.body)
        raise ClauseOracleError(f"cannot evaluate predicate {p!r}")

    return walk(clause.pred)


def save_counterexample(vec: InputVector, path) -> None:
    """Write one counterexample as a JSON object; `load_counterexamples`
    reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vec.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_counterexamples(path) -> list[InputVector]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    return [InputVector.from_json(d) for d in data]
