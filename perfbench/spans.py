"""Spans around relprop's layer functions, recorded from outside the program.

`install` wraps each layer's public function at every `relprop` module
binding of that function object, found by identity, so a function that
moves to another module keeps its span. A span records name, start, end,
parent and the input being processed. Work counts taken from a call's
arguments or result are computed after the call, inside a `trace.count`
span, so they never count as the layer's own time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    input: Optional[str] = None
    error: Optional[str] = None
    counts: Optional[dict] = None


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.input: Optional[str] = None
        self._stack: list[int] = []
        self._paused = 0

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the bench's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._paused:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else None
            span = Span(name, time.perf_counter(), parent=parent,
                        input=rec.input)
            rec.spans.append(span)
            rec._stack.append(len(rec.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                c0 = time.perf_counter()
                span.counts = count(args, kwargs, result)
                rec.spans.append(Span("trace.count", c0, time.perf_counter(),
                                      parent=parent, input=rec.input))
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# Work counts
# ---------------------------------------------------------------------------


_FIELDS: dict[type, tuple[str, ...]] = {}


def count_nodes(root, kind: Optional[str] = None) -> int:
    """Distinct dataclass nodes reachable from root (by identity); with
    `kind`, only nodes that have a base class of that name."""
    seen: set[int] = set()
    total = 0
    todo = [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (tuple, list)):
            todo.extend(obj)
            continue
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type) \
                or id(obj) in seen:
            continue
        seen.add(id(obj))
        if kind is None or any(c.__name__ == kind for c in type(obj).__mro__):
            total += 1
        names = _FIELDS.get(type(obj))
        if names is None:
            names = _FIELDS[type(obj)] = tuple(
                f.name for f in dataclasses.fields(obj))
        todo.extend(getattr(obj, n) for n in names)
    return total


def _tokens(args, kwargs, result) -> dict:
    lex = sys.modules["relprop.parser"].lex
    text = args[0] if args else kwargs["text"]
    try:
        return {"parser.tokens": len(lex(text))}
    except Exception:  # a lexing error is the parser's to report
        return {"parser.tokens": 0}


def _wrappers(args, kwargs, result) -> dict:
    return {"selfcomp.wrappers": len(result.entries),
            "selfcomp.stmts": sum(count_nodes(e.wrapper.fn.body, "Stmt")
                         for e in result.entries)}


def _vcs(args, kwargs, result) -> dict:
    return {"vcgen.vcs": len(result),
            "vcgen.dag_nodes": sum(count_nodes(vc.goal) for vc in result)}


def _smt(args, kwargs, result) -> dict:
    return {"smtlib.bytes": len(result.encode("utf-8"))}


def _bounded(args, kwargs, result) -> dict:
    return {"bounded.rows": result.rows,
            f"bounded.method.{result.method}": 1,
            "bounded.unknown": int(result.status == "unknown")}


def _run(args, kwargs, result) -> dict:
    return {"dynamic.run_wrapper.errors": int(result.outcome == "error")}


# (layer, public function, work counter) in pipeline order.
TARGETS = (
    ("parser", "parse_program", _tokens),
    ("validate", "validate", None),
    ("validate", "footprint_of", None),
    ("selfcomp", "transform", _wrappers),
    ("vcgen", "vcs_for", _vcs),
    ("smtlib", "emit_smtlib", _smt),
    ("bounded", "check_bounded", _bounded),
    ("cli", "prove_program", None),
    ("dynamic", "find_counterexample", None),
    ("dynamic", "run_wrapper", _run),
    ("dynamic", "runtime_check", None),
    ("dynamic", "evaluate_clause", None),
)


def _relprop_modules() -> list:
    package = importlib.import_module("relprop")
    for info in pkgutil.iter_modules(package.__path__, "relprop."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "relprop"
                                  or name.startswith("relprop."))]


def _find(modules: list, layer: str, fn_name: str) -> Callable:
    """The function object: looked up in its layer's module first, then
    wherever relprop defines a function of that name."""
    home = sys.modules.get(f"relprop.{layer}")
    candidates = [home] + modules if home is not None else modules
    for m in candidates:
        obj = m.__dict__.get(fn_name)
        if callable(obj) and getattr(obj, "__module__", "").startswith("relprop"):
            return obj
    raise LookupError(f"relprop defines no function {fn_name}")


def install(rec: Recorder) -> list[tuple[object, str, Callable]]:
    """Wrap every layer function at all of its relprop bindings; returns
    the replaced (module, attribute, original) bindings."""
    modules = _relprop_modules()
    replaced = []
    for layer, fn_name, count in TARGETS:
        original = _find(modules, layer, fn_name)
        traced = rec.wrap(f"{layer}.{fn_name}", original, count)
        for m in modules:
            for attr, value in list(m.__dict__.items()):
                if value is original:
                    setattr(m, attr, traced)
                    replaced.append((m, attr, original))
    return replaced


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


# Spans whose `<name>.s` is self time: footprint_of recurses, and
# prove_program holds every other layer of a proof.
SELF_TIMED = frozenset({"validate.footprint_of", "cli.prove_program"})


def layer_times(spans: list[Span]) -> list[float]:
    """What each span adds to its `<name>.s` metric: self time for the
    SELF_TIMED names; otherwise its duration minus the bench's counting
    inside it, or 0 when a span of the same name encloses it."""
    own = self_times(spans)
    counting = [0.0] * len(spans)
    for s in spans:
        if s.name == "trace.count":
            p = s.parent
            while p is not None:
                counting[p] += s.end - s.start
                p = spans[p].parent
    out = []
    for i, s in enumerate(spans):
        if s.name in SELF_TIMED or s.name == "trace.count":
            out.append(own[i])
            continue
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        out.append(0.0 if p is not None else s.end - s.start - counting[i])
    return out


def _totals(spans: list[Span], times: list[float], idxs) -> dict[str, float]:
    out: dict[str, float] = defaultdict(int)
    for i in idxs:
        s = spans[i]
        if s.name == "trace.count":
            continue
        out[f"{s.name}.s"] += times[i]
        out[f"{s.name}.calls"] += 1
        if s.error:
            out[f"{s.name}.raised.{s.error}"] += 1
        for key, value in (s.counts or {}).items():
            out[key] += value
    return dict(out)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Seconds (`<span>.s`, see layer_times), calls (`<span>.calls`),
    exceptions (`<span>.raised.<type>`) and summed work counts."""
    out: dict[str, float] = {}
    for layer, fn_name, _ in TARGETS:
        out[f"{layer}.{fn_name}.s"] = 0.0
        out[f"{layer}.{fn_name}.calls"] = 0
    out.update(_totals(spans, layer_times(spans), range(len(spans))))
    return out


def by_input(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Totals per input: a span belongs to the input current when it
    started."""
    times = layer_times(spans)
    groups: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        groups[s.input or "-"].append(i)
    return {name: _totals(spans, times, idxs) for name, idxs in groups.items()}
