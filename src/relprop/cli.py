"""Command-line driver: transform, prove, test, check.

Exit codes: 0 success, 1 property violated (counterexample found or
confirmed), 2 input or usage error, 3 proofs incomplete under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .minic import Diagnostic, Program
from .parser import parse_program
from .pretty import pretty_print
from .validate import validate
from .selfcomp import transform, TransformedProgram, TransformError
from .vcgen import vcs_for, VerificationCondition, MissingLoopInvariant
from .smtlib import emit_smtlib
from .bounded import check_bounded, BudgetExceeded
from .dynamic import (
    InputVector, find_counterexample, runtime_check,
    load_counterexamples,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_INCOMPLETE = 3


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d, file=sys.stderr)


def _load(path: str) -> Program | None:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return None
    result = parse_program(text, path)
    if isinstance(result, list):
        _print_diags(result)
        return None
    errors = [d for d in validate(result) if d.severity == "error"]
    if errors:
        _print_diags(errors)
        return None
    return result


def _transform(path: str) -> TransformedProgram | None:
    program = _load(path)
    if program is None:
        return None
    try:
        return transform(program)
    except TransformError as exc:
        _print_diags(exc.diagnostics)
        return None


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _table(rows: list[tuple[str, ...]], header: tuple[str, ...]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*row) for row in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    t = _transform(args.input)
    if t is None:
        return EXIT_INPUT_ERROR
    out = _outdir(args)
    stem = Path(args.input).stem
    target = out / f"{stem}.transformed.mc"
    target.write_text(pretty_print(t.program), encoding="utf-8")
    print(f"wrote {target}")
    if args.emit_provenance:
        side = out / f"{stem}.provenance.json"
        side.write_text(json.dumps(t.provenance(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"wrote {side}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------


def _check(vc: VerificationCondition, bound: int) -> tuple[str, Optional[dict], str]:
    """(status, assignment, detail) for one VC."""
    try:
        r = check_bounded(vc, bound)
    except BudgetExceeded:
        return "unknown", None, "budget"
    detail = r.reason or r.method
    return r.status, r.assignment, detail


def prove_program(t: TransformedProgram, bound: int,
                  assume_lemmas: bool = False) -> dict[str, dict]:
    """Check every VC, admitting each clause's lemma into other proofs once
    its wrapper assertion is valid (or immediately under assume_lemmas).
    Lemma VCs take the status of their wrapper: their proof reduces to the
    wrapper assertion plus the link behaviors.

    Returns {vc name: {status, kind, ...}} for all VCs.
    """
    all_lemmas = {e.lemma_name for e in t.entries}
    admitted: set[str] = set(all_lemmas) if assume_lemmas else set()
    wrapper_status: dict[str, tuple[str, Optional[dict], str]] = {}

    # Admission fixpoint: proving one wrapper may unlock another.
    while True:
        vcs = vcs_for(t, admitted=frozenset(admitted))
        progress = False
        for vc in vcs:
            if vc.kind != "wrapper-assert" or vc.name in wrapper_status:
                continue
            status, assignment, detail = _check(vc, bound)
            if status == "valid":
                wrapper_status[vc.name] = (status, assignment, detail)
                lemma = t.lemma_of_wrapper(vc.function)
                if lemma and lemma not in admitted:
                    admitted.add(lemma)
                progress = True
        if not progress:
            break

    vcs = vcs_for(t, admitted=frozenset(admitted))
    results: dict[str, dict] = {}
    lemma_by_wrapper = {e.wrapper.fn.name: e.lemma_name for e in t.entries}
    wrapper_valid = {}
    for vc in vcs:
        entry: dict = {"function": vc.function, "assertion": vc.assertion,
                       "kind": vc.kind, "clause": vc.clause,
                       "hypotheses": list(vc.hypothesis_names()),
                       "links": list(vc.links)}
        if vc.kind == "lemma":
            entry["status"] = "pending"
            results[vc.name] = entry
            continue
        if vc.kind == "wrapper-assert" and vc.name in wrapper_status:
            status, assignment, detail = wrapper_status[vc.name]
        else:
            status, assignment, detail = _check(vc, bound)
        entry["status"] = status
        entry["detail"] = detail
        if assignment is not None:
            entry["assignment"] = assignment
        results[vc.name] = entry
        if vc.kind == "wrapper-assert":
            wrapper_valid[lemma_by_wrapper.get(vc.function)] = status
    for name, entry in results.items():
        if entry["kind"] == "lemma":
            lemma = entry["assertion"]
            status = wrapper_valid.get(lemma, "unknown")
            entry["status"] = "valid" if status == "valid" else "unknown"
            entry["detail"] = "reduces to the wrapper assertion"
    return results


def cmd_prove(args) -> int:
    t = _transform(args.input)
    if t is None:
        return EXIT_INPUT_ERROR
    out = _outdir(args)
    try:
        results = prove_program(t, args.bound, args.assume_lemmas)
    except MissingLoopInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.emit_smt:
        smt_dir = out / "smt"
        smt_dir.mkdir(exist_ok=True)
        admitted = frozenset(e.lemma_name for e in t.entries)
        for vc in vcs_for(t, admitted=admitted):
            (smt_dir / f"{vc.name}.smt2").write_text(emit_smtlib(vc),
                                                     encoding="utf-8")
    index = {"input": args.input, "bound": args.bound, "vcs": results}
    (out / "vc_index.json").write_text(json.dumps(index, indent=2,
                                                  sort_keys=True) + "\n",
                                       encoding="utf-8")

    clause_rows = []
    for e in t.entries:
        wrapper_vcs = [r for r in results.values()
                       if r["kind"] == "wrapper-assert"
                       and r["clause"] == e.clause.name]
        status = wrapper_vcs[0]["status"] if wrapper_vcs else "unknown"
        label = {"valid": "Valid", "counterexample": "Counterexample",
                 "unknown": "Unknown"}[status]
        clause_rows.append((e.clause.name, e.wrapper.fn.name, label))
    other_rows = [(name, r["kind"], r["status"])
                  for name, r in sorted(results.items())
                  if r["kind"] not in ("wrapper-assert", "lemma")]

    if args.json:
        print(json.dumps(index, indent=2, sort_keys=True))
    else:
        if clause_rows:
            print(_table(clause_rows, ("Property", "Wrapper", "Proof")))
        if other_rows:
            print()
            print(_table(other_rows, ("VC", "Kind", "Status")))

    wrapper_results = [r for r in results.values()
                       if r["kind"] == "wrapper-assert"]
    if any(r["status"] == "counterexample" for r in wrapper_results):
        return EXIT_VIOLATION
    if all(r["status"] == "valid" for r in wrapper_results):
        return EXIT_OK
    return EXIT_INCOMPLETE if args.strict else EXIT_OK


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def cmd_test(args) -> int:
    t = _transform(args.input)
    if t is None:
        return EXIT_INPUT_ERROR
    out = _outdir(args)
    stem = Path(args.input).stem

    proved: set[str] = set()
    if args.skip_proved:
        index_path = out / "vc_index.json"
        if index_path.exists():
            index = json.loads(index_path.read_text(encoding="utf-8"))
            for r in index.get("vcs", {}).values():
                if r.get("kind") == "wrapper-assert" \
                        and r.get("status") == "valid" and r.get("clause"):
                    proved.add(r["clause"])

    rows = []
    found: list[InputVector] = []
    report = {}
    for e in t.entries:
        name = e.clause.name
        if name in proved:
            rows.append((name, "skipped (proved valid)"))
            report[name] = {"outcome": "skipped"}
            continue
        started = time.monotonic()
        vec = find_counterexample(e.wrapper, t,
                                  strategy=("exhaustive", args.bound),
                                  budget_seconds=args.budget / 2)
        if vec is None:
            remaining = args.budget - (time.monotonic() - started)
            if remaining > 0:
                vec = find_counterexample(e.wrapper, t,
                                          strategy=("random", args.seed),
                                          budget_seconds=remaining)
        elapsed = time.monotonic() - started
        if vec is not None:
            found.append(vec)
            cex_path = out / f"{stem}.{name}.cex.json"
            cex_path.write_text(json.dumps(vec.to_json(), indent=2,
                                           sort_keys=True) + "\n",
                                encoding="utf-8")
            rows.append((name, f"counterexample ({cex_path.name})"))
            report[name] = {"outcome": "counterexample",
                            "vector": vec.to_json(), "seconds": elapsed}
        elif elapsed >= args.budget:
            rows.append((name, "timeout"))
            report[name] = {"outcome": "timeout", "seconds": elapsed}
        else:
            rows.append((name, "none found"))
            report[name] = {"outcome": "none", "seconds": elapsed}

    (out / f"{stem}.test_report.json").write_text(
        json.dumps({"input": args.input, "seed": args.seed,
                    "budget": args.budget, "properties": report},
                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_table(rows, ("Property", "Counterexample generation")))
    return EXIT_VIOLATION if found else EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    t = _transform(args.input)
    if t is None:
        return EXIT_INPUT_ERROR
    vectors: list[InputVector] = []
    for path in args.vectors:
        p = Path(path)
        candidates = sorted(p.glob("*.cex.json")) if p.is_dir() else [p]
        for c in candidates:
            try:
                vectors.extend(load_counterexamples(c))
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                print(f"{c}: error: malformed counterexample file: {exc}",
                      file=sys.stderr)
                return EXIT_INPUT_ERROR
    reports = runtime_check(t, vectors)
    rows = [(r.property, r.outcome, r.error or "") for r in reports]
    if args.json:
        print(json.dumps([{"property": r.property, "outcome": r.outcome,
                           "error": r.error,
                           "assignment": dict(r.input.values)}
                          for r in reports], indent=2, sort_keys=True))
    else:
        print(_table(rows, ("Property", "Outcome", "Error")))
    return EXIT_VIOLATION if any(r.outcome == "fail" for r in reports) \
        else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="MiniC translation unit (.mc)")
    sub.add_argument("-o", "--outdir", default="relprop-out",
                     help="output directory (default: relprop-out)")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprop",
        description="Relational property verification for MiniC via "
                    "self-composition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform",
                       help="generate wrappers and axiomatics")
    _common(p)
    p.add_argument("--emit-provenance", action="store_true",
                   help="write a JSON sidecar mapping generated names to "
                        "their clauses")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("prove", help="generate and check verification "
                                     "conditions")
    _common(p)
    p.add_argument("--bound", type=int, default=8,
                   help="bounded-oracle range [-bound, bound] (default 8)")
    p.add_argument("--assume-lemmas", action="store_true",
                   help="admit every relational lemma without proof")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any wrapper VC stays unknown")
    p.add_argument("--emit-smt", action=argparse.BooleanOptionalAction,
                   default=True, help="write one .smt2 file per VC")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("test", help="search for counterexamples")
    _common(p)
    p.add_argument("--bound", type=int, default=8,
                   help="exhaustive-phase range (default 8)")
    p.add_argument("--budget", type=float, default=30.0,
                   help="seconds per property (default 30)")
    p.add_argument("--seed", type=int, default=0,
                   help="random-phase seed (default 0)")
    p.add_argument("--skip-proved", action="store_true",
                   help="skip properties a prior prove run marked valid")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("check", help="replay recorded counterexamples")
    _common(p)
    p.add_argument("vectors", nargs="+",
                   help="counterexample JSON files or directories")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
