"""Command-line driver: transform, prove, test, check.

Exit codes: 0 success, 1 property violated (counterexample found or
confirmed), 2 input or usage error (for check, also a vector that could
not be replayed), 3 proofs incomplete under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .minic import Diagnostic
from .parser import parse_program
from .selfcomp import transform, TransformedProgram, TransformError
from .vcgen import MissingLoopInvariant
from .smtlib import emit_smtlib
from .prove import prove_program

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_INCOMPLETE = 3


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d, file=sys.stderr)


def _transform(path: str) -> TransformedProgram | None:
    """Parse and transform one input; diagnostics go to stderr."""
    try:
        program = parse_program(Path(path).read_text(encoding="utf-8"), path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return None
    if isinstance(program, list):
        _print_diags(program)
        return None
    try:
        return transform(program)  # validates the input first
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
    from .pretty import pretty_print

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


def _verdict(r: dict, bound: int) -> str:
    """Table label of a VC result; a valid one says what it rests on."""
    if r["status"] != "valid":
        return r["status"].capitalize()
    if r["scope"] == "instance":
        return "Valid (instance of hypothesis)"
    return f"Valid (bounded ±{bound})"


def cmd_prove(args) -> int:
    t = _transform(args.input)
    if t is None:
        return EXIT_INPUT_ERROR
    out = _outdir(args)
    try:
        run = prove_program(t, args.bound, args.assume_lemmas)
    except MissingLoopInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    # A lemma VC is never checked: it takes its wrapper's status.
    checked = [vc for vc in run.vcs if vc.kind != "lemma"]
    # A script of an earlier run that this one does not write would sit
    # beside an index that does not list it.
    smt_dir = out / "smt"
    written = {f"{vc.name}.smt2" for vc in checked} if args.emit_smt else ()
    for script in smt_dir.glob("*.smt2"):
        if script.name not in written:
            script.unlink()
    if args.emit_smt and checked:
        smt_dir.mkdir(exist_ok=True)
        for vc in checked:
            (smt_dir / f"{vc.name}.smt2").write_text(emit_smtlib(vc),
                                                     encoding="utf-8")
    results = run.results
    index = json.dumps({"input": args.input, "bound": args.bound,
                        "vcs": results}, indent=2, sort_keys=True)
    (out / "vc_index.json").write_text(index + "\n", encoding="utf-8")

    wrappers = [r for r in results.values() if r["kind"] == "wrapper-assert"]
    clause_rows = [(e.clause.name, e.wrapper.fn.name,
                    next((_verdict(r, args.bound) for r in wrappers
                          if r["clause"] == e.clause.name), "Unknown"))
                   for e in t.entries]
    other_rows = [(name, r["kind"], _verdict(r, args.bound))
                  for name, r in sorted(results.items())
                  if r["kind"] not in ("wrapper-assert", "lemma")]

    if args.json:
        print(index)
    else:
        if clause_rows:
            print(_table(clause_rows, ("Property", "Wrapper", "Proof")))
        if other_rows:
            print()
            print(_table(other_rows, ("VC", "Kind", "Status")))

    if any(r["status"] == "counterexample" for r in wrappers):
        return EXIT_VIOLATION
    if all(r["status"] == "valid" for r in wrappers):
        return EXIT_OK
    return EXIT_INCOMPLETE if args.strict else EXIT_OK


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def cmd_test(args) -> int:
    from .dynamic import InputVector, find_counterexample, save_counterexample

    t = _transform(args.input)
    if t is None:
        return EXIT_INPUT_ERROR
    out = _outdir(args)
    stem = Path(args.input).stem

    proved: set[str] = set()
    index_path = out / "vc_index.json"
    if args.skip_proved and index_path.exists():
        index = json.loads(index_path.read_text(encoding="utf-8"))
        # Every input shares the default output directory: use only the
        # proofs of this one.
        if Path(index.get("input", "")).resolve() == Path(args.input).resolve():
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
            save_counterexample(vec, cex_path)
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
    from .dynamic import InputVector, load_counterexamples, runtime_check

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
    if any(r.outcome == "fail" for r in reports):
        return EXIT_VIOLATION
    errors = [r for r in reports if r.outcome == "error"]
    for r in errors:
        print(f"{args.input}: error: property {r.property} not replayed: "
              f"{r.error}", file=sys.stderr)
    return EXIT_INPUT_ERROR if errors else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="MiniC translation unit (.mc)")
    sub.add_argument("-o", "--outdir", default="relprop-out",
                     help="output directory (default: relprop-out)")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON on stdout")


def _at_least(kind: type, low: int, strict: bool = False):
    """An argparse type: a `kind` value of at least `low`, or above it when
    `strict`; anything else is a usage error."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):  # NaN fails both
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, not {text}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    p.add_argument("--bound", type=_at_least(int, 1), default=8,
                   help="bounded-oracle range [-bound, bound] (default 8)")
    p.add_argument("--assume-lemmas", action="store_true",
                   help="admit every relational lemma without proof")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any wrapper VC stays unknown")
    p.add_argument("--emit-smt", action=argparse.BooleanOptionalAction,
                   default=True, help="write one .smt2 file per checked VC")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("test", help="search for counterexamples")
    _common(p)
    p.add_argument("--bound", type=_at_least(int, 0), default=8,
                   help="exhaustive-phase range (default 8)")
    p.add_argument("--budget", type=_at_least(float, 0, strict=True),
                   default=30.0,
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
