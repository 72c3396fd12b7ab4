"""One set-up or one measured pass of one workload, in its own process.

    python3 perfbench/worker.py setup --workload W --seed N --dest DIR
    python3 perfbench/worker.py pass --workload W --seed N --dest DIR \\
        --work DIR --result FILE [--trace]

`setup` imports relprop and writes the workload's inputs to DIR; run.py
times the whole process as the set-up cost. `pass` proves every input
through the user-facing CLI, on `corpus` also searches every clause for a
counterexample with fixed work, then checks every verdict against the known
answers, replays every counterexample through the runtime check and the
clause oracle, and writes its measurements as JSON to FILE. With --trace,
the layer functions are wrapped in spans (see spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

PROVE_BOUND = 8
TEST_BOUND = 2      # exhaustive search box [-2, 2] per wrapper slot
TEST_TRIALS = 1000  # random draws per clause the box leaves undecided


def _module(name: str):
    return importlib.import_module(f"relprop.{name}")


def import_relprop() -> None:
    relprop = importlib.import_module("relprop")
    importlib.import_module("relprop.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(relprop.__file__).resolve().parents:
        raise SystemExit(f"relprop was imported from {relprop.__file__}, "
                         f"not from {src}")


class Pass:
    """Measurements, operation counts and findings of one pass."""

    def __init__(self, workload: str, seed: int, inputs: list[tuple[str, Path]],
                 work: Path, rec: spans.Recorder | None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.work = work
        self.rec = rec
        self.answers = workloads.known_answers()[workload]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []  # unexpected outputs: the run is not correct
        self.defects: list[str] = []   # wrong verdicts of documented open defects
        self.notes: list[str] = []     # other failed operations
        self.verdicts: dict[str, dict] = {}
        self.clauses = 0
        self.decided = 0
        self.replays = 0
        self.replays_agree = 0
        self._programs: dict[str, object] = {}

    # -- bookkeeping -----------------------------------------------------

    def _at(self, name: str | None) -> None:
        if self.rec is not None:
            self.rec.input = name

    def _paused(self):
        return self.rec.paused() if self.rec is not None \
            else contextlib.nullcontext()

    def op(self, ok: bool, note: str | None = None, wrong: bool = False,
           expected: bool = False) -> None:
        """Count one operation. A failed one is noted; a wrong verdict that
        is not a documented open defect also makes the run incorrect."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.wrong += int(wrong)
        if not wrong:
            self.notes.append(note)
        elif expected:
            self.defects.append(note)
        else:
            self.problems.append(note)

    # -- stages ------------------------------------------------------------

    def prove(self) -> tuple[float, dict]:
        cli = _module("cli")
        runs = {}
        t0 = time.perf_counter()
        for name, path in self.inputs:
            self._at(name)
            out, err = io.StringIO(), io.StringIO()
            argv = ["prove", str(path), "--bound", str(PROVE_BOUND),
                    "-o", str(self.work / "prove" / path.stem), "--json"]
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                runs[name] = (rc, out.getvalue(), err.getvalue())
            except Exception as exc:
                runs[name] = (None, "", f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self._at(None)
        return elapsed, runs

    def test(self) -> tuple[float, dict]:
        """Counterexample search with fixed work: the exhaustive box to
        completion, then a fixed number of seeded random draws for each
        clause still without a counterexample."""
        found: dict = {}
        t0 = time.perf_counter()
        for name, path in self.inputs:
            self._at(name)
            try:
                self._search(name, path, found)
            except Exception as exc:
                found[(name, "*")] = ("error", None,
                                      f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self._at(None)
        return elapsed, found

    def _search(self, name: str, path: Path, found: dict) -> None:
        parser, validate = _module("parser"), _module("validate")
        selfcomp, dynamic = _module("selfcomp"), _module("dynamic")
        program = parser.parse_program(path.read_text(encoding="utf-8"),
                                       str(path))
        if isinstance(program, list) or any(
                d.severity == "error" for d in validate.validate(program)):
            found[(name, "*")] = ("error", None, "input rejected")
            return
        t = selfcomp.transform(program)
        for e in t.entries:
            try:
                vec = dynamic.find_counterexample(
                    e.wrapper, t, ("exhaustive", TEST_BOUND),
                    budget_seconds=math.inf)
                if vec is None:
                    vec = dynamic.find_counterexample(
                        e.wrapper, t, ("random", self.seed, TEST_TRIALS),
                        budget_seconds=math.inf)
                outcome = "counterexample" if vec is not None else "none"
                found[(name, e.clause.name)] = (outcome, vec, None)
            except Exception as exc:
                found[(name, e.clause.name)] = (
                    "error", None, f"{type(exc).__name__}: {exc}")

    # -- checks --------------------------------------------------------------

    def transformed(self, name: str, path: Path):
        if name not in self._programs:
            with self._paused():
                program = _module("parser").parse_program(
                    path.read_text(encoding="utf-8"), str(path))
                self._programs[name] = _module("selfcomp").transform(program)
        return self._programs[name]

    def replay(self, name: str, path: Path, clause: str, values: dict,
               origin: str) -> None:
        """A counterexample must fail again in the wrapper and falsify the
        clause in the independent oracle."""
        dynamic = _module("dynamic")
        t = self.transformed(name, path)
        entry = next(e for e in t.entries if e.clause.name == clause)
        vec = dynamic.InputVector(values=values, property=clause)
        self._at(name)
        fails = dynamic.runtime_check(t, [vec])[0].outcome == "fail"
        try:
            holds = dynamic.evaluate_clause(entry.clause, entry.wrapper,
                                            t.source, vec)
        except dynamic.ClauseOracleError:
            holds = None
        self._at(None)
        agree = fails and holds is False
        self.replays += 1
        self.replays_agree += int(agree)
        self.op(agree, wrong=True,
                note=f"{name} {clause}: {origin} counterexample {values} does "
                     f"not replay (wrapper fails: {fails}, oracle: {holds})")

    def check_prove(self, name: str, path: Path, run: tuple) -> None:
        """One operation for the prove run and one per VC. A VC fails when
        its bounded check hit the budget or its verdict contradicts the
        known answer."""
        rc, out, err = run
        index = None
        if rc in (0, 1):
            try:
                index = json.loads(out)
            except json.JSONDecodeError:
                pass
        self.op(index is not None,
                note=f"{name}: prove failed (exit {rc}): {err.strip()[:300]}")
        if index is None:
            return
        vcs = index["vcs"]
        self.verdicts[name] = {k: v["status"] for k, v in vcs.items()}
        if self.workload == "corpus":
            table = self.answers[name]
            clauses = {vc["clause"] for vc in vcs.values()
                       if vc["kind"] == "wrapper-assert"}
            for clause in sorted(set(table["clauses"]) - clauses):
                self.op(False, wrong=True,
                        note=f"{name} {clause}: prove gave no verdict")
        for vc_name, vc in sorted(vcs.items()):
            status = vc["status"]
            if vc.get("detail") == "budget":
                self.clauses += int(vc["kind"] == "wrapper-assert")
                self.op(False, note=f"{name} {vc_name}: bounded check hit "
                                    f"its budget")
            elif self.workload != "corpus":
                want = self.answers["every_vc"]
                self.op(status == want, wrong=True,
                        note=f"{name} {vc_name}: prove says {status}, known "
                             f"answer {want}")
            elif vc["kind"] == "wrapper-assert":
                self.check_clause(name, path, vc)
            elif vc["kind"] != "lemma":
                want = self.answers[name].get("vcs", {}).get(vc_name)
                self.op(status == want, wrong=True,
                        note=f"{name} {vc_name}: prove says {status}, known "
                             f"answer {want}")
            else:
                self.attempted += 1
        if self.workload == "seq-ifs":
            k = int(re.search(r"(\d+)", name).group(1))
            asserts = sum(vc["kind"] == "assert" for vc in vcs.values())
            self.op(asserts == k, wrong=True,
                    note=f"{name}: {asserts} assert VCs, expected {k}")

    def check_clause(self, name: str, path: Path, vc: dict) -> None:
        """A clause's prove verdict is wrong when it claims valid for a
        false property or counterexample for a true one; unknown is
        undecided, not wrong."""
        clause, verdict = vc["clause"], vc["status"]
        known = self.answers[name]["clauses"].get(clause)
        if known is None:
            self.problems.append(f"{name}: no known answer for {clause}")
            return
        self.clauses += 1
        self.decided += int(verdict in ("valid", "counterexample"))
        defect = known.get("open_defect", {})
        self.op({verdict, known["truth"]} != {"valid", "counterexample"},
                wrong=True,
                expected=defect.get("stage") == "prove"
                and defect.get("verdict") == verdict,
                note=f"{name} {clause}: prove says {verdict}, known answer "
                     f"{known['truth']}"
                     + (f" (open defect: {defect['why']})" if defect else ""))
        if verdict == "counterexample" and "assignment" in vc:
            values = {(f"*{k[:-5]}" if k.endswith("$cell") else k): v
                      for k, v in vc["assignment"].items()}
            self.replay(name, path, clause, values, "prove")

    def check_tests(self, found: dict) -> None:
        paths = dict(self.inputs)
        for (name, clause), (outcome, vec, error) in sorted(
                found.items(), key=lambda kv: kv[0]):
            if outcome == "error":
                self.op(False, note=f"{name} {clause}: test raised {error}")
                continue
            known = self.answers[name]["clauses"].get(clause)
            if known is None:
                self.problems.append(f"{name}: no known answer for {clause}")
                continue
            self.verdicts.setdefault(name, {})[f"test:{clause}"] = outcome
            missed = outcome == "none" and known.get("in_box", False)
            wrong = outcome == "counterexample" and known["truth"] == "valid"
            self.op(not (missed or wrong), wrong=True,
                    note=f"{name} {clause}: test says {outcome}, known answer "
                         f"{known['truth']}")
            if vec is not None:
                self.replay(name, paths[name], clause, dict(vec.values), "test")

    def check_diamond(self) -> None:
        want = self.answers["footprint"]
        for name, path in self.inputs:
            with self._paused():
                program = _module("parser").parse_program(
                    path.read_text(encoding="utf-8"), str(path))
                errors = [str(d) for d in _module("validate").validate(program)
                          if d.severity == "error"]
                top = program.functions[-1]
                fp = _module("validate").footprint_of(top, program)
            self.op(not errors, wrong=True,
                    note=f"{name}: validate reports {errors}")
            got = {"writes": sorted(getattr(l, "name", str(l)) for l in fp.writes),
                   "reads": sorted(getattr(l, "name", str(l)) for l in fp.reads)}
            self.op(got == want, wrong=True,
                    note=f"{name}: footprint_of({top.name}) is {got}, known "
                         f"answer {want}")


def smt_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in work.rglob("*.smt2"))


def run_pass(args) -> dict:
    import_relprop()
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    inputs = workloads.read_inputs(Path(args.dest))
    p = Pass(args.workload, args.seed, inputs, Path(args.work), rec)

    prove_s, runs = p.prove()
    test_s, found = p.test() if args.workload == "corpus" else (None, {})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for name, path in inputs:
        p.check_prove(name, path, runs[name])
    p.check_tests(found)
    if args.workload == "diamond":
        p.check_diamond()

    out = {
        "prove_s": prove_s, "test_s": test_s, "peak_rss_mb": peak_rss_mb,
        "smt_bytes": smt_bytes(Path(args.work)),
        "clauses": p.clauses, "decided": p.decided,
        "attempted": p.attempted, "failed": p.failed,
        "wrong_verdicts": p.wrong,
        "replays": p.replays, "replays_agree": p.replays_agree,
        "problems": p.problems, "defects": p.defects, "notes": p.notes,
        "verdicts": p.verdicts,
    }
    if rec is not None:
        out["layers"] = spans.layer_totals(rec.spans)
        out["by_input"] = spans.by_input(rec.spans)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dest", required=True, help="input directory")
    ap.add_argument("--work", help="output directory of a pass")
    ap.add_argument("--result", help="JSON file a pass writes")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    if args.mode == "setup":
        import_relprop()
        workloads.write_inputs(
            workloads.make_inputs(args.workload, args.seed, ROOT),
            Path(args.dest))
        return 0
    result = run_pass(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
