"""Benchmark of relprop: time to a verdict, and whether the verdict is right.

    python3 perfbench/run.py [--workload corpus|seq-ifs|diamond|all]
                             [--seed N] [--seconds S] [--trace 0|1]

It measures the checkout it sits in, importing relprop from its `src/`.
Each workload runs in processes of its own, one at a time, with numpy
threads pinned to 1:

* set-up: fresh processes that start the interpreter, import relprop and
  read or generate the inputs, one before each pass and at least
  SETUP_REPS; `setup_s` is their median;
* passes: fresh processes that each prove every input through the CLI (and
  on `corpus` search for counterexamples), check every verdict against the
  known answers and replay every counterexample. Passes repeat for
  `--seconds` (at least MIN_PASSES); times are their medians. A pass still
  running after HARD_LIMIT_S is killed and counted as a failed operation.

With `--trace 1` untraced and traced passes alternate, and the per-layer
metrics of the traced ones are printed instead of the end-to-end ones;
`trace.overhead_s` is the difference of their medians. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Without relprop's sources beside it, it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2        # counts and verdicts are compared across passes
HARD_LIMIT_S = 120.0  # per pass
SETUP_LIMIT_S = 30.0  # per set-up process
RUN_LIMIT_S = 160.0   # no pass of a run goes on past this
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# End-to-end metrics: (name, unit, workloads it applies to or None for all).
END_TO_END = (
    ("setup_s", "s", None),
    ("prove_s", "s", None),
    ("test_s", "s", ("corpus",)),
    ("peak_rss_mb", "MB", None),
    ("smt_bytes", "B", None),
    ("decided_share", "share", ("corpus",)),
    ("wrong_verdicts", "count", None),
    ("failed_share", "share", None),
)
# The end-to-end metrics the last JSON line carries: defined and nonzero on
# every workload.
GATED = ("prove_s", "setup_s", "peak_rss_mb")

PER_LAYER = (
    ("parser.parse_program.s", "s"),
    ("parser.tokens", "count"),
    ("parser.tokens_per_s", "1/s"),
    ("validate.validate.s", "s"),
    ("validate.footprint_of.s", "s"),
    ("validate.footprint_of.calls", "count"),
    ("selfcomp.transform.s", "s"),
    ("selfcomp.wrappers", "count"),
    ("selfcomp.stmts", "count"),
    ("vcgen.vcs_for.s", "s"),
    ("vcgen.vcs_for.calls", "count"),
    ("vcgen.vcs", "count"),
    ("vcgen.dag_nodes", "count"),
    ("smtlib.emit_smtlib.s", "s"),
    ("smtlib.bytes", "B"),
    ("bounded.check_bounded.s", "s"),
    ("bounded.checks", "count"),
    ("bounded.rows", "count"),
    ("bounded.rows_per_s", "1/s"),
    ("bounded.method.instantiation", "count"),
    ("bounded.method.vectorized", "count"),
    ("bounded.method.enumeration", "count"),
    ("bounded.unknown", "count"),
    ("bounded.budget_exceeded", "count"),
    ("cli.prove_program.s", "s"),
    ("dynamic.find_counterexample.s", "s"),
    ("dynamic.run_wrapper.calls", "count"),
    ("dynamic.run_wrapper.s", "s"),
    ("dynamic.runs_per_s", "1/s"),
    ("dynamic.run_wrapper.errors", "count"),
    ("dynamic.runtime_check.s", "s"),
    ("dynamic.evaluate_clause.s", "s"),
    ("dynamic.oracle_agree", "share"),
    ("trace.overhead_s", "s"),
)
# Per-layer metrics that are not a span total of the same name.
RATES = {
    "parser.tokens_per_s": ("parser.tokens", "parser.parse_program.s"),
    "bounded.rows_per_s": ("bounded.rows", "bounded.check_bounded.s"),
    "dynamic.runs_per_s": ("dynamic.run_wrapper.calls", "dynamic.run_wrapper.s"),
}
ALIASES = {
    "bounded.checks": "bounded.check_bounded.calls",
    "bounded.budget_exceeded": "bounded.check_bounded.raised.BudgetExceeded",
}
# Counts that must repeat exactly from pass to pass.
DETERMINISTIC = ("vcgen.dag_nodes", "bounded.rows",
                 "validate.footprint_of.calls", "dynamic.run_wrapper.calls")


class BenchError(Exception):
    pass


def _worker(mode: str, workload: str, seed: int, dest: Path,
            *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", workload, "--seed", str(seed), "--dest", str(dest),
            *extra]


def _run_child(cmd: list[str], index: int, timeout: float):
    """Run one child process to its end. Children alternate over the CPUs
    this process may use: on a shared host each CPU slows down at its own
    times, and alternating lets a run's median see more than one of them."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    return subprocess.run(cmd, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))


def time_setup(workload: str, seed: int, dest: Path, index: int) -> float:
    """Wall time of one set-up process, which writes the inputs to dest."""
    t0 = time.perf_counter()
    try:
        proc = _run_child(_worker("setup", workload, seed, dest), index,
                          SETUP_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up of {workload} did not finish") from exc
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up of {workload} failed:\n{proc.stderr}")
    return elapsed


def run_pass(workload: str, seed: int, inputs: Path, scratch: Path,
             index: int, trace: bool, timeout: float) -> dict:
    """One pass in a fresh process; a killed or crashed pass comes back as
    {"failure": reason}."""
    work = scratch / f"pass-{index}"
    result = scratch / f"pass-{index}.json"
    cmd = _worker("pass", workload, seed, inputs, "--work", str(work),
                  "--result", str(result), *(["--trace"] if trace else []))
    started = time.perf_counter()
    try:
        proc = _run_child(cmd, index, timeout)
    except subprocess.TimeoutExpired:
        return {"failure": f"pass {index} killed at the {timeout:.1f} s "
                           f"hard limit",
                "seconds": time.perf_counter() - started}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return {"failure": f"pass {index} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1500:]}"}
    out = json.loads(result.read_text(encoding="utf-8"))
    out["traced"] = trace
    return out


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               inputs: Path, scratch: Path, deadline: float,
               before_pass=None) -> list[dict]:
    """Passes until `seconds` are used (and at least MIN_PASSES measured
    ones); in trace mode untraced and traced passes alternate."""
    passes: list[dict] = []
    t0 = time.monotonic()
    while True:
        if before_pass is not None:
            before_pass()
        traced = trace and len(passes) % 2 == 1
        remaining = deadline - time.monotonic()
        started = time.monotonic()
        passes.append(run_pass(workload, seed, inputs, scratch, len(passes),
                               traced, min(HARD_LIMIT_S, remaining)))
        took = time.monotonic() - started
        if "failure" in passes[-1]:
            break
        measured = sum(p.get("traced", False) == trace for p in passes)
        now = time.monotonic()
        if deadline - now < 1.2 * took:
            break
        if measured >= MIN_PASSES and now - t0 + took > seconds:
            break
    return passes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def check_determinism(passes: list[dict]) -> list[str]:
    """Verdicts and smt bytes must repeat in every pass, and the traced
    work counts in every traced pass."""
    done = [p for p in passes if "failure" not in p]
    problems = []
    for p in done[1:]:
        for key in ("smt_bytes", "verdicts"):
            if p[key] != done[0][key]:
                problems.append(f"not deterministic: {key} differs between "
                                f"passes")
    traced = [p for p in done if p["traced"]]
    for p in traced[1:]:
        for key in DETERMINISTIC:
            a, b = traced[0]["layers"].get(key, 0), p["layers"].get(key, 0)
            if a != b:
                problems.append(f"not deterministic: {key} {a} then {b}")
    return problems


def end_to_end(workload: str, setup: list[float], passes: list[dict],
               failed_share: float) -> dict:
    done = [p for p in passes if "failure" not in p]
    if not done:
        # Nothing finished: the time until the kill is a lower bound, and
        # the peak of any child process stands in for the pass's.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return {"setup_s": _median(setup), "failed_share": failed_share,
                "prove_s": max(p.get("seconds", 0.0) for p in passes),
                "peak_rss_mb": peak}
    m = {
        "setup_s": _median(setup),
        "prove_s": _median([p["prove_s"] for p in done]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in done]),
        "smt_bytes": done[0]["smt_bytes"],
        "wrong_verdicts": max(p["wrong_verdicts"] for p in done),
        "failed_share": failed_share,
    }
    if workload == "corpus":
        m["test_s"] = _median([p["test_s"] for p in done])
        m["decided_share"] = _ratio(done[0]["decided"], done[0]["clauses"])
    return m


def per_layer(p: dict) -> dict:
    layers = p["layers"]
    m = {}
    for name, _ in PER_LAYER:
        if name in RATES:
            num, den = RATES[name]
            m[name] = _ratio(layers.get(num, 0), layers.get(den, 0))
        elif name == "dynamic.oracle_agree":
            # Share of replayed counterexamples on which the wrapper run and
            # the clause oracle agree; 1 when there is none to replay.
            m[name] = _ratio(p["replays_agree"], p["replays"]) \
                if p["replays"] else 1.0
        elif name != "trace.overhead_s":
            m[name] = layers.get(ALIASES.get(name, name), 0)
    return m


def traced_metrics(passes: list[dict]) -> dict:
    done = [p for p in passes if "failure" not in p]
    plain = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    if not traced:
        return {name: 0 for name, _ in PER_LAYER}
    rows = [per_layer(p) for p in traced]
    m = {name: _median([r[name] for r in rows]) for name in rows[0]}

    def stages(p: dict) -> float:
        return p["prove_s"] + (p["test_s"] or 0.0)

    m["trace.overhead_s"] = (_median([stages(p) for p in traced])
                             - _median([stages(p) for p in plain])) \
        if plain else 0.0
    return m


def print_inputs(workload: str, p: dict) -> None:
    """Per-input work counts of one traced pass, and how they grow."""
    cols = (("parse_s", "parser.parse_program.s"), ("tokens", "parser.tokens"),
            ("fp_calls", "validate.footprint_of.calls"),
            ("transform_s", "selfcomp.transform.s"),
            ("vcs_for_s", "vcgen.vcs_for.s"), ("vcs", "vcgen.vcs"),
            ("dag_nodes", "vcgen.dag_nodes"), ("smt_B", "smtlib.bytes"),
            ("bounded_s", "bounded.check_bounded.s"),
            ("rows", "bounded.rows"), ("runs", "dynamic.run_wrapper.calls"))
    print(f"  per input: {' '.join(c for c, _ in cols)}")
    rows = sorted((name, counts) for name, counts in p["by_input"].items()
                  if name != "-")
    for name, counts in rows:
        cells = " ".join(f"{counts.get(k, 0):.4g}" for _, k in cols)
        print(f"    {name}: {cells}")
    grow = {"seq-ifs": "vcgen.dag_nodes", "diamond": "validate.footprint_of.calls"}
    key = grow.get(workload)
    if key:
        by_size = sorted(((int("".join(filter(str.isdigit, n))), c.get(key, 0))
                          for n, c in rows))
        steps = ", ".join(f"{a[0]}->{b[0]}: x{_ratio(b[1], a[1]):.2f}"
                          for a, b in zip(by_size, by_size[1:]))
        print(f"  growth of {key}: {steps}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 base: Path) -> tuple[dict, dict]:
    """Returns (summary for the JSON line, metrics); prints the report."""
    started = time.monotonic()
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    inputs = scratch / "inputs"
    setup: list[float] = []

    def one_setup() -> None:
        setup.append(time_setup(workload, seed,
                                scratch / f"setup-{len(setup)}", len(setup)))

    try:
        # Set-up runs are spread over the run, one before each pass, so
        # that their median sees the same machine as the passes' median.
        if trace:
            workloads.write_inputs(workloads.make_inputs(workload, seed, ROOT),
                                   inputs)
        else:
            setup.append(time_setup(workload, seed, inputs, 0))
        passes = run_passes(workload, seed, seconds, trace, inputs, scratch,
                            started + RUN_LIMIT_S,
                            None if trace else one_setup)
        while not trace and len(setup) < SETUP_REPS:
            one_setup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    done = [p for p in passes if "failure" not in p]
    problems = sorted({x for p in done for x in p["problems"]})
    problems += check_determinism(passes)
    defects = sorted({x for p in done for x in p["defects"]})
    notes = sorted({x for p in done for x in p["notes"]})
    notes += [p["failure"] for p in passes if "failure" in p]
    attempted = sum(p.get("attempted", 1) for p in passes)
    failed = sum(p.get("failed", 1) for p in passes)

    print(f"workload {workload}: seed {seed}, {len(done)} of {len(passes)} "
          f"passes completed{' (* traced)' if trace else ''}, "
          f"{attempted} operations, {failed} failed")
    print("  pass prove_s: " + ", ".join(
        f"{p['prove_s']:.4f}{'*' if p['traced'] else ''}" for p in done))
    if trace:
        metrics = traced_metrics(passes)
        for name, unit in PER_LAYER:
            print(f"  {name:32} {metrics[name]:>16.6g} {unit}")
        traced = [p for p in done if p["traced"]]
        if traced:
            print_inputs(workload, traced[0])
    else:
        metrics = end_to_end(workload, setup, passes,
                             _ratio(failed, attempted))
        for name, unit, only in END_TO_END:
            if name in metrics:
                print(f"  {name:16} {metrics[name]:>14.6g} {unit}")
            elif only and workload not in only:
                print(f"  {name:16} {'n/a':>14} (only on {', '.join(only)})")
    for x in problems:
        print(f"  WRONG: {x}")
    for x in defects:
        print(f"  WRONG (open defect): {x}")
    for x in notes:
        print(f"  failed: {x}")
    summary = {"correct": bool(done) and not problems,
               "attempted": attempted, "failed": failed}
    return summary, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="how long passes repeat (at least two run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relprop" / "__init__.py").is_file():
        print(f"error: no relprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = [n for n, _ in PER_LAYER] if args.trace else list(GATED)
    units = dict(PER_LAYER) if args.trace else {n: u for n, u, _ in END_TO_END}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            summary, metrics = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), base)
            result["correct"] &= summary["correct"]
            result["attempted"] += summary["attempted"]
            result["failed"] += summary["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric in wanted:
                result["metrics"][prefix + metric] = {
                    "value": metrics.get(metric, 0), "unit": units[metric]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if base.exists() and not any(base.iterdir()):
            base.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
