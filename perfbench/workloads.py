"""Workload inputs and their known answers.

Every generator is pure: the same seed gives the same texts. A workload's
inputs are a list of (name, MiniC text) pairs; the order is shuffled by the
seed, which changes nothing a pass computes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "seq-ifs", "diamond")
SEQ_IFS_K = (4, 8, 12)
DIAMOND_N = (10, 14)
CORPUS_DIR = Path("src") / "relprop" / "corpus"


def seq_ifs(k: int, seed: int) -> str:
    """`int f(int a)` with k sequential `if (a > c) { x = x + a; assert }`.

    The thresholds are a seed-drawn permutation of 0..k-1. Each is >= 0, so
    x only grows by positive amounts and every assert `x > 0` holds.
    """
    thresholds = list(range(k))
    random.Random(seed * 1000 + k).shuffle(thresholds)
    body = ["  int x = 0;"]
    for c in thresholds:
        body.append(f"  if (a > {c}) {{\n"
                    f"    x = x + a;\n"
                    f"    /*@ assert x > 0; */\n"
                    f"  }}")
    body.append("  return x;")
    return ("/*@ assigns \\result \\from a;\n*/\nint f(int a) {\n"
            + "\n".join(body) + "\n}\n")


def diamond(n: int, seed: int) -> str:
    """`int g`, where f_0 adds a seed-drawn step to g and each f_i calls
    f_{i-1} twice; every function declares `assigns g \\from g`."""
    step = random.Random(seed * 1000 + n).randint(1, 9)
    parts = ["int g = 0;\n",
             "/*@ assigns g \\from g;\n*/\n"
             f"void f_0() {{\n  g = g + {step};\n  return;\n}}\n"]
    for i in range(1, n + 1):
        parts.append("/*@ assigns g \\from g;\n*/\n"
                     f"void f_{i}() {{\n  f_{i - 1}();\n  f_{i - 1}();\n"
                     f"  return;\n}}\n")
    return "\n".join(parts)


def known_answers() -> dict:
    return json.loads((HERE / "known_answers.json").read_text(encoding="utf-8"))


def make_inputs(workload: str, seed: int, root: Path) -> list[tuple[str, str]]:
    """The (name, text) inputs of one workload."""
    if workload == "corpus":
        out = []
        for name, entry in known_answers()["corpus"].items():
            path = HERE / entry["file"] if "file" in entry \
                else root / CORPUS_DIR / name
            out.append((name, path.read_text(encoding="utf-8")))
    elif workload == "seq-ifs":
        out = [(f"seq_ifs_{k}.mc", seq_ifs(k, seed)) for k in SEQ_IFS_K]
    elif workload == "diamond":
        out = [(f"diamond_{n}.mc", diamond(n, seed)) for n in DIAMOND_N]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out


def write_inputs(inputs: list[tuple[str, str]], dest: Path) -> list[Path]:
    """Write each input as a flat file under dest, in input order."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in inputs:
        path = dest / name.replace("/", "__")
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    (dest / "order.json").write_text(
        json.dumps([[n, p.name] for (n, _), p in zip(inputs, paths)]),
        encoding="utf-8")
    return paths


def read_inputs(dest: Path) -> list[tuple[str, Path]]:
    """(name, path) of the inputs write_inputs left in dest, in order."""
    order = json.loads((dest / "order.json").read_text(encoding="utf-8"))
    return [(name, dest / file) for name, file in order]
