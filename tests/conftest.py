import sys
from pathlib import Path

import pytest

from relprop.parser import parse_program
from relprop.minic import Program

CORPUS = Path(__file__).resolve().parent.parent / "src" / "relprop" / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def load(name: str) -> Program:
    text = (CORPUS / name).read_text(encoding="utf-8")
    result = parse_program(text, name)
    assert isinstance(result, Program), [str(d) for d in result]
    return result


@pytest.fixture
def fig2() -> Program:
    return load("fig2.mc")


@pytest.fixture
def fig5() -> Program:
    return load("fig5.mc")


@pytest.fixture
def fig6() -> Program:
    return load("fig6.mc")


@pytest.fixture
def crypt() -> Program:
    return load("crypt.mc")


@pytest.fixture
def fact() -> Program:
    return load("fact.mc")


def comparator_paths() -> list[Path]:
    return sorted((CORPUS / "comparators").glob("*.mc"))


def diamond(n: int) -> str:
    """`f_0` adds one to a global, and each `f_i` calls `f_(i-1)` twice."""
    parts = ["int g = 0;\n",
             "/*@ assigns g \\from g; */\nvoid f_0() {\n  g = g + 1;\n  return;\n}\n"]
    for i in range(1, n + 1):
        parts.append(f"/*@ assigns g \\from g; */\nvoid f_{i}() {{\n"
                     f"  f_{i - 1}();\n  f_{i - 1}();\n  return;\n}}\n")
    return "\n".join(parts)
