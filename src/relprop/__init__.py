"""relprop: relational property verification for MiniC via self-composition.

The pipeline: parse annotated MiniC, validate it, transform each relational
clause into a self-composed wrapper function plus an axiomatic layer
(predicate, lemma, ensures links), then either prove the wrapper assertion
through weakest-precondition verification conditions (SMT-LIB output and a
built-in bounded checker) or attack it dynamically (interpretation, random
and exhaustive counterexample search, runtime re-checking).

The public names resolve on first use (PEP 562), so importing the package
loads only the layers a caller asks for. `validate` is the exception: it is
bound at import, because the function shares its name with its module, and
importing `relprop.validate` sets the package attribute to the module.
"""

import importlib

from .validate import validate

# Each public name, in `__all__` order, and the module that defines it.
_HOMES = {
    "Program": "minic", "Diagnostic": "minic", "Span": "minic",
    "parse_program": "parser", "pretty_print": "pretty",
    "validate": "validate", "footprint_of": "validate",
    "MemFootprint": "validate",
    "transform": "selfcomp", "TransformedProgram": "selfcomp",
    "vcs_for": "vcgen", "VerificationCondition": "vcgen",
    "emit_smtlib": "smtlib",
    "check_bounded": "bounded", "BoundedResult": "bounded",
    "interpret": "interp", "State": "interp",
    "run_wrapper": "dynamic", "find_counterexample": "dynamic",
    "runtime_check": "dynamic", "InputVector": "dynamic",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
