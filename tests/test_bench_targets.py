"""The benchmark's traced entry points (perfbench/spans.py TARGETS) exist.

`perfbench/run.py --trace 1` looks each (layer, function) pair up and wraps
it wherever relprop binds it; a rename breaks the traced run, and the
benchmark's own self-tests are not part of this suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_function_resolves_in_its_layer(monkeypatch):
    targets = _targets(monkeypatch)
    assert targets
    for layer, name, _count in targets:
        fn = getattr(importlib.import_module(f"relprop.{layer}"), name, None)
        assert callable(fn), f"relprop.{layer} binds no {name}"
        assert fn.__module__.startswith("relprop."), (layer, name)


def test_cli_binds_the_proof_run():
    from relprop import cli, prove
    assert cli.prove_program is prove.prove_program
