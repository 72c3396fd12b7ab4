"""The package root and the module split: `import relprop` resolves its
public names on first use, and each CLI command loads only its own layers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relprop
import relprop.cli  # the checks below hold after the CLI is loaded

from conftest import corpus_path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs prove, test and transform in that order in one fresh process and
# prints which of the modules below are loaded after each.
_LOADED_AFTER_EACH_COMMAND = """
import contextlib, io, json, sys
from relprop.cli import main
src, out = sys.argv[1], sys.argv[2]
watch = ("relprop.dynamic", "relprop.interp", "relprop.pretty")
loaded = {}
for argv in (["prove", src, "-o", out],
             ["test", src, "-o", out, "--bound", "2", "--budget", "1"],
             ["transform", src, "-o", out]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    loaded[argv[0]] = [m for m in watch if m in sys.modules]
print(json.dumps(loaded))
"""


def test_each_command_loads_only_its_layers(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH_COMMAND,
         str(corpus_path("comparators/cmp_sign_bad.mc")), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "prove": [],
        "test": ["relprop.dynamic", "relprop.interp"],
        "transform": ["relprop.dynamic", "relprop.interp", "relprop.pretty"],
    }


@pytest.mark.parametrize("name", relprop.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(relprop, name)
    assert obj.__name__ == name
    assert obj.__module__.startswith("relprop.")
    assert sys.modules[obj.__module__].__dict__[name] is obj


def test_validate_is_the_function_not_the_module():
    assert relprop.validate is sys.modules["relprop.validate"].validate


def test_dir_lists_every_public_name():
    assert set(relprop.__all__) <= set(dir(relprop))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from relprop import *", namespace)
    assert {name: namespace.get(name) for name in relprop.__all__} == \
        {name: getattr(relprop, name) for name in relprop.__all__}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        relprop.no_such_name
