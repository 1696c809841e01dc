import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitstab

SUBMODULES = ("analysis", "cli", "dynamics", "kernel", "rng", "schemes", "stability", "svgplot")


def test_every_public_name_is_its_home_modules_object():
    assert len(splitstab.__all__) == len(set(splitstab.__all__)) > 0
    for name in splitstab.__all__:
        home = importlib.import_module(f"splitstab.{splitstab._HOME[name]}")
        assert getattr(splitstab, name) is getattr(home, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from splitstab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(splitstab.__all__)


def test_every_submodule_resolves_after_importing_only_the_cli():
    # the path of perfbench's traced run: import splitstab.cli, then look
    # each layer up on the package
    probe = ("import json, splitstab, splitstab.cli\n"
             f"print(json.dumps([getattr(splitstab, n).__name__ for n in {SUBMODULES!r}]))")
    src = str(Path(splitstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [f"splitstab.{n}" for n in SUBMODULES]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        splitstab.no_such_name


def test_readme_library_example_runs_as_written():
    # README's "Library at a glance" block, statement by statement; the
    # value of each bare expression is kept under its source text to check
    # the deterministic comments beside it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library at a glance", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    assert values["classify(mat).kind"] is splitstab.StabilityClass.STABLE
    assert values["poly.coeffs"] == (math.cos(1.0), -math.sin(1.0) / 2)
    assert repr(values["critical_steplength(3)"]).startswith("5.97630522")
    checks, failures, _ = values['verify_suite("chebyshev", seed=1, trials=200)']
    assert (checks, failures) == (196, 0)
