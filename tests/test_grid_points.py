"""One grid resolution: only the distribution engine takes n_points.

distkit.GRID_POINTS sets the grid of every convolution the library runs.
This parses each module of src/jkaraim and fails on a function outside
distkit.py with an n_points parameter, or on an n_points field of
sim.ScenarioConfig: either would let a call run on a grid other than the
scenario's.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import jkaraim
from jkaraim import distkit
from jkaraim.sim import ScenarioConfig

MODULES = sorted(Path(jkaraim.__file__).parent.glob("*.py"))


def n_points_functions(source):
    """Names of the functions (<lambda> for a lambda) in source that take
    an n_points parameter."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            if "n_points" in [p.arg for p in
                              a.posonlyargs + a.args + a.kwonlyargs]:
                out.append(getattr(node, "name", "<lambda>"))
    return sorted(out)


def test_modules_found():
    assert {"distkit.py", "sim.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "distkit.py"],
                         ids=lambda p: p.name)
def test_no_n_points_above_the_engine(path):
    assert n_points_functions(path.read_text()) == []


def test_engine_defaults_to_grid_points():
    source = Path(distkit.__file__).read_text()
    assert n_points_functions(source) == ["convolve_batch", "convolve_rows"]
    for fn in (distkit.convolve_batch, distkit.convolve_rows):
        param = inspect.signature(fn).parameters["n_points"]
        assert param.default == distkit.GRID_POINTS


def test_scenario_config_has_no_grid_size():
    assert "n_points" not in {f.name for f in fields(ScenarioConfig)}


def test_detects_an_n_points_parameter():
    source = ("def f(a, n_points=4):\n    pass\n"
              "class A:\n    def g(self, *, n_points):\n        pass\n"
              "h = lambda n_points: 0\n"
              "def k(n_points_total):\n    pass\n")
    assert n_points_functions(source) == ["<lambda>", "f", "g"]
