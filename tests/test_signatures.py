"""One geometry handle and one detector table per axis.

The PLs and the detectors take the geometry of a stack of records as its
SolutionStack, and the observations as an argument. This parses
integrity.py and jackknife.py and fails on a function with a model
parameter (a LinearModel next to its own SolutionStack), or with an ops or
y parameter that defaults to None (a SolutionStack rebuilt inside, or
observations read from somewhere else). Observations are no field of
LinearModel, and EpochSetup holds the geometry once, as ops.

Each axis's tests are one DetectorTable: run_detector takes only the table
and the observations, and both PLs take the same first five parameters,
(ops, threat, acc_bounds, tests, budget), with their axis from the table
they read their rows from. The detectors' Gaussian separation threshold
|Phi^-1(c)| sigma_ss is written in separation_tests alone: of these
modules' functions, only it and the baseline PL (whose offsets assume the
thresholds at the axis's own false-alarm split) call ndtri.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import jkaraim
from jkaraim.integrity import baseline_araim_pl, protection_levels
from jkaraim.jackknife import run_detector
from jkaraim.model_core import LinearModel
from jkaraim.sim import EpochSetup

MODULES = [Path(jkaraim.__file__).parent / name
           for name in ("integrity.py", "jackknife.py")]


def second_handles(source):
    """(function, parameter) pairs in source (<lambda> for a lambda) that
    take a model parameter, or an ops or y parameter defaulting to None."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        defaults = ([None] * (len(positional) - len(a.defaults))
                    + list(a.defaults) + list(a.kw_defaults))
        for param, default in zip(positional + a.kwonlyargs, defaults):
            none_default = (isinstance(default, ast.Constant)
                            and default.value is None)
            if param.arg == "model" or (param.arg in ("ops", "y")
                                        and none_default):
                out.append((getattr(node, "name", "<lambda>"), param.arg))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_geometry_handle(path):
    assert second_handles(path.read_text()) == []


def test_observations_are_no_field_of_the_geometry():
    assert "y" not in {f.name for f in fields(LinearModel)}
    assert "geom" not in {f.name for f in fields(EpochSetup)}


def test_detects_a_second_handle():
    source = ("def f(model, threat):\n    pass\n"
              "def g(a, ops=None, *, y=None):\n    pass\n"
              "class A:\n    def h(self, ops, y, axis=None):\n        pass\n"
              "k = lambda ops, model=None: 0\n"
              "def m(models, y=0.0, ops_list=None):\n    pass\n")
    assert second_handles(source) == [("<lambda>", "model"), ("f", "model"),
                                      ("g", "ops"), ("g", "y")]


def test_one_detector_table_per_axis():
    assert list(inspect.signature(run_detector).parameters) == ["tests", "y"]
    for pl in (protection_levels, baseline_araim_pl):
        params = inspect.signature(pl).parameters
        assert list(params)[:5] == ["ops", "threat", "acc_bounds", "tests",
                                    "budget"]
        assert "axis" not in params and "refine" not in params


def test_detector_separation_threshold_written_once():
    callers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(n, ast.Name) and n.id == "ndtri"
                    for n in ast.walk(node)):
                callers.add(node.name)
    assert callers == {"separation_tests", "baseline_table"}
