"""Every name a library module imports is used in it, every export of
the package resolves, and the package never loads scipy.stats.

No linter is part of the toolchain, so this parses each module of
src/jkaraim, each test module and each demo, and fails on an imported name
that the file never refers to.
The package's __init__.py (whose imports are its exports) and __future__
imports are exempt; its __all__ is checked instead: every name in it must
resolve and appear once.

scipy.stats takes about half a second to import, more than the rest of the
package together; the library uses scipy.special and scipy.fft only.
"""

import ast
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import jkaraim

MODULES = sorted(p for p in Path(jkaraim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(REPO.glob("tests/*.py")) + sorted(REPO.glob("demos/*.py"))


def unused_imports(source):
    """(line, name) of each name imported by source and never used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert {"distkit.py", "sim.py", "cli.py"} <= {p.name for p in MODULES}
    assert {"tests/test_imports.py", "demos/protection_levels.py"} \
        <= {p.relative_to(REPO).as_posix() for p in SCRIPTS}


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda p: (p.name if p in MODULES
                   else p.relative_to(REPO).as_posix()))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import io\nimport os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: int\n"
              "print(os.path.sep)\n")
    assert unused_imports(source) == [(2, "io"), (4, "field")]


def stale_exports(module):
    """Names in module.__all__ that do not resolve, and names listed more
    than once."""
    names = list(module.__all__)
    missing = [n for n in names if not hasattr(module, n)]
    repeated = [n for n, k in Counter(names).items() if k > 1]
    return missing, repeated


def test_all_exports_resolve_once():
    assert stale_exports(jkaraim) == ([], [])


def test_detects_a_stale_export():
    module = types.ModuleType("m")
    module.a = 1
    module.__all__ = ["a", "b", "a"]
    assert stale_exports(module) == (["b"], ["a"])


def stats_imports(source):
    """Lines of source that import scipy.stats or anything from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "scipy.stats" or n.startswith("scipy.stats.")
               for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", sorted(Path(jkaraim.__file__).parent.rglob("*.py")),
    ids=lambda p: p.name)
def test_no_scipy_stats_import(path):
    assert stats_imports(path.read_text()) == []


def test_detects_a_scipy_stats_import():
    source = ("import scipy.special\nimport scipy.stats\n"
              "from scipy import stats\nfrom scipy.stats import binom\n"
              "from scipy.stats.distributions import norm\n"
              "from scipy import fft\n")
    assert stats_imports(source) == [2, 3, 4, 5]


def test_fresh_import_loads_no_scipy_stats():
    src = str(Path(jkaraim.__file__).resolve().parents[1])
    code = ("import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import jkaraim, jkaraim.cli\n"
            "print('\\n'.join(m for m in sys.modules\n"
            "                  if m.startswith('scipy.stats')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


def unused_errors(errors_source, sources):
    """Names of the JkAraimError subclasses defined in errors_source that no
    source raises (raise X or raise X(...)) or catches (except X or
    except (X, ...))."""
    defined = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "JkAraimError"
                       for b in node.bases)]
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                used.update(n.id for n in ast.walk(exc)
                            if isinstance(n, ast.Name))
            elif isinstance(node, ast.ExceptHandler) and node.type:
                used.update(n.id for n in ast.walk(node.type)
                            if isinstance(n, ast.Name))
    return [name for name in defined if name not in used]


def test_every_error_is_raised_or_caught():
    errors = Path(jkaraim.__file__).parent / "errors.py"
    assert unused_errors(errors.read_text(),
                         [p.read_text() for p in MODULES]) == []


def test_detects_an_unused_error():
    errors = ("class JkAraimError(Exception): pass\n"
              "class A(JkAraimError): pass\n"
              "class B(JkAraimError): pass\n"
              "class C(JkAraimError): pass\n"
              "class D(JkAraimError): pass\n")
    source = ("try:\n    raise A('x')\nexcept (B, KeyError):\n    pass\n"
              "raise C\n")
    assert unused_errors(errors, [source]) == ["D"]
