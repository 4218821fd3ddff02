"""The package imports the standard library and numpy, and nothing else: a
dependency is never added. Nor does it import `numpy.random`, which numpy
loads on first access and which maps about 6 MB into every process; the
engine draws from `random.Random`.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wsnsim"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _foreign(module: str) -> bool:
    return module.partition(".")[0] not in ALLOWED or f"{module}.".startswith("numpy.random.")


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each import in `source` of a module neither in the
    standard library nor numpy, and each `numpy.random`, imported or reached
    as an attribute of a name numpy is bound to. Relative imports are the
    package's own."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = ([node.module] if _foreign(node.module) else
                       [f"{node.module}.{alias.name}" for alias in node.names])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            modules = [f"numpy.{node.attr}"]
        else:
            continue
        found += [(node.lineno, m) for m in modules if _foreign(m)]
    return found


@pytest.mark.parametrize("snippet, expected", [
    ("import math, json\nfrom collections.abc import Sequence", []),
    ("from __future__ import annotations\nfrom . import reporting\nfrom .model import x", []),
    ("import numpy as np\ny = np.add.accumulate(a)\nz = np.sqrt(b)", []),
    ("import scipy", [(1, "scipy")]),
    ("from scipy.spatial import cKDTree", [(1, "scipy.spatial")]),
    ("import numpy.random", [(1, "numpy.random")]),
    ("from numpy import random", [(1, "numpy.random")]),
    ("from numpy.random import default_rng", [(1, "numpy.random")]),
    ("import numpy as np\ng = np.random.default_rng(0)", [(2, "numpy.random")]),
    ("import random\nrng = random.Random(0)\nx = rng.random()", []),
])
def test_scanner_finds_foreign_imports(snippet, expected):
    assert foreign_imports(snippet) == expected


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: hits for path in files
             if (hits := foreign_imports(path.read_text(encoding="utf-8")))}
    assert not found
