"""The package computes with IEEE `+ - * /` and `sqrt` only, which every
platform rounds alike: no `**` power operator, `pow` or `hypot` in its source.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wsnsim"
BANNED_NAMES = {"pow", "hypot", "power", "float_power"}   # builtin, math and numpy spellings


def libm_powers(source: str) -> list[tuple[int, str]]:
    """(line, what) for each power operator and each pow/hypot name in `source`.
    Dict and keyword unpacking (`f(**kw)`, `{**d}`) is not a power."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append((node.lineno, "**"))
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias) and node.name in BANNED_NAMES:
            found.append((node.lineno, node.name))
    return found


@pytest.mark.parametrize("snippet, expected", [
    ("y = x ** 2", [(1, "**")]),
    ("x **= 0.5", [(1, "**")]),
    ("y = pow(x, 3)", [(1, "pow")]),
    ("y = math.hypot(a, b)", [(1, "hypot")]),
    ("y = np.power(a, b)", [(1, "power")]),
    ("from math import pow", [(1, "pow")]),
    ("c = Config(**owners['field'])\nd = {**c, 'k': 1}", []),
    ("y = math.sqrt(x * x + z * z)  # not hypot, no pow(", []),
])
def test_scanner_tells_a_power_from_unpacking(snippet, expected):
    assert libm_powers(snippet) == expected


def test_package_has_no_power_operator_pow_or_hypot():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: hits for path in files
             if (hits := libm_powers(path.read_text(encoding="utf-8")))}
    assert not found
