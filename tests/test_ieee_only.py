"""The package computes with IEEE `+ - * /` and `sqrt` only, which every
platform rounds alike: no `**` power operator, `pow` or `hypot` in its source.
It sums floats left to right with `model.ordered_sum` alone: no reduction whose
order numpy or Python leaves open (pairwise or SIMD-blocked sums, BLAS dot
products, the builtin `sum`, compensated from Python 3.12, or `math.fsum`).
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wsnsim"
BANNED_NAMES = {"pow", "hypot", "power", "float_power"}   # builtin, math and numpy spellings
# Reductions by name, numpy functions and array methods alike (`np.sum`, `.sum(`).
# `cumsum` adds in order, but the one float sum is `ordered_sum`: integer uses
# are allowed below by (file, function, name).
REDUCTIONS = {"sum", "fsum", "mean", "average", "nansum", "nanmean", "std", "var",
              "dot", "vdot", "inner", "tensordot", "matmul", "einsum", "cumsum"}
ALLOWED_REDUCTIONS = {
    ("membership.py", "_grid", "cumsum"),   # row offsets from integer head counts
}


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


def _reduction(node) -> str | None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    name = (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)
    return name if name in REDUCTIONS else None


def unordered_reductions(source: str) -> list[tuple[int, str, str | None]]:
    """(line, what, innermost enclosing function or None) for each reduction
    name and each `@` in `source`. A keyword or parameter name is no call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if what := _reduction(child):
                found.append((child.lineno, what, function))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(ast.parse(source), None)
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


@pytest.mark.parametrize("snippet, expected", [
    ("t = np.sum(a)", [(1, "sum", None)]),
    ("t = a.sum(axis=0)", [(1, "sum", None)]),
    ("t = sum(values)", [(1, "sum", None)]),
    ("t = math.fsum(values)", [(1, "fsum", None)]),
    ("from math import fsum", [(1, "fsum", None)]),
    ("m = a.mean()\nm = np.mean(a)", [(1, "mean", None), (2, "mean", None)]),
    ("d = np.dot(a, b)", [(1, "dot", None)]),
    ("d = a @ b", [(1, "@", None)]),
    ("a @= b", [(1, "@", None)]),
    ("d = np.matmul(a, b)", [(1, "matmul", None)]),
    ("d = np.einsum('i,i', a, b)", [(1, "einsum", None)]),
    ("def f(a):\n    return np.cumsum(a)", [(2, "cumsum", "f")]),
    ("def g():\n    def h():\n        return sum(x)\n    return h", [(3, "sum", "h")]),
    ("t = ordered_sum(a)\nt = np.add.accumulate(a)[-1]", []),
    ("elect(net, by_alive_mean=True)\ndef f(by_alive_mean=False): pass", []),
    ("w = weights.max()  # not sum(, no .mean(", []),
])
def test_scanner_finds_unordered_reductions(snippet, expected):
    assert unordered_reductions(snippet) == expected


def test_package_sums_floats_only_in_order():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = {(path.name, function, what): line for path in files
            for line, what, function in unordered_reductions(path.read_text(encoding="utf-8"))}
    assert {key: line for key, line in hits.items() if key not in ALLOWED_REDUCTIONS} == {}
    assert ALLOWED_REDUCTIONS <= hits.keys(), "an allowance names no reduction left in src/"
