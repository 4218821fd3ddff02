"""The package reads its random stream through `random.Random.random()` and
`getrandbits()` alone. Python promises only `random()` across versions: the
algorithms of `shuffle`, `uniform`, `sample`, `choice`, `randrange` and the
variates may change, and with them every output byte. So the package keeps
its own shuffle (`model.shuffled_ids`) and draws nothing through the others.
"""
import ast
import random
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wsnsim"
# Methods of random.Random that draw through an algorithm Python may change.
# Seeding and getstate/setstate draw nothing; `seed` is also a run's attribute.
DRAWING = {"shuffle", "uniform", "sample", "choice", "choices", "randrange", "randint",
           "randbytes", "gauss", "triangular", "normalvariate", "lognormvariate",
           "expovariate", "vonmisesvariate", "gammavariate", "betavariate",
           "paretovariate", "weibullvariate", "binomialvariate"}
KEPT = {"random", "getrandbits", "seed", "getstate", "setstate", "VERSION"}


def drawing_methods(source: str) -> list[tuple[int, str]]:
    """(line, name) for each attribute and each imported name in `source`
    that is a drawing method of `random.Random` other than `random` and
    `getrandbits`. A plain variable of that name (`choice = ...`) is no call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in DRAWING:
            found.append((node.lineno, name))
    return sorted(found)


def test_every_public_method_is_listed():
    # A method added in a later Python is banned until it is sorted here.
    public = {name for name in dir(random.Random) if not name.startswith("_")}
    assert public - KEPT <= DRAWING


@pytest.mark.parametrize("snippet, expected", [
    ("rng.shuffle(order)", [(1, "shuffle")]),
    ("x = rng.uniform(0.0, side)", [(1, "uniform")]),
    ("ids = rng.sample(range(n), k)", [(1, "sample")]),
    ("h = rng.choice(heads)\nhs = rng.choices(heads, k=2)", [(1, "choice"), (2, "choices")]),
    ("i = rng.randrange(n)\nj = rng.randint(0, n)", [(1, "randrange"), (2, "randint")]),
    ("z = rng.gauss(0.0, 1.0)", [(1, "gauss")]),
    ("random.shuffle(order)", [(1, "shuffle")]),
    ("from random import shuffle, random", [(1, "shuffle")]),
    ("draw = rng.random\nf = np.random.uniform", [(2, "uniform")]),
    ("x = rng.random()\nk = rng.getrandbits(13)\nrng.setstate(rng.getstate())", []),
    ("choice = _all_heads(m, h)\nrun(seed=summary.seed)  # no rng.shuffle(", []),
])
def test_scanner_finds_drawing_methods(snippet, expected):
    assert drawing_methods(snippet) == expected


def test_package_draws_only_through_random_and_getrandbits():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: hits for path in files
             if (hits := drawing_methods(path.read_text(encoding="utf-8")))}
    assert not found
