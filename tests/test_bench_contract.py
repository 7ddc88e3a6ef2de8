"""The benchmark's span tracer patches library names; they must keep resolving.

`bench/spans.py` lists the functions and methods it wraps in FUNCTIONS,
METHODS and COUNTED, and also patches `get_problem`, `get_realizer` and
`Fuel.__init__`.  A rename in the library would make `--trace 1` die with an
AttributeError, so this test reads those tables (parsing the file, never
importing or writing anything under bench/) and looks every name up.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tables():
    tree = ast.parse(SPANS.read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
ATTRIBUTES = [(mod, attr) for mod, attr, _ in TABLES["FUNCTIONS"] + TABLES["COUNTED"]] + [
    ("baire.problems", "get_problem"),
    ("baire.problems", "get_realizer"),
]
METHODS = [(mod, cls, method) for mod, cls, method, _ in TABLES["METHODS"]] + [
    ("baire.streams", "Fuel", "__init__"),
]


def test_tables_found():
    assert set(TABLES) == {"FUNCTIONS", "METHODS", "COUNTED"}
    assert all(TABLES.values())


@pytest.mark.parametrize("mod, attr", ATTRIBUTES)
def test_patched_function_exists(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr))


@pytest.mark.parametrize("mod, cls, method", METHODS)
def test_patched_method_exists(mod, cls, method):
    owner = getattr(importlib.import_module(mod), cls)
    assert isinstance(owner, type)
    assert callable(getattr(owner, method))
