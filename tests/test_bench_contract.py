"""The benchmark's span tracer patches library names; they must keep resolving.

`bench/spans.py` lists the functions and methods it wraps in FUNCTIONS,
METHODS and COUNTED, and also patches `get_problem`, `get_realizer` and
`Fuel.__init__`.  A rename in the library would make `--trace 1` die with an
AttributeError, so this test reads those tables (parsing the file, never
importing or writing anything under bench/) and looks every name up.

The workloads and the runner call library functions directly; every such
`<baire module>.<name>(...)` call must still bind to the name's signature,
or a benchmark run dies with a TypeError.

The tracer wraps `Stream.prefix` and `Stream.determined_prefix` on the base
class only, so a stream class overriding either would read outside the
`streams.prefix` and `streams.determined_prefix` spans without a trace.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
LIBRARY = ROOT / "src" / "baire"
SPANS = BENCH / "spans.py"


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


def _library_calls():
    """(file:line, module, name, positional count, keyword names) per call."""
    calls = []
    for path in (BENCH / "workloads.py", BENCH / "run.py"):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: f"baire.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "baire"
            for alias in node.names
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
                # *args and **kwargs calls have no fixed shape to bind
                and not any(isinstance(a, ast.Starred) for a in node.args)
                and all(k.arg for k in node.keywords)
            ):
                calls.append(
                    (
                        f"{path.name}:{node.lineno}",
                        modules[func.value.id],
                        func.attr,
                        len(node.args),
                        tuple(k.arg for k in node.keywords),
                    )
                )
    return calls


CALLS = _library_calls()


def test_library_calls_found():
    assert len(CALLS) >= 70


@pytest.mark.parametrize("where, mod, name, positional, keywords", CALLS)
def test_library_call_binds(where, mod, name, positional, keywords):
    target = getattr(importlib.import_module(mod), name)
    inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))


def _stream_classes_defining(methods):
    """(module, class) for every class in the library, nested ones included,
    that derives from Stream and defines one of `methods` itself."""
    from baire.streams import Stream

    found = []
    for path in sorted(LIBRARY.glob("[!_]*.py")):
        module = importlib.import_module(f"baire.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            # bases are module-level names, also for classes defined in functions
            bases = [vars(module).get(getattr(b, "id", None)) for b in node.bases]
            derived = any(isinstance(b, type) and issubclass(b, Stream) for b in bases)
            defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if derived and defined & set(methods):
                found.append((module.__name__, node.name))
    return found


def test_stream_classes_leave_traced_readers_alone():
    assert _stream_classes_defining(("at",))  # the scan sees stream classes
    assert _stream_classes_defining(("prefix", "determined_prefix")) == []
