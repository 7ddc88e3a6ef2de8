"""The benchmark's span tracer patches library names; they must keep resolving.

`bench/spans.py` lists the functions and methods it wraps in FUNCTIONS,
METHODS and COUNTED, and also patches `get_problem`, `get_realizer` and
`Fuel.__init__`.  A rename in the library would make `--trace 1` die with an
AttributeError, so this test reads those tables (parsing the file, never
importing or writing anything under bench/) and looks every name up.

The workloads and the runner call library functions directly; every such
`<baire module>.<name>(...)` call must still bind to the name's signature,
or a benchmark run dies with a TypeError.

The runner also reads library attributes that are not calls: the decode and
evaluation caches' `cache_info()` and the size of `_word_pool`.  Every such
`<baire module>.<name>[.<attribute>...]` read must resolve, or a run dies with
an AttributeError after its operations are done.

The tracer wraps `Stream.prefix` and `Stream.determined_prefix` on the base
class only, so a stream class overriding either would read outside the
`streams.prefix` and `streams.determined_prefix` spans without a trace.
Dense streams are read and charged through one charger, `charge_run`, so
no stream class brings back a bulk reader of its own.

Graph blocks are built in one place, `machine.py`: no other library module
names the codec's block-format constants.  `transform` keeps no memo class
of its own; its caches live with the objects they describe.  Loop states
are built by `operators.LoopStates` alone, so `reductions` names neither
`eval_stream` nor `loop_step`.

The `check` workload replays CLI runs in one process, so `cli.main` builds
its argument parser on its first call only.

Loop kinds are decided in one place, `operators.LOOP_KINDS`: `cli` imports
no loop constructor and names no kind of its own.

A check has one budget, the seed's tank: `reductions` opens a `Fuel` only
in `run_suite`, and no library module keeps a private per-read budget.
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


def _attribute_reads():
    """(module, dotted path) for every attribute chain rooted at a library
    module in the workloads and the runner."""
    reads = set()
    for path in (BENCH / "workloads.py", BENCH / "run.py"):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: f"baire.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "baire"
            for alias in node.names
        }
        for node in ast.walk(tree):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in modules:
                reads.add((modules[node.id], ".".join(reversed(parts))))
    return sorted(reads)


READS = _attribute_reads()


def test_cache_and_pool_reads_found():
    # bench/spans.py's decode wrapper also calls decode_entries.cache_info()
    # on the function it wraps
    assert {
        ("baire.machine", "decode_entries.cache_info"),
        ("baire.machine", "eval_name.cache_info"),
        ("baire.machine", "_word_pool"),
    } <= set(READS)


@pytest.mark.parametrize("mod, path", READS)
def test_attribute_read_resolves(mod, path):
    target = importlib.import_module(mod)
    for attr in path.split("."):
        target = getattr(target, attr)
    if path.endswith(".cache_info"):
        assert target()._asdict()  # run.py records the CacheInfo fields


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


def _take_callers():
    """Qualified names of the library functions that call `<x>.take(...)`."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take"
        ):
            callers.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(LIBRARY.glob("*.py")):
        visit(ast.parse(path.read_text()), ())
    return callers


def test_dense_streams_charge_through_one_charger():
    from baire.streams import Stream

    assert _take_callers() == {
        "charge_run",
        "RawEvalStream._extend",
        "MachineName.read_rounds",
    }
    gone = ("_prefix", "fill", "record_run", "_plan_into")
    assert [m for m in gone if hasattr(Stream, m)] == []
    assert _stream_classes_defining(gone) == []


BLOCK_FORMAT = {"ENTRY_BEGIN", "ENTRY_SEP", "ENTRY_END", "PAYLOAD_BASE"}


def _names(path):
    """The names, attributes and imported names a library file mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_the_codec_names_the_block_format():
    files = {path.name for path in LIBRARY.glob("*.py") if _names(path) & BLOCK_FORMAT}
    assert files == {"machine.py"}


def test_the_seed_tank_is_the_judges_one_budget():
    # judges read on the tank run_suite hands them: reductions opens no
    # other, and no private per-read budget of the old kind is left
    def fuel_calls(root):
        return {
            id(node)
            for node in ast.walk(root)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fuel"
        }

    tree = ast.parse((LIBRARY / "reductions.py").read_text())
    suite = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_suite")
    assert fuel_calls(tree) == fuel_calls(suite) != set()
    for path in LIBRARY.glob("*.py"):
        nodes = ast.walk(ast.parse(path.read_text()))
        constants = {node.value for node in nodes if isinstance(node, ast.Constant)}
        assert not constants & {400_000, 600_000}, path.name


def test_only_the_streams_read_a_plan_s_paid_count():
    # other modules ask a plan for `paid()` and `word(a, b)`
    files = {path.name for path in LIBRARY.glob("*.py") if "_paid" in _names(path)}
    assert files == {"streams.py"}


def test_only_the_operators_know_the_loop_kinds():
    from baire import operators

    constructors = {
        name
        for name, obj in vars(operators).items()
        if inspect.isfunction(obj) and obj.__annotations__.get("return") == "LoopInstance"
    }
    assert {"problem_loop", "limnat_loop", "countdown_loop"} <= constructors
    cli = LIBRARY / "cli.py"
    for reader in (cli, LIBRARY / "reductions.py"):
        assert not _names(reader) & constructors, reader.name
        assert "LOOP_KINDS" in _names(reader), reader.name
    tree = ast.parse(cli.read_text())
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not constants & set(operators.LOOP_KINDS)


def test_the_mind_change_simulation_steps_through_the_loop_driver():
    assert not _names(LIBRARY / "reductions.py") & {"eval_stream", "loop_step"}


def test_the_flag_guard_is_the_entry_end():
    from baire import machine, operators

    # the symbol after a head flag ends any entry a flag of 3 would begin
    assert operators.FLAG_GUARD == machine.ENTRY_END


def test_transform_keeps_no_memo_class():
    import baire.transform

    assert not hasattr(baire.transform, "_KeyedMemo")


def test_cli_builds_its_parser_once(monkeypatch):
    import argparse
    import io

    from baire import cli

    machine = ROOT / "tests" / "golden" / "identity.machine"
    argv = ["--depth", "3", "eval", str(machine), "1", "zeros"]
    assert cli.main(argv, out=io.StringIO()) == 0  # warm-up: may build the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(20):
        assert cli.main(argv, out=io.StringIO()) == 0
    assert built == []
