"""Golden-file checks: frozen byte-exact outputs of representative runs.

These catch accidental behavior drift that run-to-run determinism tests
cannot; regenerate deliberately when output is meant to change.  The CLI
battery is rewritten from the current code by

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import pathlib
import re
import shlex
from unittest import mock

import pytest

from baire.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_golden_check_report():
    code, text = run("check", "llpo-id", "--seeds", "5")
    assert code == 0
    assert text == (GOLDEN / "check_llpo_id_5.txt").read_text()


def test_golden_diamond_trace():
    code, text = run("loop", "diamond", str(GOLDEN / "count3.loop"))
    assert code == 0
    assert text == (GOLDEN / "diamond_count3.txt").read_text()


def test_golden_quine_verification():
    code, text = run("--depth", "32", "transform", "quine", "--verify")
    assert code == 0
    assert text == (GOLDEN / "quine_verify_32.txt").read_text()


# every subcommand and its undetermined, strict and usage-error paths;
# paths are relative to the repository root, where the battery runs
G = "tests/golden/"
WITNESSES = (
    "llpo-id",
    "c2-to-cn",
    "llpo-to-cantor",
    "limn-to-lim",
    "c2-loop-lift",
    "c2-loop-lift-unique",
    "c2-cn-loop-lift",
    "cn-loop-limsim",
    "broken-lpo",
    "broken-c2-nondet",
)
LOOP_OPS = (
    ("power", "--n", "2"),
    ("star", "--n", "2"),
    ("omega",),
    ("diamond",),
    ("infty", "--validate"),
)
BATTERY = (
    ("--depth", "3", "eval", G + "identity.machine", "1", "2", "3", "zeros"),
    ("--depth", "5", "eval", G + "identity.machine", "1", "2", "3", "zeros"),
    ("--strict", "--depth", "4", "eval", G + "identity3.machine", "1", "2", "zeros"),
    ("--depth", "8", "--fuel", "20000", "transform", "smn", "--machine", G + "identity.machine",
     "--input", "1", "2", "3", "zeros", "--verify"),
    ("--strict", "--depth", "8", "--fuel", "20000", "transform", "smn", "--machine",
     G + "identity.machine", "--verify"),
    ("--strict", "--depth", "8", "--fuel", "20000", "transform", "fix", "--machine",
     G + "identity.machine", "--verify"),
    ("--depth", "8", "transform", "inject", "--machine", G + "identity.machine"),
    ("--depth", "8", "transform", "extract", "--machine", G + "identity.machine", "--verify"),
    ("--depth", "8", "transform", "injrec", "--verify"),
    ("--depth", "8", "transform", "quine", "--verify"),
    ("--strict", "--depth", "0", "transform", "quine", "--verify"),
    *(
        ("--depth", "8", "loop", op, G + f"{loop}.loop", *rest)
        for loop in ("count3", "llpo", "cn", "id", "limnat")
        for op, *rest in LOOP_OPS
    ),
    ("--strict", "--fuel", "2", "--depth", "8", "loop", "power", G + "llpo.loop", "--n", "3"),
    ("--strict", "--fuel", "2", "--depth", "8", "loop", "star", G + "llpo.loop", "--n", "3"),
    ("--strict", "--fuel", "2", "--depth", "8", "loop", "omega", G + "limnat.loop"),
    ("--strict", "loop", "diamond", G + "llpo.loop"),
    ("limsim", G + "limnat.loop"),
    ("limsim", G + "cn.loop"),
    *(("--seeds", "3", "check", name) for name in WITNESSES),
    ("--seeds", "12", "check", "c2-loop-lift"),
    ("--seeds", "12", "check", "c2-loop-lift-unique"),
    ("--depth", "4", "--seeds", "6", "check", "c2-loop-lift"),
    ("--seeds", "2", "--fuel", "50", "check", "c2-cn-loop-lift"),
    ("--strict", "--seeds", "2", "--fuel", "3", "check", "llpo-id"),
    ("check", "nosuch"),
    ("loop", "diamond", G + "identity.machine"),
    ("loop", "omega", G + "llpo.loop", "--n", "2"),
    ("--depth", "-1", "eval", G + "identity.machine", "1", "zeros"),
    # global flags that the subcommand never reads
    ("--seed", "9", "--depth", "3", "eval", G + "identity.machine", "1", "2", "3", "zeros"),
    ("--seeds", "5", "--depth", "4", "loop", "power", G + "llpo.loop", "--n", "2"),
    ("--steps", "3", "--depth", "8", "loop", "star", G + "llpo.loop", "--n", "2"),
    ("check", "llpo-id", "--seed", "3"),
    ("--steps", "2", "check", "llpo-id"),
    ("limsim", G + "limnat.loop", "--seeds", "2"),
    ("--depth", "8", "transform", "quine", "--verify", "--steps", "4"),
)


def battery_text() -> str:
    """Each argv with what it writes (usage errors go to stderr) and its exit.

    COLUMNS pins argparse's line wrapping to a terminal-independent width.
    """
    return "".join(map(battery_block, BATTERY))


def battery_block(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stderr(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(list(argv), out=out)
    return f"$ {' '.join(argv)}\n{out.getvalue()}exit {code}\n"


def test_golden_cli_battery(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert battery_text() == (GOLDEN / "cli_battery.txt").read_text()


def test_shared_parser_carries_nothing_between_calls(monkeypatch):
    # one parser serves every call in a process; the battery backwards (its
    # usage errors first), then forwards, still gives each argv its block
    monkeypatch.chdir(ROOT)
    assert build_parser() is build_parser()
    golden = re.split(r"(?m)^(?=\$ )", (GOLDEN / "cli_battery.txt").read_text())[1:]
    assert len(golden) == len(BATTERY)
    backward = [battery_block(argv) for argv in reversed(BATTERY)]
    assert backward[::-1] == golden
    assert [battery_block(argv) for argv in BATTERY] == golden


def readme_examples():
    """(command, shown lines, shown exit code lines) for each `$` line of the
    README's "Command line" section; `$ echo $?` shows the previous exit."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples, target = [], None
    for line in section.splitlines():
        if not line.startswith("    "):
            target = None  # prose or a blank line ends a code block
        elif line == "    $ echo $?" and target is not None:
            target = examples[-1][2]
        elif line.startswith("    $ "):
            examples.append((line[6:], [], []))
            target = examples[-1][1]
        elif target is not None:
            target.append(line[4:])
    return examples


def shown_pattern(shown):
    """A regex for an output whose lines are the shown lines: a `...` line
    stands for any lines and a trailing `...` for any tail of its line."""
    parts = []
    for line in shown:
        if line == "...":
            parts.append(r"(?:.*\n)*")
        elif line.endswith("..."):
            parts.append(re.escape(line[:-3]) + r".*\n")
        else:
            parts.append(re.escape(line) + r"\n")
    return "".join(parts)


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "command, shown, exit_shown", README_EXAMPLES, ids=[e[0] for e in README_EXAMPLES]
)
def test_readme_command_line_examples_print_what_they_show(
    monkeypatch, command, shown, exit_shown
):
    # the examples name the files of tests/golden/ as if run beside them
    monkeypatch.chdir(GOLDEN)
    program, *argv = shlex.split(command)
    if program == "cat":
        code, text = 0, pathlib.Path(*argv).read_text()
    else:
        assert program == "baire"
        code, text = run(*argv)
    assert re.fullmatch(shown_pattern(shown), text), text
    assert exit_shown in ([], [str(code)])


if __name__ == "__main__":
    os.chdir(ROOT)
    (GOLDEN / "cli_battery.txt").write_text(battery_text())
