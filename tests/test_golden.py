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
from unittest import mock

import pytest

from baire.cli import main

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
    *(
        ("--depth", "8", "transform", kind, "--machine", G + "identity.machine", "--verify")
        for kind in ("inject", "extract", "injrec")
    ),
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
    ("check", "nosuch"),
    ("loop", "diamond", G + "identity.machine"),
    ("--depth", "-1", "eval", G + "identity.machine", "1", "zeros"),
)


def battery_text() -> str:
    """Each argv with what it writes (usage errors go to stderr) and its exit.

    COLUMNS pins argparse's line wrapping to a terminal-independent width.
    """
    blocks = []
    for argv in BATTERY:
        out = io.StringIO()
        with contextlib.redirect_stderr(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code = main(list(argv), out=out)
        blocks.append(f"$ {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    return "".join(blocks)


def test_golden_cli_battery(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert battery_text() == (GOLDEN / "cli_battery.txt").read_text()


if __name__ == "__main__":
    os.chdir(ROOT)
    (GOLDEN / "cli_battery.txt").write_text(battery_text())
