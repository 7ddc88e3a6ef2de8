import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire.cli import main, parse_loop_file
from baire.machine import machine_text
from baire.operators import LOOP_KINDS, countdown_loop, limnat_loop, problem_loop
from baire.reductions import witness_library
from baire.streams import Fuel


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def identity_machine_file(tmp_path):
    lines = []
    word = []
    for sym in [1, 2, 3, 0, 0, 0, 0]:
        word.append(sym)
        lines.append(" ".join(map(str, word)) + " -> " + " ".join(map(str, word)))
    path = tmp_path / "identity.machine"
    path.write_text("eps -> eps\n" + "\n".join(lines))
    return str(path)


@pytest.fixture
def countdown_file(tmp_path):
    path = tmp_path / "count3.loop"
    path.write_text("problem countdown seed 0\npublic: n 3\nwitness: none\n")
    return str(path)


@pytest.fixture
def llpo_loop_file(tmp_path):
    path = tmp_path / "llpo.loop"
    path.write_text("problem llpo-loop seed 7\npublic: steps 5\nwitness: generator\n")
    return str(path)


@pytest.fixture
def limnat_loop_file(tmp_path):
    path = tmp_path / "limnat.loop"
    path.write_text("problem limnat-loop seed 3\npublic: steps 4\nwitness: generator\n")
    return str(path)


# --- eval ------------------------------------------------------------------------


def test_eval_identity_machine(identity_machine_file):
    code, text = run_cli("--depth", "5", "eval", identity_machine_file, "1", "2", "3", "zeros")
    assert code == 0
    assert text.splitlines()[0] == "1 2 3 0 0"
    assert text.splitlines()[-1].startswith("fuel ")


@pytest.fixture
def short_identity_file(tmp_path):
    path = tmp_path / "identity3.machine"
    path.write_text("eps -> eps\n1 -> 1\n1 2 -> 1 2\n")
    return str(path)


def test_eval_undetermined_index_exits_three_under_strict(short_identity_file):
    argv = ("--depth", "4", "eval", short_identity_file, "1", "2", "zeros")
    code, text = run_cli("--strict", *argv)
    assert code == 3
    assert text.splitlines()[:2] == ["1 2", "index 2 undetermined at fuel 1000000"]
    assert run_cli(*argv) == (0, text)
    assert run_cli("--strict", "--depth", "2", *argv[2:])[0] == 0


def test_eval_empty_machine(tmp_path):
    path = tmp_path / "empty.machine"
    path.write_text("")
    code, text = run_cli("--depth", "4", "--fuel", "2000", "eval", str(path), "zeros")
    assert code == 0
    assert "(nothing determined)" in text
    assert "index 0 undetermined" in text


def test_eval_malformed_machine_names_line(tmp_path):
    path = tmp_path / "bad.machine"
    path.write_text("eps -> 1\nnot a machine line")
    code, text = run_cli("eval", str(path), "zeros")
    assert code == 2
    assert "line 2" in text


@pytest.mark.parametrize(
    "spec",
    [
        ["1", "cycle", "x"],  # a bad cycle symbol used to escape as a traceback
        ["-3", "zeros"],  # used to read (-3, 0, ...): -3 encodes as an entry marker
        ["1", "cycle", "-2"],
        ["1", "2"],
        ["1", "zeros", "9", "9"],  # the tokens after `zeros` used to be dropped
    ],
)
def test_eval_rejects_bad_input_spec(identity_machine_file, spec):
    code, text = run_cli("eval", identity_machine_file, *spec)
    assert code == 2
    assert text.startswith("error: input spec: ")


def test_eval_rejects_negative_machine_output(tmp_path):
    path = tmp_path / "negative.machine"
    path.write_text("eps -> -3\n")
    code, text = run_cli("eval", str(path), "zeros")
    assert code == 2
    assert text.startswith("error: ") and "line 1" in text


def test_eval_is_byte_deterministic(identity_machine_file):
    runs = {
        run_cli("--depth", "7", "--fuel", "40000", "eval", identity_machine_file, "1", "2", "zeros")
        for _ in range(3)
    }
    assert len(runs) == 1


# `eval` never prints a symbol that a larger budget contradicts: over small
# machine files and plan inputs, the symbols printed at --fuel b are a
# prefix of those printed at any b' > b, at the same depth.

input_symbols = st.integers(min_value=0, max_value=2)
short_words = st.lists(input_symbols, max_size=4).map(tuple)


@st.composite
def machine_and_input(draw):
    """A machine file's entries and an input spec: a chain of entries along
    the input's head, whose outputs grow with the input prefix, among
    entries over random short words."""
    head = draw(st.lists(input_symbols, max_size=5))
    value = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
    cut = st.integers(min_value=0, max_value=len(value))
    cuts = sorted(draw(st.lists(cut, min_size=1, max_size=len(head) + 1)))
    entries = [(tuple(head[:j]), tuple(value[:c])) for j, c in enumerate(cuts)]
    entries += draw(st.lists(st.tuples(short_words, short_words), max_size=3))
    tail = draw(st.one_of(st.just([]), st.lists(input_symbols, min_size=1, max_size=3)))
    spec = head + (["cycle"] + tail if tail else ["zeros"])
    return draw(st.permutations(entries)), [str(s) for s in spec]


def _printed_symbols(text):
    first = text.splitlines()[0]
    return () if first == "(nothing determined)" else tuple(map(int, first.split()))


@settings(max_examples=60, deadline=None)
@given(
    machine_and_input(),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=6),  # a few steps determine a symbol here
    st.integers(min_value=1, max_value=200),
)
def test_eval_symbols_never_contradicted_by_a_larger_budget(machine, depth, fuel, more):
    entries, spec = machine
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.machine"
        path.write_text(machine_text(entries) + "\n")
        printed = []
        for b in (fuel, fuel + more):
            code, text = run_cli("--depth", str(depth), "--fuel", str(b), "eval", str(path), *spec)
            assert code == 0, text
            printed.append(_printed_symbols(text))
    small, large = printed
    assert large[: len(small)] == small


# --- transform --------------------------------------------------------------------


def test_transform_quine_verify_agrees():
    code, text = run_cli("--depth", "128", "transform", "quine", "--verify")
    assert code == 0
    assert "DISAGREE" not in text
    assert "compared 128 disagreements 0" in text


def test_transform_inject_then_extract(tmp_path, identity_machine_file):
    code, text = run_cli(
        "--depth",
        "3",
        "transform",
        "extract",
        "--machine",
        identity_machine_file,
        "--input",
        "4",
        "0",
        "2",
        "zeros",
    )
    assert code == 0
    assert text.splitlines()[0] == "4 0 2"


def test_transform_inject_shows_marker_blocks(identity_machine_file):
    code, text = run_cli(
        "--depth",
        "10",
        "transform",
        "inject",
        "--machine",
        identity_machine_file,
        "--input",
        "4",
        "0",
        "2",
        "zeros",
    )
    assert code == 0
    first = text.splitlines()[0].split()
    assert first[:6] == ["1", "0", "0", "0", "0", "1"]


def test_transform_fix_verifies(tmp_path):
    path = tmp_path / "const.machine"
    entries = []
    word = []
    for sym in [5, 9, 7, 7]:
        word.append(sym)
        entries.append(" ".join(map(str, [1, 2, 3][: min(len(word), 3)])) if False else None)
    # a small chain: outputs grow along inputs 0, 00, 000
    path.write_text("eps -> 5\n0 -> 5 9\n0 0 -> 5 9 7\n0 0 0 -> 5 9 7 7")
    code, text = run_cli(
        "--depth", "4", "transform", "fix", "--machine", str(path), "--input", "zeros", "--verify"
    )
    assert code == 0
    assert "DISAGREE" not in text


def test_transform_smn_verify(identity_machine_file):
    code, text = run_cli(
        "--depth", "16", "--fuel", "60000",
        "transform", "smn", "--machine", identity_machine_file,
        "--input", "1", "2", "3", "zeros", "--verify",
    )
    assert code == 0
    assert "DISAGREE" not in text


def test_transform_smn_undetermined_name_is_reported(tmp_path):
    path = tmp_path / "identity.machine"
    path.write_text("eps -> eps\n1 -> 1\n1 2 -> 1 2\n1 2 3 -> 1 2 3\n")
    argv = ("--depth", "8", "--fuel", "20000", "transform", "smn", "--machine", str(path))
    code, text = run_cli("--strict", *argv, "--verify")
    assert code == 3
    assert text.splitlines()[:2] == ["", "index 0 undetermined at fuel 20000"]
    assert "smn compared 0 disagreements 0" in text
    assert run_cli(*argv)[0] == 0


def test_transform_verify_comparing_nothing_exits_three_under_strict():
    code, text = run_cli("--strict", "--depth", "0", "transform", "quine", "--verify")
    assert code == 3
    assert "quine compared 0 disagreements 0" in text
    assert run_cli("--depth", "0", "transform", "quine", "--verify")[0] == 0
    assert run_cli("--strict", "--depth", "8", "transform", "quine", "--verify")[0] == 0


def test_transform_missing_machine_file_exits_two(tmp_path):
    code, text = run_cli("transform", "smn", "--machine", str(tmp_path / "missing"))
    assert code == 2
    assert text.startswith("error: cannot read machine file")


def test_transform_needs_machine_file():
    code, text = run_cli("transform", "smn")
    assert code == 2
    assert "needs --machine" in text


# --- loop -------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [("loop", "omega"), ("limsim",)])
def test_missing_loop_file_is_named_a_loop_file(tmp_path, argv):
    code, text = run_cli(*argv, str(tmp_path / "missing"))
    assert code == 2
    assert text.startswith("error: cannot read loop file")


def test_loop_diamond_countdown(countdown_file):
    code, text = run_cli("loop", "diamond", countdown_file)
    assert code == 0
    assert "class successful(3)" in text
    heads = [line.split()[3] for line in text.splitlines() if line.startswith("step ")]
    assert heads[:4] == ["3", "2", "1", "0"]


def test_loop_power_zero_echoes(countdown_file):
    code, text = run_cli("--depth", "6", "loop", "power", countdown_file, "--n", "0")
    assert code == 0
    assert "calls 0" in text


def test_loop_infty_validates(llpo_loop_file):
    code, text = run_cli("--steps", "5", "loop", "infty", llpo_loop_file, "--validate")
    assert code == 0
    assert text.count("validate step") == 5
    assert "refuted" not in text


def test_loop_infty_validates_under_the_fuel_flag():
    # one step cannot determine head 0 of any state, so no step can be
    # validated either; the validator reads on the --fuel tank
    loop = str(Path(__file__).parent / "golden" / "llpo.loop")
    argv = ("--fuel", "1", "--depth", "8", "--steps", "3", "loop", "infty", loop, "--validate")
    code, text = run_cli(*argv)
    assert code == 0
    assert "class undetermined" in text
    assert [line for line in text.splitlines() if line.startswith("validate")] == [
        f"validate step {i} undetermined" for i in range(3)
    ]
    assert run_cli("--strict", *argv)[0] == 3


def test_loop_star_counts_calls(llpo_loop_file):
    code, text = run_cli("loop", "star", llpo_loop_file, "--n", "4")
    assert code == 0
    assert "calls 4" in text


def test_loop_unknown_kind(tmp_path):
    path = tmp_path / "bogus.loop"
    path.write_text("problem mystery seed 0\n")
    code, text = run_cli("loop", "diamond", str(path))
    assert code == 2
    assert "unknown loop kind" in text


@pytest.mark.parametrize("command", ["loop", "limsim"])
@pytest.mark.parametrize(
    "body",
    [
        "problem llpo-loop\n",  # no seed: used to raise IndexError
        "problem llpo-loop seed -1\n",
        "problem llpo-loop seed 1\npublic: steps\n",
        "problem countdown seed 0\npublic: n x\n",
    ],
)
def test_malformed_loop_file_exits_two(tmp_path, command, body):
    path = tmp_path / "bad.loop"
    path.write_text(body)
    args = ("loop", "diamond", str(path)) if command == "loop" else ("limsim", str(path))
    code, text = run_cli(*args)
    assert code == 2
    assert text.startswith("error: ")


@pytest.mark.parametrize(
    "body, line",
    [
        ("problem llpo-loop seed 3\npublic: stesp 2\n", 2),  # used to run 5 steps
        ("problem llpo-loop banana 7 extra\n", 1),
        ("problem llpo-loop seed 7 extra\n", 1),
        ("problem countdown seed 0\npublic: steps 9\n", 2),  # countdown reads n
        ("problem limnat-loop seed 1\npublic: n 3\n", 2),  # the other kinds read steps
        ("public: steps 4 n 2\nproblem id-loop seed 1\n", 1),
        # a second problem line used to replace the first, a repeated key to
        # keep its last value
        ("problem llpo-loop seed 3\nproblem countdown seed 0\npublic: n 2\n", 2),
        ("problem countdown seed 0\npublic: n 2 n 7\n", 2),
        ("problem countdown seed 0\npublic: n 2\npublic: n 9\n", 3),
    ],
)
def test_loop_file_rejects_fields_that_do_nothing(tmp_path, body, line):
    path = tmp_path / "unread.loop"
    path.write_text(body)
    code, text = run_cli("loop", "diamond", str(path))
    assert code == 2
    assert text.startswith("error: ") and f"line {line}:" in text


# --- the loop-kind table ------------------------------------------------------------

# each kind's constructor, called directly rather than through the table
DIRECT = {
    "countdown": lambda seed, n: countdown_loop(n, seed),
    "llpo-loop": lambda seed, steps: problem_loop("llpo", seed, steps),
    "cn-loop": lambda seed, steps: problem_loop("cn", seed, steps),
    "id-loop": lambda seed, steps: problem_loop("id", seed, steps),
    "limnat-loop": lambda seed, steps: limnat_loop(seed, steps),
}


def loop_view(loop, depth=40):
    """What a loop is made of: its horizon, a q0 prefix and its step instances."""
    instances = []
    if loop.oracle.instance_at is not None:
        for i in range(loop.steps + 1):
            inst = loop.step_instance(i)
            instances.append((inst.seed, inst.public_name.prefix(12), inst.hidden))
    return loop.steps, loop.q0.prefix(depth, Fuel(10**6)), instances


@pytest.mark.parametrize("kind", list(LOOP_KINDS))
@pytest.mark.parametrize("given", [None, 2])
def test_loop_file_builds_the_direct_constructors_loop(kind, given):
    # a two-line file gives the key's default; a `public:` line, its value
    _, key, default = LOOP_KINDS[kind]
    second = "witness: none" if given is None else f"public: {key} {given}"
    loop = parse_loop_file(f"problem {kind} seed 3\n{second}\n")
    value = default if given is None else given
    assert loop.meta["kind"] == kind
    assert loop_view(loop) == loop_view(DIRECT[kind](3, value))
    assert loop_view(loop) != loop_view(DIRECT[kind](3, value + 1))


@pytest.mark.parametrize("kind", list(LOOP_KINDS))
def test_loop_kind_rejects_another_kinds_key(kind):
    key = LOOP_KINDS[kind][1]
    other = next(k for _, k, _ in LOOP_KINDS.values() if k != key)
    with pytest.raises(ValueError, match=f"line 2: loop kind {kind} reads no public key {other}"):
        parse_loop_file(f"problem {kind} seed 3\npublic: {other} 2\n")


def test_readme_names_the_loop_kinds_their_keys_and_defaults():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = text[text.index("Loop kinds") :].split(". ")[0]
    named, pending = {}, []
    for span in re.findall(r"`([^`]*)`", sentence):
        if span.startswith("public: "):
            _, key, default = span.split()
            named.update((kind, (key, int(default))) for kind in pending)
            pending = []
        else:
            pending.append(span)
    assert pending == []
    assert named == {kind: (key, default) for kind, (_, key, default) in LOOP_KINDS.items()}


# --- check ------------------------------------------------------------------------


def test_check_identity_witness_exits_zero():
    code, text = run_cli("--seeds", "12", "check", "llpo-id")
    assert code == 0
    assert "summary llpo-id seeds 12 consistent" in text
    assert "refuted 0" in text


def test_check_broken_control_exits_one():
    code, text = run_cli("--seeds", "25", "check", "broken-lpo")
    assert code == 1
    assert "verdict refuted" in text


def test_flags_accepted_after_subcommand():
    code, text = run_cli("check", "c2-loop-lift", "--seeds", "3")
    assert code == 0
    assert "summary c2-loop-lift seeds 3" in text


def test_check_unknown_witness_exits_two():
    code, text = run_cli("check", "nonesuch")
    assert code == 2
    assert "unknown witness" in text


def test_check_unknown_witness_lists_the_registry():
    code, text = run_cli("check", "nonesuch")
    lines = text.splitlines()
    assert code == 2
    assert lines[0] == "error: unknown witness: nonesuch"
    assert lines[1:] == [
        f"known witness {name}: {entry.describe}" for name, entry in witness_library().items()
    ]
    assert all(entry.describe for entry in witness_library().values())


def test_check_output_sorted_and_deterministic():
    a = run_cli("--seeds", "8", "check", "c2-to-cn")
    b = run_cli("--seeds", "8", "check", "c2-to-cn")
    assert a == b
    seeds = [int(line.split()[3]) for line in a[1].splitlines() if line.startswith("check ")]
    assert seeds == sorted(seeds)


# --- limsim ------------------------------------------------------------------------


def test_limsim_runs_and_reports(limnat_loop_file):
    code, text = run_cli("limsim", limnat_loop_file)
    assert code == 0
    assert "restarts " in text
    assert "final " in text


def test_limsim_deterministic(limnat_loop_file):
    assert run_cli("limsim", limnat_loop_file) == run_cli("limsim", limnat_loop_file)


@pytest.mark.parametrize("seed", range(8))
def test_limnat_loop_with_no_steps_runs_at_every_seed(tmp_path, seed):
    # the drawn mind changes were placed at randrange(steps), which raised
    # for steps 0 at the seeds that drew any
    path = tmp_path / "empty.loop"
    path.write_text(f"problem limnat-loop seed {seed}\npublic: steps 0\n")
    code, text = run_cli("loop", "infty", str(path))
    assert code == 0
    assert "error:" not in text


def test_limsim_rejects_loop_without_step_instances(countdown_file):
    code, text = run_cli("limsim", countdown_file)
    assert code == 2
    assert text.startswith("error: ")
    assert "countdown" in text and "limnat-loop" in text


def test_limsim_honours_fuel(tmp_path):
    # --fuel used to be ignored: the simulation kept its own 4 000 000 steps
    path = tmp_path / "limnat7.loop"
    path.write_text("problem limnat-loop seed 7\npublic: steps 5\n")
    default = run_cli("limsim", str(path))
    assert default[0] == 0 and "stabilized True" in default[1]
    code, text = run_cli("--fuel", "1", "limsim", str(path))
    assert code == 0
    assert "stabilized False verdict undetermined" in text
    assert text.endswith("undetermined: budget exhausted before stabilization\n")
    assert run_cli("--strict", "--fuel", "1", "limsim", str(path))[0] == 3


@pytest.mark.parametrize("flag", ["--steps", "--depth"])
def test_limsim_strict_exits_3_on_a_stabilized_undetermined_verdict(flag):
    # with no steps or no scan depth the simulation stabilizes at once and
    # judges nothing; --strict used to exit 0 on that undetermined verdict
    loop = str(Path(__file__).parent / "golden" / "limnat.loop")
    code, text = run_cli("--strict", flag, "0", "limsim", loop)
    assert "restarts 0 stabilized True verdict undetermined" in text
    assert code == 3
    assert run_cli(flag, "0", "limsim", loop)[0] == 0


@pytest.mark.parametrize("kind", ["llpo-loop", "cn-loop", "id-loop"])
def test_limsim_runs_only_eventual_value_loops(tmp_path, kind):
    # these kinds used to run and exit 1, the refutation code, although the
    # simulation's guesses only mean something for eventual-value loops
    path = tmp_path / "other.loop"
    path.write_text(f"problem {kind} seed 7\npublic: steps 5\n")
    code, text = run_cli("limsim", str(path))
    assert code == 2
    assert text.startswith("error: ")
    assert text.count("\n") == 1
    assert f"not {kind}" in text


# --- exit code plumbing ---------------------------------------------------------------


def test_format_flag_is_a_usage_error():
    # --format used to be parsed and ignored, so `records` printed text
    code, _ = run_cli("--format", "records", "--seeds", "2", "check", "llpo-id")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            (("loop", op, "LOOP", "--n", "0"), f"loop {op} reads no --n")
            for op in ("omega", "diamond", "infty")
        ),
        *(
            (("loop", op, "LOOP", "--validate"), f"loop {op} reads no --validate")
            for op in ("power", "star", "omega", "diamond")
        ),
        (
            ("transform", "inject", "--machine", "MACHINE", "--verify"),
            "transform inject reads no --verify",
        ),
        (("transform", "quine", "--machine", "MACHINE"), "transform quine reads no --machine"),
        (("transform", "injrec", "--machine", "MACHINE"), "transform injrec reads no --machine"),
        (("transform", "quine", "--input", "1", "zeros"), "transform quine reads no --input"),
        # global flags that only some commands read
        (("--seed", "0", "eval", "MACHINE", "1", "zeros"), "eval reads no --seed"),
        (("eval", "MACHINE", "1", "zeros", "--steps", "2"), "eval reads no --steps"),
        (("eval", "MACHINE", "1", "zeros", "--seeds", "2"), "eval reads no --seeds"),
        *(
            (("loop", op, "LOOP", "--seed", "1"), f"loop {op} reads no --seed")
            for op in ("power", "star", "omega", "diamond", "infty")
        ),
        *(
            (("--steps", "3", "loop", op, "LOOP"), f"loop {op} reads no --steps")
            for op in ("power", "star")
        ),
        (("--seeds", "3", "loop", "diamond", "LOOP"), "loop diamond reads no --seeds"),
        (("check", "llpo-id", "--seed", "1"), "check reads no --seed"),
        (("--steps", "4", "check", "llpo-id"), "check reads no --steps"),
        (("limsim", "LIMNAT", "--seed", "1"), "limsim reads no --seed"),
        (("--seeds", "2", "limsim", "LIMNAT"), "limsim reads no --seeds"),
        (("transform", "injrec", "--seeds", "2"), "transform injrec reads no --seeds"),
        (("--steps", "3", "transform", "quine"), "transform quine reads no --steps"),
    ],
)
def test_unread_flag_is_a_usage_error(
    argv, message, identity_machine_file, llpo_loop_file, limnat_loop_file
):
    # these flags used to be parsed and ignored by the commands, kinds and
    # operations above
    files = {"LOOP": llpo_loop_file, "LIMNAT": limnat_loop_file, "MACHINE": identity_machine_file}
    code, text = run_cli("--depth", "4", *(files.get(a, a) for a in argv))
    assert (code, text) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("transform", "quine", "--verify"), ("--seed", "0")),
        (("loop", "omega", "LOOP"), ("--steps", "8")),
        (("loop", "diamond", "LOOP"), ("--steps", "8")),
        (("loop", "infty", "LOOP"), ("--steps", "8")),
        (("limsim", "LIMNAT"), ("--steps", "8")),
    ],
)
def test_global_flags_are_read_where_given(argv, flag, llpo_loop_file, limnat_loop_file):
    # each at its default value, so the output is the one without the flag
    files = {"LOOP": llpo_loop_file, "LIMNAT": limnat_loop_file}
    argv = ("--depth", "4", *(files.get(a, a) for a in argv))
    assert run_cli(*flag, *argv) == run_cli(*argv)
    assert run_cli(*argv)[0] != 2


def test_usage_error_exits_two():
    code, _ = run_cli("loop", "diamond", "/nonexistent/file.loop")
    assert code == 2


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help"), ("loop", "-h")])
def test_help_goes_to_out(argv, capsys):
    # argparse prints help to sys.stdout, which used to bypass `out`
    code, text = run_cli(*argv)
    assert code == 0
    assert text.startswith("usage: baire")
    assert capsys.readouterr() == ("", "")


def test_parse_errors_go_to_stderr(capsys):
    code, text = run_cli("--depth", "-1", "check", "llpo-id")
    assert (code, text) == (2, "")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: baire")


@pytest.mark.parametrize("before_command", [True, False])
@pytest.mark.parametrize("flag", ["--depth", "--fuel", "--seed", "--steps", "--seeds"])
def test_negative_numeric_flag_exits_two(flag, before_command):
    # `--depth -1` used to be accepted and print "(nothing determined)"
    argv = (flag, "-1", "check", "llpo-id") if before_command else ("check", "llpo-id", flag, "-1")
    code, text = run_cli(*argv)
    assert code == 2
    assert text == ""


def test_negative_power_count_exits_two(countdown_file):
    code, _ = run_cli("loop", "power", countdown_file, "--n", "-1")
    assert code == 2


def test_check_honours_depth():
    code, text = run_cli("--seeds", "2", "--depth", "5", "check", "llpo-id")
    assert code == 0
    assert "check llpo-id seed 0 depth 5 verdict" in text


def test_check_honours_fuel():
    # --fuel used to be ignored: every suite kept its own per-seed budget
    default = run_cli("--seeds", "3", "check", "llpo-id")
    code, text = run_cli("--seeds", "3", "--fuel", "1", "check", "llpo-id")
    assert code == 0  # undetermined seeds are not refutations
    assert text != default[1]
    assert "summary llpo-id seeds 3 consistent 0 refuted 0 undetermined 3 fuel 3" in text
    assert run_cli("--strict", "--seeds", "3", "--fuel", "1", "check", "llpo-id")[0] == 3
    assert run_cli("--seeds", "3", "--fuel", "100", "check", "llpo-id") == default


def test_check_keeps_entry_default_depth():
    # llpo-id defaults to depth 32, c2-cn-loop-lift to depth 5
    assert "seed 0 depth 32 " in run_cli("--seeds", "1", "check", "llpo-id")[1]
    assert "seed 0 depth 5 " in run_cli("--seeds", "1", "check", "c2-cn-loop-lift")[1]
