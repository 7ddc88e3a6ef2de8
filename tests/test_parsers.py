"""Every parser a command uses either rejects its input with ValueError or
gives a value that round-trips through its printer.

The inputs are token lists over a small alphabet: naturals, near-naturals
that `int` alone would read (`-1`, `+3`, `1_0`), the plan and machine-file
words, a comment mark and the loop-file keywords.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from baire.cli import parse_loop_file
from baire.machine import machine_text, parse_machine_text
from baire.operators import LOOP_KINDS as KINDS
from baire.problems import parse_plan

NATURALS = ("0", "1", "2", "3", "7", "10")
LOOP_KINDS = tuple(KINDS)
WORDS = (
    "-1", "+3", "1_0", "eps", "zeros", "cycle", "->", "#",
    "problem", "seed", "public:", "witness:", "n", "steps", "none",
) + LOOP_KINDS
token = st.sampled_from(NATURALS + WORDS)
tokens = st.lists(token, max_size=8)
# lists shaped like the valid inputs, so that some of them parse: mostly
# naturals around the structural words
mostly_natural = st.one_of(st.sampled_from(NATURALS), token)
words = st.lists(mostly_natural, max_size=6)
plan_tokens = st.one_of(
    tokens,
    st.tuples(words, st.sampled_from(("zeros", "cycle")), words).map(
        lambda t: t[0] + [t[1]] + t[2]
    ),
)
entry_line = st.one_of(tokens, st.tuples(words, words).map(lambda t: t[0] + ["->"] + t[1]))
loop_line = st.one_of(
    tokens,
    st.tuples(st.one_of(st.sampled_from(LOOP_KINDS), token), mostly_natural).map(
        lambda t: ["problem", t[0], "seed", t[1]]
    ),
    st.lists(st.one_of(st.sampled_from(("n", "steps")), mostly_natural), max_size=4).map(
        lambda t: ["public:"] + t
    ),
)


def lines_text(lines):
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=300)
@given(plan_tokens)
def test_parse_plan_rejects_or_round_trips(toks):
    try:
        plan = parse_plan(toks)
    except ValueError:
        return
    back = parse_plan(plan.spec_text().split())
    assert (back.head, back.tail) == (plan.head, plan.tail)


@settings(max_examples=300)
@given(st.lists(entry_line, max_size=5))
def test_parse_machine_text_rejects_or_round_trips(lines):
    try:
        name = parse_machine_text(lines_text(lines))
    except ValueError:
        return
    assert parse_machine_text(machine_text(name.entries)).entries == name.entries


@settings(max_examples=300)
@given(st.lists(loop_line, max_size=4))
def test_parse_loop_file_raises_only_value_error(lines):
    try:
        parse_loop_file(lines_text(lines))
    except ValueError:
        pass
