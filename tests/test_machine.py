import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire import machine
from baire.machine import (
    EntryAccumulator,
    EntryParser,
    ExplicitName,
    GraphEntry,
    MachineName,
    RawEvalStream,
    WordMachine,
    apply_name,
    candidate_word,
    compose_names,
    decode_entries,
    encode_entry_block,
    encode_machine,
    eval_name,
    eval_stream,
    identity_name,
    machine_text,
    parse_machine_text,
    universal_machine,
)
from baire.streams import Fuel, NeedMoreFuel, PlanStream, ZEROS, pair_stream

from helpers import (
    ChainPlan,
    naive_blocks,
    naive_decode,
    naive_eval,
    seeded_plan_stream,
    transducer_machine,
)


# --- codec -------------------------------------------------------------------


def test_entry_block_shapes():
    assert encode_entry_block(GraphEntry((), (7,))) == (3, 4, 13, 5)
    assert encode_entry_block(GraphEntry((2,), (0,))) == (3, 8, 4, 6, 5)


def test_decode_single_block():
    assert decode_entries((3, 4, 13, 5)) == (GraphEntry((), (7,)),)


def test_decode_rejects_conflicting_entry():
    # second entry (eps, [6]) conflicts with accepted (eps, [5])
    assert decode_entries((3, 4, 11, 5, 3, 4, 12, 5)) == (GraphEntry((), (5,)),)


def test_decode_skips_dummies_everywhere():
    assert decode_entries((0, 1, 2, 3, 0, 4, 1, 13, 2, 5)) == (GraphEntry((), (7,)),)


def test_decode_recovers_from_malformed_fragment():
    # "3 7 3" is malformed; the second 3 restarts, then a clean block follows
    word = (3, 7, 3, 3, 9, 4, 8, 5)
    assert decode_entries(word) == (GraphEntry((3,), (2,)),)


def test_stray_symbols_outside_entries_are_ignored():
    word = (9, 4, 5, 3, 4, 13, 5, 4, 4)
    assert decode_entries(word) == (GraphEntry((), (7,)),)


def _with_repeats_and_decoys(word, rng):
    """The word with exact repeats of some of its entries and decoys against
    them (same, shorter or longer input; an output differing in its last
    symbol) spliced in at random places, before or after the original."""
    mixed = list(word)
    entries = naive_decode(word)
    for u, v in rng.sample(entries, min(10, len(entries))):
        wrong = v[:-1] + (v[-1] + 1,) if v else (rng.randrange(4),)
        for entry in ((u, v), (u, wrong), (u[:-1], wrong), (u + (rng.randrange(3),), wrong)):
            at = rng.randrange(len(mixed) + 1)
            mixed[at:at] = encode_entry_block(GraphEntry(*entry))
    return tuple(mixed)


@pytest.mark.parametrize("seed", range(20))
def test_consistency_filter_matches_naive_oracle(seed):
    # criterion 1's two corpora: a transducer's encoded graph and a chain name
    rng = random.Random(f"offer:{seed}")
    words = (
        encode_machine(transducer_machine(seed)).prefix(1500, Fuel(10**6)),
        ChainPlan(seed, blocks=8).name.head[:140],
    )
    for word in words:
        mixed = _with_repeats_and_decoys(word, rng)
        acc, parser, parsed = EntryAccumulator(), EntryParser(), 0
        for sym in mixed:
            acc.feed(sym)
            parsed += parser.feed(sym) is not None
        assert acc.accepted == naive_decode(mixed)
        assert parsed > len(acc.accepted)  # the filter rejected something


def _corpus(seed, rng):
    """Criterion 1's two corpora, with repeats and decoys spliced in, and a
    random word over every symbol class (malformed fragments included)."""
    return (
        _with_repeats_and_decoys(encode_machine(transducer_machine(seed)).prefix(1500, Fuel(10**6)), rng),
        _with_repeats_and_decoys(ChainPlan(seed, blocks=8).name.head[:140], rng),
        tuple(rng.choice((0, 1, 2, 3, 3, 4, 5, 6, 7, 8)) for _ in range(400)),
    )


@pytest.mark.parametrize("seed", range(20))
def test_run_scanner_matches_naive_oracle_at_any_split(seed):
    # the word scanned in random runs, with a block straddling any of them,
    # yields the oracle's blocks at the oracle's end indices
    rng = random.Random(f"scan:{seed}")
    for word in _corpus(seed, rng):
        cuts = sorted(rng.sample(range(1, len(word)), 12))
        parser, acc, found = EntryParser(), EntryAccumulator(), []
        for lo, hi in zip([0] + cuts, cuts + [len(word)]):
            found += parser.scan(word, lo, hi)
            acc.take_run(word, lo, hi)
        assert found == naive_blocks(word)
        assert acc.accepted == naive_decode(word)


@pytest.mark.parametrize("seed", range(6))
def test_scan_stopped_after_an_entry_resumes_past_its_end(seed):
    # runs start inside blocks too, and each scan is dropped after one entry
    rng = random.Random(f"stop:{seed}")
    for word in _corpus(seed, rng):
        cuts = sorted(rng.sample(range(1, len(word)), 12))
        parser, found = EntryParser(), []
        for pos, hi in zip([0] + cuts, cuts + [len(word)]):
            while pos < hi:
                got = next(parser.scan(word, pos, hi), None)
                if got is None:
                    break
                found.append(got)
                pos = got[0] + 1
        assert found == naive_blocks(word)


def _schedule_lengths(top):
    return [(k + 3) * (k + 3) for k in range(top)]


def _decode_names():
    return (
        encode_machine(transducer_machine(5)).prefix(1300, Fuel(10**6)),
        ChainPlan(3).name.prefix(1300, Fuel(10**6)),
        _corpus(7, random.Random("decode-names"))[2] * 4,
    )


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "other-lengths"])
def test_resumed_decode_matches_naive_oracle(order):
    rng = random.Random(f"resume:{order}")
    lengths = _schedule_lengths(34)
    if order == "descending":
        lengths.reverse()
    elif order == "shuffled":
        rng.shuffle(lengths)
    elif order == "other-lengths":
        lengths = sorted(rng.sample(range(1300), 60))
    decode_entries.cache_clear()
    for _ in range(2):  # the second round after cache_clear: a stale table
        for word in _decode_names():
            for n in lengths:
                assert list(decode_entries(word[:n])) == naive_decode(word[:n]), (order, n)
        decode_entries.cache_clear()


def test_resumed_decode_with_a_full_hand_on_table():
    # the names' ladders interleave with more names than the table holds,
    # so it is full and evicts entries the ladders would resume from
    rng = random.Random("resume-full")
    words = [ChainPlan(seed).name.prefix(700, Fuel(10**6)) for seed in range(12)]
    decode_entries.cache_clear()
    steps = [(w, n) for w in words for n in _schedule_lengths(24)]
    steps.sort(key=lambda step: step[1] + rng.randrange(60))
    for w, n in steps:
        assert list(decode_entries(w[:n])) == naive_decode(w[:n])
        assert len(machine._handoff) <= machine._HANDOFF_SIZE
    assert len(machine._handoff) == machine._HANDOFF_SIZE


def test_decode_hands_its_accumulator_on_without_copying():
    word = ChainPlan(11).name.prefix(400, Fuel(10**6))
    decode_entries.cache_clear()
    decode_entries(word[:9])
    acc = machine._handoff[word[:9]]
    decode_entries(word[:16])
    assert machine._handoff[word[:16]] is acc and word[:9] not in machine._handoff
    decode_entries(word[:20])  # resumes from the 16-prefix too
    assert machine._handoff[word[:20]] is acc


@settings(max_examples=200)
@given(st.integers(0, 40), st.data())
def test_dummy_insertion_invariance(seed, data):
    plan = ChainPlan(seed, blocks=8)
    word = list(plan.name.head[:140])
    spots = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(word)), st.integers(0, 2)),
            max_size=6,
        )
    )
    mutated = list(word)
    for pos, dummy in sorted(spots, reverse=True):
        mutated.insert(pos, dummy)
    assert decode_entries(tuple(mutated)) == decode_entries(tuple(word))


@pytest.mark.parametrize("seed", range(30))
def test_decode_of_encode_reproduces_machine(seed):
    m = transducer_machine(seed)
    name = encode_machine(m)
    prefix = name.prefix(6000, Fuel(10**6))
    entries = naive_decode(prefix)

    def oracle(u):
        best = ()
        for w, v in entries:
            if u[: len(w)] == w and len(v) > len(best):
                best = v
        return best

    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for u in [(), (a,), (a, b), (a, b, c), (a, b, c, d)]:
                        assert oracle(u) == m.apply(u, None)


# --- eval_name ----------------------------------------------------------------


def test_eval_name_chain_supremum():
    name = encode_entry_block(GraphEntry((), (5,))) + encode_entry_block(
        GraphEntry((1,), (5, 9))
    )
    assert eval_name(name, (1, 0)) == (5, 9)
    assert eval_name(name, (0,)) == (5,)
    assert eval_name((), (4, 4)) == ()


@pytest.mark.parametrize("seed", range(40))
def test_eval_name_matches_naive_oracle(seed):
    plan = ChainPlan(seed, blocks=10)
    rng = random.Random(f"slice:{seed}")
    raw = plan.name.head
    for _ in range(5):
        cut = rng.randrange(len(raw) + 1)
        inp = plan.spine[: rng.randrange(len(plan.spine))]
        if rng.random() < 0.3:
            inp = inp + (rng.randrange(4),)
        assert eval_name(raw[:cut], inp) == naive_eval(raw[:cut], inp)


@pytest.mark.parametrize("seed", range(20))
def test_eval_name_monotone_in_both_arguments(seed):
    plan = ChainPlan(seed, blocks=8)
    raw = plan.name.head[:180]
    inp = plan.spine
    rng = random.Random(f"mono:{seed}")
    for _ in range(20):
        n1 = rng.randrange(len(raw))
        n2 = rng.randrange(n1, len(raw) + 1)
        k1 = rng.randrange(len(inp))
        k2 = rng.randrange(k1, len(inp) + 1)
        small = eval_name(raw[:n1], inp[:k1])
        big = eval_name(raw[:n2], inp[:k2])
        assert big[: len(small)] == small


# --- eval_stream ----------------------------------------------------------------


def test_identity_name_evaluates_to_input():
    p = seeded_plan_stream(7)
    out = eval_stream(identity_name(), p)
    assert out.prefix(32) == p.prefix(32)


def test_identity_name_raw_route_agrees():
    p = PlanStream((2, 0, 1), ("zeros",))
    name = identity_name()
    raw = RawEvalStream(name, p)
    direct = eval_stream(name, p)
    got = raw.determined_prefix(4, Fuel(200_000))
    assert len(got) >= 2
    assert got == direct.prefix(len(got))


def test_empty_name_never_produces():
    empty = ExplicitName([])
    out = eval_stream(empty, ZEROS)
    with pytest.raises(NeedMoreFuel):
        out.at(0, Fuel(3000))


@pytest.mark.parametrize("seed", range(25))
def test_chain_name_eval_matches_plan(seed):
    plan = ChainPlan(seed)
    p = plan.spine_stream(seed)
    out = eval_stream(plan.name, p)
    want = plan.expected(plan.spine)
    got = out.determined_prefix(32, Fuel(400_000))
    assert len(got) >= min(32, len(want) - 4)
    assert got == want[: len(got)]


@pytest.mark.parametrize("seed", range(100))
def test_budget_refinement_extends_output(seed):
    plan = ChainPlan(seed)

    def run(budget):
        out = eval_stream(ChainPlan(seed).name, plan.spine_stream(seed))
        return out.determined_prefix(40, Fuel(budget))

    small, big = run(60_000), run(240_000)
    assert big[: len(small)] == small
    assert len(big) >= len(small)


# --- universal machine ----------------------------------------------------------


def test_universal_on_interleaved_block():
    u_m = universal_machine()
    name_part = (3, 4, 13, 5)
    data_part = (9, 9, 9, 9)
    w = tuple(x for pair in zip(name_part, data_part) for x in pair)
    assert u_m.apply(w, None) == (7,)
    assert u_m.apply((), None) == ()


@pytest.mark.parametrize("seed", range(30))
def test_universal_interpretation_level_is_transparent(seed):
    plan = ChainPlan(seed)
    p = plan.spine_stream(seed)
    one_level = eval_stream(ChainPlan(seed).name, plan.spine_stream(seed))
    u_name = encode_machine(universal_machine())
    two_level = eval_stream(u_name, pair_stream(plan.name, p))
    got = two_level.determined_prefix(32, Fuel(500_000))
    want = one_level.determined_prefix(32, Fuel(500_000))
    assert got == want[: len(got)]
    assert len(got) >= min(20, len(want))


# --- composition -----------------------------------------------------------------


def test_compose_with_identity_right():
    plan = ChainPlan(3)
    r = compose_names(plan.name, identity_name())
    p = plan.spine_stream(3)
    got = eval_stream(r, p).determined_prefix(32, Fuel(400_000))
    want = eval_stream(ChainPlan(3).name, plan.spine_stream(3)).determined_prefix(
        32, Fuel(400_000)
    )
    assert got == want[: len(got)]
    assert len(got) >= len(want) - 6


def test_compose_with_identity_left():
    plan = ChainPlan(4)
    r = compose_names(identity_name(), plan.name)
    p = plan.spine_stream(4)
    got = eval_stream(r, p).determined_prefix(24, Fuel(400_000))
    want = plan.expected(plan.spine)
    assert got == want[: len(got)]
    assert len(got) >= 10


def test_compose_associates():
    for seed in range(3):
        a, b, c = ChainPlan(seed), ChainPlan(seed + 50), ChainPlan(seed + 100)
        p = b.spine_stream(seed)
        left = eval_stream(compose_names(compose_names(a.name, b.name), c.name), p)
        right = eval_stream(compose_names(a.name, compose_names(b.name, c.name)), p)
        lw = left.determined_prefix(16, Fuel(400_000))
        rw = right.determined_prefix(16, Fuel(400_000))
        short = min(len(lw), len(rw))
        assert lw[:short] == rw[:short]


# --- machine text format ----------------------------------------------------------


def test_machine_text_round_trip():
    entries = [((), (7,)), ((1, 2), (7, 0))]
    text = machine_text(entries)
    assert text == "eps -> 7\n1 2 -> 7 0"
    name = parse_machine_text(text)
    assert name.entries == [GraphEntry((), (7,)), GraphEntry((1, 2), (7, 0))]


def test_machine_text_error_names_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_machine_text("eps -> 1\nbogus line")


@pytest.mark.parametrize("line", ["eps -> -3", "-1 -> 2"])
def test_machine_text_rejects_non_naturals(line):
    # -3 would be emitted as codec symbol 3, the entry-begin marker
    with pytest.raises(ValueError, match="line 2"):
        parse_machine_text("eps -> 1\n" + line)


def test_candidate_enumeration_is_fair():
    seen = set()
    for k in range(600):
        seen.add(candidate_word(k))
    for w in [(), (0,), (3,), (0, 1, 2), (2, 2, 2, 2)]:
        assert w in seen
