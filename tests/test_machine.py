import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire import machine
from baire.machine import (
    DecodeLog,
    EntryAccumulator,
    EntryParser,
    ExplicitName,
    GraphEntry,
    MachineName,
    RawEvalStream,
    WordMachine,
    _raw_schedule,
    applied_sup,
    apply_name,
    block_head,
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
    PerSymbolRawEval,
    generator_entry_block,
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


@settings(max_examples=300, deadline=None)
@given(
    inp=st.lists(st.integers(0, 60), max_size=10).map(tuple),
    out=st.lists(st.integers(0, 60), max_size=10).map(tuple),
)
def test_entry_block_round_trips_and_equals_the_generator_form(inp, out):
    entry = GraphEntry(inp, out)
    block = encode_entry_block(entry)
    assert block == generator_entry_block(entry)
    assert list(EntryParser().scan(block, 0, len(block))) == [(len(block) - 1, entry)]


def test_decode_single_block():
    assert decode_entries((3, 4, 13, 5)) == (GraphEntry((), (7,)),)


def test_decode_rejects_conflicting_entry():
    # second entry (eps, [6]) conflicts with accepted (eps, [5])
    assert decode_entries((3, 4, 11, 5, 3, 4, 12, 5)) == (GraphEntry((), (5,)),)
    # an explicit name's direct face drops it too, as its decode face does
    name = ExplicitName([((), (5,)), ((), (6,)), ((1,), (5, 2)), ((1, 0), (6, 6))])
    raw = name.prefix(40)
    for w in ((), (0,), (1,), (1, 0), (1, 0, 3)):
        assert name.machine.apply(w, Fuel(10)) == eval_name(raw, w)
    assert name.machine.apply((1, 0), Fuel(10)) == (5, 2)


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
        parser, log, found = EntryParser(), DecodeLog(), []
        for lo, hi in zip([0] + cuts, cuts + [len(word)]):
            found += parser.scan(word, lo, hi)
            log.take_run(word, lo, hi)
        assert found == naive_blocks(word)
        assert log.acc.accepted == naive_decode(word)


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
    for _ in range(2):  # the second round after cache_clear: fresh decodes again
        for word in _decode_names():
            for n in lengths:
                assert list(decode_entries(word[:n])) == naive_decode(word[:n]), (order, n)
        decode_entries.cache_clear()


def test_resumed_decode_with_interleaved_ladders():
    # the names' ladders interleave, so consecutive decodes are of
    # different names and most steps miss the cache
    rng = random.Random("resume-full")
    words = [ChainPlan(seed).name.prefix(700, Fuel(10**6)) for seed in range(12)]
    decode_entries.cache_clear()
    steps = [(w, n) for w in words for n in _schedule_lengths(24)]
    steps.sort(key=lambda step: step[1] + rng.randrange(60))
    for w, n in steps:
        assert list(decode_entries(w[:n])) == naive_decode(w[:n])


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


def test_a_long_codec_run_keeps_the_decode_caches_and_traced_memory_flat():
    # the caches once kept every name prefix a query read, and the word
    # face once filled them with 33 prefixes a query; now it reads the plan
    # log, so after the first 100 queries, 200 more must leave both caches'
    # sizes, the plan log's entries beyond its own name's and the word
    # value's size beyond a fresh one's as they were, and the traced memory
    # within 512 KB.  The caches and the plan slot are process state, so the
    # run starts from empty ones in a fresh interpreter, with bytecode
    # writing off.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import helpers, json; print(json.dumps(helpers.codec_run_sizes(300, 100)))"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / d) for d in ("src", "tests", "bench"))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    assert [figures for *figures, _ in sizes] == [sizes[0][:4]] * 3
    assert sizes[0][2:4] == [0, 0]
    traced = [size for *_, size in sizes]
    assert max(traced) - min(traced) < 512 * 1024, traced


# --- the decode log -------------------------------------------------------------
# A RawEvalStream reads its name's accepted entries from a DecodeLog.  The
# streams on one plan name share the log of the last plan read, so a group
# of queries on one name parses it once, while each stream still charges its
# own reads.  helpers.PerSymbolRawEval, which feeds an accumulator of its own
# one symbol at a time, is the reference for every stream.


def _plan_copy(plan):
    """A fresh PlanStream on a chain plan's name, as each codec query builds."""
    return PlanStream(plan.name.head, plan.name.tail)


def _group_inputs(plan):
    """Eight fresh inputs, as a codec group asks of one name: four along
    the spine, whose value reaches the depth, and four that leave it early."""
    along = [plan.spine_stream(t) for t in range(4)]
    off = [
        PlanStream(plan.spine[:j] + ((plan.spine[j] + 1) % 4,), ("cycle", (j % 3 + 1,)))
        for j in range(4)
    ]
    return along + off


def _read(stream, k, budget):
    """The symbols, `spent` and name position of a read of k symbols on a
    fresh tank, which may signal."""
    tank = Fuel(budget)
    try:
        stream.prefix(k, tank)
    except NeedMoreFuel:
        pass
    return tuple(stream._buf), tank.spent, stream._name_pos


def _count_parsed(monkeypatch):
    """A counter of the symbols handed to `EntryParser.scan` from now on."""
    parsed = [0]
    scan = EntryParser.scan

    def counting(self, run, lo, hi):
        parsed[0] += hi - lo
        return scan(self, run, lo, hi)

    monkeypatch.setattr(EntryParser, "scan", counting)
    return parsed


GROUP_DEPTH = 8


def test_a_codec_group_on_one_plan_matches_the_reference_and_parses_it_once(monkeypatch):
    plan = ChainPlan(5, blocks=8)
    k = GROUP_DEPTH

    def group(budget, cls=RawEvalStream):
        machine._plan_log[:] = None, None
        return [_read(cls(_plan_copy(plan), src), k, budget) for src in _group_inputs(plan)]

    reads = group(10**5)
    assert [len(buf) == k for buf, *_ in reads] == [True] * 4 + [False] * 4
    full = max(spent for _, spent, _ in reads[:4])
    for budget in range(full + 2):
        assert group(budget) == group(budget, PerSymbolRawEval), budget
    parsed = _count_parsed(monkeypatch)
    alone = []
    for src in _group_inputs(plan):
        machine._plan_log[:] = None, None
        parsed[0] = 0
        _read(RawEvalStream(_plan_copy(plan), src), k, full)
        alone.append(parsed[0])
    parsed[0] = 0
    group(full)
    # each symbol once: as much as the stream that reads furthest parses alone
    assert parsed[0] == max(alone) < sum(alone)
    assert not hasattr(RawEvalStream(_plan_copy(plan), ZEROS), "_acc")


def test_streams_on_two_plans_read_alternately_match_the_reference():
    # each turn builds a stream on its plan, which takes the slot from the
    # other plan, and resumes every earlier stream on that plan, whose log
    # is no longer the slot's, on a small tank
    plans = (ChainPlan(6, blocks=8), ChainPlan(7, blocks=8))
    machine._plan_log[:] = None, None
    live = ([], [])
    for turn in range(12):
        side = turn % 2
        plan = plans[side]
        pick = turn // 2 % 8
        stream = RawEvalStream(_plan_copy(plan), _group_inputs(plan)[pick])
        assert machine._plan_log[1] is stream._log
        live[side].append((stream, PerSymbolRawEval(_plan_copy(plan), _group_inputs(plan)[pick])))
        for got, want in live[side]:
            assert _read(got, GROUP_DEPTH, 23) == _read(want, GROUP_DEPTH, 23), turn
    for got, want in live[0] + live[1]:
        assert _read(got, GROUP_DEPTH, 10**4) == _read(want, GROUP_DEPTH, 10**4)


def test_a_parse_that_raises_leaves_the_plan_slot_empty(monkeypatch):
    plan = ChainPlan(5, blocks=8)
    machine._plan_log[:] = None, None
    _read(RawEvalStream(_plan_copy(plan), plan.spine_stream(0)), GROUP_DEPTH, 40)

    def boom(self, run, lo, hi):
        raise KeyboardInterrupt

    monkeypatch.setattr(EntryParser, "scan", boom)
    with pytest.raises(KeyboardInterrupt):
        RawEvalStream(_plan_copy(plan), plan.spine_stream(0)).prefix(GROUP_DEPTH, Fuel(10**4))
    assert machine._plan_log == [None, None]
    monkeypatch.undo()
    got = RawEvalStream(_plan_copy(plan), plan.spine_stream(0))
    want = PerSymbolRawEval(_plan_copy(plan), plan.spine_stream(0))
    assert _read(got, GROUP_DEPTH, 10**4) == _read(want, GROUP_DEPTH, 10**4)


class _PlanSubclass(PlanStream):
    pass


@pytest.mark.parametrize(
    "build",
    [
        lambda plan: _PlanSubclass(plan.name.head, plan.name.tail),
        lambda plan: ExplicitName([(plan.spine[:j], plan.target[:j]) for j in range(6)]),
    ],
    ids=["plan-subclass", "explicit-name"],
)
def test_a_non_plan_name_gets_a_private_log_and_is_not_kept_alive(build):
    plan = ChainPlan(5, blocks=8)
    machine._plan_log[:] = None, None
    name = build(plan)
    readers = [RawEvalStream(name, plan.spine_stream(t)) for t in range(2)]
    for reader in readers:
        _read(reader, GROUP_DEPTH, 10**4)
    assert readers[0]._log is not readers[1]._log
    assert machine._plan_log == [None, None]
    alive = weakref.ref(name)
    del name, readers, reader
    gc.collect()
    assert alive() is None


# --- the plan word face ----------------------------------------------------------
# apply_name on a PlanStream reads the entries from its plan's DecodeLog and
# resumes the log's last word value while the input only grows.  The
# reference is the route it replaced: a tick, the schedule prefix read on
# the same tank, and the naive decode of that prefix applied to the input.


def _reference_apply(name, w, tank):
    tank.tick()
    prefix = name.prefix(_raw_schedule(len(w)), tank)
    return applied_sup(naive_decode(prefix), w)


def _next_input(rng, w):
    """An input that extends, shrinks or diverges from w, or is w again."""
    move = rng.randrange(7)
    if move < 4:
        return w + tuple(rng.randrange(5) for _ in range(rng.randrange(1, 4)))
    cut = w[: rng.randrange(len(w) + 1)]
    if move == 4:
        return cut
    if move == 5:
        return cut + tuple(rng.randrange(5) for _ in range(rng.randrange(1, 6)))
    return w


@pytest.mark.parametrize("seed", range(6))
def test_the_plan_word_face_matches_the_reference_on_interleaved_ladders(seed):
    # 2-3 plans (chain plans and the decode corpus) are each read twice, by
    # apply_name and by the reference, in the same order, so each pair pays
    # the same symbols; turns pick a plan at random, so the plan slot changes
    # hands, and some tanks are too small for the prefix
    rng = random.Random(f"word-face:{seed}")
    words = [ChainPlan(seed).name.head, ChainPlan(seed + 20, blocks=12).name.head]
    words += [w[:1300] for w in _decode_names()[:: 2 - seed % 2]][: 1 + seed % 2]
    names = [(PlanStream(w, ("zeros",)), PlanStream(w, ("zeros",))) for w in words[: 2 + seed % 2]]
    inputs = [()] * len(names)
    machine._plan_log[:] = None, None
    for turn in range(150):
        side = rng.randrange(len(names))
        got_name, want_name = names[side]
        w = inputs[side] = _next_input(rng, inputs[side])[:40]
        budget = rng.choice((10**6, 10**6, rng.randrange(1, 500)))
        got_tank, want_tank = Fuel(budget), Fuel(budget)
        try:
            want = _reference_apply(want_name, w, want_tank)
        except NeedMoreFuel:
            want = "signal"
        try:
            got = apply_name(got_name, w, got_tank)
        except NeedMoreFuel:
            got = "signal"
        assert (got, got_tank.spent) == (want, want_tank.spent), (seed, turn, w)


def test_a_parse_that_raises_on_the_word_face_leaves_no_slot_or_value(monkeypatch):
    plan = ChainPlan(5)
    name = _plan_copy(plan)
    machine._plan_log[:] = None, None
    apply_name(name, plan.spine[:3], Fuel(10**6))
    log = machine._plan_log[1]
    assert log.value is not None

    def boom(self, run, lo, hi):
        raise KeyboardInterrupt

    monkeypatch.setattr(EntryParser, "scan", boom)
    with pytest.raises(KeyboardInterrupt):
        apply_name(name, plan.spine[:6], Fuel(10**6))
    assert machine._plan_log == [None, None] and log.value is None
    monkeypatch.undo()
    for k in range(12):
        want = applied_sup(naive_decode(name.prefix(_raw_schedule(k))), plan.spine[:k])
        assert apply_name(name, plan.spine[:k], Fuel(10**6)) == want


def test_a_ladder_on_one_plan_reads_its_log_and_notes_each_entry_once(monkeypatch):
    # the ladder a codec query runs after its stream read: apply_name on
    # input prefixes of length 0 .. 32 of one input, on one tank.  Entries
    # noted again when the input grows (`grow`) are not counted
    def unreachable(*args):
        raise AssertionError("the word face decoded a word")

    monkeypatch.setattr(machine, "eval_name", unreachable)
    monkeypatch.setattr(machine, "decode_entries", unreachable)
    noted, growing = [], [False]
    note, grow = machine.AppliedValue.note, machine.AppliedValue.grow

    def counting_note(self, entry):
        if not growing[0]:
            noted.append(entry)
        note(self, entry)

    def flagged_grow(self, symbols):
        growing[0] = True
        try:
            grow(self, symbols)
        finally:
            growing[0] = False

    monkeypatch.setattr(machine.AppliedValue, "note", counting_note)
    monkeypatch.setattr(machine.AppliedValue, "grow", flagged_grow)
    plan = ChainPlan(5)
    name, source, tank = _plan_copy(plan), plan.spine_stream(0), Fuel(10**6)
    machine._plan_log[:] = None, None
    ladder = [apply_name(name, source.prefix(k, tank), tank) for k in range(33)]
    word = plan.name.prefix(_raw_schedule(32))
    assert ladder == [naive_eval(word[: _raw_schedule(k)], source.prefix(k)) for k in range(33)]
    accepted = machine._plan_log[1].acc.accepted
    assert len(noted) == len(set(noted)) and noted == accepted[: len(noted)]
    assert len(noted) == len(naive_decode(word))


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


@pytest.mark.parametrize("line", ["eps -> -3", "-1 -> 2", "eps -> +3", "1_0 -> 2", "\u0663 -> 1"])
def test_machine_text_rejects_non_naturals(line):
    # -3 would be emitted as codec symbol 3, the entry-begin marker; `int`
    # alone reads +3, 1_0 and the Arabic-Indic digit three as naturals
    with pytest.raises(ValueError, match="line 2"):
        parse_machine_text("eps -> 1\n" + line)


def test_candidate_enumeration_is_fair():
    seen = set()
    for k in range(600):
        seen.add(candidate_word(k))
    for w in [(), (0,), (3,), (0, 1, 2), (2, 2, 2, 2)]:
        assert w in seen


# A round builds its candidate's block from the head cached for the candidate
# (`block_head`), (3, u + 6, 4), the output's payload and 5.  For the first 20 000 candidates
# and three outputs, each block must equal the generator form of the entry,
# whether rounds run one at a time (`_round`, which `_extend` queues) or in
# the loop an injected output drains (`read_rounds`).  An empty output builds
# no block; its head and 5 are still the generator block of (u, ()).

HEAD_CANDIDATES = 20_000
ROUND_OUTPUTS = {
    "empty": lambda u: (),
    "same": lambda u: u,
    "longer": lambda u: u + (0, 5, 17),
}


@pytest.mark.parametrize("output", sorted(ROUND_OUTPUTS))
def test_rounds_build_the_generator_blocks_from_cached_heads(output):
    v_of = ROUND_OUTPUTS[output]
    words = [candidate_word(k) for k in range(HEAD_CANDIDATES)]
    want = [generator_entry_block(GraphEntry(u, v_of(u))) if v_of(u) else () for u in words]
    for k, u in enumerate(words):
        assert block_head(k) + (5,) == generator_entry_block(GraphEntry(u, ()))

    def raw(u, fuel):
        return v_of(u)

    one_by_one = MachineName(WordMachine(raw))
    assert [tuple(one_by_one._round(Fuel(0))) for _ in words] == want
    looped, out = MachineName(WordMachine(raw)), []
    tank = Fuel(HEAD_CANDIDATES + sum(map(len, want)))
    if output == "empty":  # the tick after the last round signals
        with pytest.raises(NeedMoreFuel):
            looped.read_rounds(0, 1, tank, out)
    else:  # the last round's block spends the tank
        assert looped.read_rounds(0, 1, tank, out) == ((), 0)
    assert looped._cand == HEAD_CANDIDATES
    assert out == looped._buf == [s for block in want for s in block]
