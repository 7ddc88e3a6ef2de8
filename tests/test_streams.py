import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire.machine import (
    ExplicitName,
    GraphEntry,
    MachineName,
    MachineStream,
    RawEvalStream,
    WordMachine,
    _DEPTH_EDGE,
    _DEPTH_LIMIT,
    _NestingGuard,
    encode_entry_block,
    identity_name,
)
from baire.streams import (
    BufferedStream,
    Fuel,
    FunctionStream,
    NeedMoreFuel,
    PlanStream,
    WORD_EDGE,
    WordStream,
    ZEROS,
    cantor_pair,
    cantor_unpair,
    constant_stream,
    interleave_word,
    odd_part,
    pair_stream,
    project,
    read_prefix,
    tuple_countable,
    unpair_stream,
    word_sup,
)
from baire.transform import (
    InjectionOutput,
    SelfPairingName,
    _SelfApplication,
    _SilentName,
    const_transformer_name,
    injective_recursion,
    smn,
)
from helpers import ChainedFuel, PerSymbolInjectionOutput, PerSymbolRawEval, transducer_machine

words = st.lists(st.integers(min_value=0, max_value=30), max_size=8).map(tuple)


def seeded_stream(seed, bound=10):
    return FunctionStream(lambda n, s=seed: (s * 2654435761 + n * 40503 + (n * n * s)) % bound)


# --- pairing -----------------------------------------------------------------


def test_pair_interleaves():
    q = FunctionStream(lambda n: n + 1)
    p = constant_stream(9)
    r = pair_stream(q, p)
    assert r.prefix(6) == (1, 9, 2, 9, 3, 9)


def test_pair_of_zeros_is_zero():
    r = pair_stream(ZEROS, ZEROS)
    assert r.prefix(8) == (0,) * 8


def test_unpair_reads_even_odd():
    r = PlanStream((1, 9, 2, 9, 3, 9), ("cycle", (7, 8)))
    a, b = unpair_stream(r)
    assert a.prefix(3) == (1, 2, 3)
    assert b.prefix(3) == (9, 9, 9)


def test_unpair_zero():
    a, b = unpair_stream(ZEROS)
    assert a.prefix(4) == (0, 0, 0, 0)
    assert b.prefix(4) == (0, 0, 0, 0)


@pytest.mark.parametrize("seed", range(50))
def test_pair_unpair_round_trip(seed):
    q, p = seeded_stream(seed), seeded_stream(seed + 1000)
    a, b = unpair_stream(pair_stream(q, p))
    # oracle: direct index computation
    for n in range(64):
        assert a.at(n) == q.at(n)
        assert b.at(n) == p.at(n)


@pytest.mark.parametrize("seed", range(50))
def test_unpair_pair_round_trip(seed):
    r = seeded_stream(seed)
    back = pair_stream(*unpair_stream(r))
    for n in range(64):
        assert back.at(n) == r.at(n)


# --- countable tupling -------------------------------------------------------


def test_cantor_pair_formula():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2
    for k in range(2048):
        i, n = cantor_unpair(k)
        assert cantor_pair(i, n) == k


def test_cantor_pair_injective_on_grid():
    seen = {cantor_pair(i, n) for i in range(64) for n in range(64)}
    assert len(seen) == 64 * 64


def test_tuple_of_constant_components():
    t = tuple_countable(lambda i: constant_stream(i))
    assert t.at(0) == 0  # component 0, position 0
    assert t.at(1) == 1  # component 1, position 0
    assert t.at(2) == 0  # component 0, position 1


def test_tuple_of_zeros():
    t = tuple_countable(lambda i: ZEROS)
    assert t.prefix(16) == (0,) * 16


def test_tuple_project_round_trip():
    comps = [seeded_stream(s) for s in range(16)]
    t = tuple_countable(comps)
    for i in range(16):
        got = project(t, i)
        for n in range(32):
            assert got.at(n) == comps[i].at(n)


def test_project_through_raw_stream():
    # projection must work via index arithmetic on a stream with no tuple shape
    t = FunctionStream(lambda n: n)
    for i in range(8):
        p = project(t, i)
        for n in range(8):
            assert p.at(n) == cantor_pair(i, n)


def test_project_constant_tuple():
    t = tuple_countable(lambda i: constant_stream(i))
    assert project(t, 3).prefix(5) == (3, 3, 3, 3, 3)
    assert project(ZEROS, 7).prefix(5) == (0,) * 5


# --- word supremum -----------------------------------------------------------


def test_word_sup_prefix_cases():
    assert word_sup((5,), (5, 9)) == (5, 9)
    assert word_sup((), (1, 2)) == (1, 2)
    assert word_sup((5,), (6,)) is None


@given(words, words)
def test_word_sup_symmetric_and_sound(a, b):
    s = word_sup(a, b)
    t = word_sup(b, a)
    assert s == t
    if s is not None:
        assert s[: len(a)] == a or s[: len(b)] == b
        assert len(s) == max(len(a), len(b))


@given(words, words)
def test_interleave_parts(a, b):
    w = interleave_word(a, b)
    assert w[0::2] == a[: len(w[0::2])]
    assert w[1::2] == b[: len(w[1::2])]
    # longest: it stops only where the next symbol's side has run out
    assert len(w) == 2 * min(len(a), len(b)) + (len(a) > len(b))


# --- determinism and fuel ----------------------------------------------------


def test_repeated_queries_agree():
    s = seeded_stream(3)
    vals = [s.at(n) for n in range(40)]
    assert [s.at(n) for n in range(40)] == vals


def test_fuel_exhaustion_is_a_signal_not_a_value():
    deep = pair_stream(seeded_stream(1), seeded_stream(2))
    with pytest.raises(NeedMoreFuel):
        deep.at(50, Fuel(1))
    # state not corrupted: a retry with enough fuel gives the true value
    fresh = pair_stream(seeded_stream(1), seeded_stream(2))
    assert deep.at(50, Fuel(100)) == fresh.at(50, Fuel(100))


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=60))
def test_budget_monotone(n, budget):
    def build():
        return pair_stream(seeded_stream(5), seeded_stream(6))

    try:
        v_small = build().at(n, Fuel(budget))
    except NeedMoreFuel:
        return
    v_big = build().at(n, Fuel(budget + 37))
    assert v_small == v_big


def test_nested_fuel_charges_parent():
    outer = Fuel(10)
    inner = Fuel(100, parent=outer)
    for _ in range(10):
        inner.tick()
    with pytest.raises(NeedMoreFuel) as info:
        inner.tick()
    assert info.value.tank is outer


def test_inner_tank_signal_identifies_tank():
    outer = Fuel(100)
    inner = Fuel(2, parent=outer)
    inner.tick()
    inner.tick()
    with pytest.raises(NeedMoreFuel) as info:
        inner.tick()
    assert info.value.tank is inner
    assert outer.remaining == 98


def test_plan_stream_cycle_tail():
    s = PlanStream((4, 0), ("cycle", (1, 2)))
    assert s.prefix(7) == (4, 0, 1, 2, 1, 2, 1)
    assert s.spec_text() == "4 0 cycle 1 2"
    assert PlanStream((), ("zeros",)).spec_text() == "eps zeros"


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=50))
def test_determined_prefix_stops_cleanly(budget):
    s = pair_stream(seeded_stream(9), seeded_stream(10))
    got = s.determined_prefix(40, Fuel(budget))
    full = pair_stream(seeded_stream(9), seeded_stream(10)).prefix(40)
    assert got == full[: len(got)]


# --- the budgeted-prefix reader ------------------------------------------------------


def test_read_prefix_stop_signals():
    edge = WordStream((4, 5, 6))
    assert read_prefix(edge, 10, Fuel(100), (WORD_EDGE,)) == (4, 5, 6)
    assert read_prefix(edge, None, Fuel(100), None) == (4, 5, 6)
    with pytest.raises(NeedMoreFuel):
        read_prefix(edge, 10, Fuel(100), ())  # strict: the edge propagates
    assert read_prefix((1, 2, 3), 2, Fuel(0), ()) == (1, 2)  # words truncate

    tank = Fuel(3)
    assert read_prefix(seeded_stream(4), 10, tank, (tank,)) == seeded_stream(4).prefix(3)
    outer = Fuel(3)
    with pytest.raises(NeedMoreFuel) as info:
        read_prefix(seeded_stream(4), 10, Fuel(100, parent=outer), (WORD_EDGE,))
    assert info.value.tank is outer  # a signal not in `stop` propagates


# --- bulk charging -------------------------------------------------------------------


def test_take_on_a_root_tank():
    tank = Fuel(10)
    assert tank.take(4) == 4
    assert (tank.spent, tank.remaining) == (4, 6)
    assert tank.take(0) == 0
    assert tank.take(9) == 6  # capped by what is left
    assert (tank.spent, tank.remaining) == (10, 0)
    assert tank.take(3) == 0
    assert (tank.spent, tank.remaining) == (10, 0)


def test_take_on_chained_tanks_charges_every_tank():
    outer = Fuel(5)
    inner = Fuel(100, parent=outer)
    assert inner.take(3) == 3
    assert (inner.spent, inner.remaining, outer.spent, outer.remaining) == (3, 97, 3, 2)
    assert inner.take(10) == 2  # the smallest remaining on the chain caps the grant
    assert (inner.spent, outer.spent, outer.remaining) == (5, 5, 0)


@pytest.mark.parametrize(
    "inner_steps, outer_steps, named",
    [(3, 100, "inner"), (100, 3, "outer"), (3, 3, "outer"), (0, 5, "inner")],
)
def test_short_take_then_tick_names_the_per_step_tank(inner_steps, outer_steps, named):
    def chain():
        outer = Fuel(outer_steps)
        return Fuel(inner_steps, parent=outer), outer

    bulk, bulk_outer = chain()
    step, step_outer = chain()
    granted = bulk.take(10)
    assert granted == min(inner_steps, outer_steps)
    with pytest.raises(NeedMoreFuel) as bulk_info:
        bulk.tick()
    ticked = 0
    with pytest.raises(NeedMoreFuel) as step_info:
        while True:
            step.tick()
            ticked += 1
    assert ticked == granted
    roles = {id(bulk): "inner", id(bulk_outer): "outer", id(step): "inner", id(step_outer): "outer"}
    assert roles[id(bulk_info.value.tank)] == roles[id(step_info.value.tank)] == named
    assert (bulk.spent, bulk_outer.spent) == (step.spent, step_outer.spent)


# Bulk reads (prefix, determined_prefix, read_prefix) must charge every tank
# exactly what reading index by index through `at` charges, stop at the same
# index, name the same tank, and leave the stream resumable in the same
# state; the "buffer" op compares a dense stream's whole `_buf` after a
# strict read.  Each factory returns a fresh stream sharing no cache with
# another.


def _charging_identity(w, fuel):
    # costs len(w) + 1 steps, all or nothing: when a tank on the chain has
    # less, the outermost such tank signals and nothing is charged (the
    # machine-name rows pinned below were captured with this cost model)
    n = len(w) + 1
    short, tank = None, fuel
    while tank is not None:
        if tank.remaining < n:
            short = tank
        tank = tank.parent
    if short is not None:
        raise NeedMoreFuel(short)
    for _ in range(n):
        fuel.tick()
    return w


def _plan():
    return PlanStream((3, 1, 4), ("cycle", (1, 5, 9)))


def _plan_sparse():
    s = PlanStream((3, 1, 4, 1), ("zeros",))
    s.prefix(2, Fuel(10))
    for i in (3, 5, 6, 30):  # memoized past the dense run
        s.at(i, Fuel(10))
    return s


def _machine_name():
    return MachineName(WordMachine(_charging_identity, "id"), head=(2, 0, 1))


def _explicit_name():
    return ExplicitName([((), (1,)), ((1,), (1, 2)), ((1, 2), (1, 2, 3))], head=(2,))


def _injection_output():
    return InjectionOutput(identity_name(), PlanStream((2, 0, 1), ("zeros",)))


def _raw_eval():
    blocks = (0, 1) + encode_entry_block(GraphEntry((), (5,))) + (2,)
    blocks += encode_entry_block(GraphEntry((0,), (5,) + tuple(range(40))))
    return RawEvalStream(PlanStream(blocks, ("zeros",)), PlanStream((0, 1), ("zeros",)))


def _machine_stream():
    return MachineStream(WordMachine(_charging_identity, "id"), PlanStream((4, 2), ("cycle", (7,))))


FACTORIES = {
    "plan": (_plan, 30),
    "plan-sparse": (_plan_sparse, 30),
    "machine-name": (_machine_name, 30),
    "explicit-name": (_explicit_name, 30),
    "injection-output": (_injection_output, 24),
    "raw-eval": (_raw_eval, 30),
    "self-pairing": (SelfPairingName, 30),
    "machine-stream": (_machine_stream, 20),
}

TANK_SHAPES = ("root", "inner-limits", "outer-limits", "equal")


def _tanks(shape, budget, make=Fuel):
    """[reading tank, its ancestors...] for a chain shape and a budget."""
    if shape == "root":
        return [make(budget)]
    if shape == "three-deep":  # the middle tank is the smallest
        top = make(budget + 2)
        middle = make(budget, parent=top)
        return [make(budget + 1, parent=middle), middle, top]
    inner_steps, outer_steps = {
        "inner-limits": (budget, budget + 1),
        "outer-limits": (budget + 1, budget),
        "equal": (budget, budget),
    }[shape]
    outer = make(outer_steps)
    return [make(inner_steps, parent=outer), outer]


def _per_index(stream, k, fuel):
    out = []
    for i in range(k):
        try:
            out.append(stream.at(i, fuel))
        except NeedMoreFuel as blocked:
            return tuple(out), blocked.tank
    return tuple(out), None


def _reference(op, stream, k, tanks):
    got, signal = _per_index(stream, k, tanks[0])
    if op == "prefix" and signal is not None:
        return None, signal
    if op == "stop-inner" and signal is not None and signal is not tanks[0]:
        return None, signal
    if op == "buffer":
        return tuple(stream._buf), signal
    return got, signal


def _bulk(op, stream, k, tanks):
    fuel = tanks[0]
    try:
        if op == "prefix":
            return stream.prefix(k, fuel), None
        if op == "determined":
            return stream.determined_prefix(k, fuel), None
        if op == "stop-inner":
            return read_prefix(stream, k, fuel, (fuel,)), None
        read_prefix(stream, k, fuel, ())
        return tuple(stream._buf), None
    except NeedMoreFuel as blocked:
        return (tuple(stream._buf) if op == "buffer" else None), blocked.tank


def _ops(stream):
    return ("prefix", "determined", "stop-inner") + (
        ("buffer",) if isinstance(stream, (PlanStream, BufferedStream)) else ()
    )


def _role(tank, tanks):
    return tanks.index(tank) if any(tank is t for t in tanks) else repr(tank)


def _check_bulk_matches_per_index(build, k, op, shape, budget, pre_reads=()):
    bulk_stream, ref_stream = build(), build()
    for i in pre_reads:
        bulk_stream.at(i, Fuel(10**5))
        ref_stream.at(i, Fuel(10**5))
    bulk_tanks, ref_tanks = _tanks(shape, budget), _tanks(shape, budget)
    got, got_signal = _bulk(op, bulk_stream, k, bulk_tanks)
    want, want_signal = _reference(op, ref_stream, k, ref_tanks)
    if op in ("determined", "stop-inner"):
        # these end quietly on some signals; which one is not part of the result
        got_signal = want_signal = None
    assert got == want
    assert [(t.spent, t.remaining) for t in bulk_tanks] == [
        (t.spent, t.remaining) for t in ref_tanks
    ]
    if got_signal is not None or want_signal is not None:
        assert _role(got_signal, bulk_tanks) == _role(want_signal, ref_tanks)
    if isinstance(bulk_stream, BufferedStream):
        assert bulk_stream._buf == ref_stream._buf
        assert list(bulk_stream._pending) == list(ref_stream._pending)
    if isinstance(bulk_stream, PlanStream):
        assert (bulk_stream._buf, bulk_stream._cache) == (ref_stream._buf, ref_stream._cache)
    # resuming with a larger tank gives the same symbols at the same cost
    big_bulk, big_ref = Fuel(10**5), Fuel(10**5)
    assert bulk_stream.prefix(k, big_bulk) == _per_index(ref_stream, k, big_ref)[0]
    assert big_bulk.spent == big_ref.spent


def _full_cost(build, k):
    tank = Fuel(10**5)
    build().prefix(k, tank)
    return tank.spent


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_bulk_reads_match_per_index_reads_at_every_budget(kind):
    build, k = FACTORIES[kind]
    ops = _ops(build())
    for budget in range(_full_cost(build, k) + 2):
        for shape in TANK_SHAPES:
            for op in ops:
                _check_bulk_matches_per_index(build, k, op, shape, budget)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(FACTORIES)),
    shape=st.sampled_from(TANK_SHAPES),
    op_index=st.integers(min_value=0, max_value=3),
    budget=st.integers(min_value=0, max_value=400),
    k=st.integers(min_value=0, max_value=30),
    pre_reads=st.lists(st.integers(min_value=0, max_value=24), max_size=4),
)
def test_bulk_reads_match_per_index_reads(kind, shape, op_index, budget, k, pre_reads):
    build, limit = FACTORIES[kind]
    ops = _ops(build())
    op = ops[op_index % len(ops)]
    _check_bulk_matches_per_index(build, min(k, limit), op, shape, budget, pre_reads)


# The decode route reads its name in runs up to the next schedule boundary
# and charges each run with one take.  helpers.PerSymbolRawEval, the reader
# that reads one symbol and ticks once per round, is the reference: both must
# charge every tank alike, stop at the same symbol, name the same tank and
# leave name and stream resumable in the same state, at every budget.  Each
# factory returns a fresh (name, source, k); the value reaches k symbols.


def _block(u, v):
    return encode_entry_block(GraphEntry(u, v))


def _raw_symbols():
    syms = (0, 1) + _block((), (5,)) + (2,) + _block((0,), (5, 7))
    syms += _block((0,), (6,))  # decoy: rejected
    syms += (3, 7, 3)  # malformed fragment
    syms += _block((0, 1), (5, 7, 8, 9)) + (1,) + _block((1,), (4,))
    syms += _block((0, 1), (5, 7, 8, 9))  # exact repeat: rejected
    return syms + _block((0, 1, 2, 3), (5, 7, 8, 9) + tuple(range(10, 16)))


def _raw_source():
    return PlanStream((0, 1, 2), ("cycle", (3,)))


def _raw_plan(pre_reads=(), dense=0):
    name = PlanStream(_raw_symbols(), ("zeros",))
    name.prefix(dense, Fuel(10**5))
    for i in pre_reads:
        name.at(i, Fuel(10))
    return name, _raw_source(), 10


def _raw_sparse_at_edge():
    # a dense read that reaches a memoized index folds it in
    name = PlanStream(_raw_symbols(), ("zeros",))
    name.at(30, Fuel(10))
    name.prefix(30, Fuel(10**5))
    return name, _raw_source(), 10


def _raw_zeros_tail():
    # the last entry waits for a 9-symbol input, so the reader crosses about
    # a hundred dummies of the zeros tail in long runs to reach index 121
    syms = _block((), (5,)) + _block((0, 1, 2) + (3,) * 6, (5, 7, 8, 9, 10, 11))
    return PlanStream(syms, ("zeros",)), _raw_source(), 6


def _raw_run_ends_at_headroom():
    # the first run (indices 0 .. 8) holds an entry waiting for one input
    # symbol; the source is paid for, so when the run's cost is exactly the
    # headroom the input grows for free and the entry produces
    syms = _block((0,), (5,)) + (1,) * 4 + _block((0, 1), (5, 7)) + (0,) * 9
    syms += _block((0, 1, 2), (5, 7, 8, 9))
    source = _raw_source()
    source.prefix(8, Fuel(10**5))
    return PlanStream(syms, ("zeros",)), source, 4


def _raw_straddle():
    # blocks across the schedule boundaries 9, 16 and 25
    syms = (0,) * 6 + _block((), (5, 7)) + (2,) * 3 + _block((0,), (5, 7, 8))
    syms += (1,) * 4 + _block((0, 1, 2), (5, 7, 8, 9, 10))
    return PlanStream(syms, ("zeros",)), _raw_source(), 5


def _raw_dummies_in_blocks():
    syms = (3, 0, 4, 1, 11, 2, 5, 0, 3, 6, 2, 4, 0, 11, 13, 1, 14, 5)
    syms += (3, 6, 1, 7, 0, 2, 8, 4, 2, 11, 13, 0, 0, 14, 15, 16, 1, 5)
    return PlanStream(syms, ("zeros",)), _raw_source(), 5


def _raw_paid():
    # every name symbol is paid, so entries end on paid symbols, also at
    # zero headroom, where only the round steps cost
    syms = _raw_symbols()
    name = PlanStream(syms, ("zeros",))
    name.prefix(len(syms), Fuel(10**5))
    return name, _raw_source(), 10


def _raw_cycle():
    syms = _raw_symbols()
    return PlanStream(syms[:30], ("cycle", syms[30:] + (1, 0))), _raw_source(), 10


def _raw_machine_name():
    name = MachineName(WordMachine(_charging_identity, "id"), head=(2, 0, 1))
    name.prefix(15, Fuel(10**5))  # a produced prefix is read for free
    return name, PlanStream((0, 1, 0), ("cycle", (1,))), 3


def _raw_explicit_name():
    entries = [((), (5,)), ((0,), (5, 7)), ((0,), (6,))]
    entries.append(((0, 1, 2, 3), (5, 7) + tuple(range(8, 16))))
    return ExplicitName(entries, head=(2,)), _raw_source(), 10


def _raw_cold_machine_name():
    # nothing produced yet: every block is queued by a round, then read
    name = MachineName(WordMachine(_charging_identity, "id"), head=(2, 0, 1))
    return name, PlanStream((0, 1, 0), ("cycle", (1,))), 3


def _raw_injection_output():
    # the value's graph is `_raw_symbols`' once its 0s and 1s are dummies
    s = const_transformer_name(PlanStream(_raw_symbols(), ("zeros",)))
    return InjectionOutput(s, PlanStream((1, 0, 2), ("zeros",))), _raw_source(), 10


RAW_NAMES = {
    "plan-cold": _raw_plan,
    "plan-warm": lambda: _raw_plan(dense=20),
    "plan-sparse": lambda: _raw_plan(pre_reads=(12, 13, 40, 90), dense=3),
    "plan-sparse-at-edge": _raw_sparse_at_edge,
    "plan-cycle": _raw_cycle,
    "machine-name": _raw_machine_name,
    "machine-name-cold": _raw_cold_machine_name,
    "explicit-name": _raw_explicit_name,
    "injection-output": _raw_injection_output,
    "plan-zeros-tail": _raw_zeros_tail,
    "plan-run-ends-at-headroom": _raw_run_ends_at_headroom,
    "plan-straddle": _raw_straddle,
    "plan-dummies-in-blocks": _raw_dummies_in_blocks,
    "plan-paid": _raw_paid,
}


def _charged(name):
    """What the name has paid for: its dense or produced prefix and memo."""
    if isinstance(name, PlanStream):
        return list(name._buf), dict(name._cache)
    return list(name._buf), list(name._pending)


def _raw_read(stream_cls, build, shape, budget):
    name, source, k = build()
    stream = stream_cls(name, source)
    tanks = _tanks(shape, budget)
    try:
        stream.prefix(k, tanks[0])
        signal = None
    except NeedMoreFuel as blocked:
        signal = _role(blocked.tank, tanks)
    state = (
        list(stream._buf),
        signal,
        [t.spent for t in tanks],
        stream._name_pos,
        _charged(name),
        _charged(source),
    )
    resumed = Fuel(10**5)
    return state, stream.prefix(k, resumed), resumed.spent


@pytest.mark.parametrize("kind", sorted(RAW_NAMES))
def test_run_reader_matches_per_symbol_reader_at_every_budget(kind):
    build = RAW_NAMES[kind]
    name, source, k = build()
    full = Fuel(10**5)
    assert len(RawEvalStream(name, source).prefix(k, full)) == k
    for budget in range(full.spent + 2):
        for shape in TANK_SHAPES:
            got = _raw_read(RawEvalStream, build, shape, budget)
            want = _raw_read(PerSymbolRawEval, build, shape, budget)
            assert got == want, (budget, shape)


# Buffered names hand their queued symbols to a run reader as unpaid and run
# producer rounds when nothing is queued.  The decode route over them is
# pinned by rows captured before buffered names were read in runs: for every
# budget up to the full cost and every tank shape, the value's symbols, the
# tank the signal names and every tank's `spent`, each followed by the same
# three after resuming with a second tank of the same shape and budget.  The
# rows are kept as the full cost and the first 16 hex digits of the SHA-256
# of their repr.


BUFFERED_NAMES = {
    "explicit-name": (_raw_explicit_name, 77, "4f3be34ca1e823e7"),
    "injection-output": (_raw_injection_output, 276, "94a6159d388ecfb3"),
    "machine-name": (_raw_cold_machine_name, 300, "de9eb3849c755987"),
}


def _contract_rows(build):
    name, source, k = build()
    full = Fuel(10**5)
    RawEvalStream(name, source).prefix(k, full)
    rows = []
    for budget in range(full.spent + 2):
        for shape in TANK_SHAPES:
            name, source, k = build()
            stream = RawEvalStream(name, source)
            for _ in range(2):
                tanks = _tanks(shape, budget)
                try:
                    stream.prefix(k, tanks[0])
                    signal = None
                except NeedMoreFuel as blocked:
                    signal = _role(blocked.tank, tanks)
                rows.append((tuple(stream._buf), signal, [t.spent for t in tanks]))
    return full.spent, hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind", sorted(BUFFERED_NAMES))
def test_run_reader_over_buffered_names_keeps_pinned_rows(kind):
    build, full, digest = BUFFERED_NAMES[kind]
    assert _contract_rows(build) == (full, digest)


# The injected output drains its inner name a run at a time on a child tank
# of the reading tank and charges each run with one take.
# helpers.PerSymbolInjectionOutput, the drain that reads one symbol by `at`
# per loop turn on a chained tank, is the reference: at every budget from 0
# past 600 and every tank shape, three-deep chains included, both must leave
# the same buffer, queue and stage state, name the same tank and charge
# every tank alike, and again after a second tank of the same shape resumes
# the read.  Each factory takes the output class and returns a fresh output;
# its inner name is:


def _injected_machine_stream(cls):
    # a MachineStream whose rounds fill its buffer directly; at root budget
    # 22 a round spends the stage tank with later produced symbols unread
    return cls(identity_name(), PlanStream((2, 0, 1, 3), ("cycle", (1, 4))))


def _injected_plan(cls):
    # a PlanStream with a dense, paid prefix, then plan symbols
    value = PlanStream(_raw_symbols(), ("cycle", (1, 7)))
    value.prefix(12, Fuel(100))
    return cls(const_transformer_name(value), PlanStream((1, 0, 2), ("zeros",)))


def _injected_raw_eval(cls):
    # a RawEvalStream: the raw plan name decoded on the marker source
    return cls(PlanStream(_raw_symbols(), ("zeros",)), _raw_source())


def _injected_fixed_point(cls):
    # a MachineName with queued blocks: injective recursion's fixed point
    q = PlanStream((1, 2, 0, 3), ("cycle", (2,)))
    R = injective_recursion(lambda r_name, x, fuel: odd_part(x), "drop")
    return cls(R.apply(q).s_source, q)


def _charging_transducer(seed):
    # a pair transducer that charges a step per symbol it reads
    table = transducer_machine(seed)

    def apply(w, fuel):
        for _ in w:
            fuel.tick()
        return table.apply(w, fuel)

    return WordMachine(apply, table.label)


def _injected_specialized(cls):
    # a MachineName whose rounds charge the stage tank: smn specializes the
    # charging transducer to the marker source, a PlanStream, so each
    # round's raw_apply pays for the parameter symbols it reads first and
    # for every symbol the transducer reads, and can signal inside a round
    S = smn(_charging_transducer(5))
    return cls(S.name(), PlanStream((1, 0, 2, 1), ("cycle", (3, 0))))


def _injected_injected(cls):
    # an injected output of the plan kind's output: the inner output's
    # stages run inside the outer stages, so a stage tank's parent is a
    # stage tank
    inner = _injected_plan(cls)
    return cls(const_transformer_name(inner), PlanStream((2, 1), ("cycle", (1,))))


INJECTED = {
    "injected": (_injected_injected, 200),
    "machine-stream": (_injected_machine_stream, 300),
    "plan": (_injected_plan, 300),
    "raw-eval": (_injected_raw_eval, 70),
    "fixed-point": (_injected_fixed_point, 300),
    "specialized": (_injected_specialized, 300),
}


def _injected_read(cls, build, k, shape, budget):
    out = build(cls)
    states = []
    for _ in range(2):
        tanks = _tanks(shape, budget)
        try:
            out.prefix(k, tanks[0])
            signal = None
        except NeedMoreFuel as blocked:
            signal = _role(blocked.tank, tanks)
        states.append(
            (
                list(out._buf),
                list(out._pending),
                signal,
                [t.spent for t in tanks],
                (out._stage, out._block_emitted, out._stage_spent, out._inner_taken),
            )
        )
    return states


@pytest.mark.parametrize("kind", sorted(INJECTED))
def test_run_drain_matches_per_symbol_drain_at_every_budget(kind):
    build, k = INJECTED[kind]
    full = Fuel(10**6)
    assert len(build(InjectionOutput).prefix(k, full)) == k
    assert full.spent > 600
    for budget in range(full.spent + 2):
        for shape in TANK_SHAPES + ("three-deep",):
            got = _injected_read(InjectionOutput, build, k, shape, budget)
            want = _injected_read(PerSymbolInjectionOutput, build, k, shape, budget)
            assert got == want, (budget, shape)


# A specialized name whose rounds `_SelfApplication.silent` certifies empty
# (`transform._SilentName`) runs one round and charges the rest of the
# headroom with one take.  The same name with its class set back to
# `MachineName`, over the same `raw_apply`, runs its rounds one at a time
# and is the reference: at every budget from 0 past 40 and every tank shape,
# and again after a second, larger tank of the same shape resumes the read,
# both must name the same tank, charge every tank alike and stop at the
# same candidate.  Each read is `at(0)`, `read_run` or the decode route
# (`RawEvalStream`), which reads the name through `read_run`.

SILENT_WORDS = {
    "empty": (),
    "candidate": (0, 1, 2, 0),
    # one entry for every input, whose output decodes to ((0,), ())
    "entry-without-output": encode_entry_block(((), (3, 6, 4, 5))),
}
SILENT_READS = {
    "at": (lambda name: name, lambda reader, fuel: reader.at(0, fuel)),
    "read-run": (lambda name: name, lambda reader, fuel: reader.read_run(0, 8, fuel)),
    "raw-eval": (
        lambda name: RawEvalStream(name, PlanStream((1, 2), ("zeros",))),
        lambda reader, fuel: reader.prefix(2, fuel),
    ),
}


def _silent_names(w):
    D = smn(_SelfApplication())
    name, plain = D.apply(w), D.apply(w)
    assert type(name) is _SilentName
    plain.__class__ = MachineName
    return name, plain


def _silent_read(name, read, shape, budget):
    wrap, op = SILENT_READS[read]
    reader = wrap(name)
    states = []
    for steps in (budget, budget + 11):
        tanks = _tanks(shape, steps)
        try:
            op(reader, tanks[0])
            signal = None
        except NeedMoreFuel as blocked:
            signal = _role(blocked.tank, tanks)
        states.append((signal, [t.spent for t in tanks], name._cand, list(name._buf)))
    return states


@pytest.mark.parametrize("read", sorted(SILENT_READS))
@pytest.mark.parametrize("word", sorted(SILENT_WORDS))
def test_silent_name_matches_its_rounds_one_by_one_at_every_budget(word, read):
    for budget in range(48):
        for shape in TANK_SHAPES:
            name, plain = _silent_names(SILENT_WORDS[word])
            got = _silent_read(name, read, shape, budget)
            want = _silent_read(plain, read, shape, budget)
            assert got == want, (budget, shape)
            assert None not in [state[0] for state in got]  # nothing is ever determined


@pytest.mark.parametrize("word", sorted(SILENT_WORDS))
def test_silent_name_signals_the_nesting_limit_after_two_steps(word):
    depth = _NestingGuard.depth
    for name in _silent_names(SILENT_WORDS[word]):
        tank = Fuel(100)
        saved, depth[0] = depth[0], _DEPTH_LIMIT
        try:
            with pytest.raises(NeedMoreFuel) as blocked:
                name.at(0, tank)
        finally:
            depth[0] = saved
        assert blocked.value.tank is _DEPTH_EDGE
        assert (tank.spent, name._cand) == (2, 0)


@pytest.mark.parametrize("shape", TANK_SHAPES + ("three-deep",))
@pytest.mark.parametrize("budget", [0, 1, 4])
def test_headroom_is_the_grant_of_take_and_charges_nothing(shape, budget):
    tanks = _tanks(shape, budget)
    before = [(t.spent, t.remaining) for t in tanks]
    room = tanks[0].headroom()
    assert [(t.spent, t.remaining) for t in tanks] == before
    assert room == budget
    assert tanks[0].take(budget + 3) == room


# A chained tank settles lazily: a charge moves only the tank charged last,
# which pays its ancestors later.  helpers.ChainedFuel, the tank that walks
# its whole chain on every charge, is the reference.  Each script of ticks
# and takes runs as a stage: on a child tank of the reading tank, on child
# tanks that charge up through it, and on nested stages, themselves child
# tanks.  A stage's own signal ends it quietly and any other propagates.
# At every cap, budget and shape both must grant the same takes, charge
# every tank alike and name the same tank.

STAGE_SCRIPTS = {
    "ticks": (("tick",),) * 10,
    "takes": (("take", 3), ("tick",), ("take", 4), ("take", 1), ("tick",), ("take", 6)),
    "children": (
        ("tick",),
        ("child", 4, (("tick",), ("take", 3), ("tick",))),
        ("take", 2),
        ("child", 20, (("take", 5), ("tick",))),
        ("tick",),
    ),
    "nested": (
        ("take", 2),
        ("stage", 3, (("tick",), ("take", 2), ("tick",))),
        ("tick",),
        ("stage", 5, (("child", 2, (("tick",),) * 3), ("take", 4))),
        ("stage", 6, (("stage", 4, (("take", 3), ("tick",), ("tick",))), ("take", 2))),
        ("take", 3),
    ),
}


def _run_stage(make, cap, parent, script, made, grants):
    tank = make(cap, parent)
    made.append(tank)
    try:
        for op in script:
            if op[0] == "tick":
                tank.tick()
            elif op[0] == "take":
                grants.append(tank.take(op[1]))
            elif op[0] == "child":
                child = make(op[1], parent=tank)
                made.append(child)
                for sub in op[2]:
                    child.tick() if sub[0] == "tick" else grants.append(child.take(sub[1]))
            else:
                _run_stage(make, op[1], tank, op[2], made, grants)
    except NeedMoreFuel as blocked:
        if blocked.tank is not tank:
            raise


def _stage_outcome(make, script, cap, shape, budget):
    tanks, made, grants = _tanks(shape, budget, make), [], []
    try:
        _run_stage(make, cap, tanks[0], script, made, grants)
        signal = None
    except NeedMoreFuel as blocked:
        signal = _role(blocked.tank, tanks + made)
    return signal, grants, [t.spent for t in tanks + made]


@pytest.mark.parametrize("script", sorted(STAGE_SCRIPTS))
def test_stage_tank_settles_as_a_chained_tank_charges(script):
    for shape in TANK_SHAPES + ("three-deep",):
        for budget in range(14):
            for cap in range(12):
                got = _stage_outcome(Fuel, STAGE_SCRIPTS[script], cap, shape, budget)
                want = _stage_outcome(ChainedFuel, STAGE_SCRIPTS[script], cap, shape, budget)
                assert got == want, (shape, budget, cap)


# Random programs over a growing forest of tanks: ticks and takes on any
# tank, headroom queries, new children of any tank, runs of charges that
# alternate between two tanks or between a tank and an ancestor, and reads
# of any tank.  Two lazy forests run each program: one has every tank read
# after every step, which settles it, and one only where the program reads.
# Both must grant, signal and count as the chained reference does.

_tank_index = st.integers(min_value=0, max_value=40)
_tank_steps = st.one_of(
    st.tuples(st.just("tick"), _tank_index),
    st.tuples(st.just("take"), _tank_index, st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("headroom"), _tank_index),
    st.tuples(st.just("child"), _tank_index, st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("alternate"), _tank_index, _tank_index, st.integers(1, 6)),
    st.tuples(st.just("up"), _tank_index, st.integers(1, 3), st.integers(1, 6)),
    st.tuples(st.just("read"), _tank_index),
)


def _tank_step(step, tanks):
    """Run one program step on a forest; (its result, the signalled role)."""

    def pick(i):
        return tanks[i % len(tanks)]

    kind = step[0]
    out = []
    try:
        if kind == "tick":
            pick(step[1]).tick()
        elif kind == "take":
            out.append(pick(step[1]).take(step[2]))
        elif kind == "headroom":
            out.append(pick(step[1]).headroom())
        elif kind == "child":
            parent = pick(step[1])
            tanks.append(type(parent)(step[2], parent))
        elif kind == "read":
            tank = pick(step[1])
            out.append((tank.spent, tank.remaining))
        else:  # ticks that alternate between two tanks
            a = b = pick(step[1])
            if kind == "alternate":
                b = pick(step[2])
            else:  # "up": between a tank and one of its ancestors
                for _ in range(step[2]):
                    b = b.parent or b
            for i in range(step[3]):
                (a, b)[i % 2].tick()
                out.append(i)
    except NeedMoreFuel as blocked:
        return out, _role(blocked.tank, tanks)
    return out, None


@settings(max_examples=300, deadline=None)
@given(
    roots=st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=2),
    program=st.lists(_tank_steps, max_size=40),
)
def test_lazy_fuel_charges_as_the_chained_walk(roots, program):
    ref = [ChainedFuel(n) for n in roots]
    watched = [Fuel(n) for n in roots]
    quiet = [Fuel(n) for n in roots]
    for step in program:
        want = _tank_step(step, ref)
        assert _tank_step(step, quiet) == want, step
        assert _tank_step(step, watched) == want, step
        assert [(t.spent, t.remaining) for t in watched] == [
            (t.spent, t.remaining) for t in ref
        ]
    assert [(t.spent, t.remaining) for t in quiet] == [(t.spent, t.remaining) for t in ref]


def test_plan_prefix_folds_a_memo_at_its_new_dense_end():
    plan = PlanStream(tuple(range(100)), ("zeros",))
    tank = Fuel(10**5)
    plan.at(30, tank)
    for k in (30, 60, 80):
        assert plan.prefix(k, tank) == tuple(range(k))
    assert len(plan._buf) == 80 and plan._cache == {}
    ref, ref_tank = PlanStream(tuple(range(100)), ("zeros",)), Fuel(10**5)
    for i in (30, *range(80)):
        ref.at(i, ref_tank)
    assert tank.spent == ref_tank.spent == 80
