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
    pair_stream,
    project,
    read_prefix,
    tuple_countable,
    unpair_stream,
    word_sup,
)
from baire.transform import InjectionOutput, SelfPairingName
from helpers import PerSymbolRawEval

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
    inner.tick(2)
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


# Bulk reads (prefix, determined_prefix, read_prefix, fill) must charge every
# tank exactly what reading index by index through `at` charges, stop at the
# same index, name the same tank, and leave the stream resumable in the same
# state.  Each factory returns a fresh stream sharing no cache with another.


def _charging_identity(w, fuel):
    fuel.tick(len(w) + 1)
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


def _tanks(shape, budget):
    """[reading tank, its ancestors...] for a chain shape and a budget."""
    if shape == "root":
        return [Fuel(budget)]
    inner_steps, outer_steps = {
        "inner-limits": (budget, budget + 1),
        "outer-limits": (budget + 1, budget),
        "equal": (budget, budget),
    }[shape]
    outer = Fuel(outer_steps)
    return [Fuel(inner_steps, parent=outer), outer]


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
    if op == "fill":
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
        stream.fill(k, fuel)
        return tuple(stream._buf), None
    except NeedMoreFuel as blocked:
        return (tuple(stream._buf) if op == "fill" else None), blocked.tank


def _ops(stream):
    return ("prefix", "determined", "stop-inner") + (
        ("fill",) if isinstance(stream, BufferedStream) else ()
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


RAW_NAMES = {
    "plan-cold": _raw_plan,
    "plan-warm": lambda: _raw_plan(dense=20),
    "plan-sparse": lambda: _raw_plan(pre_reads=(12, 13, 40, 90), dense=3),
    "plan-sparse-at-edge": _raw_sparse_at_edge,
    "plan-cycle": _raw_cycle,
    "machine-name": _raw_machine_name,
    "explicit-name": _raw_explicit_name,
    "plan-zeros-tail": _raw_zeros_tail,
    "plan-run-ends-at-headroom": _raw_run_ends_at_headroom,
    "plan-straddle": _raw_straddle,
    "plan-dummies-in-blocks": _raw_dummies_in_blocks,
    "plan-paid": _raw_paid,
}


def _charged(name):
    """What the name has paid for: its dense or produced prefix and memo."""
    if isinstance(name, PlanStream):
        return list(name._read), dict(name._cache)
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


@pytest.mark.parametrize("shape", TANK_SHAPES + ("three-deep",))
@pytest.mark.parametrize("budget", [0, 1, 4])
def test_headroom_is_the_grant_of_take_and_charges_nothing(shape, budget):
    if shape == "three-deep":  # the middle tank is the smallest
        top = Fuel(budget + 2)
        tanks = [Fuel(budget + 1, parent=Fuel(budget, parent=top))]
        tanks += [tanks[0].parent, top]
    else:
        tanks = _tanks(shape, budget)
    before = [(t.spent, t.remaining) for t in tanks]
    room = tanks[0].headroom()
    assert [(t.spent, t.remaining) for t in tanks] == before
    assert room == budget
    assert tanks[0].take(budget + 3) == room


def test_plan_prefix_folds_a_memo_at_its_new_dense_end():
    plan = PlanStream(tuple(range(100)), ("zeros",))
    tank = Fuel(10**5)
    plan.at(30, tank)
    for k in (30, 60, 80):
        assert plan.prefix(k, tank) == tuple(range(k))
    assert len(plan._read) == 80 and plan._cache == {}
    ref, ref_tank = PlanStream(tuple(range(100)), ("zeros",)), Fuel(10**5)
    for i in (30, *range(80)):
        ref.at(i, ref_tank)
    assert tank.spent == ref_tank.spent == 80
