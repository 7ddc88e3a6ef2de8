import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire.streams import (
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
