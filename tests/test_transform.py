import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire.machine import (
    MachineName,
    MachineStream,
    WordMachine,
    apply_name,
    candidate_word,
    decode_entries,
    encode_entry_block,
    eval_name,
    eval_stream,
    identity_name,
    pure_machine,
)
from baire.streams import (
    Fuel,
    NeedMoreFuel,
    PlanStream,
    WordStream,
    ZEROS,
    even_part,
    halves,
    interleave_word,
    odd_part,
    pair_stream,
)
from baire.transform import (
    Extraction,
    InjectionOutput,
    PairFunctional,
    SliceSource,
    _ReferencingFunctional,
    _SelfApplication,
    _SilentName,
    const_transformer_name,
    dummy_prefix_transformer_name,
    identity_transformer_name,
    injection,
    injective_recursion,
    quine,
    recursion_T,
    smn,
)

from helpers import ChainPlan, PerSymbolExtraction, scanning_extract, seeded_plan_stream


def determined(stream, depth, budget=400_000):
    return stream.determined_prefix(depth, Fuel(budget))


def common_agree(a, b, min_len=0):
    short = min(len(a), len(b))
    assert a[:short] == b[:short]
    assert short >= min_len, f"only {short} common determined indices"


# --- specialization -----------------------------------------------------------


second_projection = pure_machine(odd_part, "proj2")
first_projection = pure_machine(even_part, "proj1")
pair_identity = pure_machine(lambda w: w, "pair-id")


@pytest.mark.parametrize("seed", range(20))
def test_smn_second_projection(seed):
    S = smn(second_projection)
    q, p = seeded_plan_stream(seed), seeded_plan_stream(seed + 100)
    out = eval_stream(S.apply(q), p)
    assert determined(out, 32) == p.prefix(32)


@pytest.mark.parametrize("seed", range(20))
def test_smn_first_projection(seed):
    S = smn(first_projection)
    q, p = seeded_plan_stream(seed), seeded_plan_stream(seed + 100)
    out = eval_stream(S.apply(q), p)
    got = determined(out, 32)
    assert len(got) >= 31  # evens of a 2k-long interleave
    assert got == q.prefix(len(got))


@pytest.mark.parametrize("seed", range(20))
def test_smn_pair_identity(seed):
    S = smn(pair_identity)
    q, p = seeded_plan_stream(seed), seeded_plan_stream(seed + 100)
    out = eval_stream(S.apply(q), p)
    want = pair_stream(seeded_plan_stream(seed), seeded_plan_stream(seed + 100))
    got = determined(out, 32)
    assert len(got) >= 30
    assert got == want.prefix(len(got))


def test_smn_raw_face_matches_direct_face():
    S = smn(second_projection)
    q = seeded_plan_stream(3)
    name = S.apply(q)
    raw = name.prefix(400, Fuel(200_000))
    p = (1, 0, 2)
    from baire.machine import eval_name

    decoded_value = eval_name(raw, p)
    direct_value = name.machine.apply(p, Fuel(10_000))
    assert decoded_value == direct_value[: len(decoded_value)]
    assert len(decoded_value) >= 2


# --- uniform fixed points -------------------------------------------------------


def fixed_point_sides(p_name, z, depth=16):
    T = recursion_T()
    fixed = T.apply(p_name)
    lhs = eval_stream(fixed, z)
    rhs = eval_stream(eval_stream(p_name, fixed), z)
    return determined(lhs, depth), determined(rhs, depth)


@pytest.mark.parametrize("seed", range(6))
def test_fixed_point_for_constant_transformers(seed):
    plan = ChainPlan(seed)
    z = plan.spine_stream(seed)  # an input the constant's value acts on
    lhs, rhs = fixed_point_sides(const_transformer_name(plan.name), z)
    common_agree(lhs, rhs, min_len=10)


def test_fixed_point_identity_transformer_is_vacuous():
    # both sides are the same divergent evaluation; nothing is determined,
    # and in particular nothing disagrees or hangs
    z = seeded_plan_stream(9)
    lhs, rhs = fixed_point_sides(identity_transformer_name(), z, depth=4)
    common_agree(lhs, rhs)


@pytest.mark.parametrize("seed", range(20))
def test_fixed_point_seeded_total_transformers(seed):
    if seed % 2:
        plan = ChainPlan(seed)
        z = plan.spine_stream(seed)
        p_name = const_transformer_name(plan.name)
        floor = 8
    else:
        z = seeded_plan_stream(seed + 60)
        p_name = dummy_prefix_transformer_name(tuple((seed + i) % 3 for i in range(4)))
        floor = 0  # semantics-preserving noise; determinacy follows the argument
    lhs, rhs = fixed_point_sides(p_name, z)
    common_agree(lhs, rhs, min_len=floor)


def _live_machine_names():
    gc.collect()
    return sum(isinstance(o, MachineName) for o in gc.get_objects())


def test_fixed_points_on_one_T_keep_no_names_alive():
    # the caches a fixed point fills live on its own names, so dropping the
    # fixed point frees them; T keeps only what its word caches hold, which
    # the first fixed points read in full
    T = recursion_T()
    live = []
    for i in range(60):
        noise = tuple((i // 3**j) % 3 for j in range(4))
        fixed = T.apply(dummy_prefix_transformer_name(noise))
        determined(eval_stream(fixed, seeded_plan_stream(i)), 8, budget=25_000)
        del fixed
        if i % 10 == 9:
            live.append(_live_machine_names())
    assert live == [live[0]] * 6


def test_a_long_run_on_one_T_keeps_pools_names_and_tanks_flat():
    # the word pool once grew by about 200 words per dummy fixed point, from
    # the first operation on; after a first cycle of ten operations, eleven
    # more must leave the candidate pools and the live names and tanks as
    # they were.  The pools are process state, so the run starts from empty
    # pools in a fresh interpreter.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import helpers, json; print(json.dumps(helpers.long_run_sizes(12, 10)))"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    assert sizes == [sizes[0]] * 12


# `_SelfApplication.silent(w)` certifies a word parameter whose self-value
# decodes to entries without output, so that every round of D(w) = smn(G)(w)
# is empty and costs two steps.  The rounds are run one by one on the plain
# name, the `_SilentName`'s class set back to `MachineName`: the first 300
# candidates reach the short ones of the late stages, such as (6,).

SILENT_ROUNDS = 300
small_words = st.lists(st.integers(min_value=0, max_value=12), max_size=6).map(tuple)
# self-values of entries without output: blocks (b, ()) among dummies and payload
empty_output_blocks = st.lists(
    st.one_of(small_words.map(lambda b: encode_entry_block((b, ()))), small_words), max_size=4
).map(lambda parts: sum(parts, ()))


def test_silent_rounds_reach_the_late_short_candidates():
    assert (6,) in [candidate_word(i) for i in range(SILENT_ROUNDS)]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        small_words,
        # a word whose one entry applies to every input and returns the value
        st.tuples(st.sampled_from(((), (3,))), empty_output_blocks).map(encode_entry_block),
    )
)
def test_silent_certificate_means_every_round_is_empty_and_costs_two_steps(w):
    G = _SelfApplication()
    if not G.silent(w):
        assert any(v for _, v in decode_entries(eval_name(w, w)))
        return
    name = smn(G).apply(w)
    assert type(name) is _SilentName
    name.__class__ = MachineName
    for _ in range(SILENT_ROUNDS):
        tank = Fuel(10)
        tank.tick()  # the round's own step, as `at` and `read_run` charge it
        assert name._round(tank) == ()
        assert tank.spent == 2


@settings(max_examples=40, deadline=None)
@given(st.tuples(small_words, small_words.filter(bool)), st.sampled_from(((), (3,))))
def test_silent_certificate_refuses_a_self_value_with_output(entry, inp):
    w = encode_entry_block((inp, encode_entry_block(entry)))
    G = _SelfApplication()
    assert not G.silent(w)
    assert type(smn(G).apply(w)) is MachineName


def test_silent_certificate_refuses_the_block_of_an_entry_with_output():
    w = encode_entry_block(((), (3, 6, 4, 6, 5)))
    assert w == (3, 4, 9, 12, 10, 12, 11, 5)
    assert decode_entries(eval_name(w, w)) == (((0,), (0,)),)
    assert not _SelfApplication().silent(w)


def test_only_word_parameters_are_certified():
    G = _SelfApplication()
    assert not G.silent(SliceSource(PlanStream((), ("zeros",)), 4))
    assert not PairFunctional().silent(())


# --- injection -------------------------------------------------------------------


def test_injected_output_block_layout():
    inj = injection()
    p = PlanStream((4, 0, 2), ("zeros",))
    # evaluate through the name itself
    name = inj.apply(PlanStream((), ("zeros",)))
    stream = eval_stream(name, p)
    syms = determined(stream, 40)
    flat = []
    i = 0
    while i < len(syms):
        if syms[i] == 1:
            j = i + 1
            while j < len(syms) and syms[j] == 0:
                j += 1
            if j < len(syms) and syms[j] == 1:
                flat.append(j - i - 1)
                i = j + 1
                continue
        i += 1
    assert flat[:3] == [4, 0, 2]
    got = determined(inj.extract(eval_stream(inj.apply(ZEROS), p)), 3)
    assert got == (4, 0, 2)


@pytest.mark.parametrize("seed", range(50))
def test_extractor_round_trip(seed):
    inj = injection()
    s = ChainPlan(seed, blocks=6).name
    p = seeded_plan_stream(seed + 7)
    out = eval_stream(inj.apply(s), p)
    got = determined(inj.extract(out), 64, budget=800_000)
    assert len(got) >= 48
    assert got == p.prefix(len(got))


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.integers(min_value=0, max_value=7), max_size=40))
def test_extractor_equals_the_symbol_by_symbol_scan(w):
    # random words hold odd numbers of 1s and stray symbols inside blocks
    extract = injection().extractor.apply
    for word in (tuple(w), tuple(w) + (1,), (1, 2, 0, 5, 0, 1) + tuple(w)):
        assert extract(word, Fuel(0)) == scanning_extract(word)
        # the stream applies the same rule, and reads the word to its edge
        got = injection().extract(WordStream(word)).determined_prefix(len(word), Fuel(10**4))
        assert got == scanning_extract(word)


def test_extractor_skips_stray_symbols_and_a_last_unpaired_one():
    extract = injection().extractor.apply
    assert extract((2, 1, 0, 3, 0, 1, 7, 1, 1, 0, 1, 0, 0), Fuel(0)) == (2, 0)


# `Injection.extract` is `transform.Extraction`, which reads its source only
# up to the 1 that closes the marker block of the symbol it needs.  Two
# references: `MachineStream(inj.extractor, out)`, the route it replaced,
# which applies the word machine to doubling prefixes, for its symbols and
# what they cost; and helpers.PerSymbolExtraction, which reads one source
# symbol per `at`, for its exact charges.  The sources are injected outputs
# of `ChainPlan` names, an injective-recursion output, and a stream that is
# not buffered: a plan whose head is a frozen injective-recursion output.

EXTRACT_KS = tuple(range(1, 17)) + (24, 32, 40, 48, 56, 64)


@pytest.fixture(scope="module")
def extraction_sources():
    """name -> a builder of a fresh source with 64 marker blocks.

    The injective-recursion outputs share one R, whose caches the first
    read fills; it is read once to 64 doubling-route symbols here, so every
    later read starts from the same state.
    """
    inj = injection()
    R = injective_recursion(lambda r_name, x, fuel: odd_part(x), "drop")

    def chain(seed):
        symbols = ChainPlan(seed, blocks=6).name.head
        return lambda: eval_stream(inj.apply(PlanStream(symbols)), seeded_plan_stream(seed + 7))

    def injrec():
        return R.apply(seeded_plan_stream(3))

    MachineStream(inj.extractor, injrec()).determined_prefix(64, Fuel(10**7))
    head = injrec().prefix(80_000, Fuel(10**7))
    assert len(scanning_extract(head)) >= 64
    sources = {f"chain{seed}": chain(seed) for seed in (0, 1, 2, 5)}
    sources["injrec"] = injrec
    sources["plan"] = lambda: PlanStream(head, ("zeros",))
    return inj, sources


EXTRACTION_SOURCES = ("chain0", "chain1", "chain2", "chain5", "injrec", "plan")


def _doubling_route(inj, source):
    return MachineStream(inj.extractor, source, label="extract")


@pytest.mark.parametrize("name", EXTRACTION_SOURCES)
def test_extraction_agrees_with_the_doubling_route_at_every_budget(extraction_sources, name):
    inj, sources = extraction_sources
    want = _doubling_route(inj, sources[name]()).determined_prefix(64, Fuel(10**7))
    assert len(want) == 64
    eight, all_64 = Fuel(10**7), Fuel(10**7)
    assert inj.extract(sources[name]()).prefix(8, eight) == want[:8]
    assert inj.extract(sources[name]()).prefix(64, all_64) == want
    # every budget that determines up to 8 symbols, then doubling budgets
    budgets = list(range(eight.spent + 2))
    budgets += [2**j for j in range(eight.spent.bit_length(), all_64.spent.bit_length() + 1)]
    for budget in budgets:
        got = inj.extract(sources[name]()).determined_prefix(64, Fuel(budget))
        assert got == want[: len(got)], budget
        assert len(got) == 64 or budget < all_64.spent


@pytest.mark.parametrize("name", EXTRACTION_SOURCES)
def test_extraction_never_spends_more_than_the_doubling_route(extraction_sources, name):
    inj, sources = extraction_sources
    for k in EXTRACT_KS:
        got, want = Fuel(10**7), Fuel(10**7)
        assert inj.extract(sources[name]()).prefix(k, got) == (
            _doubling_route(inj, sources[name]()).prefix(k, want)
        )
        assert got.spent <= want.spent, k


def _tank_chain(shape, budget):
    # the budget on the reader's tank alone, on a generous reader's parent,
    # or on a reader whose parent is generous
    if shape == "root":
        return [Fuel(budget)]
    if shape == "parent":
        outer = Fuel(budget)
        return [Fuel(10**7, outer), outer]
    outer = Fuel(10**7)
    return [Fuel(budget, outer), outer]


def _source_state(source):
    if isinstance(source, PlanStream):
        return source.paid(), dict(source._cache)
    return list(source._buf), list(source._pending)


def _extraction_read(cls, source, k, shape, budget):
    # two reads on fresh tanks of one shape, the second resuming the first
    stream = cls(source)
    states = []
    for _ in range(2):
        tanks = _tank_chain(shape, budget)
        try:
            stream.prefix(k, tanks[0])
            signal = None
        except NeedMoreFuel as blocked:
            signal = tanks.index(blocked.tank)
        states.append((list(stream._buf), signal, [t.spent for t in tanks], _source_state(source)))
    return states


@pytest.mark.parametrize("name", EXTRACTION_SOURCES)
def test_extraction_charges_as_reading_each_symbol_by_at(extraction_sources, name):
    _, sources = extraction_sources
    full = Fuel(10**7)
    assert len(Extraction(sources[name]()).prefix(8, full)) == 8
    for budget in range(full.spent + 2):
        for shape in ("root", "parent", "child"):
            got = _extraction_read(Extraction, sources[name](), 8, shape, budget)
            want = _extraction_read(PerSymbolExtraction, sources[name](), 8, shape, budget)
            assert got == want, (budget, shape)


@pytest.mark.parametrize("seed", range(4))
def test_extraction_runs_no_stage_past_the_last_marker_it_reads(seed):
    # an `injrec_extract` benchmark operation: 64 symbols of R(q), whose
    # stage i holds marker block i, so no stage past 64 need run
    R = injective_recursion(lambda r_name, x, fuel: odd_part(x), "drop")
    q = seeded_plan_stream(seed)
    out = R.apply(q)
    assert R.extract(out).prefix(64, Fuel(2_000_000)) == q.prefix(64)
    assert out._stage <= 64
    # likewise an `inject` operation's injected output
    inj = injection()
    out = eval_stream(inj.apply(ChainPlan(seed, blocks=6).name), seeded_plan_stream(seed + 7))
    assert inj.extract(out).prefix(64, Fuel(800_000)) == seeded_plan_stream(seed + 7).prefix(64)
    assert out._stage <= 64


def test_semantic_preservation_for_constant_identity():
    inj = injection()
    s = const_transformer_name(identity_name())
    p = seeded_plan_stream(11)
    z = seeded_plan_stream(12)
    inner_name = eval_stream(inj.apply(s), p)  # a name for U_{U_s(p)} = id
    got = determined(eval_stream(inner_name, z), 32)
    assert len(got) >= 16
    assert got == z.prefix(len(got))


@pytest.mark.parametrize("seed", range(20))
def test_semantic_preservation_seeded(seed):
    inj = injection()
    plan = ChainPlan(seed)
    s = const_transformer_name(plan.name)
    p = seeded_plan_stream(seed + 21)
    z = plan.spine_stream(seed)
    lhs = eval_stream(eval_stream(inj.apply(s), p), z)
    rhs = eval_stream(eval_stream(s, p), z)
    common_agree(determined(lhs, 16), determined(rhs, 16), min_len=6)


# --- injective recursion ----------------------------------------------------------


def ignore_name_functional(r_name, x, fuel):
    # f(R, <q, p>) = p
    return odd_part(x)


def use_name_functional(r_name, x, fuel):
    # f(R, <q, p>) = <U_R(q), p>
    q, p = even_part(x), odd_part(x)
    val = apply_name(r_name, q, fuel)
    return interleave_word(val, p)


@pytest.mark.parametrize("seed", range(8))
def test_injective_recursion_ignoring_functional(seed):
    R = injective_recursion(ignore_name_functional, "drop-name")
    q, p = seeded_plan_stream(seed), seeded_plan_stream(seed + 31)
    out = eval_stream(R.apply(q), p)
    got = determined(out, 32, budget=2_000_000)
    assert len(got) >= 12
    assert got == p.prefix(len(got))


def test_injective_recursion_self_referencing_functional():
    R = injective_recursion(use_name_functional, "use-name")
    q, p = seeded_plan_stream(1), seeded_plan_stream(2)
    lhs = eval_stream(R.apply(q), p)
    rhs = MachineStream(
        WordMachine(lambda w, fuel: use_name_functional(R.name_stream, w, fuel), "rhs"),
        pair_stream(seeded_plan_stream(1), seeded_plan_stream(2)),
    )
    lw = determined(lhs, 16, budget=4_000_000)
    rw = determined(rhs, 16, budget=4_000_000)
    common_agree(lw, rw, min_len=2)


def test_injective_recursion_distinct_inputs_distinct_names():
    R = injective_recursion(ignore_name_functional, "drop-name")
    a = determined(R.apply(seeded_plan_stream(1)), 40, budget=2_000_000)
    b = determined(R.apply(seeded_plan_stream(2)), 40, budget=2_000_000)
    assert seeded_plan_stream(1).prefix(8) != seeded_plan_stream(2).prefix(8)
    assert a != b  # block boundaries expose the injected input


@pytest.mark.parametrize("seed", range(30))
def test_injective_recursion_extractor(seed):
    R = injective_recursion(ignore_name_functional, "drop-name")
    q = seeded_plan_stream(seed)
    got = determined(R.extract(R.apply(q)), 64, budget=2_000_000)
    assert len(got) >= 48
    assert got == q.prefix(len(got))


def _referencing_apply(route, sq, x_len):
    """A fresh self-referencing functional, applied as (x, fuel) -> word.

    `functional` applies it to one slice of `sq` of length 2 * x_len + 2;
    `smn` reads it as the raw face of the name smn specializes it to, which
    slices `sq` at each argument's length, one slice per length.
    """
    A = _ReferencingFunctional(use_name_functional, injection())
    if route == "smn":
        name = smn(A).apply(sq)
        return lambda x, fuel: name._raw_at(len(x))(x, fuel)
    piece = SliceSource(sq, 2 * x_len + 2)
    return lambda x, fuel: A.apply(piece, x, fuel)


def test_referencing_slice_memo_never_keeps_a_signalled_read():
    # an outer tank cuts the q read short; retried under a larger tank, the
    # functional answers as a fresh one does over sources read alike
    p = (1, 2, 0, 3, 1, 0, 2, 1)

    def cut_then_retry(route, fresh):
        q = PlanStream((4, 1, 3, 0, 2, 2, 5), ("zeros",))  # every read charges
        sq = pair_stream(seeded_plan_stream(3), q)
        apply = _referencing_apply(route, sq, len(p))
        outer = Fuel(3)
        with pytest.raises(NeedMoreFuel) as cut:
            apply(p, Fuel(10**5, parent=outer))
        assert cut.value.tank is outer
        assert q.paid() == 3  # the signal came inside the q read
        if fresh:
            apply = _referencing_apply(route, sq, len(p))
        retry = Fuel(10**5)
        return apply(p, retry), retry.spent, q.prefix(len(p) + 1)

    for route in ("functional", "smn"):
        got = cut_then_retry(route, False)
        assert got == cut_then_retry(route, True), route
        if route == "functional":
            assert len(got[0]) == 2 * len(p) + 1  # a truncated q prefix answers less


class _Recording(PairFunctional):
    """Records the parameter source and argument length of every apply."""

    def __init__(self):
        self.seen = []

    def apply(self, param, x, fuel):
        self.seen.append((param, len(x)))
        return ()


def test_referencing_slice_memo_keeps_argument_lengths_apart():
    sq = pair_stream(seeded_plan_stream(3), seeded_plan_stream(4))
    lengths = ((1,), (1, 2, 0, 3), (1, 2), (1, 2, 0, 3), (2, 1), (3,))
    kept = _ReferencingFunctional(use_name_functional, injection())
    for p in lengths:
        fresh = _ReferencingFunctional(use_name_functional, injection())
        assert kept.apply(sq, p, Fuel(10**5)) == fresh.apply(sq, p, Fuel(10**5))
    kept_raw = _referencing_apply("smn", sq, 0)
    for p in lengths:
        fresh_raw = _referencing_apply("smn", sq, 0)
        assert kept_raw(p, Fuel(10**5)) == fresh_raw(p, Fuel(10**5))
    # smn hands every candidate of one length the same slice, of that length
    recorder = _Recording()
    name = smn(recorder).apply(sq)
    for p in lengths:
        name._raw_at(len(p))(p, Fuel(10))
    by_length = {}
    for piece, n in recorder.seen:
        assert piece.base is sq and piece.limit == n
        assert by_length.setdefault(n, piece) is piece
    assert len({id(piece) for piece in by_length.values()}) == len(by_length) == 3


def test_extractions_on_one_R_keep_no_q_alive():
    R = injective_recursion(ignore_name_functional, "drop-name")
    held = []
    for seed in range(8):
        q = seeded_plan_stream(seed)
        got = determined(R.extract(R.apply(q)), 6, budget=2_000_000)
        assert got == q.prefix(6)
        held.append(weakref.ref(q))
        del q
    gc.collect()
    # each split lives with the name its slice was bound for, not on R
    assert [ref() is None for ref in held] == [True] * 8


def test_an_injected_output_is_freed_as_its_last_reference_goes():
    R = injective_recursion(ignore_name_functional, "drop-name")
    q = seeded_plan_stream(3)
    gc.collect()
    gc.disable()
    try:
        out = R.apply(q)
        assert isinstance(out, InjectionOutput)
        assert determined(R.extract(out), 6, budget=2_000_000) == q.prefix(6)
        assert out.machine.label == "inj-out(drop-name)"
        freed = weakref.ref(out)
        del out
        assert freed() is None  # no reference cycle holds it for the collector
    finally:
        gc.enable()


# --- quine -----------------------------------------------------------------------


def test_quine_on_zero_input():
    q = quine()
    out = eval_stream(q, ZEROS)
    got = determined(out, 64)
    assert len(got) >= 60
    assert got[0::2] == q.prefix((len(got) + 1) // 2)
    assert all(s == 0 for s in got[1::2])


@pytest.mark.parametrize("seed", range(10))
def test_quine_reproduces_itself_and_input(seed):
    q = quine()
    p = seeded_plan_stream(seed)
    got = determined(eval_stream(q, p), 128)
    want = pair_stream(q, seeded_plan_stream(seed))
    assert len(got) == 128
    assert got == want.prefix(128)


def test_quine_even_extraction_reevaluates():
    q = quine()
    p = seeded_plan_stream(5)
    extracted, _ = halves(eval_stream(q, p))
    p2 = PlanStream((2, 1, 0, 1), ("zeros",))
    got = determined(eval_stream(extracted, p2), 12, budget=1_500_000)
    want = determined(eval_stream(q, p2), 12)
    common_agree(got, want, min_len=6)


def test_quine_decodes_consistently():
    q = quine()
    raw = q.prefix(220, Fuel(200_000))
    entries = decode_entries(raw)
    assert entries, "self-referential name decodes to entries"
    for u, v in entries:
        assert v[0::2] == raw[: len(v[0::2])]
        assert v[1::2] == u[: len(v[1::2])]
