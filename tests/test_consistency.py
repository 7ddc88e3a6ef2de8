"""Cross-route and resumption consistency.

The same name can be evaluated through its structured hook, its machine
face, or by decoding its raw symbols; these must agree on every determined
index.  And any query interrupted by small budgets must resume to exactly
the answers an uninterrupted run produces.
"""

import pytest

from baire.machine import ExplicitName, RawEvalStream, decode_entries, eval_stream
from baire.operators import generic_universal, problem_loop
from baire.streams import Fuel, NeedMoreFuel, PlanStream, unpair_stream
from baire.transform import (
    const_transformer_name,
    dummy_prefix_transformer_name,
    identity_transformer_name,
    injection,
    smn,
)
from baire.machine import pure_machine
from baire.streams import odd_part

from helpers import ChainPlan, seeded_plan_stream


def det(stream, depth, budget=600_000):
    return stream.determined_prefix(depth, Fuel(budget))


def agree_on_common(a, b, floor=0):
    short = min(len(a), len(b))
    assert a[:short] == b[:short]
    assert short >= floor
    return short


# --- raw face versus direct face ------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_specialized_name_raw_face_agrees(seed):
    # the raw face determines only the early indices cheaply (entries for
    # long inputs live far down the fair enumeration), so compare shallow
    S = smn(pure_machine(odd_part, "proj2"))
    q = seeded_plan_stream(seed)
    name = S.apply(q)
    p = seeded_plan_stream(seed + 50)
    direct = det(eval_stream(name, p), 8)
    raw = det(RawEvalStream(name, seeded_plan_stream(seed + 50)), 8, budget=40_000)
    agree_on_common(raw, direct, floor=2)


@pytest.mark.parametrize("seed", range(10))
def test_program_faces_agree(seed):
    loop = problem_loop("llpo", seed, 3)
    program, data = unpair_stream(loop.q0)
    answer = loop.oracle.answer(data, 0)
    structured = det(program.step(answer), 12)
    machine_face = det(generic_universal(program, answer), 12)
    raw_face = det(
        RawEvalStream(program, loop.oracle.answer(data, 0)), 12, budget=1_500_000
    )
    agree_on_common(machine_face, structured, floor=6)
    agree_on_common(raw_face, structured, floor=2)


# the injected stream's stage i takes the inner symbols computed within i*i
# fresh steps, and a symbol read from a cache costs none; so when the inner
# value is cheap on one face and charged on the other, the dummy layout of
# the two faces differs (the decoded graph and the marker blocks agree)
_LAYOUT_DEFECT = pytest.mark.xfail(
    strict=True, reason="injected stream's dummy layout depends on the route"
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: const_transformer_name(PlanStream((5, 7), ("cycle", (2, 9)))),
        identity_transformer_name,
        lambda: dummy_prefix_transformer_name((0, 2, 1)),
        lambda: smn(pure_machine(odd_part, "proj2")).name(),
        lambda: injection().apply(ChainPlan(3, blocks=8).name),
        pytest.param(
            lambda: injection().apply(identity_transformer_name()), marks=_LAYOUT_DEFECT
        ),
        pytest.param(
            lambda: injection().apply(const_transformer_name(ExplicitName([((1,), (4, 4))]))),
            marks=_LAYOUT_DEFECT,
        ),
    ],
    ids=["const", "identity", "prepend", "smn-name", "injected", "injected-id", "injected-const"],
)
def test_structured_face_agrees_with_generic_faces(make):
    def cycled():
        return PlanStream((1, 4, 0, 2), ("cycle", (3, 1, 2)))

    structured = det(eval_stream(make(), cycled()), 16)
    generic = det(generic_universal(make(), cycled()), 16)
    agree_on_common(structured, generic, floor=16)


@pytest.mark.parametrize("seed", range(8))
def test_injected_output_decodes_to_inner_semantics(seed):
    # the injected stream decodes to exactly the entries its inner value
    # stream encodes: the marker blocks are dummies and the 0/1 -> 2
    # rewrite moves between dummies; seed 2's value happens to contain a
    # complete block within the budget, pinning the check non-vacuous
    inj = injection()
    plan = ChainPlan(seed, blocks=8)
    p = plan.spine_stream(seed)
    injected = eval_stream(inj.apply(ChainPlan(seed, blocks=8).name), p)
    raw = det(injected, 300, budget=2_000_000)
    got = decode_entries(raw)
    inner_value = det(eval_stream(plan.name, plan.spine_stream(seed)), 200)
    want = decode_entries(inner_value)
    assert list(got) == list(want)[: len(got)]
    if seed == 2:
        assert got


# --- dummy deletion invariance ----------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_deleting_dummies_preserves_decoding(seed):
    import random

    rng = random.Random(f"del:{seed}")
    word = list(ChainPlan(seed, blocks=8).name.head[:160])
    base = decode_entries(tuple(word))
    dummy_positions = [i for i, s in enumerate(word) if s in (0, 1, 2)]
    doomed = set(rng.sample(dummy_positions, min(5, len(dummy_positions))))
    thinned = tuple(s for i, s in enumerate(word) if i not in doomed)
    assert decode_entries(thinned) == base


# --- interruption transparency ------------------------------------------------------


def harvest_interrupted(stream, n, step_budget, max_attempts=20_000):
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        assert attempts < max_attempts, "no progress under repeated small budgets"
        try:
            out.append(stream.at(len(out), Fuel(step_budget)))
        except NeedMoreFuel:
            continue
    return tuple(out)


@pytest.mark.parametrize("seed", range(6))
def test_injection_output_resumes_exactly(seed):
    inj = injection()

    def build():
        return eval_stream(
            inj.apply(ChainPlan(seed, blocks=6).name), seeded_plan_stream(seed + 9)
        )

    whole = build().prefix(48, Fuel(2_000_000))
    pieces = harvest_interrupted(build(), 48, step_budget=150)
    assert pieces == whole


@pytest.mark.parametrize("seed", range(6))
def test_raw_eval_resumes_exactly(seed):
    plan = ChainPlan(seed)

    def build():
        return RawEvalStream(ChainPlan(seed).name, plan.spine_stream(seed))

    whole = build().determined_prefix(24, Fuel(600_000))
    pieces = harvest_interrupted(build(), len(whole), step_budget=120)
    assert pieces == whole


def test_loop_states_resume_exactly():
    loop = problem_loop("llpo", 17, 4)
    from baire.operators import run_loop

    whole = run_loop(loop.q0, loop.oracle, 4).states[-1].prefix(10, Fuel(2_000_000))
    fresh = problem_loop("llpo", 17, 4)
    last = run_loop(fresh.q0, fresh.oracle, 4).states[-1]
    pieces = harvest_interrupted(last, 10, step_budget=200)
    assert pieces == whole

def test_injected_explicit_name_decodes_fully():
    # with an inner value that is itself a well-formed name, the injected
    # stream's decode face reproduces the inner graph exactly
    from baire.machine import GraphEntry

    inj = injection()
    inner = ExplicitName([((1,), (4, 4)), ((1, 2), (4, 4, 9))])
    s = const_transformer_name(inner)
    injected = eval_stream(inj.apply(s), seeded_plan_stream(0))
    raw = det(injected, 400, budget=2_000_000)
    assert decode_entries(raw) == (
        GraphEntry((1,), (4, 4)),
        GraphEntry((1, 2), (4, 4, 9)),
    )
