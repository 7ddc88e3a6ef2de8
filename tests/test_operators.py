import pytest

from baire.machine import ExplicitName, pure_machine
from baire.operators import (
    LoopStates,
    Run,
    StepOracle,
    chain_program,
    classify_run,
    comp_product,
    countdown_loop,
    countdown_program,
    diamond,
    diamond_via_inverse_limit,
    first_success_machine,
    flag_head,
    identity_oracle,
    infty_states_from_omega,
    inverse_limit,
    lift_reduction_to_inverse_limit,
    limnat_loop,
    machine_oracle,
    make_limnat_instance,
    omega,
    omega_via_inverse_limit,
    parallel_inverse_limit,
    parallelize,
    pass_through_program,
    power_n,
    problem_loop,
    run_lifted_loop,
    run_loop,
    star,
    validate_run,
)
from baire.problems import CONSISTENT, REFUTED, get_problem, get_realizer
from baire.streams import (
    Fuel,
    PlanStream,
    ZEROS,
    cantor_pair,
    pair_stream,
    project,
    tuple_countable,
    unpair_stream,
)
from baire.machine import WordMachine
from baire.streams import even_part, odd_part


def det(stream, depth, budget=400_000):
    return stream.determined_prefix(depth, Fuel(budget))


# --- parallelization ---------------------------------------------------------


def test_parallelize_same_instance_everywhere():
    prob, real = get_problem("llpo"), get_realizer("llpo")
    inst = prob.generate(4)
    out = parallelize(real.solve, [inst])
    for i in range(6):
        got = det(project(out, i), 4)
        assert prob.check_solution(inst, got, 24) == CONSISTENT


def test_parallelize_mixed_suite_unrefuted():
    prob, real = get_problem("llpo"), get_realizer("llpo")
    instances = [prob.generate(s) for s in range(16)]
    out = parallelize(real.solve, instances)
    for i, inst in enumerate(instances):
        got = det(project(out, i), 4)
        assert prob.check_solution(inst, got, 24) != REFUTED


def test_parallelize_projection_commutes():
    prob, real = get_problem("cn"), get_realizer("cn")
    instances = [prob.generate(s) for s in range(8)]
    out = parallelize(real.solve, instances)
    for i, inst in enumerate(instances):
        assert det(project(out, i), 6) == real.solve(inst).prefix(6)


# --- compositional product ------------------------------------------------------


def test_comp_product_identity_identity():
    program = pass_through_program([1])
    data = PlanStream((3, 1, 2), ("zeros",))
    state = pair_stream(program, data)
    out, records = comp_product(identity_oracle(), identity_oracle(), state)
    _, out_data = unpair_stream(out)
    assert det(out_data, 12) == data.prefix(12)
    assert len(records) == 2


def test_comp_product_identity_laws():
    prob, real = get_problem("llpo"), get_realizer("llpo")
    inst = prob.generate(5)
    fixed = StepOracle("llpo", lambda data, i: real.solve(inst))

    # f * id: the identity answers first, the pass-through program forwards
    # its answer, then one use of f; the composite equals a single f-use
    state = pair_stream(pass_through_program([1]), inst.public_name)
    out, _ = comp_product(fixed, identity_oracle(), state)
    _, answer = unpair_stream(out)
    assert det(answer, 4) == real.solve(inst).prefix(4)

    # id * g: one use of g, forwarded, then the identity
    state2 = pair_stream(pass_through_program([1]), inst.public_name)
    out2, _ = comp_product(identity_oracle(), fixed, state2)
    _, answer2 = unpair_stream(out2)
    assert det(answer2, 4) == real.solve(inst).prefix(4)


# --- powers, star, omega ----------------------------------------------------------


def test_power_zero_is_identity():
    loop = problem_loop("llpo", 0, 3)
    out, records = power_n(loop.oracle, 0, loop.q0)
    assert out is loop.q0
    assert records == []


def test_power_one_is_id_times_f():
    loop = problem_loop("llpo", 1, 3)
    out, records = power_n(loop.oracle, 1, loop.q0)
    prog, answer = unpair_stream(out)
    q_prog, _ = unpair_stream(loop.q0)
    assert prog is q_prog  # no universal step at power one
    assert det(answer, 3) == get_realizer("llpo").solve(loop.step_instance(0)).prefix(3)
    assert len(records) == 1


def test_power_three_makes_three_calls():
    loop = problem_loop("llpo", 2, 5)
    out, records = power_n(loop.oracle, 3, loop.q0)
    assert [r.index for r in records] == [0, 1, 2]
    assert all(r.oracle == "llpo" for r in records)


def test_star_dispatches_on_tag():
    from baire.operators import TaggedStream

    loop = problem_loop("llpo", 5, 6)
    for tag in (0, 1, 4):
        out, records = star(loop.oracle, TaggedStream(tag, loop.q0))
        assert len(records) == tag
        if tag == 0:
            assert det(out, 6) == loop.q0.prefix(6)


def test_star_raw_tag_wrapping_also_works():
    from baire.streams import FunctionStream

    loop = problem_loop("llpo", 5, 6)
    raw = FunctionStream(lambda n: 1 if n == 0 else loop.q0.at(n - 1))
    out, records = star(loop.oracle, raw)
    assert len(records) == 1


def test_omega_components_match_powers():
    loop = problem_loop("llpo", 7, 10)
    out = omega(loop.oracle, loop.q0)
    assert det(project(out, 0), 8) == loop.q0.prefix(8)
    for n in range(8):
        fresh = problem_loop("llpo", 7, 10)
        want, _ = power_n(fresh.oracle, n, fresh.q0)
        assert det(project(out, n), 16) == det(want, 16)


# --- diamond ---------------------------------------------------------------------


def test_diamond_immediate_success_needs_no_calls():
    program = pass_through_program([0])
    q0 = pair_stream(program, ZEROS)
    answer, run, cls = diamond(identity_oracle(), q0)
    assert cls.kind == "successful" and cls.index == 0
    assert run.records == []
    assert answer is q0


def test_diamond_zero_input_succeeds_without_any_use():
    # the all-zero state already carries the success flag
    answer, run, cls = diamond(identity_oracle(), ZEROS)
    assert cls.kind == "successful" and cls.index == 0
    assert run.records == []


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_diamond_countdown_succeeds_at_n(n):
    loop = countdown_loop(n)
    answer, run, cls = diamond(loop.oracle, loop.q0, step_ceiling=n + 3)
    assert cls.kind == "successful" and cls.index == n
    assert len(run.records) == n  # one call per performed step
    assert answer.at(0) == 0


def test_diamond_head_never_zero_is_undetermined():
    loop = problem_loop("llpo", 1, 4)  # heads constant 1
    answer, run, cls = diamond(loop.oracle, loop.q0, step_ceiling=4)
    assert answer is None
    assert cls.kind == "undetermined"
    assert "no-success-through-4" in cls.note


# --- inverse limit and run validation ------------------------------------------------


def test_inverse_limit_pass_through_shares_data():
    program = pass_through_program([1])
    data = PlanStream((2, 0, 1), ("zeros",))
    out, loop = inverse_limit(identity_oracle(), pair_stream(program, data))
    assert det(project(out, 0), 8) == pair_stream(program, data).prefix(8)
    for i in range(1, 5):
        _, di = unpair_stream(loop.state(i))
        assert det(di, 8) == data.prefix(8)


def test_inverse_limit_llpo_validates_stepwise():
    loop_inst = problem_loop("llpo", 9, 10)
    out, loop = inverse_limit(loop_inst.oracle, loop_inst.q0)
    run = loop.run(10)
    verdicts = validate_run(run, loop_inst.oracle, depth=6)
    assert len(verdicts) == 10
    assert REFUTED not in verdicts
    assert verdicts.count(CONSISTENT) >= 8


def test_forget_keeps_states_through_i_and_asks_the_oracle_again():
    # a pass-through program hands out the answer, so a state's data part
    # shows the answer that built it
    current = [1]
    oracle = StepOracle("current", lambda data, i: PlanStream((current[0],), ("zeros",)))
    loop = LoopStates(pair_stream(pass_through_program([1]), ZEROS), oracle)
    run = loop.run(4)
    loop.forget(2)
    assert len(loop.states) == 3 and all(a is b for a, b in zip(loop.states, run.states))
    assert len(loop.records) == 2 and all(a is b for a, b in zip(loop.records, run.records))
    current[0] = 7
    rebuilt = loop.state(3)
    assert rebuilt is not run.states[3]
    assert det(unpair_stream(rebuilt)[1], 1) == (7,)
    assert det(unpair_stream(loop.state(2))[1], 1) == (1,)
    assert [r.index for r in loop.records] == [0, 1, 2]


def test_validate_run_catches_forged_state():
    loop_inst = problem_loop("llpo", 2, 4)
    run = run_loop(loop_inst.q0, loop_inst.oracle, 3)
    forged = Run(run.states[:2] + [ZEROS] + run.states[3:], run.records)
    verdicts = validate_run(forged, loop_inst.oracle, depth=6)
    assert REFUTED in verdicts


# --- classification ---------------------------------------------------------------


def _state_with_head(h, payload=ZEROS):
    return pair_stream(pass_through_program([h]), payload)


def test_classify_heads_two_one_zero():
    run = Run([_state_with_head(2), _state_with_head(1), _state_with_head(0)])
    cls = classify_run(run)
    assert cls.kind == "successful" and cls.index == 2


def test_classify_no_success_reports_extent():
    run = Run([_state_with_head(1) for _ in range(11)])
    cls = classify_run(run)
    assert cls.kind == "undetermined"
    assert cls.note == "no-success-through-10"


def test_classify_stalls_on_provably_empty_program():
    good = [_state_with_head(1) for _ in range(3)]
    dead = pair_stream(ExplicitName([], head=flag_head(1)), ZEROS)
    run = Run(good + [dead])
    cls = classify_run(run)
    assert cls.kind == "stalled" and cls.index == 3


def test_classify_stall_needs_inapplicable_entries():
    # complete graph whose single entry may still apply: not provably stalled
    name = ExplicitName([((0, 0), (1,))], head=flag_head(1))
    run = Run([pair_stream(name, ZEROS)])
    cls = classify_run(run)
    assert cls.kind == "undetermined"


# --- lifting a one-step reduction to loops ---------------------------------------------


def _identity_witness():
    k = pure_machine(lambda w: w, "K-id")
    h = pure_machine(odd_part, "H-back")
    return lift_reduction_to_inverse_limit(k, h, "llpo-id-lift")


def test_lift_extractor_inverts_k1():
    lift = _identity_witness()
    loop = problem_loop("llpo", 3, 4)
    back = lift.h1(lift.k1(loop.q0))
    got = det(back, 64, budget=3_000_000)
    assert len(got) >= 48
    assert got == loop.q0.prefix(len(got))


def test_lifted_run_tracks_original():
    lift = _identity_witness()
    loop = problem_loop("llpo", 11, 5)
    reference = run_loop(problem_loop("llpo", 11, 5).q0, problem_loop("llpo", 11, 5).oracle, 5)

    def g_answer(data, i):
        return get_realizer("llpo").solve(loop.step_instance(i))

    translated, originals = run_lifted_loop(lift, loop, g_answer, 5)
    for i in range(6):
        want = det(reference.states[i], 5)
        got = det(originals[i], 5)
        short = min(len(want), len(got))
        assert want[:short] == got[:short]
        extracted = det(lift.h1(unpair_stream(translated.states[i])[0]), 4, budget=2_000_000)
        assert extracted == want[: len(extracted)]
        assert len(extracted) >= 2


# --- single-valued equivalences ----------------------------------------------------------


def test_infty_from_omega_identity_machine():
    step = pure_machine(lambda w: w, "id")
    program = pass_through_program([1])
    q0 = pair_stream(program, PlanStream((4, 2), ("zeros",)))
    via_omega = infty_states_from_omega(step, q0, 3)
    direct = run_loop(q0, machine_oracle(step), 3)
    for a, b in zip(via_omega, direct.states):
        got, want = det(a, 32), det(b, 32)
        short = min(len(got), len(want))
        assert got[:short] == want[:short]
        assert short >= 16


def prepend_seven() -> WordMachine:
    return pure_machine(lambda w: (7,) + w, "prepend7")


def test_infty_from_omega_prepend_machine():
    q0 = pair_stream(pass_through_program([1]), PlanStream((1, 2), ("zeros",)))
    via_omega = infty_states_from_omega(prepend_seven(), q0, 3)
    direct = run_loop(
        pair_stream(pass_through_program([1]), PlanStream((1, 2), ("zeros",))),
        machine_oracle(prepend_seven()),
        3,
    )
    for a, b in zip(via_omega[1:], direct.states[1:]):
        got, want = det(a, 12), det(b, 12)
        short = min(len(got), len(want))
        assert short >= 4 and got[:short] == want[:short]


@pytest.mark.parametrize("seed", range(20))
def test_omega_via_inverse_limit_components(seed):
    step = prepend_seven() if seed % 2 else pure_machine(lambda w: w, "id")
    data = PlanStream(((seed % 5), 1 + (seed % 3)), ("zeros",))
    q0 = pair_stream(pass_through_program([1]), data)
    _, power = omega_via_inverse_limit(step, q0, 4)
    for n in range(0, 5):
        fresh_q0 = pair_stream(pass_through_program([1]), data)
        want, _ = power_n(machine_oracle(step), n, fresh_q0)
        got = det(power(n), 4, budget=3_000_000)
        want_w = det(want, 4)
        short = min(len(got), len(want_w))
        assert got[:short] == want_w[:short]
        assert short >= 1


# --- parallel loops through one, diamond through padding ----------------------------------


def test_parallel_inverse_limit_components_consistent():
    loops = [problem_loop("llpo", 21, 4), problem_loop("llpo", 22, 4)]
    runners, schedule = parallel_inverse_limit(loops, cantor_pair(1, 3) + 1)
    for li, runner in zip(loops, runners):
        run = runner.run(4)
        verdicts = validate_run(run, li.oracle, depth=5)
        assert REFUTED not in verdicts
    # the schedule really interleaves: component 0 and 1 both progress
    assert {i for _, i, _ in schedule} >= {0, 1}


def test_diamond_padding_matches_diamond():
    n = 3
    loop = countdown_loop(n)
    direct_answer, _, cls = diamond(countdown_loop(n).oracle, countdown_loop(n).q0, step_ceiling=8)
    designated = get_problem("id").generate(0)
    answer, run, first_pad = diamond_via_inverse_limit(loop, designated, step_ceiling=8)
    assert cls.kind == "successful" and cls.index == n
    assert det(answer, 6) == det(direct_answer, 6)
    assert first_pad == n + 1
    assert len(run.states) == 10
    assert [r.oracle for r in run.records[:n]] == [countdown_loop(n).oracle.label] * n
    assert {r.oracle for r in run.records[n:]} == {"designated"}
    assert len(run.records[n:]) == 9 - n
    # every padded state signals success and carries the designated instance
    want = det(designated.public_name, 8)
    assert len(want) == 8
    for state in run.states[first_pad:]:
        assert det(state, 1) == (0,)
        assert det(unpair_stream(state)[1], 8) == want


def test_diamond_via_inverse_limit_without_success_has_no_answer():
    loop = problem_loop("llpo", 3, 4)
    designated = get_problem("id").generate(0)
    answer, run, first_pad = diamond_via_inverse_limit(loop, designated, step_ceiling=5)
    assert answer is None and first_pad is None
    assert len(run.states) == 6
    assert all(det(state, 1) == (1,) for state in run.states)


def test_first_success_machine_extracts_component():
    heads = [2, 1, 0, 1]
    comps = {i: PlanStream((h, 5, h + 1), ("zeros",)) for i, h in enumerate(heads)}
    run_tuple = tuple_countable(lambda i: comps.get(i, PlanStream((1,), ("zeros",))))
    w = run_tuple.prefix(64)
    out = first_success_machine(6).apply(w, None)
    assert out[:3] == (0, 5, 1)


def test_limnat_loop_metadata_bounds_changes():
    for seed in range(30):
        loop = limnat_loop(seed, 4)
        assert sum(loop.meta["per_level"]) == loop.meta["total_changes"] <= 3
        inst = loop.step_instance(0)
        assert inst.problem == "limnat"
