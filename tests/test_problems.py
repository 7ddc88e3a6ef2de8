import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire.problems import (
    CONSISTENT,
    REFUTED,
    UNDETERMINED,
    cylinder_code,
    cylinder_word,
    exclusions_upto,
    get_problem,
    get_realizer,
    parse_plan,
    problem_cn,
    problem_id,
    problem_lim,
    problem_lim_nat,
    problem_llpo,
    problem_lpo,
    problem_path_choice,
    realizer_id,
    realizer_lim,
    realizer_lpo,
    realizer_value,
    sierpinski_value,
    value_stream,
)
from baire.streams import PlanStream, ZEROS, project


def solved_prefix(realizer, instance, depth):
    return realizer.solve(instance).prefix(depth)


# --- identity ------------------------------------------------------------------


def test_id_round_trip_and_refutation():
    prob, real = problem_id(), realizer_id()
    inst = prob.generate(3)
    out = solved_prefix(real, inst, 16)
    assert prob.check_solution(inst, out, 16) == CONSISTENT
    assert prob.check_solution(inst, (), 16) == UNDETERMINED
    wrong = (out[0] + 1,) + out[1:]
    assert prob.check_solution(inst, wrong, 16) == REFUTED


def test_id_on_zero_stream():
    prob, real = problem_id(), realizer_id()
    inst = prob.generate(0)
    inst.public_name = ZEROS
    assert real.solve(inst).prefix(8) == (0,) * 8


# --- zero detection --------------------------------------------------------------


def test_lpo_all_zero_instance_claims_one():
    prob, real = problem_lpo(), realizer_lpo()
    for seed in range(60):
        inst = prob.generate(seed)
        if inst.hidden[0] == "allzero":
            assert real.solve(inst).prefix(3) == (1, 0, 0)
            assert prob.check_solution(inst, (1,), 32) == CONSISTENT
            break
    else:
        pytest.fail("no all-zero instance among seeds")


def test_lpo_nonzero_instance_claims_zero():
    prob, real = problem_lpo(), realizer_lpo()
    inst = prob.generate(1)
    while inst.hidden[0] != "nonzero":
        inst = prob.generate(inst.seed + 1)
    assert real.solve(inst).at(0) == 0
    k = inst.hidden[1]
    # claim 1 becomes refuted exactly once the nonzero is visible
    assert prob.check_solution(inst, (1,), k + 1) == REFUTED
    assert prob.check_solution(inst, (0,), k + 1) == CONSISTENT
    # an input that looks zero cannot refute claim 0
    assert prob.check_solution(inst, (0,), 0) == UNDETERMINED


def test_lpo_refuted_is_absorbing():
    prob = problem_lpo()
    inst = prob.generate(2)
    while inst.hidden[0] != "nonzero":
        inst = prob.generate(inst.seed + 1)
    k = inst.hidden[1]
    refuted_at = [d for d in range(k, k + 10) if prob.check_solution(inst, (1,), d) == REFUTED]
    assert refuted_at
    first = min(refuted_at)
    assert all(prob.check_solution(inst, (1,), d) == REFUTED for d in range(first, first + 8))


# --- binary and natural choice -----------------------------------------------------


def test_llpo_nothing_excluded_admits_both():
    prob = problem_llpo()
    inst = prob.generate(0)
    inst.public_name = ZEROS
    assert prob.check_solution(inst, (0,), 32) == CONSISTENT
    assert prob.check_solution(inst, (1,), 32) == CONSISTENT


def test_llpo_exclusion_forces_the_other_point():
    prob = problem_llpo()
    inst = prob.generate(0)
    inst.public_name = PlanStream((0, 1), ("zeros",))  # 1 = "0 is excluded"
    assert prob.check_solution(inst, (0,), 8) == REFUTED
    assert prob.check_solution(inst, (1,), 8) == CONSISTENT
    assert prob.check_solution(inst, (2,), 8) == REFUTED  # not a point of {0,1}


@pytest.mark.parametrize("seed", range(500))
def test_llpo_realizer_never_refuted(seed):
    prob, real = problem_llpo(), realizer_value("llpo")
    inst = prob.generate(seed)
    for depth in (4, 16, 32):
        assert prob.check_solution(inst, solved_prefix(real, inst, 4), depth) != REFUTED


def test_cn_exclusions_leave_a_choice():
    prob = problem_cn()
    inst = prob.generate(0)
    inst.public_name = PlanStream((1, 2, 4), ("zeros",))  # excludes 0, 1, 3
    assert prob.check_solution(inst, (2,), 16) == CONSISTENT
    assert prob.check_solution(inst, (0,), 16) == REFUTED
    fresh = problem_cn().generate(1)
    fresh.public_name = ZEROS
    assert prob.check_solution(fresh, (0,), 16) == CONSISTENT


@pytest.mark.parametrize("seed", range(500))
def test_cn_realizer_never_refuted(seed):
    prob, real = problem_cn(), realizer_cn_shared
    inst = prob.generate(seed)
    assert prob.check_solution(inst, real.solve(inst).prefix(4), 32) != REFUTED


realizer_cn_shared = realizer_value("cn")


# --- limits -----------------------------------------------------------------------


def test_lim_constant_sequence():
    prob, real = problem_lim(), realizer_lim()
    inst = prob.generate(0)
    limit = inst.hidden[1]
    out = real.solve(inst)
    assert out.prefix(len(limit)) == limit
    assert prob.check_solution(inst, out.prefix(8), 8) == CONSISTENT
    # components eventually equal the limit coordinatewise
    commits = dict()
    for k, v, s in inst.public_spec["commits"]:
        commits[k] = (v, s)
        comp = project(inst.public_name, s + 2)
        assert comp.at(k) == v


def test_lim_refutes_on_committed_coordinate():
    prob = problem_lim()
    inst = prob.generate(1)
    k, v, s = inst.public_spec["commits"][0]
    wrong = (v + 1,)
    assert prob.check_solution(inst, wrong, 8) == REFUTED


@pytest.mark.parametrize("seed", range(200))
def test_lim_realizer_never_refuted(seed):
    prob, real = problem_lim(), realizer_lim()
    inst = prob.generate(seed)
    assert prob.check_solution(inst, real.solve(inst).prefix(10), 10) != REFUTED


def test_lim_nat_eventual_value():
    prob, real = problem_lim_nat(), realizer_lim_nat_shared
    inst = prob.generate(7)
    v, s = inst.hidden[1], inst.hidden[2]
    assert real.solve(inst).at(0) == v
    assert prob.check_solution(inst, (v,), s + 1) == CONSISTENT
    assert prob.check_solution(inst, (v + 1,), s + 1) == REFUTED
    assert prob.check_solution(inst, (v + 1,), 0) == UNDETERMINED


realizer_lim_nat_shared = realizer_value("limnat")


def test_lim_nat_example_sequence():
    prob = problem_lim_nat()
    inst = prob.generate(0)
    inst.public_name = PlanStream((3, 3, 5), ("cycle", (5,)))
    inst.public_spec["commits"] = [(0, 5, 2)]
    assert prob.check_solution(inst, (5,), 8) == CONSISTENT
    assert prob.check_solution(inst, (3,), 8) == REFUTED


# --- paths through trees -------------------------------------------------------------


def test_cylinder_coding_round_trip():
    for code in range(128):
        assert cylinder_code(cylinder_word(code)) == code
    assert cylinder_code((0,)) == 1
    assert cylinder_code((1,)) == 2


def test_path_choice_no_exclusions():
    prob = problem_path_choice()
    inst = prob.generate(0)
    inst.public_name = ZEROS
    assert prob.check_solution(inst, (0, 0, 0), 16) == CONSISTENT


def test_path_choice_excluded_cylinder_forces_first_bit():
    prob = problem_path_choice()
    inst = prob.generate(0)
    inst.public_name = PlanStream((cylinder_code((0,)) + 1,), ("zeros",))
    assert prob.check_solution(inst, (0, 1), 8) == REFUTED
    assert prob.check_solution(inst, (1, 0), 8) == CONSISTENT
    assert prob.check_solution(inst, (2,), 8) == REFUTED  # not binary


@pytest.mark.parametrize("seed", range(200))
def test_path_choice_realizer_never_refuted(seed):
    prob, real = problem_path_choice(), realizer_path_choice_shared
    inst = prob.generate(seed)
    assert prob.check_solution(inst, real.solve(inst).prefix(12), 32) != REFUTED


from baire.problems import realizer_path_choice

realizer_path_choice_shared = realizer_path_choice()


# --- Sierpinski scans ------------------------------------------------------------------


def test_sierpinski_scan():
    assert sierpinski_value(ZEROS, 32) == ("zero-so-far", None)
    p = PlanStream((0,) * 7 + (9,), ("zeros",))
    assert sierpinski_value(p, 32) == ("nonzero-at", 7)
    assert sierpinski_value(p, 64) == ("nonzero-at", 7)  # persists at depth


# --- generic properties -------------------------------------------------------------


@settings(max_examples=120)
@given(
    st.sampled_from(["id", "lpo", "llpo", "cn", "lim", "limnat", "wkl"]),
    st.integers(0, 400),
    st.integers(1, 24),
)
def test_oracle_realizers_unrefuted_everywhere(name, seed, depth):
    prob, real = get_problem(name), get_realizer(name)
    inst = prob.generate(seed)
    out = real.solve(inst).prefix(6)
    assert prob.check_solution(inst, out, depth) != REFUTED


@pytest.mark.parametrize("name", ["llpo", "cn", "limnat"])
def test_value_realizer_is_registered_per_problem(name):
    real = get_realizer(name)
    inst = get_problem(name).generate(5)
    assert real.problem == name
    assert real.solve(inst).prefix(3) == (inst.hidden[1], 0, 0)


@settings(max_examples=80)
@given(st.sampled_from(["lpo", "llpo", "cn", "wkl"]), st.integers(0, 200))
def test_refuted_verdicts_absorb(name, seed):
    prob = get_problem(name)
    inst = prob.generate(seed)
    bad = {
        "lpo": (1,),
        "llpo": (2,),
        "cn": (99,),
        "wkl": (3,),
    }[name]
    verdicts = [prob.check_solution(inst, bad, d) for d in range(1, 33)]
    if REFUTED in verdicts:
        first = verdicts.index(REFUTED)
        assert all(v == REFUTED for v in verdicts[first:])


# --- the plan syntax ------------------------------------------------------------------


@pytest.mark.parametrize(
    "tokens, head, tail",
    [
        ("eps zeros", (), ("zeros",)),
        ("1 2 zeros", (1, 2), ("zeros",)),
        ("1 eps 2 cycle 3 4", (1, 2), ("cycle", (3, 4))),
    ],
)
def test_parse_plan_accepts(tokens, head, tail):
    plan = parse_plan(tokens.split())
    assert (plan.head, plan.tail) == (head, tail)


@pytest.mark.parametrize(
    "tokens", ["1 2", "-3 zeros", "1 cycle x", "1 cycle", "cycle eps", "1 zeros 9 9", "zeros zeros"]
)
def test_parse_plan_rejects(tokens):
    with pytest.raises(ValueError):
        parse_plan(tokens.split())
