import pytest

from baire.machine import MachineStream, pure_machine
from baire.operators import inverse_limit, limnat_loop, problem_loop
from baire.problems import CONSISTENT, REFUTED, UNDETERMINED, get_problem
from baire.reductions import (
    broken_c2_nondet_witness,
    broken_lpo_witness,
    c2_cn_lift,
    c2_nondet_witness,
    c2_to_cn_witness,
    check_loop_nondet,
    check_lifted_reduction,
    check_nondet,
    check_reduction,
    identity_llpo_witness,
    limnat_to_lim_witness,
    llpo_to_cantor_witness,
    NonDetWitness,
    nondet_lift_inverse_limit,
    nonzero_within,
    simulate_limit_machine,
    simulation_report,
    witness_library,
    _translate_llpo_step_to_cn,
)
from baire.problems import value_stream
from baire.streams import Fuel, ZEROS, pair_stream, tuple_countable


# --- one-step reductions --------------------------------------------------------


def test_identity_witness_clean_over_seeds():
    report = check_reduction(identity_llpo_witness(), seeds=60, depth=32)
    assert report.refutations == 0
    assert report.count(CONSISTENT) >= 55


def test_c2_to_cn_witness_clean():
    report = check_reduction(c2_to_cn_witness(), seeds=60, depth=32)
    assert report.refutations == 0


def test_llpo_to_cantor_witness_clean():
    report = check_reduction(llpo_to_cantor_witness(), seeds=60, depth=32)
    assert report.refutations == 0


def test_limnat_to_lim_witness_clean():
    report = check_reduction(limnat_to_lim_witness(), seeds=60, depth=32)
    assert report.refutations == 0
    assert report.count(CONSISTENT) >= 50


def test_broken_lpo_is_refuted_on_nonzero_instances():
    report = check_reduction(broken_lpo_witness(), seeds=100, depth=32)
    assert report.refutations > 0
    prob = get_problem("lpo")
    applicable = [s for s in range(100) if prob.generate(s).hidden[0] == "nonzero"]
    refuted = {s for s, v, _ in report.records if v == REFUTED}
    assert refuted <= set(applicable)
    assert len(refuted) >= 0.9 * len(applicable)


def test_report_format_lines():
    report = check_reduction(identity_llpo_witness(), seeds=3, depth=8)
    lines = report.lines()
    assert lines[0].startswith("check llpo-id seed 0 depth 8 verdict ")
    assert lines[-2].startswith("summary llpo-id seeds 3 ")
    assert "evidence" in lines[-1]


def test_missing_translation_is_an_error():
    from baire.reductions import ReductionWitness
    from baire.machine import pure_machine

    w = ReductionWitness("wip", "llpo", "llpo", pure_machine(lambda w: w), pure_machine(lambda w: w))
    with pytest.raises(ValueError, match="translation"):
        check_reduction(w, seeds=1)


# --- nondeterministic computation ---------------------------------------------------


def test_c2_nondet_clean_suite():
    report = check_nondet(c2_nondet_witness(), "llpo", seeds=80, depth=32)
    assert report.refutations == 0
    assert report.count(CONSISTENT) == 80


def test_adversarial_advice_is_flagged_not_failed():
    w = c2_nondet_witness()
    prob = get_problem("llpo")
    inst = None
    for seed in range(60):
        inst = prob.generate(seed)
        if len([s for s in inst.public_name.prefix(10) if s > 0]) == 1:
            break
    excluded = next(s - 1 for s in inst.public_name.prefix(10) if s > 0)
    flagged = nonzero_within(w.F2(inst.public_name, value_stream(excluded)), 32, Fuel(100_000))
    assert flagged is not None


def test_broken_nondet_refuted_under_helpful_advice():
    report = check_nondet(broken_c2_nondet_witness(), "llpo", seeds=80, depth=32)
    refuted = {s for s, v, _ in report.records if v == REFUTED}
    prob = get_problem("llpo")
    applicable = [
        s
        for s in range(80)
        if any(sym > 0 for sym in prob.generate(s).public_name.prefix(12))
    ]
    assert refuted
    assert len(refuted & set(applicable)) >= 0.9 * len(applicable)


def test_refuted_nondet_seeds_count_their_fuel():
    # a refuted seed k must add its tank's spending between seeds=k and seeds=k+1
    fuel = [check_nondet(broken_c2_nondet_witness(), "llpo", seeds=k).fuel_spent for k in range(6)]
    report = check_nondet(broken_c2_nondet_witness(), "llpo", seeds=5)
    refuted = [seed for seed, verdict, _ in report.records if verdict == REFUTED]
    assert refuted
    for k in refuted:
        assert fuel[k + 1] > fuel[k], k


# --- the lifted nondeterministic witness -----------------------------------------------


def test_lifted_nondet_clean_small_suite():
    lifted = nondet_lift_inverse_limit(c2_nondet_witness(), "c2-loop-lift")
    report = check_loop_nondet(
        lifted, lambda s: problem_loop("llpo", s, 5), seeds=25, depth=24, steps=5
    )
    assert report.refutations == 0
    assert report.count(CONSISTENT) == 25


def test_lifted_nondet_unhelpful_component_goes_nonzero():
    lifted = nondet_lift_inverse_limit(c2_nondet_witness(), "c2-loop-lift")
    loop = problem_loop("llpo", 3, 5)
    helpful = lifted.advice.helpful(loop)

    # poison step 2's advice with the excluded point, if this loop has one
    target = None
    for seed2 in range(40):
        candidate = problem_loop("llpo", seed2, 5)
        inst = candidate.step_instance(2)
        exclusions = [s - 1 for s in inst.public_name.prefix(12) if s > 0]
        if exclusions:
            target = (candidate, exclusions[0])
            break
    assert target is not None
    loop, bad_point = target

    def component(i):
        if i == 2:
            return value_stream(bad_point)
        return lifted.base.advice.helpful(loop.step_instance(i))

    advice = tuple_countable(component)
    F2 = lifted.F2(loop.q0, advice)
    hit = nonzero_within(F2, 40, Fuel(6_000_000))
    assert hit is not None
    assert F2.fail_step == 2
    # checks 0 and 1 passed before the failure was staged
    assert F2.fail_stage >= 2


def test_lifted_nondet_unique_variant_same_suite():
    lifted = nondet_lift_inverse_limit(c2_nondet_witness(), "c2-unique", unique=True)
    report = check_loop_nondet(
        lifted,
        lambda s: problem_loop("llpo", s, 5),
        seeds=15,
        depth=24,
        steps=5,
        adversarial=0,  # the singleton advice space has only the witness
    )
    assert report.refutations == 0
    assert report.count(CONSISTENT) == 15


def test_lifted_nondet_consults_each_component_once():
    lifted = nondet_lift_inverse_limit(c2_nondet_witness(), "one-shot")
    loop = problem_loop("llpo", 8, 5)
    advice = lifted.advice.helpful(loop)
    oracle = lifted.advice_oracle(advice)
    _, handle = inverse_limit(oracle, loop.q0)
    handle.run(5)
    assert oracle.consulted == [0, 1, 2, 3, 4]


def test_refuted_loop_nondet_seeds_count_their_fuel():
    good = c2_nondet_witness()
    always = pure_machine(lambda w: (1,) * (len(w) // 2), "always-flag")
    base = NonDetWitness(
        "flag-all", good.F1, lambda p, r: MachineStream(always, pair_stream(p, r)), good.advice
    )
    report = check_loop_nondet(
        nondet_lift_inverse_limit(base, "flag-all-loop"),
        lambda s: problem_loop("llpo", s, 5),
        seeds=3,
        depth=8,
        steps=5,
    )
    assert report.refutations == 3
    assert report.fuel_spent > 0


def test_lifted_broken_witness_refutations_state_their_reason():
    report = check_loop_nondet(
        nondet_lift_inverse_limit(broken_c2_nondet_witness()),
        lambda s: problem_loop("llpo", s, 5),
        seeds=12,
    )
    refuted = [detail for _, verdict, detail in report.records if verdict == REFUTED]
    assert refuted
    assert all(refuted)


def test_unique_lift_samples_no_advice():
    # the singleton advice space: asking for samples draws none
    def report(unique, adversarial):
        lifted = nondet_lift_inverse_limit(c2_nondet_witness(), "lift", unique=unique)
        return check_loop_nondet(
            lifted, lambda s: problem_loop("llpo", s, 5), seeds=6, adversarial=adversarial
        )

    unique = report(True, 2)
    assert unique.text() == report(True, 0).text()
    assert unique.fuel_spent < report(False, 2).fuel_spent
    assert not any(detail for _, _, detail in unique.records)


def test_unflagged_sample_with_refuted_output_is_undetermined():
    # F2 that never flags: a sampled bit that the instance excludes gives a
    # refuted output, yet F2 might flag it past any finite depth
    good = c2_nondet_witness()
    never = pure_machine(lambda w: (0,) * (len(w) // 2), "never-flag")
    witness = NonDetWitness(
        "never-flag", good.F1, lambda p, r: MachineStream(never, pair_stream(p, r)), good.advice
    )
    report = check_nondet(witness, "llpo", seeds=40)
    assert report.refutations == 0
    details = {detail for _, verdict, detail in report.records if verdict == UNDETERMINED}
    assert details == {"sample unflagged through depth 32, refuted output"}


@pytest.mark.parametrize("depth", [0, 1, 2, 4, 6, 8, 12, 16])
def test_sound_registry_entries_never_refute_at_small_depth(depth):
    # c2-loop-lift used to refute sound seeds at depths below 10: an
    # unflagged sample's refuted run counted although F2 flags it later
    for name, entry in witness_library().items():
        if entry.kind != "negative-control":
            assert entry.run_check(seeds=12, depth=depth).refutations == 0, name


# --- the lifted reduction witness ----------------------------------------------------


def test_lifted_reduction_small_suite():
    report = check_lifted_reduction(
        c2_cn_lift(),
        lambda s: problem_loop("llpo", s, 5),
        _translate_llpo_step_to_cn,
        "cn",
        seeds=6,
        depth=5,
        steps=5,
    )
    assert report.refutations == 0
    assert report.count(CONSISTENT) == 6


# --- the mind-change simulation -------------------------------------------------------


def test_simulation_zero_changes_zero_restarts():
    for seed in range(40):
        loop = limnat_loop(seed, 4)
        if loop.meta["total_changes"] == 0:
            result = simulate_limit_machine(loop, 4)
            assert result.restarts == 0
            assert result.stabilized
            assert result.verdict == CONSISTENT
            return
    pytest.fail("no zero-change loop among seeds")


def test_simulation_single_change_attributed_to_its_level():
    for seed in range(80):
        loop = limnat_loop(seed, 4)
        if loop.meta["total_changes"] == 1:
            level = loop.meta["per_level"].index(1)
            result = simulate_limit_machine(loop, 4)
            assert result.restarts == 1
            assert [t[0] for t in result.trace] == [level]
            assert result.verdict == CONSISTENT
            return
    pytest.fail("no single-change loop among seeds")


@pytest.mark.parametrize("seed", range(30))
def test_simulation_stabilizes_within_budget(seed):
    loop = limnat_loop(seed, 5)
    result = simulate_limit_machine(loop, 5)
    assert result.stabilized
    assert result.restarts <= loop.meta["total_changes"]
    assert result.verdict == CONSISTENT


def test_simulation_trace_lines_format():
    loop = limnat_loop(2, 4)
    result = simulate_limit_machine(loop, 4)
    lines = result.trace_lines()
    assert lines[-1].startswith("restarts ")


# --- registry ---------------------------------------------------------------------------


def test_registry_contains_the_shipped_witnesses():
    lib = witness_library()
    for name in (
        "llpo-id",
        "c2-to-cn",
        "llpo-to-cantor",
        "limn-to-lim",
        "c2-loop-lift",
        "c2-loop-lift-unique",
        "c2-cn-loop-lift",
        "cn-loop-limsim",
        "broken-lpo",
        "broken-c2-nondet",
    ):
        assert name in lib


def test_registry_lookup_is_stable():
    assert witness_library()["llpo-id"] is witness_library()["llpo-id"]
    assert "unknown" not in witness_library()


def test_registry_entries_run_small():
    report = witness_library()["llpo-id"].run_check(seeds=5, depth=16)
    assert report.ok()
    report = witness_library()["broken-lpo"].run_check(seeds=20, depth=32)
    assert not report.ok()


@pytest.mark.parametrize(
    "name", ["llpo-id", "c2-loop-lift", "c2-loop-lift-unique", "c2-cn-loop-lift", "cn-loop-limsim"]
)
def test_registry_budget_is_the_seed_tank_and_never_refutes(name):
    # a seed whose tank runs dry is undetermined; c2-loop-lift used to treat
    # a sample scan cut short by the budget as unflagged and refute the seed
    entry = witness_library()[name]
    for budget in (1, 100, 5000):
        report = entry.run_check(seeds=3, budget=budget)
        assert report.refutations == 0
        assert report.fuel_spent <= 3 * budget
    assert entry.run_check(seeds=3, budget=1).undetermined == 3


def test_lifted_reduction_dry_seed_tank_says_budget_exhausted():
    report = witness_library()["c2-cn-loop-lift"].run_check(seeds=2, budget=50)
    assert report.records == [(s, UNDETERMINED, "budget exhausted") for s in range(2)]
    assert report.fuel_spent == 100


def test_lifted_identity_witness_checks():
    from baire.machine import pure_machine
    from baire.operators import lift_reduction_to_inverse_limit
    from baire.reductions import _answer_back

    lift = lift_reduction_to_inverse_limit(
        pure_machine(lambda w: w, "K-id"), pure_machine(_answer_back, "H-back"), "llpo-id-lift"
    )
    report = check_lifted_reduction(
        lift,
        lambda s: problem_loop("llpo", s, 5),
        lambda inst, data: inst,
        "llpo",
        seeds=10,
        depth=5,
        steps=5,
    )
    assert report.refutations == 0
    assert report.count(CONSISTENT) == 10


def test_lifted_program_equation_through_generic_face():
    # U_{K1(x)}(r) must equal <K1(x'), K(data(x'))> where x' is the original
    # step driven by the translated-back answer; read the left side through
    # the machine face so the structured runner is not trusted blindly
    from baire.machine import MachineStream
    from baire.operators import generic_universal
    from baire.problems import get_realizer
    from baire.reductions import c2_cn_lift, _translate_llpo_step_to_cn
    from baire.streams import pair_stream, unpair_stream

    lift = c2_cn_lift()
    loop = problem_loop("llpo", 4, 3)
    x = loop.q0
    k1x = lift.k1(x)
    g_inst = _translate_llpo_step_to_cn(loop.step_instance(0), None)
    r = get_realizer("cn").solve(g_inst)

    lhs = generic_universal(k1x, r)

    prog, p = unpair_stream(x)
    y_f = lift.answer_back(p, get_realizer("cn").solve(g_inst))
    from baire.machine import eval_stream

    x_next = eval_stream(prog, y_f)
    _, p_next = unpair_stream(x_next)
    rhs = pair_stream(lift.k1(x_next), MachineStream(lift.k_machine, p_next))

    got = lhs.determined_prefix(8, Fuel(6_000_000))
    want = rhs.determined_prefix(8, Fuel(6_000_000))
    short = min(len(got), len(want))
    assert got[:short] == want[:short]
    assert short >= 2
