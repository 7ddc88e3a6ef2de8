"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one line of the form

    criterion <n> <name>: PASS (<elapsed>s, budget <budget>s)

so a full run (`pytest tests/test_acceptance.py -s`) reads as a checklist.
"""

import random
import time

import pytest

from baire.machine import (
    MachineStream,
    decode_entries,
    eval_name,
    eval_stream,
    pure_machine,
)
from baire.operators import (
    chain_program,
    classify_run,
    countdown_loop,
    diamond,
    flag_head,
    identity_oracle,
    omega,
    pass_through_program,
    power_n,
    problem_loop,
    run_loop,
)
from baire.problems import CONSISTENT, REFUTED, get_problem
from baire.reductions import (
    broken_c2_nondet_witness,
    broken_lpo_witness,
    c2_cn_lift,
    c2_nondet_witness,
    check_lifted_reduction,
    check_loop_nondet,
    check_nondet,
    check_reduction,
    nondet_lift_inverse_limit,
    simulate_limit_machine,
    _translate_llpo_step_to_cn,
)
from baire.operators import limnat_loop
from baire.streams import Fuel, PlanStream, ZEROS, pair_stream, project, unpair_stream
from baire.transform import (
    const_transformer_name,
    dummy_prefix_transformer_name,
    injection,
    injective_recursion,
    quine,
    recursion_T,
    smn,
)

from helpers import ChainPlan, naive_decode, seeded_plan_stream, transducer_machine


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        in_time = elapsed < self.seconds
        verdict = "PASS" if exc_type is None and in_time else "FAIL"
        print(f"criterion {self.number} {self.name}: {verdict} ({elapsed:.1f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert in_time, f"criterion {self.number} over budget: {elapsed:.1f}s"


def det(stream, depth, budget=400_000):
    return stream.determined_prefix(depth, Fuel(budget))


def common_agree(a, b):
    short = min(len(a), len(b))
    assert a[:short] == b[:short]
    return short


def test_criterion_1_codec_soundness():
    with Budget(1, "codec soundness", 10):
        small_words = [()]
        for a in range(3):
            small_words.append((a,))
            for b in range(3):
                small_words.append((a, b))
                for c in range(3):
                    small_words.append((a, b, c))
                    for d in range(3):
                        small_words.append((a, b, c, d))
        for seed in range(100):
            machine = transducer_machine(seed)
            from baire.machine import encode_machine

            name = encode_machine(machine)
            prefix = name.prefix(6000, Fuel(10**6))
            entries = naive_decode(prefix)

            def reproduced(u):
                best = ()
                for w, v in entries:
                    if u[: len(w)] == w and len(v) > len(best):
                        best = v
                return best

            for u in small_words:
                assert reproduced(u) == machine.apply(u, None)
        # dummy insertions never change the decoded entry set
        rng = random.Random("acceptance-dummies")
        insertions = 0
        while insertions < 1000:
            plan = ChainPlan(rng.randrange(40), blocks=8)
            word = list(plan.name.head[:140])
            base = decode_entries(tuple(word))
            for _ in range(25):
                mutated = list(word)
                for _ in range(rng.randrange(1, 4)):
                    mutated.insert(rng.randrange(len(mutated) + 1), rng.choice((0, 1, 2)))
                    insertions += 1
                assert decode_entries(tuple(mutated)) == base


def test_criterion_2_evaluation_monotonicity():
    from baire.machine import EntryAccumulator
    from baire.streams import is_prefix, word_sup

    with Budget(2, "evaluation monotonicity", 10):
        for seed in range(500):
            plan = ChainPlan(seed, blocks=12)
            raw = plan.name.head[:64]
            inp = (plan.spine + (0,) * 64)[:64]
            # accepted entries after each name prefix, built incrementally
            acc = EntryAccumulator()
            accepted_counts = [0]
            accepted = acc.accepted
            for sym in raw:
                acc.feed(sym)
                accepted_counts.append(len(accepted))
            size = len(raw) + 1
            grid = [[None] * 65 for _ in range(size)]
            # the full value grid: chains along the name axis per input
            for k in range(65):
                ik = inp[:k]
                best = ()
                for n in range(size):
                    for e in accepted[accepted_counts[n - 1] : accepted_counts[n]] if n else ():
                        if is_prefix(e.inp, ik):
                            best = word_sup(best, e.out)
                    grid[n][k] = best
                    # name-axis extension (the previous row value is a prefix)
                    if n:
                        prev = grid[n - 1][k]
                        assert best[: len(prev)] == prev
            # input-axis extension at every name prefix
            for n in range(size):
                row = grid[n]
                for k in range(64):
                    assert row[k + 1][: len(row[k])] == row[k]
            # the two axes compose, so every prefix-extension pair extends


def test_criterion_3_specialization_equation():
    with Budget(3, "specialization equation", 30):
        from baire.streams import even_part, odd_part

        machines = [
            pure_machine(odd_part, "proj2"),
            pure_machine(even_part, "proj1"),
            pure_machine(lambda w: w, "pair-id"),
            transducer_machine(901),
        ]
        disagreements = 0
        for case in range(200):
            F = machines[case % len(machines)]
            S = smn(F)
            q = seeded_plan_stream(case)
            p = seeded_plan_stream(case + 1000)
            lhs = eval_stream(S.apply(q), p)
            rhs = MachineStream(
                F, pair_stream(seeded_plan_stream(case), seeded_plan_stream(case + 1000))
            )
            a, b = det(lhs, 32), det(rhs, 32)
            short = min(len(a), len(b))
            if a[:short] != b[:short]:
                disagreements += 1
            assert short >= 16
        assert disagreements == 0


def test_criterion_4_recursion_fixed_point():
    with Budget(4, "uniform fixed point", 60):
        T = recursion_T()
        for seed in range(20):
            if seed % 2:
                plan = ChainPlan(seed)
                p_name = const_transformer_name(plan.name)
                z = plan.spine_stream(seed)
                floor = 8
            else:
                p_name = dummy_prefix_transformer_name(tuple((seed + i) % 3 for i in range(4)))
                z = seeded_plan_stream(seed)
                floor = 0
            fixed = T.apply(p_name)
            lhs = det(eval_stream(fixed, z), 16)
            rhs = det(eval_stream(eval_stream(p_name, fixed), z), 16)
            short = common_agree(lhs, rhs)
            assert short >= floor


def test_criterion_5_injection_lemma():
    with Budget(5, "injection lemma", 60):
        inj = injection()
        for seed in range(50):
            s = ChainPlan(seed, blocks=6).name
            p = seeded_plan_stream(seed + 7)
            out = eval_stream(inj.apply(s), p)
            got = det(inj.extract(out), 64, budget=800_000)
            assert len(got) >= 48
            assert got == p.prefix(len(got))
        for seed in range(20):
            plan = ChainPlan(seed)
            s = const_transformer_name(plan.name)
            p = seeded_plan_stream(seed + 21)
            z = plan.spine_stream(seed)
            lhs = det(eval_stream(eval_stream(inj.apply(s), p), z), 16)
            rhs = det(eval_stream(eval_stream(s, p), z), 16)
            short = common_agree(lhs, rhs)
            assert short >= 6


def test_criterion_6_injective_recursion():
    with Budget(6, "injective recursion", 120):
        from baire.streams import even_part, odd_part
        from baire.machine import apply_name, WordMachine
        from baire.streams import interleave_word

        def drop_name(r_name, x, fuel):
            return odd_part(x)

        def use_name(r_name, x, fuel):
            q, p = even_part(x), odd_part(x)
            return interleave_word(apply_name(r_name, q, fuel), p)

        R1 = injective_recursion(drop_name, "drop")
        for seed in range(6):
            q, p = seeded_plan_stream(seed), seeded_plan_stream(seed + 31)
            got = det(eval_stream(R1.apply(q), p), 16, budget=2_000_000)
            assert len(got) >= 8
            assert got == p.prefix(len(got))

        R2 = injective_recursion(use_name, "use")
        q, p = seeded_plan_stream(1), seeded_plan_stream(2)
        lhs = det(eval_stream(R2.apply(q), p), 16, budget=4_000_000)
        rhs = det(
            MachineStream(
                WordMachine(lambda w, fuel: use_name(R2.name_stream, w, fuel), "rhs"),
                pair_stream(seeded_plan_stream(1), seeded_plan_stream(2)),
            ),
            16,
            budget=4_000_000,
        )
        short = common_agree(lhs, rhs)
        assert short >= 2

        for seed in range(30):
            q = seeded_plan_stream(seed)
            got = det(R1.extract(R1.apply(q)), 64, budget=2_000_000)
            assert len(got) >= 48
            assert got == q.prefix(len(got))


def test_criterion_7_quine():
    with Budget(7, "self-reproduction", 5):
        q = quine()
        for seed in range(10):
            p = seeded_plan_stream(seed)
            got = det(eval_stream(q, p), 128)
            want = pair_stream(q, seeded_plan_stream(seed))
            assert len(got) == 128
            assert got == want.prefix(128)


def test_criterion_8_operator_coherence():
    with Budget(8, "operator coherence", 30):
        # omega components against powers
        for seed in range(50):
            loop = problem_loop("llpo", seed, 10)
            out = omega(loop.oracle, loop.q0)
            for n in range(8):
                fresh = problem_loop("llpo", seed, 10)
                want, _ = power_n(fresh.oracle, n, fresh.q0)
                assert det(project(out, n), 16) == det(want, 16)
        # success-condition exactness on crafted head sequences
        for flags, expected in [
            ((0,), 0),
            ((3, 2, 1, 0), 3),
            ((2, 1, 0, 7), 2),
            ((5, 0, 0), 1),
        ]:
            program = pass_through_program(list(flags) + [1])
            run = run_loop(pair_stream(program, ZEROS), identity_oracle(), len(flags))
            cls = classify_run(run)
            assert cls.kind == "successful" and cls.index == expected
        never = run_loop(
            pair_stream(pass_through_program([1]), ZEROS), identity_oracle(), 10
        )
        cls = classify_run(never)
        assert cls.kind == "undetermined" and "no-success-through-10" in cls.note
        # power zero and one match their definitions verbatim
        loop = problem_loop("llpo", 3, 4)
        out0, rec0 = power_n(loop.oracle, 0, loop.q0)
        assert out0 is loop.q0 and rec0 == []
        out1, rec1 = power_n(loop.oracle, 1, loop.q0)
        prog1, answer1 = unpair_stream(out1)
        assert prog1 is unpair_stream(loop.q0)[0]
        assert len(rec1) == 1


def test_criterion_9_countable_independent_choice():
    with Budget(9, "countable independent choice", 120):
        lifted = nondet_lift_inverse_limit(c2_nondet_witness(), "c2-loop-lift")
        report = check_loop_nondet(
            lifted,
            lambda s: problem_loop("llpo", s, 5),
            seeds=200,
            depth=32,
            steps=5,
        )
        assert report.refutations == 0
        assert report.count(CONSISTENT) == 200


def test_criterion_10_limit_machine_simulation():
    with Budget(10, "limit-machine simulation", 120):
        for seed in range(100):
            loop = limnat_loop(seed, 5)
            result = simulate_limit_machine(loop, 5)
            assert result.stabilized
            assert result.restarts <= loop.meta["total_changes"]
            assert result.verdict == CONSISTENT


def test_criterion_11_monotonicity_lifting():
    with Budget(11, "monotonicity lifting", 180):
        report = check_lifted_reduction(
            c2_cn_lift(),
            lambda s: problem_loop("llpo", s, 5),
            _translate_llpo_step_to_cn,
            "cn",
            seeds=50,
            depth=5,
            steps=5,
        )
        assert report.refutations == 0
        assert report.count(CONSISTENT) == 50


def test_criterion_12_negative_controls():
    with Budget(12, "negative controls", 10):
        report = check_reduction(broken_lpo_witness(), seeds=100, depth=32)
        prob = get_problem("lpo")
        applicable = [s for s in range(100) if prob.generate(s).hidden[0] == "nonzero"]
        refuted = {s for s, v, _ in report.records if v == REFUTED}
        assert len(refuted & set(applicable)) >= 0.9 * len(applicable)

        report2 = check_nondet(broken_c2_nondet_witness(), "llpo", seeds=100, depth=32)
        prob2 = get_problem("llpo")
        applicable2 = [
            s
            for s in range(100)
            if any(sym > 0 for sym in prob2.generate(s).public_name.prefix(12))
        ]
        refuted2 = {s for s, v, _ in report2.records if v == REFUTED}
        assert len(refuted2 & set(applicable2)) >= 0.9 * len(applicable2)
