"""Reduction witnesses and their finite-precision verification.

A reduction witness is a pair of machines (K, H): K translates an instance
name for the target problem's solver, H translates the answer back (the
weak form also sees the original input).  Verification is one-sided by
construction: a refutation is conclusive, while zero refutations at finite
depth is monotone evidence only, and every report says so.

The same harness drives loop-level witnesses (where the target is run as
an infinite loop), nondeterministic computations with advice (a guessing
solver plus a Sierpinski-valued advice checker), their lift from one step
to whole loops, and the mind-change simulation that computes eventual-value
loops on a guess-and-restart machine.  Every suite runs on one seeded-suite
driver, `run_suite`: a fresh tank per seed, a per-seed judge, and the tank's
spending added to the report whatever the verdict.  A problem with advice
and its lift to loops share one judge, `advice_judge`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional

from .machine import MachineStream, WordMachine, eval_stream, pure_machine
from .operators import (
    LoopInstance,
    LoopStates,
    Run,
    StepOracle,
    StepRecord,
    check_step,
    generic_universal,
    lift_reduction_to_inverse_limit,
    limnat_loop,
    problem_loop,
    run_lifted_loop,
    run_loop,
)
from .problems import (
    CONSISTENT,
    Instance,
    REFUTED,
    UNDETERMINED,
    get_problem,
    get_realizer,
    sierpinski_value,
    value_stream,
)
from .streams import (
    Fuel,
    FuelLike,
    FunctionStream,
    NeedMoreFuel,
    Stream,
    Word,
    as_fuel,
    cantor_unpair,
    even_part,
    pair_stream,
    project,
    tuple_countable,
    unpair_stream,
)

DISCLAIMER = (
    "zero refutations at finite depth is monotone evidence, never a proof; "
    "a refutation is conclusive"
)
ADVICE_DISCLAIMER = (
    DISCLAIMER + "; helpfulness checked on supplied advice, rejection up to depth"
)


@dataclass
class CheckReport:
    """Outcome of a seeded verification suite, diff-stable and one-sided."""

    witness: str
    depth: int
    records: List[tuple] = field(default_factory=list)  # (seed, verdict, detail)
    fuel_spent: int = 0
    disclaimer: str = DISCLAIMER

    def add(self, seed: int, verdict: str, detail: str = ""):
        self.records.append((seed, verdict, detail))

    def count(self, verdict: str) -> int:
        return sum(1 for _, v, _ in self.records if v == verdict)

    @property
    def refutations(self) -> int:
        return self.count(REFUTED)

    @property
    def undetermined(self) -> int:
        return self.count(UNDETERMINED)

    def ok(self) -> bool:
        return self.refutations == 0

    def lines(self) -> List[str]:
        out = []
        for seed, verdict, detail in sorted(self.records):
            line = f"check {self.witness} seed {seed} depth {self.depth} verdict {verdict}"
            if detail:
                line += f" {detail}"
            out.append(line)
        out.append(
            f"summary {self.witness} seeds {len(self.records)}"
            f" consistent {self.count(CONSISTENT)}"
            f" refuted {self.refutations}"
            f" undetermined {self.undetermined}"
            f" fuel {self.fuel_spent}"
        )
        out.append(f"note {self.disclaimer}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines())


def run_suite(
    label: str,
    depth: int,
    seeds: int,
    budget: int,
    judge: Callable[[int, Fuel], tuple],
    disclaimer: str = DISCLAIMER,
) -> CheckReport:
    """The one seeded-suite driver.

    Each seed gets a fresh tank of `budget` steps; `judge(seed, tank)`
    returns (verdict, detail), and the tank's spending is added to the
    report whatever the verdict, so refuted seeds count their fuel too.  A
    judge that runs its tank dry leaves the seed undetermined.
    """
    report = CheckReport(label, depth, disclaimer=disclaimer)
    for seed in range(seeds):
        tank = Fuel(budget)
        try:
            verdict, detail = judge(seed, tank)
        except NeedMoreFuel as blocked:
            if blocked.tank is not tank:
                raise
            verdict, detail = UNDETERMINED, "budget exhausted"
        report.add(seed, verdict, detail)
        report.fuel_spent += tank.spent
    return report


# ---------------------------------------------------------------------------
# one-step reduction witnesses


@dataclass
class ReductionWitness:
    """Machines (K, H) reducing problem `f_name` to problem `g_name`.

    `translate(f_instance, k_output)` builds the target-side instance an
    oracle realizer can answer from its hidden witness; the g-checker
    judges that answer on the instance's public data, which a translation
    takes from K's output.  The weak form feeds H the pair <original
    input, answer>, the strong form only the answer.
    """

    label: str
    f_name: str
    g_name: str
    K: WordMachine
    H: WordMachine
    strong: bool = False
    translate: Optional[Callable[[Instance, Stream], Instance]] = None


def check_reduction(
    witness: ReductionWitness, seeds: int = 50, depth: int = 32, budget: int = 10**6
) -> CheckReport:
    """Run a witness over seeded instances and judge with the f-checker,
    then judge the oracle's answer on K's instance with the g-checker."""
    if witness.translate is None:
        raise ValueError(f"witness {witness.label} has no instance translation")
    f_problem = get_problem(witness.f_name)
    g_problem = get_problem(witness.g_name)
    g_realizer = get_realizer(witness.g_name)

    def judge(seed, tank):
        inst = f_problem.generate(seed)
        k_out = MachineStream(witness.K, inst.public_name)
        target = witness.translate(inst, k_out)
        answer = g_realizer.solve(target)
        h_in = answer if witness.strong else pair_stream(inst.public_name, answer)
        got = MachineStream(witness.H, h_in).determined_prefix(8, tank)
        verdict = f_problem.check_solution(inst, got, depth)
        if verdict == UNDETERMINED and len(got) < 8 and not tank.remaining:
            # the read ended quietly on the empty seed tank; say so
            raise NeedMoreFuel(tank)
        if verdict == REFUTED:
            return verdict, f"output {list(got)}"
        # the realizer answers from the hidden witness, so only the g-checker
        # reads K: an answer it refutes means K(x) is no valid g-instance.
        # Read under its own tank, as check_lifted_reduction does
        g_answer = answer.determined_prefix(8, Fuel(600_000))
        if g_problem.check_solution(target, g_answer, depth) == REFUTED:
            return REFUTED, f"target answer {list(g_answer)}"
        return verdict, ""

    return run_suite(witness.label, depth, seeds, budget, judge)


# ---------------------------------------------------------------------------
# loop-level checking


def check_loop_run(
    run: Run, instances: Callable[[int], Instance], base_problem, depth: int
) -> str:
    """Membership test for a run: answers pass the base checker and every
    state follows from its predecessor through the generic universal face."""
    any_checked = False
    for i, record in enumerate(run.records):
        if record.answer is None:
            return UNDETERMINED
        answer = record.answer.determined_prefix(4, Fuel(600_000))
        verdict = base_problem.check_solution(instances(i), answer, depth)
        if verdict == REFUTED:
            return REFUTED
        program, _ = unpair_stream(run.states[i])
        expected = generic_universal(program, record.answer)
        verdict, _ = check_step(
            run.states[i + 1], expected, depth, Fuel(600_000), Fuel(600_000)
        )
        if verdict == REFUTED:
            return REFUTED
        if verdict == CONSISTENT:
            any_checked = True
    return CONSISTENT if any_checked else UNDETERMINED


def check_lifted_reduction(
    lift,
    make_loop: Callable[[int], LoopInstance],
    translate_step: Callable[[Instance, Stream], Instance],
    g_name: str,
    seeds: int = 50,
    depth: int = 5,
    steps: int = 5,
    budget: int = 4_000_000,
) -> CheckReport:
    """Verify a loop-to-loop witness: run the translated loop, extract the
    original run from the program parts, validate it step by step, and
    judge every pulled-back answer with the source problem's checker."""
    g_realizer = get_realizer(g_name)

    def judge(seed, tank):
        loop = make_loop(seed)

        def g_answer(data, i):
            return g_realizer.solve(translate_step(loop.step_instance(i), data))

        translated, _ = run_lifted_loop(lift, loop, g_answer, steps)
        # a fresh loop: sharing the translated run's caches would lower the fuel
        fresh = make_loop(seed)
        reference = run_loop(fresh.q0, fresh.oracle, steps)
        compared = 0
        for i in range(steps + 1):
            extracted = lift.h1(unpair_stream(translated.states[i])[0])
            verdict, short = check_step(extracted, reference.states[i], depth, tank, tank)
            if verdict == REFUTED:
                return REFUTED, ""
            compared += short
        if not compared and not tank.remaining:
            # check_step's reads end quietly on the empty seed tank; say so
            raise NeedMoreFuel(tank)
        # the states never depend on the answers, so judge those too, each
        # under its own tank as in check_loop_run
        problem = get_problem(loop.base_problem)
        for record in translated.records:
            answer = record.answer.determined_prefix(4, Fuel(600_000))
            if problem.check_solution(loop.step_instance(record.index), answer, depth) == REFUTED:
                return REFUTED, ""
        return (CONSISTENT if compared else UNDETERMINED), ""

    return run_suite(lift.label, depth, seeds, budget, judge)


# ---------------------------------------------------------------------------
# nondeterministic computation with advice


@dataclass
class AdviceSpace:
    """Oracle-side helpful advice plus a sampler `sample(instance, draw)`."""

    label: str
    helpful: Callable[[object], Stream]
    sample: Callable[[object, int], Stream]


@dataclass
class NonDetWitness:
    """Guessing solver F1 with Sierpinski-valued advice checker F2.

    F2's output stays zero exactly while the advice keeps looking helpful;
    whenever it stays zero through the whole depth, F1's output must pass
    the problem's checker.
    """

    label: str
    F1: Callable[[Stream, Stream], Stream]
    F2: Callable[[Stream, Stream], Stream]
    advice: AdviceSpace


def nonzero_within(stream: Stream, depth: int, fuel: Fuel) -> Optional[int]:
    """Position of the first nonzero symbol within depth, None if unseen.

    Not a read_prefix: the scan must stop at the first nonzero symbol,
    since reading further would change the fuel the reports print.  Running
    `fuel` itself dry propagates: a scan cut short by the budget has not
    seen the depth, so it must not count as unflagged.
    """
    try:
        return sierpinski_value(stream, depth, fuel)[1]
    except NeedMoreFuel as blocked:
        if blocked.tank is fuel:
            raise
        return None


def advice_judge(witness, instance, outcome, draws, depth: int, tank: Fuel) -> tuple:
    """The one judge of the two advice conditions, for a problem and its lift.

    Helpful advice must keep F2 at zero through the depth, and the solver's
    `outcome(advice)` must not be refuted.  A sample F2 flags is recorded,
    not failed; an unflagged sample with a refuted outcome is undetermined,
    since F2 may still flag it past the depth.
    """
    helpful = witness.advice.helpful(instance)
    flagged = nonzero_within(witness.F2(instance.public_name, helpful), depth, tank)
    if flagged is not None:
        return REFUTED, f"helpful advice flagged at {flagged}"
    verdict = outcome(helpful)
    if verdict == REFUTED:
        return REFUTED, "helpful advice, refuted output"
    detail = ""
    for draw in draws:
        sample = witness.advice.sample(instance, draw)
        flagged = nonzero_within(witness.F2(instance.public_name, sample), depth, tank)
        if flagged is not None:
            detail = f"sample flagged at {flagged}"
        elif outcome(sample) == REFUTED:
            return UNDETERMINED, f"sample unflagged through depth {depth}, refuted output"
    return verdict, detail


def check_nondet(
    witness: NonDetWitness,
    problem_name: str,
    seeds: int = 200,
    depth: int = 32,
    budget: int = 2_000_000,
) -> CheckReport:
    """`advice_judge` on seeded instances, three advice samples per seed:
    helpfulness is checked on the witness advice only, rejection up to depth."""
    problem = get_problem(problem_name)

    def judge(seed, tank):
        inst = problem.generate(seed)

        def outcome(advice):
            got = witness.F1(inst.public_name, advice).determined_prefix(6, tank)
            return problem.check_solution(inst, got, depth)

        return advice_judge(witness, inst, outcome, range(31 * seed, 31 * seed + 3), depth, tank)

    return run_suite(witness.label, depth, seeds, budget, judge, ADVICE_DISCLAIMER)


def c2_nondet_witness() -> NonDetWitness:
    """Binary choice by guessing: advice carries the chosen bit."""

    first_of_advice = pure_machine(_answer_back, "advice-bit")

    def F1(p, r):
        return MachineStream(first_of_advice, pair_stream(p, r))

    flagger = pure_machine(_flag_excluded_bit, "flag-excluded")

    def F2(p, r):
        return MachineStream(flagger, pair_stream(p, r))

    advice = AdviceSpace(
        "bits",
        helpful=lambda inst: value_stream(inst.hidden[1]),
        sample=lambda inst, draw: value_stream(random.Random(f"adv:{draw}").randrange(2)),
    )
    return NonDetWitness("c2-nondet", F1, F2, advice)


def _flag_excluded_bit(w: Word) -> Word:
    if len(w) < 2:
        return ()
    bit = w[1]
    scanned = even_part(w)
    return tuple(1 if s == bit + 1 else 0 for s in scanned)


def broken_c2_nondet_witness() -> NonDetWitness:
    """Negative control: F1 names the excluded point whenever one exists."""
    good = c2_nondet_witness()

    def F1(p, r):
        def value(n):
            if n > 0:
                return 0
            for k in range(16):
                s = p.at(k)
                if s > 0:
                    return s - 1  # the excluded point
            return 0

        return FunctionStream(value)

    return NonDetWitness("broken-c2-nondet", F1, good.F2, good.advice)


# ---------------------------------------------------------------------------
# lifting nondeterminism to loops


@dataclass
class LoopNonDetWitness:
    """The independent-choice lift of a NonDetWitness to whole loops.

    Its advice space is A^N: component i of the advice answers step i.  F2
    is the staged advice checker on the loop's initial state.  A unique lift
    has the singleton advice space, so its suites sample no advice.
    """

    label: str
    base: NonDetWitness
    advice: AdviceSpace
    unique: bool = False

    def advice_oracle(self, advice: Stream) -> StepOracle:
        consulted = []

        def answer(data, i):
            consulted.append(i)
            return self.base.F1(data, project(advice, i))

        oracle = StepOracle(f"{self.label}-advice", answer)
        oracle.consulted = consulted
        return oracle

    def F2(self, q0: Stream, advice: Stream) -> Stream:
        return _StagedAdviceCheck(self, q0, advice)


class _StagedAdviceCheck(Stream):
    """Sierpinski output for a whole loop: zero while every per-step check
    stays zero, nonzero from the first stage where one fails.

    Stage t inspects checks 0..t at diagonal depths, so a failing step is
    found at a finite stage, and the all-zero limit means every per-step
    check stayed clean forever.
    """

    def __init__(self, witness: LoopNonDetWitness, q0: Stream, advice: Stream):
        self.witness = witness
        self.advice = advice
        self.loop = LoopStates(q0, witness.advice_oracle(advice))
        self._checks = {}
        self._scanned = 0
        self.fail_stage = None
        self.fail_step = None

    def _check_stream(self, i: int) -> Stream:
        if i not in self._checks:
            _, data = unpair_stream(self.loop.state(i))
            self._checks[i] = self.witness.base.F2(data, project(self.advice, i))
        return self._checks[i]

    def at(self, n: int, fuel: FuelLike = None) -> int:
        fuel = as_fuel(fuel)
        while self.fail_stage is None and self._scanned <= n:
            t = self._scanned
            for i in range(t + 1):
                if self._check_stream(i).at(t - i, fuel) != 0:
                    self.fail_stage = t
                    self.fail_step = i
                    break
            else:
                self._scanned = t + 1
        if self.fail_stage is not None and n >= self.fail_stage:
            return 1
        return 0


def nondet_lift_inverse_limit(
    base: NonDetWitness, label: str = "", unique: bool = False
) -> LoopNonDetWitness:
    """Advice space goes from A to A-sequences: component i of the advice
    answers step i, consulted exactly once, and the lifted checker fails
    exactly when the first per-step check does.  A sampled sequence keeps
    helpful advice everywhere but at one poisoned step, where it draws from A.
    """

    def helpful(loop: LoopInstance) -> Stream:
        return tuple_countable(lambda i: base.advice.helpful(loop.step_instance(i)))

    def sample(loop: LoopInstance, draw: int) -> Stream:
        poison = random.Random(f"loop-adv:{draw}").randrange(loop.steps)

        def component(i):
            if i == poison:
                return base.advice.sample(loop.step_instance(i), draw * 97 + i)
            return base.advice.helpful(loop.step_instance(i))

        return tuple_countable(component)

    advice = AdviceSpace(f"{base.advice.label}^w", helpful, sample)
    return LoopNonDetWitness(label or f"{base.label}-loop", base, advice, unique)


def check_loop_nondet(
    lifted: LoopNonDetWitness,
    make_loop: Callable[[int], LoopInstance],
    seeds: int = 200,
    depth: int = 32,
    steps: int = 5,
    adversarial: int = 2,
    budget: int = 6_000_000,
) -> CheckReport:
    """Verify the lifted witness over seeded loops with the one advice judge.

    An outcome is refuted unless the `steps`-long run under the advice
    passes `check_loop_run` and consults each advice component once.  Each
    seed samples `adversarial` advice sequences, none for a unique lift.
    """
    base_problem = get_problem(make_loop(0).base_problem)
    k = 0 if lifted.unique else adversarial

    def judge(seed, tank):
        loop = make_loop(seed)

        def outcome(advice):
            oracle = lifted.advice_oracle(advice)
            run = LoopStates(loop.q0, oracle).run(steps)
            verdict = check_loop_run(run, loop.step_instance, base_problem, 5)
            if sorted(set(oracle.consulted)) != list(range(steps)):
                return REFUTED
            return verdict

        return advice_judge(lifted, loop, outcome, range(13 * seed, 13 * seed + k), depth, tank)

    return run_suite(lifted.label, depth, seeds, budget, judge, ADVICE_DISCLAIMER)


# ---------------------------------------------------------------------------
# the mind-change simulation


@dataclass
class SimulationResult:
    run: Run
    trace: List[tuple]  # (level, old value, new value, position)
    restarts: int
    stabilized: bool
    verdict: str

    def trace_lines(self) -> List[str]:
        out = [
            f"revise level {lvl} {old}->{new} at {pos}" for lvl, old, new, pos in self.trace
        ]
        out.append(f"restarts {self.restarts} stabilized {self.stabilized} verdict {self.verdict}")
        return out


def simulate_limit_machine(
    loop: LoopInstance,
    steps: Optional[int] = None,
    scan_depth: int = 24,
    budget: FuelLike = 4_000_000,
) -> SimulationResult:
    """Run an eventual-value loop by guessing each level's limit.

    Every level is assumed constant at its latest seen value; downstream
    states are computed from the guesses and thrown away whenever an
    upstream level changes its mind.  With finitely many changes the
    guesses stabilize and the final run validates like an oracle run.
    `budget` is a step count or the tank to run under.
    """
    # kept apart from LoopStates: a revised guess throws downstream states away
    steps = loop.steps if steps is None else steps
    fuel = as_fuel(budget)
    problem = get_problem(loop.base_problem)
    states = [loop.q0]
    guesses: List[list] = []  # per level: [value, scanned-upto]
    answers: List[Stream] = []
    trace = []
    restarts = 0

    def data_at(i):
        return unpair_stream(states[i])[1]

    def rebuild_from(i):
        # downstream states depend on the revised answer; the guesses and
        # scan positions stay, because the data parts a loop hands out are
        # the same streams regardless of the answers fed to its programs
        del states[i + 1 :]
        for j in range(i, len(guesses)):
            program, _ = unpair_stream(states[j])
            states.append(eval_stream(program, answers[j]))

    try:
        while True:
            while len(guesses) < steps:
                i = len(guesses)
                v = data_at(i).at(0, fuel)
                guesses.append([v, 1])
                answers.append(value_stream(v))
                program, _ = unpair_stream(states[i])
                states.append(eval_stream(program, answers[i]))
            progressed = False
            for i in range(steps):
                pos = guesses[i][1]
                if pos >= scan_depth:
                    continue
                progressed = True
                v = data_at(i).at(pos, fuel)
                guesses[i][1] = pos + 1
                if v != guesses[i][0]:
                    trace.append((i, guesses[i][0], v, pos))
                    restarts += 1
                    guesses[i][0] = v
                    answers[i] = value_stream(v)
                    rebuild_from(i)
                    break
            if not progressed:
                break
    except NeedMoreFuel:
        run = Run(states, [StepRecord(i, "guess", answers[i]) for i in range(len(answers))])
        return SimulationResult(run, trace, restarts, False, UNDETERMINED)
    records = [StepRecord(i, "guess", answers[i]) for i in range(steps)]
    run = Run(states, records)
    verdict = check_loop_run(run, loop.step_instance, problem, scan_depth)
    return SimulationResult(run, trace, restarts, True, verdict)


# ---------------------------------------------------------------------------
# shipped witnesses


def _answer_back(w: Word) -> Word:
    """Value convention for weak witnesses: pass the answer's first symbol."""
    if len(w) < 2:
        return ()
    return (w[1],) + (0,) * (len(w) // 2 - 1)


def identity_llpo_witness() -> ReductionWitness:
    K = pure_machine(lambda w: w, "K-id")
    H = pure_machine(_answer_back, "H-back")
    return ReductionWitness(
        "llpo-id", "llpo", "llpo", K, H, False, lambda inst, k_out: inst
    )


def embed_llpo_in_cn_machine() -> WordMachine:
    """Exclusions of 0 and 1 carry over; every natural above 1 is excluded."""

    def apply(w):
        out = []
        for t, s in enumerate(w):
            out.append(s if s <= 2 else 0)
            out.append(t + 3)  # symbol t+3 excludes the point t+2
        return tuple(out)

    return pure_machine(apply, "K-embed")


def c2_to_cn_witness() -> ReductionWitness:
    K = embed_llpo_in_cn_machine()
    H = pure_machine(_answer_back, "H-back")

    def translate(inst, k_out):
        return Instance("cn", inst.seed, k_out, inst.hidden)

    return ReductionWitness("c2-to-cn", "llpo", "cn", K, H, False, translate)


def llpo_to_cantor_witness() -> ReductionWitness:
    """Exclusion of a point becomes exclusion of the length-one cylinder."""
    K = pure_machine(lambda w: tuple(0 if s == 0 else s + 1 for s in w), "K-cyl")
    H = pure_machine(_answer_back, "H-bit")

    def translate(inst, k_out):
        bit = inst.hidden[1]
        return Instance("wkl", inst.seed, k_out, ("path", (bit,), (0, 0)))

    return ReductionWitness("llpo-to-cantor", "llpo", "wkl", K, H, False, translate)


def limnat_to_lim_witness() -> ReductionWitness:
    """A finitely-changing sequence of naturals as a convergent stream tuple."""

    def k_apply(w):
        out = []
        j = 0
        while True:
            n, _ = cantor_unpair(j)
            if n >= len(w):
                break
            out.append(w[n])
            j += 1
        return tuple(out)

    K = pure_machine(k_apply, "K-tuple")
    H = pure_machine(lambda w: (w[0],) + (0,) * (len(w) - 1) if w else (), "H-value")

    def translate(inst, k_out):
        v, s = inst.hidden[1], inst.hidden[2]
        commits = [(k, v, s) for k in range(40)]
        return Instance("lim", inst.seed, k_out, ("limit", (v,) * 40), {"commits": commits})

    return ReductionWitness("limn-to-lim", "limnat", "lim", K, H, True, translate)


def broken_lpo_witness() -> ReductionWitness:
    """Negative control: claims "all zero" on every input."""
    K = pure_machine(lambda w: w, "K-id")
    H = pure_machine(lambda w: (1,) + (0,) * (len(w) - 1) if w else (), "H-always-1")
    return ReductionWitness(
        "broken-lpo", "lpo", "lpo", K, H, False, lambda inst, k_out: inst
    )


def c2_cn_lift():
    return lift_reduction_to_inverse_limit(
        embed_llpo_in_cn_machine(), pure_machine(_answer_back, "H-back"), "c2-cn-loop-lift"
    )


def _translate_llpo_step_to_cn(inst: Instance, data: Stream) -> Instance:
    k_out = MachineStream(embed_llpo_in_cn_machine(), inst.public_name)
    return Instance("cn", inst.seed, k_out, inst.hidden)


def simulation_report(
    seeds: int = 100, depth: int = 24, steps: int = 5, budget: int = 4_000_000
) -> CheckReport:
    """The mind-change simulation over seeded loops, each under the seed's tank."""

    def judge(seed, tank):
        loop = limnat_loop(seed, steps)
        result = simulate_limit_machine(loop, steps, scan_depth=depth, budget=tank)
        if not result.stabilized:
            return UNDETERMINED, "budget exhausted"
        if result.verdict == REFUTED or result.restarts > loop.meta["total_changes"]:
            return REFUTED, f"restarts {result.restarts}"
        return result.verdict, f"restarts {result.restarts}"

    return run_suite("cn-loop-limsim", depth, seeds, budget, judge)


# ---------------------------------------------------------------------------
# the registry


@dataclass
class WitnessEntry:
    name: str
    kind: str
    run_check: Callable[..., CheckReport]
    describe: str = ""


@lru_cache(maxsize=1)
def witness_library() -> dict:
    """Executable witnesses by name; lookups always return the same objects.

    `run_check(seeds=..., depth=..., budget=...)` runs an entry's suite; a
    depth or per-seed budget left out keeps the suite's own default.
    """
    entries = {}

    def add(name, kind, run_check, describe):
        entries[name] = WitnessEntry(name, kind, run_check, describe)

    add(
        "llpo-id",
        "reduction",
        lambda seeds=500, **options: check_reduction(identity_llpo_witness(), seeds, **options),
        "binary choice reduced to itself by the identity witness",
    )
    add(
        "c2-to-cn",
        "reduction",
        lambda seeds=500, **options: check_reduction(c2_to_cn_witness(), seeds, **options),
        "binary choice embedded into choice on the naturals",
    )
    add(
        "llpo-to-cantor",
        "reduction",
        lambda seeds=200, **options: check_reduction(llpo_to_cantor_witness(), seeds, **options),
        "binary choice as a path choice through length-one cylinders",
    )
    add(
        "limn-to-lim",
        "reduction",
        lambda seeds=200, **options: check_reduction(limnat_to_lim_witness(), seeds, **options),
        "eventual values embedded into stream limits (strong witness)",
    )
    add(
        "c2-loop-lift",
        "nondet-loop",
        lambda seeds=200, **options: check_loop_nondet(
            nondet_lift_inverse_limit(c2_nondet_witness(), "c2-loop-lift"),
            lambda s: problem_loop("llpo", s, 5),
            seeds,
            steps=5,
            **options,
        ),
        "advice-guessing binary-choice loops: independent choice, lifted",
    )
    add(
        "c2-loop-lift-unique",
        "nondet-loop",
        lambda seeds=200, **options: check_loop_nondet(
            nondet_lift_inverse_limit(c2_nondet_witness(), "c2-loop-lift-unique", unique=True),
            lambda s: problem_loop("llpo", s, 5),
            seeds,
            steps=5,
            **options,
        ),
        "the unique-advice variant: only the witness advice is consulted",
    )
    add(
        "c2-cn-loop-lift",
        "loop-reduction",
        lambda seeds=50, **options: check_lifted_reduction(
            c2_cn_lift(),
            lambda s: problem_loop("llpo", s, 5),
            _translate_llpo_step_to_cn,
            "cn",
            seeds,
            steps=5,
            **options,
        ),
        "one-step embedding lifted to whole loops by the injective fixed point",
    )
    add(
        "cn-loop-limsim",
        "simulation",
        simulation_report,
        "eventual-value loops computed by guess-and-restart",
    )
    add(
        "broken-lpo",
        "negative-control",
        lambda seeds=100, **options: check_reduction(broken_lpo_witness(), seeds, **options),
        "claims every input is zero; refuted on the nonzero instances",
    )
    add(
        "broken-c2-nondet",
        "negative-control",
        lambda seeds=100, **options: check_nondet(
            broken_c2_nondet_witness(), "llpo", seeds, **options
        ),
        "guesses the excluded point; refuted under helpful advice",
    )
    return entries
