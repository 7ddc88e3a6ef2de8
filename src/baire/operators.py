"""Loop operators on problems: iterated universal steps over Baire space.

A loop state is a pair <program, data>.  One step answers the problem on
the data part and runs the program (a name) on the answer, producing the
next state; the state's first symbol is the success flag read by the
while-loop classifier (0 = done).  The operators here package that step:

    parallelize      countably many independent instances at once
    comp_product     one use of g, a universal step, then one use of f
    power_n          exactly n chained uses
    star             n chosen by the input's first symbol
    omega            all powers at once, on a shared input
    diamond          iterate until the success flag drops to 0
    inverse_limit    iterate forever, streaming every intermediate state

The inverse limit is the loop that calls one fixed step forever, and the
finite operators are prefixes or short chains of that same step, so each
job has one implementation: `LoopStates` is the one loop driver,
`_chain_uses` is the one use-chain (comp_product and power_n), and
`chain_program` is the one program-chain builder.  run_loop, diamond,
inverse_limit and parallel_inverse_limit read their states off
`LoopStates`, and so do the constructions comparing the inverse limit with
the other operators: run_lifted_loop, omega_via_inverse_limit and
diamond_via_inverse_limit run the loop once and map its states.  Two
drivers are kept apart: `omega`, because every power runs its own chain
on the shared input, and `reductions.simulate_limit_machine`, because a
revised guess throws the downstream states away.

Runs carry provenance (which step answered what) and are classified as
successful / stalled / undetermined at an explicit budget; the generic
validator re-derives every step through the machine or decode face of the
program, so structured shortcuts stay honest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .machine import (
    MachineName,
    MachineStream,
    WordMachine,
    apply_name,
    eval_name,
    eval_stream,
    generic_universal,
    memoized_machine,
)
from .problems import (
    CONSISTENT,
    Instance,
    REFUTED,
    UNDETERMINED,
    get_problem,
    get_realizer,
)
from .streams import (
    EvenView,
    Fuel,
    FuelLike,
    NeedMoreFuel,
    OddView,
    PlanStream,
    ShiftStream,
    Stream,
    Word,
    ZEROS,
    as_stream,
    cantor_pair,
    cantor_unpair,
    even_part,
    interleave_word,
    odd_part,
    pair_stream,
    tuple_countable,
    unpair_stream,
)
from .transform import injective_recursion

# head-flag guard: the symbol after the flag terminates any entry a flag
# value of 3 would accidentally begin, so flags never disturb decoding
FLAG_GUARD = 5


def flag_head(flag: int) -> Word:
    return (flag, FLAG_GUARD)


# ---------------------------------------------------------------------------
# step oracles and programs


@dataclass
class StepOracle:
    """Answers the loop's problem at each step (may read hidden witnesses)."""

    label: str
    answer: Callable[[Stream, int], Stream]
    instance_at: Optional[Callable[[int], Instance]] = None


def oracle_for(problem_name: str, instances: Callable[[int], Instance]) -> StepOracle:
    """Step oracle solving per-step instances i -> Instance (memoized here)."""
    realizer = get_realizer(problem_name)
    memo = {}

    def instance_at(i):
        if i not in memo:
            memo[i] = instances(i)
        return memo[i]

    return StepOracle(
        problem_name, lambda data, i: realizer.solve(instance_at(i)), instance_at
    )


def identity_oracle() -> StepOracle:
    return StepOracle("id", lambda data, i: data)


def machine_oracle(machine: WordMachine) -> StepOracle:
    """Single-valued step: apply a fixed name-level machine to the data."""
    return StepOracle(
        f"machine:{machine.label}", lambda data, i: MachineStream(machine, data)
    )


class ProgramName(MachineName):
    """A loop program as a name: maps an answer y to <next program, data'>.

    `next_program(answer_head)` builds the successor lazily; programs whose
    successor embeds the answer (dummy padding provenance) receive its
    first symbol, others ignore it.  `data_word(y_prefix, fuel)` is the
    monotone word-level approximation of `data(y)`, which is what the raw
    and machine faces emit; the structured transformer face returns the
    real pair so loop running stays linear.  The head is the flag followed
    by `pad`, dummy symbols the decoder skips.
    """

    def __init__(
        self,
        flag: int,
        next_program: Callable[[Optional[int]], "ProgramName"],
        data: Callable[[Stream], Stream],
        data_word: Callable[[Word, Fuel], Word],
        label: str = "prog",
        pad: Word = (),
    ):
        self.flag = flag
        self._next_program = next_program
        self._data = data
        self._data_word = data_word
        # the raw face calls _apply directly: going through the memo would
        # skip the ticks a fresh block costs
        super().__init__(
            memoized_machine(self._apply, label),
            flag_head(flag) + pad,
            label,
            raw_apply=self._apply,
        )
        self.transformer = self.step

    # faces ---------------------------------------------------------------

    def step(self, answer) -> Stream:
        answer = as_stream(answer)
        head = None
        if self._successor_reads_answer():
            head = answer.at(0)
        return pair_stream(self._next_program(head), self._data(answer))

    def _successor_reads_answer(self) -> bool:
        return getattr(self._next_program, "reads_answer", False)

    def _apply(self, y: Word, fuel: Fuel) -> Word:
        head = None
        if self._successor_reads_answer():
            if not y:
                return ()
            head = y[0]
        successor = self._next_program(head)
        left = successor.prefix(len(y), fuel)
        return interleave_word(left, self._data_word(y, fuel))


def chain_program(
    flags,
    data_streams: Optional[Callable[[int], Stream]] = None,
    label: str = "chain",
    pad_answers: bool = False,
) -> ProgramName:
    """The one program-chain builder: level i signals flags[i] and hands out
    data_streams(i+1), or the answer itself when `data_streams` is None.

    Levels beyond the given flags keep the last flag.  With `pad_answers`,
    each successor's head carries the previous answer in a dummy block
    (1, 0^value, 1), so states depend on answers without changing what any
    program means.
    """
    flags = list(flags)
    memo = {}

    def level(i: int, pad: Word = ()) -> ProgramName:
        key = (i, pad)
        if key in memo:
            return memo[key]

        def next_program(head):
            extra = (1,) + (0,) * head + (1,) if head is not None else ()
            return level(i + 1, extra)

        next_program.reads_answer = pad_answers
        if data_streams is None:
            data, data_word = (lambda answer: answer), (lambda y, fuel: y)
        else:
            data = lambda answer: data_streams(i + 1)
            data_word = lambda y, fuel: data_streams(i + 1).prefix(len(y), fuel)
        flag = flags[min(i, len(flags) - 1)]
        memo[key] = ProgramName(flag, next_program, data, data_word, f"{label}[{i}]", pad)
        return memo[key]

    return level(0)


def pass_through_program(flags, label: str = "pass") -> ProgramName:
    """Program chain whose data part is the answer itself."""
    return chain_program(flags, None, label)


def countdown_program(n: int) -> ProgramName:
    """Heads count n, n-1, ..., 0; data passes the answers through."""
    return pass_through_program(list(range(n, -1, -1)) + [0], label=f"count{n}")


# ---------------------------------------------------------------------------
# runs


@dataclass
class StepRecord:
    index: int
    oracle: str
    answer: Optional[Stream] = None


@dataclass
class Run:
    states: List[Stream]
    records: List[StepRecord] = field(default_factory=list)

    def trace_lines(self, budget: int = 50_000, depth: int = 8) -> List[str]:
        lines = []
        for i, state in enumerate(self.states):
            det = state.determined_prefix(depth, Fuel(budget))
            head = det[0] if det else "?"
            calls = sum(1 for r in self.records if r.index < i)
            lines.append(f"step {i} head {head} determined {len(det)} calls {calls}")
        return lines


@dataclass
class RunClass:
    kind: str  # successful | stalled | undetermined
    index: Optional[int] = None
    note: str = ""

    def __str__(self):
        if self.kind in ("successful", "stalled"):
            return f"{self.kind}({self.index})"
        return self.kind + (f" [{self.note}]" if self.note else "")


def loop_step(state: Stream, oracle: StepOracle, i: int) -> tuple:
    program, data = unpair_stream(state)
    answer = oracle.answer(data, i)
    nxt = eval_stream(program, answer)
    return nxt, StepRecord(i, oracle.label, answer)


def run_loop(q0: Stream, oracle: StepOracle, steps: int) -> Run:
    return LoopStates(q0, oracle).run(steps)


def classify_run(run: Run, budget: int = 100_000) -> RunClass:
    """Apply the success/stall tests to a run at a step budget.

    Success needs the first 0 head after uniformly nonzero ones.  A stall
    is reported only when a state's program provably cannot produce (its
    graph is complete and nothing applies); anything else unresolved stays
    undetermined, with a note recording how far success was excluded.
    """
    for i, state in enumerate(run.states):
        try:
            head = state.at(0, Fuel(budget))
        except NeedMoreFuel:
            if _provably_stalled(state, budget):
                return RunClass("stalled", i)
            return RunClass("undetermined", None, f"head {i} unresolved at budget")
        if head == 0:
            return RunClass("successful", i)
        if _provably_stalled(state, budget):
            return RunClass("stalled", i)
    k = len(run.states) - 1
    return RunClass("undetermined", None, f"no-success-through-{k}")


def _provably_stalled(state: Stream, budget: int) -> bool:
    program, data = unpair_stream(state)
    if not getattr(program, "graph_complete", False):
        return False
    entries = getattr(program, "entries", None) or []
    if not entries:
        return True
    fuel = Fuel(budget)
    for u, v in entries:
        got = data.determined_prefix(len(u), fuel)
        if u[: len(got)] == got:
            return False  # this entry may still apply
    return True


def check_step(
    got: Stream, want: Stream, depth: int, got_fuel: Fuel, want_fuel: Fuel
) -> tuple:
    """The one step validator: a state against its re-derivation.

    Compares the prefixes of `got` and `want` determined within `depth`
    symbols under the given tanks (which may be one shared tank) and
    returns (verdict, number of symbols compared).  Disagreement on the
    common part refutes; agreement on nothing leaves the step undetermined.
    """
    a = got.determined_prefix(depth, got_fuel)
    b = want.determined_prefix(depth, want_fuel)
    short = min(len(a), len(b))
    if a[:short] != b[:short]:
        return REFUTED, short
    return (CONSISTENT if short else UNDETERMINED), short


def validate_run(run: Run, oracle: StepOracle, depth: int = 8) -> List[str]:
    """Step-wise verdicts: does each state match a generic re-derivation?"""
    verdicts = []
    for i in range(len(run.states) - 1):
        program, data = unpair_stream(run.states[i])
        expected = generic_universal(program, oracle.answer(data, i))
        verdict, _ = check_step(
            run.states[i + 1], expected, depth, Fuel(400_000), Fuel(400_000)
        )
        verdicts.append(verdict)
    return verdicts


# ---------------------------------------------------------------------------
# the operators


def parallelize(solve: Callable[[Instance], Stream], instances) -> Stream:
    """Solve countably many instances at once, output tuple-coded.

    `instances` is a function i -> Instance (or a sequence, cycled);
    component i of the output solves instance i, computed lazily as tuple
    positions are read.
    """
    if not callable(instances):
        table = list(instances)
        instances = lambda i: table[i % len(table)]
    return tuple_countable(lambda i: solve(instances(i)))


def _chain_uses(oracles, state: Stream):
    """The one use-chain: answer with the first oracle, then one universal
    step before each later use.

    Returns (<last program, last answer>, records); no oracles leave the
    state as it is.
    """
    records = []
    for i, oracle in enumerate(oracles):
        program, data = unpair_stream(eval_stream(program, answer) if i else state)
        answer = oracle.answer(data, i)
        records.append(StepRecord(i, oracle.label))
    if not records:
        return state, records
    return pair_stream(program, answer), records


def comp_product(f_oracle: StepOracle, g_oracle: StepOracle, state: Stream):
    """One use of g, one universal step, one use of f: the composite answer.

    Returns (output state <program', f-answer>, records).
    """
    return _chain_uses((g_oracle, f_oracle), state)


def power_n(oracle: StepOracle, n: int, state: Stream):
    """Exactly n chained uses of the problem (no universal step before the
    first use, one between consecutive uses)."""
    return _chain_uses((oracle,) * n, state)


class TaggedStream(Stream):
    """Coproduct coding: the first symbol tags, the rest is the payload."""

    def __init__(self, tag: int, payload: Stream):
        self.tag = tag
        self.payload = payload

    def at(self, n: int, fuel: FuelLike = None) -> int:
        if n == 0:
            return self.tag
        return self.payload.at(n - 1, fuel)


def star(oracle: StepOracle, tagged_input: Stream):
    """Dispatch on the input's first symbol: n, then the payload state."""
    n = tagged_input.at(0)
    if isinstance(tagged_input, TaggedStream):
        payload = tagged_input.payload
    else:
        payload = ShiftStream(tagged_input, 1)
    return power_n(oracle, n, payload)


def omega(oracle: StepOracle, state: Stream) -> Stream:
    """All powers on a shared input, tuple-coded: component n is power n."""
    # kept apart from LoopStates: omega answers each power independently,
    # so every component runs its own chain
    return tuple_countable(lambda n: power_n(oracle, n, state)[0])


def diamond(oracle: StepOracle, q0: Stream, step_ceiling: int = 8, budget: int = 200_000):
    """Iterate until the success flag hits 0; return (answer, run, class).

    State i+1 is built only after head i reads nonzero.
    """
    loop = LoopStates(q0, oracle)
    for i in range(step_ceiling + 1):
        try:
            head = loop.state(i).at(0, Fuel(budget))
        except NeedMoreFuel:
            break
        if head == 0:
            return loop.state(i), loop.run(i), RunClass("successful", i)
    run = loop.run(len(loop.states) - 1)
    return None, run, classify_run(run, budget)


class LoopStates:
    """The one loop driver: the lazily extended state sequence of a loop.

    State i+1 is `loop_step` of state i, computed on first demand; `run`
    freezes a finite prefix with its step records.
    """

    def __init__(self, q0: Stream, oracle: StepOracle):
        self.states = [q0]
        self.records: List[StepRecord] = []
        self.oracle = oracle

    def state(self, i: int) -> Stream:
        while len(self.states) <= i:
            nxt, rec = loop_step(self.states[-1], self.oracle, len(self.states) - 1)
            self.states.append(nxt)
            self.records.append(rec)
        return self.states[i]

    def run(self, steps: int) -> Run:
        self.state(steps)
        return Run(self.states[: steps + 1], self.records[:steps])


def inverse_limit(oracle: StepOracle, q0: Stream):
    """The stream of all loop states, tuple-coded; component i is state i.

    Returns (output stream, LoopStates handle for traces and validation).
    """
    loop = LoopStates(q0, oracle)
    return tuple_countable(loop.state), loop


# ---------------------------------------------------------------------------
# seeded loop instances


@dataclass
class LoopInstance:
    """A concrete loop: initial state, a step oracle, and a horizon."""

    base_problem: str
    seed: int
    q0: Stream
    oracle: StepOracle
    steps: int
    meta: dict = field(default_factory=dict)

    def step_instance(self, i: int) -> Instance:
        return self.oracle.instance_at(i)

    @property
    def public_name(self) -> Stream:
        return self.q0


def problem_loop(problem_name: str, seed: int, steps: int) -> LoopInstance:
    """Loop whose step inputs are seeded instances of a named problem.

    The program chain embeds the instances' public names as successive data
    parts, so the oracle's per-step instances line up with what the loop
    actually feeds it.
    """
    problem = get_problem(problem_name)
    oracle = oracle_for(problem_name, lambda i: problem.generate(seed * 1009 + i))
    program = chain_program(
        [1], lambda i: oracle.instance_at(i).public_name, label=f"{problem_name}-loop"
    )
    q0 = pair_stream(program, oracle.instance_at(0).public_name)
    return LoopInstance(problem_name, seed, q0, oracle, steps)


def countdown_loop(n: int, seed: int = 0) -> LoopInstance:
    """Pass-through loop whose heads count down from n; answers echo data."""
    rng_head = tuple((seed + i) % 3 for i in range(6))
    program = countdown_program(n)
    q0 = pair_stream(program, PlanStream(rng_head, ("zeros",)))
    return LoopInstance("id", seed, q0, identity_oracle(), max(n + 1, 1))


def make_limnat_instance(seed: int, changes: int) -> Instance:
    """Eventual-value instance with an exact number of value changes."""
    rng = random.Random(f"limnat-loop:{seed}")
    head = []
    value = rng.randrange(5)
    for _ in range(changes):
        head.extend([value] * (1 + rng.randrange(3)))
        value = rng.randrange(5)
    stable_from = len(head)
    head.append(value)
    plan = PlanStream(tuple(head), ("cycle", (value,)))
    spec = {"plan": plan, "commits": [(0, value, stable_from)]}
    return Instance("limnat", seed, plan, ("value", value, stable_from), spec)


def limnat_loop(seed: int, steps: int) -> LoopInstance:
    """Loop of eventual-value steps with a bounded total mind-change count.

    Data parts are fixed by the generator (so the change budget is exact);
    the programs still absorb each answer into the successor's dummy
    padding, so downstream states depend on upstream answers and a revised
    guess genuinely invalidates them.
    """
    rng = random.Random(f"limnat-budget:{seed}")
    total = rng.randrange(4)  # at most 3 mind changes in all
    per_level = [0] * steps
    for _ in range(total):
        per_level[rng.randrange(steps)] += 1
    oracle = oracle_for(
        "limnat",
        lambda i: make_limnat_instance(
            seed * 601 + i, per_level[i] if i < steps else 0
        ),
    )
    program = chain_program(
        [1],
        lambda i: oracle.instance_at(i).public_name,
        label="limnat-loop",
        pad_answers=True,
    )
    q0 = pair_stream(program, oracle.instance_at(0).public_name)
    meta = {"total_changes": total, "per_level": per_level}
    return LoopInstance("limnat", seed, q0, oracle, steps, meta)


# ---------------------------------------------------------------------------
# lifting a reduction to inverse limits


@dataclass
class LiftedReduction:
    """Strong witness pair for the loop-to-loop reduction.

    K1 is a computable injection building the translated loop's program
    from the original state; k_map sends an original state to its
    translated state, and h1 (the injection's extractor) recovers the
    original state from a translated program part.
    """

    k_machine: WordMachine
    h_machine: WordMachine
    injection: object  # InjectiveRecursion
    label: str = "lifted"

    def k1(self, state: Stream) -> Stream:
        return self.injection.apply(state)

    def k_map(self, state: Stream) -> Stream:
        _, data = unpair_stream(state)
        return pair_stream(self.k1(state), MachineStream(self.k_machine, data))

    def h1(self, program_part: Stream) -> Stream:
        return self.injection.extract(program_part)

    def answer_back(self, data_part: Stream, g_answer: Stream) -> Stream:
        return MachineStream(self.h_machine, pair_stream(data_part, g_answer))


def lift_reduction_to_inverse_limit(
    k_machine: WordMachine, h_machine: WordMachine, label: str = "lifted"
) -> LiftedReduction:
    """Turn a one-step reduction witness (K, H) into a loop-level one.

    The lifted program name is the injective fixed point R satisfying, on
    every determined index,

        U_{R(x)}(r) = < R(x'), K(data(x')) >  where x' = U_{prog(x)}(H<data(x), r>)

    so running the translated loop with any solver of the target problem
    simulates the original loop step for step, and the extractor recovers
    the original states from the translated programs.
    """
    def lifted_step(r_name, x, fuel):
        qp, r = even_part(x), odd_part(x)
        q_pfx, p_pfx = even_part(qp), odd_part(qp)
        h_val = h_machine.apply(interleave_word(p_pfx, r), fuel)
        z = eval_name(q_pfx, h_val)
        k1z = apply_name(r_name, z, fuel)
        k2z = k_machine.apply(odd_part(z), fuel)
        return interleave_word(k1z, k2z)

    R = injective_recursion(lifted_step, label)
    return LiftedReduction(k_machine, h_machine, R, label)


def run_lifted_loop(
    lift: LiftedReduction,
    f_loop: LoopInstance,
    g_answer: Callable[[Stream, int], Stream],
    steps: int,
):
    """Run the original loop on answers pulled back from the target problem,
    and translate every state.

    Step i hands the translated data K(data) to `g_answer` and brings its
    answer back through H.  Returns (translated run, original states);
    validation compares the translated states against the generic face and
    the extracted originals against the reference run.
    """

    def answer(data, i):
        return lift.answer_back(data, g_answer(MachineStream(lift.k_machine, data), i))

    run = LoopStates(f_loop.q0, StepOracle(lift.label, answer)).run(steps)
    return Run([lift.k_map(x) for x in run.states], run.records), run.states


# ---------------------------------------------------------------------------
# single-valued equivalences between omega and the inverse limit


def infty_states_from_omega(step_machine: WordMachine, q0: Stream, steps: int):
    """Recover the loop states from the power components (single-valued).

    State 0 is the input; state i+0 for i >= 1 is the universal step applied
    to power component i.  Checked against the direct run by the tests.
    """
    oracle = machine_oracle(step_machine)
    states = [q0]
    for n in range(1, steps + 1):
        comp, _ = power_n(oracle, n, q0)
        program, answer = unpair_stream(comp)
        states.append(eval_stream(program, answer))
    return states


def omega_via_inverse_limit(step_machine: WordMachine, q0: Stream, steps: int):
    """Run one loop whose program tags itself with every power's value.

    The program for state i+1 is R(<tag, q>) where the tag is the pair
    <program i, answer i>; extracting a translated program therefore yields
    the power on its even positions.  Returns (translated run, power), where
    power(n) is component n of the omega output read off that run.
    """

    def tagging_step(r_name, xr, fuel):
        x, r = even_part(xr), odd_part(xr)
        q = odd_part(x)
        z = eval_name(q, r)
        a, b = even_part(z), odd_part(z)
        tag = interleave_word(q, r)
        k1a = apply_name(r_name, interleave_word(tag, a), fuel)
        return interleave_word(k1a, b)

    R = injective_recursion(tagging_step, "omega-tag")
    run = LoopStates(q0, machine_oracle(step_machine)).run(steps)
    parts = [unpair_stream(x) for x in run.states]
    tags = [pair_stream(ZEROS, ZEROS)]
    tags += [pair_stream(program, rec.answer) for (program, _), rec in zip(parts, run.records)]
    states = [
        pair_stream(R.apply(pair_stream(tag, program)), data)
        for tag, (program, data) in zip(tags, parts)
    ]
    translated = Run(states, run.records)

    def power(n: int) -> Stream:
        program, data = unpair_stream(translated.states[n])
        x = R.extract(program)
        return pair_stream(OddView(x), data) if n == 0 else EvenView(x)

    return translated, power


# ---------------------------------------------------------------------------
# parallelization through one inverse limit


def parallel_inverse_limit(loops: list, big_steps: int):
    """Drive many loops through one: big step t is step n of loop i, t=<i,n>.

    Returns the per-loop state handles and the applied schedule; every
    component's steps happen in order because the pairing is monotone in n
    for fixed i.
    """
    runners = [LoopStates(li.q0, li.oracle) for li in loops]
    schedule = []
    for t in range(big_steps):
        i, n = cantor_unpair(t)
        if i < len(runners):
            runners[i].state(n + 1)
            schedule.append((t, i, n))
    return runners, schedule


# ---------------------------------------------------------------------------
# while loops through infinite loops (pointed problems)


def diamond_via_inverse_limit(loop: LoopInstance, designated: Instance, step_ceiling: int = 8):
    """Solve the while-loop through the infinite loop, padding after success.

    Runs the loop until the success flag drops, then keeps the run infinite
    by repeating the designated (computable) instance under a program with
    flag 0 forever; the first 0-headed component of the resulting state
    stream is the while-loop's answer.  Returns (answer state, run, index of
    the first padded state); a loop that does not succeed within the ceiling
    returns diamond's own run with no answer and no padding.
    """
    answer, run, cls = diamond(loop.oracle, loop.q0, step_ceiling, 200_000)
    if answer is None:
        return None, run, None
    point = designated.public_name
    pad = ProgramName(
        0, lambda head: pad, lambda a: point, lambda y, fuel: point.prefix(len(y), fuel), "pad"
    )
    padded = pair_stream(pad, point)
    success = cls.index
    states = run.states + [padded] * (step_ceiling + 1 - success)
    records = run.records + [StepRecord(i, "designated") for i in range(success, step_ceiling + 1)]
    return answer, Run(states, records), success + 1


def first_success_machine(ceiling: int) -> WordMachine:
    """Word machine on tuple-coded run prefixes finding the first 0 head.

    Emits the symbols of the first component whose head is 0, once every
    earlier head is determined and nonzero; total and monotone because a
    found head never changes.
    """

    def apply(w, fuel):
        chosen = None
        for i in range(ceiling + 1):
            pos = cantor_pair(i, 0)
            if pos >= len(w):
                return ()
            if w[pos] == 0:
                chosen = i
                break
        if chosen is None:
            return ()
        out = []
        for k in range(len(w)):
            pos = cantor_pair(chosen, k)
            if pos >= len(w):
                break
            out.append(w[pos])
        return tuple(out)

    return WordMachine(apply, f"first-success<={ceiling}")
