"""Seeded operations of the three workloads, each with its reference check.

An operation is built from (workload, seed, index) alone, outside the timed
region.  `run()` is the timed part: it calls the library through its public
functions, always looked up on the module at call time so that the traced
run's wrappers see every call, and returns what the library answered plus the
fuel spent on the benchmark's own root tanks.  `verify()` is untimed and
judges the answer against references that share no code with the library's
codec (see reference.py).  `corrupt()` damages an answer for the self-test
that shows a wrong answer is counted as a failure.

Operation kinds are cycled in a fixed order, so every window of one cycle
holds the same mix and the latency percentiles do not drift with run length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from baire import cli, machine, operators, problems, reductions, streams, transform

import reference as ref

WRONG = 10**6  # a symbol no workload ever produces


@dataclass
class Result:
    obs: tuple  # what the library answered
    fuel: int  # spent on the benchmark's own root tanks
    report_fuel: int = 0  # CheckReport.fuel_spent of checker calls
    out_bytes: int = 0  # bytes printed by in-process CLI calls


@dataclass
class Op:
    kind: str
    run: Callable[[], Result]
    verify: Callable[[tuple], tuple]  # obs -> (ok, decided)
    corrupt: Callable[[tuple], tuple]


def det(stream, depth, budget):
    """Determined prefix under a fresh root tank; returns (word, spent)."""
    tank = streams.Fuel(budget)
    return stream.determined_prefix(depth, tank), tank.spent


def plan_stream(plan):
    head, tail = plan
    return streams.PlanStream(head, ("cycle", tail) if any(tail) else ("zeros",))


def plan_word(plan, length):
    head, tail = plan
    return ref.plan_word(head, tail if any(tail) else (0,), length)


def seeded_plan(rng, length=24, bound=4):
    head = tuple(rng.randrange(bound) for _ in range(length))
    tail = tuple(rng.randrange(bound) for _ in range(1 + rng.randrange(3)))
    return head, tail


def extend_word(w):
    return w + (WRONG,)


def seal(pair):
    """Corrupt an equation: both sides get a different wrong symbol."""
    lhs, rhs = pair
    return lhs + (WRONG,), rhs + (WRONG + 1,)


# ---------------------------------------------------------------------------
# seeded raw names


def encode_block(u, v):
    return [3, *(s + 6 for s in u), 4, *(s + 6 for s in v), 5]


def raw_name(rng, spine_len, branches, max_symbols):
    """Raw name symbols for a chain along a seeded spine, plus branches.

    Spine entry j maps spine[:j] to target[:cuts[j]]; a branch leaves the
    spine at j and extends target[:cuts[j]].  Dummies are sprinkled inside
    blocks, some blocks repeat, decoys contradict an earlier spine entry
    (so the filter rejects them) and malformed fragments are mixed in.  On
    an input that follows the spine, the value is target[:cuts[-1]] unless
    max_symbols cuts the name short.
    Returns (symbols, spine, cuts).
    """
    spine = tuple(rng.randrange(4) for _ in range(spine_len))
    cuts = [0]
    for _ in range(spine_len):
        cuts.append(cuts[-1] + 1 + rng.randrange(2))
    target = tuple(rng.randrange(12) for _ in range(cuts[-1] + 8))
    blocks = [encode_block(spine[:j], target[: cuts[j]]) for j in range(spine_len + 1)]
    for _ in range(branches):
        j = rng.randrange(spine_len)
        x = rng.choice([s for s in range(4) if s != spine[j]])
        u = spine[:j] + (x,) + tuple(rng.randrange(4) for _ in range(rng.randrange(3)))
        v = target[: cuts[j]] + tuple(rng.randrange(12) for _ in range(1 + rng.randrange(5)))
        at = rng.randrange(j + 1, len(blocks) + 1)  # after the spine entry it extends
        blocks.insert(at, encode_block(u, v))
    for block in rng.sample(blocks, 2 + rng.randrange(4)):  # exact repeats, after the original
        blocks.insert(rng.randrange(blocks.index(block) + 1, len(blocks) + 1), block)
    for _ in range(3 + rng.randrange(4)):  # decoys after the entry they contradict
        j = 1 + rng.randrange(spine_len)
        wrong = tuple((s + 1) % 12 for s in target[: cuts[j]])
        pos = blocks.index(encode_block(spine[:j], target[: cuts[j]]))
        blocks.insert(rng.randrange(pos + 1, len(blocks) + 1), encode_block(spine[:j], wrong))
    # each fragment leaves the parser outside an entry, so none can join the
    # symbols after it into an entry of its own
    fragments = ([3, 7, 3, 5], [3, 6, 5], [3, 6, 4, 7, 4], [4, 9, 5], [5, 5, 8])
    for _ in range(3 + rng.randrange(4)):
        blocks.insert(rng.randrange(len(blocks) + 1), list(rng.choice(fragments)))
    symbols = [rng.choice((0, 1, 2)) for _ in range(rng.randrange(4))]
    for block in blocks:
        for sym in block:
            if rng.random() < 0.08:
                symbols.append(rng.choice((0, 1, 2)))
            symbols.append(sym)
        if len(symbols) >= max_symbols:
            break
    return tuple(symbols), spine, cuts


def spine_input(rng, spine):
    return spine, tuple(rng.randrange(4) for _ in range(1 + rng.randrange(4)))


def deviating_input(rng, spine):
    d = rng.randrange(len(spine))
    x = rng.choice([s for s in range(4) if s != spine[d]])
    head = spine[:d] + (x,) + tuple(rng.randrange(4) for _ in range(rng.randrange(6)))
    return head, tuple(rng.randrange(4) for _ in range(1 + rng.randrange(3)))


# ---------------------------------------------------------------------------
# codec: raw-name queries through the decode face


CODEC_DEPTH = 24  # output indices requested from eval_stream
CODEC_LADDER = 32  # apply_name on input prefixes of length 0..CODEC_LADDER
CODEC_FUEL = 30_000  # per-query root tank for the stream read
CODEC_FILE_FUEL = 60_000  # per-query root tank for machine-file graphs
CODEC_MAX_SYMBOLS = 9_000  # keeps every decidable query within CODEC_FUEL


class CodecOps:
    """Groups of ten queries: eight raw queries on one shared name, then two
    machine-file graphs.

    Four raw inputs are chosen (by the reference evaluator, before timing)
    so that the value reaches the requested depth and four so that it stops
    short and the query spends its whole tank; the fixed mix keeps p50 inside
    the fuel-bound raw queries and p90 inside the machine-file queries.  The
    name is a fresh PlanStream in every query, so fuel is charged per query,
    while the library's decode caches (keyed by content) see the sharing
    between the queries of a group.
    """

    kinds = ("raw_decided",) * 4 + ("raw_open",) * 4 + ("file",) * 2

    def __init__(self, seed, shared, root):
        self.seed = seed
        self._group = None

    def _name(self, g):
        if self._group is None or self._group[0] != g:
            rng = random.Random(f"codec-name:{self.seed}:{g}")
            symbols, spine, _ = raw_name(
                rng, 20 + rng.randrange(28), 10 + rng.randrange(110), CODEC_MAX_SYMBOLS
            )
            self._group = (g, symbols, spine, ref.accepted_entries(symbols))
        return self._group[1:]

    def op(self, i):
        g, slot = divmod(i, len(self.kinds))
        kind = self.kinds[slot]
        rng = random.Random(f"codec:{self.seed}:{i}")
        if kind == "file":
            return self._file_query(rng)
        symbols, spine, entries = self._name(g)
        want_long = kind == "raw_decided"
        for attempt in range(200):
            plan = spine_input(rng, spine) if attempt == 0 and want_long else deviating_input(rng, spine)
            value = ref.value_on(entries, plan_word(plan, 256))
            if (len(value) >= CODEC_DEPTH) == want_long:
                break
        return self._raw_query(kind, symbols, entries, plan, value)

    @staticmethod
    def _raw_query(kind, symbols, entries, plan, value):
        def run():
            name = streams.PlanStream(symbols, ("zeros",))
            got, spent = det(machine.eval_stream(name, plan_stream(plan)), CODEC_DEPTH, CODEC_FUEL)
            source = plan_stream(plan)
            tank = streams.Fuel(10**6)
            ladder = tuple(
                machine.apply_name(name, source.prefix(k, tank), tank)
                for k in range(CODEC_LADDER + 1)
            )
            return Result((got, ladder), spent + tank.spent)

        def verify(obs):
            got, ladder = obs
            # a short value is decided in full within CODEC_FUEL; only a value
            # reaching the depth may be cut at CODEC_DEPTH
            if len(value) >= CODEC_DEPTH:
                ok = len(got) == CODEC_DEPTH and ref.starts_with(value, got)
            else:
                ok = got == value
            for k, word in enumerate(ladder):
                want = ref.value_on(entries, plan_word(plan, k), (k + 3) * (k + 3))
                ok = ok and word == want
            return ok, len(got) == CODEC_DEPTH

        return Op(kind, run, verify, lambda obs: (extend_word(obs[0]), obs[1]))

    @staticmethod
    def _file_query(rng):
        # a small complete graph whose value on the input stops short of the
        # requested depth: the query spends its whole tank on "not yet"
        head = tuple(rng.randrange(3) for _ in range(4))
        plan = (head, (0,))
        table = []
        for j in range(4):
            u = head[:j] if rng.random() < 0.8 else head[:j] + ((head[j] + 1) % 3,)
            table.append((u, tuple(rng.randrange(9) for _ in range(1 + j + rng.randrange(2)))))
        entries = ref.accepted_entries([sym for u, v in table for sym in encode_block(u, v)])
        text = "\n".join(
            f"{' '.join(map(str, u)) or 'eps'} -> {' '.join(map(str, v)) or 'eps'}"
            for u, v in table
        )

        def run():
            name = machine.parse_machine_text(text)
            got, spent = det(machine.eval_stream(name, plan_stream(plan)), CODEC_DEPTH, CODEC_FILE_FUEL)
            return Result((got,), spent)

        def verify(obs):
            (got,) = obs
            return got == ref.value_on(entries, plan_word(plan, 16)), len(got) == CODEC_DEPTH

        return Op("file", run, verify, lambda obs: (extend_word(obs[0]),))


# ---------------------------------------------------------------------------
# transform: equations of the program transformations


def transducer(seed):
    """A seeded monotone word function on interleaved pairs (a fold)."""
    rng = random.Random(f"bench-transducer:{seed}")
    table = {  # chunks from position 7 on are nonempty, so the value is infinite
        (pos, sym): tuple(rng.randrange(10) for _ in range(rng.randrange(3) or pos // 7))
        for pos in range(8)
        for sym in range(8)
    }

    def apply(w):
        out = []
        for i, s in enumerate(w):
            out.extend(table[(min(i, 7), min(s, 7))])
        return tuple(out)

    return apply


def chain_name(rng, spine_len, branches):
    """A raw name with its reference entries and a spine-following input."""
    symbols, spine, _ = raw_name(rng, spine_len, branches, 10**9)
    return symbols, ref.accepted_entries(symbols), spine_input(rng, spine)


class TransformOps:
    """Six quick equations, then three budget-burning dummy fixed points,
    three injection round trips and three injective-recursion extractions.

    The weights put p50 in the middle of the dummy fixed points (which spend
    their whole fuel, so they time the cost of a fuel step) and p90 in the
    middle of the extractions (graph emission through MachineName and
    candidate_word), where neither moves with the few samples near a kind's
    edge.
    """

    kinds = (
        "injrec_drop",
        "quine",
        "smn",
        "fix_const",
        "inject_semantics",
        "injrec_use",
        "fix_dummy",
        "inject",
        "injrec_extract",
        "fix_dummy",
        "inject",
        "injrec_extract",
        "fix_dummy",
        "inject",
        "injrec_extract",
    )

    def __init__(self, seed, shared, root):
        self.seed = seed
        self.shared = shared

    def op(self, i):
        kind = self.kinds[i % len(self.kinds)]
        rng = random.Random(f"transform:{self.seed}:{i}")
        return getattr(self, "_" + kind)(rng)

    def _fix_const(self, rng):
        # a spine of 16 or more entries gives a value of 16 or more symbols
        symbols, entries, z = chain_name(rng, 16 + rng.randrange(8), rng.randrange(8))
        T = self.shared["T"]

        def run():
            p_name = transform.const_transformer_name(streams.PlanStream(symbols, ("zeros",)))
            fixed = T.apply(p_name)
            lhs, a = det(machine.eval_stream(fixed, plan_stream(z)), 16, 400_000)
            rhs, b = det(machine.eval_stream(machine.eval_stream(p_name, fixed), plan_stream(z)), 16, 400_000)
            return Result((lhs, rhs), a + b)

        def verify(obs):
            lhs, rhs = obs
            value = ref.value_on(entries, plan_word(z, 256))
            ok = ref.agree(lhs, rhs) >= 16 and ref.starts_with(value, lhs)
            return ok, len(lhs) == len(rhs) == 16

        return Op("fix_const", run, verify, seal)

    def _fix_dummy(self, rng):
        noise = tuple(rng.randrange(3) for _ in range(4))
        z = seeded_plan(rng)
        T = self.shared["T"]

        def run():
            p_name = transform.dummy_prefix_transformer_name(noise)
            fixed = T.apply(p_name)
            lhs, a = det(machine.eval_stream(fixed, plan_stream(z)), 16, 25_000)
            rhs, b = det(machine.eval_stream(machine.eval_stream(p_name, fixed), plan_stream(z)), 16, 25_000)
            return Result((lhs, rhs), a + b)

        def verify(obs):
            lhs, rhs = obs
            return ref.agree(lhs, rhs) >= 0, len(lhs) == len(rhs) == 16

        return Op("fix_dummy", run, verify, seal)

    def _inject(self, rng):
        # p leaves the spine at once, so U_s(p) stays empty and every stage
        # spends its whole inner budget.  The extractor reads the injected
        # output in doubling prefixes, and the number of stages that fill
        # them grows as p's symbols shrink; a tail cycling through 0, 1, 2
        # keeps that number, and so the cost, nearly the same for every p
        symbols, _, (spine, _) = chain_name(rng, 6, 0)
        head, _ = seeded_plan(rng, bound=3)
        p = ((spine[0] + 1 + rng.randrange(2)) % 3,) + head[1:], tuple(rng.sample((0, 1, 2), 3))
        inj = self.shared["inj"]

        def run():
            s = streams.PlanStream(symbols, ("zeros",))
            out = machine.eval_stream(inj.apply(s), plan_stream(p))
            got, spent = det(inj.extract(out), 64, 800_000)
            return Result((got,), spent)

        def verify(obs):
            (got,) = obs
            return len(got) >= 48 and got == plan_word(p, len(got)), len(got) == 64

        return Op("inject", run, verify, lambda obs: (extend_word(obs[0]),))

    def _inject_semantics(self, rng):
        symbols, entries, z = chain_name(rng, 16 + rng.randrange(8), rng.randrange(8))
        p = seeded_plan(rng)
        inj = self.shared["inj"]

        def run():
            s = transform.const_transformer_name(streams.PlanStream(symbols, ("zeros",)))
            lhs, a = det(
                machine.eval_stream(machine.eval_stream(inj.apply(s), plan_stream(p)), plan_stream(z)),
                16,
                400_000,
            )
            rhs, b = det(
                machine.eval_stream(machine.eval_stream(s, plan_stream(p)), plan_stream(z)), 16, 400_000
            )
            return Result((lhs, rhs), a + b)

        def verify(obs):
            lhs, rhs = obs
            value = ref.value_on(entries, plan_word(z, 256))
            ok = ref.agree(lhs, rhs) >= 6 and ref.starts_with(value, lhs) and ref.starts_with(value, rhs)
            return ok, len(lhs) == len(rhs) == 16

        return Op("inject_semantics", run, verify, seal)

    def _injrec_drop(self, rng):
        q, p = seeded_plan(rng), seeded_plan(rng)
        R1 = self.shared["R_drop"]

        def run():
            got, spent = det(machine.eval_stream(R1.apply(plan_stream(q)), plan_stream(p)), 16, 2_000_000)
            return Result((got,), spent)

        def verify(obs):
            (got,) = obs
            return len(got) >= 8 and got == plan_word(p, len(got)), len(got) == 16

        return Op("injrec_drop", run, verify, lambda obs: (extend_word(obs[0]),))

    def _injrec_extract(self, rng):
        q = seeded_plan(rng)
        R1 = self.shared["R_drop"]

        def run():
            got, spent = det(R1.extract(R1.apply(plan_stream(q))), 64, 2_000_000)
            return Result((got,), spent)

        def verify(obs):
            (got,) = obs
            return len(got) >= 48 and got == plan_word(q, len(got)), len(got) == 64

        return Op("injrec_extract", run, verify, lambda obs: (extend_word(obs[0]),))

    def _injrec_use(self, rng):
        q, p = seeded_plan(rng), seeded_plan(rng)
        R2 = self.shared["R_use"]
        use = self.shared["use"]

        def run():
            lhs, a = det(machine.eval_stream(R2.apply(plan_stream(q)), plan_stream(p)), 16, 4_000_000)
            rhs_machine = machine.WordMachine(lambda w, fuel: use(R2.name_stream, w, fuel), "rhs")
            rhs, b = det(
                machine.MachineStream(rhs_machine, streams.pair_stream(plan_stream(q), plan_stream(p))),
                16,
                4_000_000,
            )
            return Result((lhs, rhs), a + b)

        def verify(obs):
            lhs, rhs = obs
            p_word = plan_word(p, 16)
            ok = ref.agree(lhs, rhs) >= 2 and ref.starts_with(p_word, lhs[1::2])
            return ok, len(lhs) == len(rhs) == 16

        return Op("injrec_use", run, verify, seal)

    def _quine(self, rng):
        p = seeded_plan(rng)

        def run():
            q = transform.quine()
            got, a = det(machine.eval_stream(q, plan_stream(p)), 128, 400_000)
            own, b = det(q, 64, 400_000)
            return Result((got, own), a + b)

        def verify(obs):
            got, own = obs
            ok = len(got) == 128 and got == ref.interleave(own, plan_word(p, 64))
            return ok, len(got) == 128

        return Op("quine", run, verify, lambda obs: (extend_word(obs[0]), obs[1]))

    def _smn(self, rng):
        q, p = seeded_plan(rng), seeded_plan(rng)
        F = transducer(rng.randrange(10**6))

        def run():
            word_machine = machine.pure_machine(F, "transducer")
            S = transform.smn(word_machine)
            lhs, a = det(machine.eval_stream(S.apply(plan_stream(q)), plan_stream(p)), 32, 400_000)
            rhs, b = det(
                machine.MachineStream(word_machine, streams.pair_stream(plan_stream(q), plan_stream(p))),
                32,
                400_000,
            )
            return Result((lhs, rhs), a + b)

        def verify(obs):
            lhs, rhs = obs
            value = F(ref.interleave(plan_word(q, 64), plan_word(p, 64)))
            ok = ref.agree(lhs, rhs) >= 16 and ref.starts_with(value, lhs) and ref.starts_with(value, rhs)
            return ok, len(lhs) == len(rhs) == 32

        return Op("smn", run, verify, seal)


# ---------------------------------------------------------------------------
# check: reduction suites, loop operators and CLI replays


SOUND_REDUCTIONS = (
    "identity_llpo_witness",
    "c2_to_cn_witness",
    "llpo_to_cantor_witness",
    "limnat_to_lim_witness",
)

GOLDEN = (
    (("check", "llpo-id", "--seeds", "5"), "check_llpo_id_5.txt"),
    (("loop", "diamond", "tests/golden/count3.loop"), "diamond_count3.txt"),
    (("--depth", "32", "transform", "quine", "--verify"), "quine_verify_32.txt"),
)


def verdicts(report):
    return tuple((seed, verdict) for seed, verdict, _ in report.records)


def flip(obs):
    """Corrupt a verdict tuple: the first verdict turns into its opposite."""
    (seed, verdict), *rest = obs[0]
    other = problems.CONSISTENT if verdict == problems.REFUTED else problems.REFUTED
    return (((seed, other), *rest),) + obs[1:]


class CheckOps:
    """Six quick checker and operator calls, six CLI golden replays, and two
    loop-level checks (lifted nondeterminism and the lifted reduction).

    The weights keep p50 inside the CLI replays and p90 inside the
    loop-level checks.
    """

    kinds = (
        "diamond",
        "cli",
        "reduction",
        "cli",
        "inverse_limit",
        "cli",
        "nondet",
        "loop_nondet",
        "limsim",
        "cli",
        "omega",
        "cli",
        "lifted",
        "cli",
    )

    def __init__(self, seed, shared, root):
        self.seed = seed
        self.root = Path(root)
        self.golden = [(argv, (self.root / "tests" / "golden" / f).read_text()) for argv, f in GOLDEN]

    def op(self, i):
        cycle, slot = divmod(i, len(self.kinds))
        rng = random.Random(f"check:{self.seed}:{i}")
        offset = self.seed * 100_003 + i  # loop instances offset by the workload seed
        return getattr(self, "_" + self.kinds[slot])(rng, cycle, offset, i)

    def _reduction(self, rng, cycle, offset, i):
        choice = cycle % (len(SOUND_REDUCTIONS) + 1)
        seeds = 1 + rng.randrange(8)
        if choice < len(SOUND_REDUCTIONS):
            make = getattr(reductions, SOUND_REDUCTIONS[choice])

            def expected(seed):
                return problems.CONSISTENT

        else:
            make = reductions.broken_lpo_witness

            def expected(seed):  # the negative control must refute nonzero inputs
                inst = problems.get_problem("lpo").generate(seed)
                nonzero = any(inst.public_name.prefix(32))
                return problems.REFUTED if nonzero else problems.CONSISTENT

        def run():
            report = reductions.check_reduction(make(), seeds=seeds)
            return Result((verdicts(report),), 0, report_fuel=report.fuel_spent)

        return Op("reduction", run, _expect(seeds, expected), flip)

    def _nondet(self, rng, cycle, offset, i):
        broken = cycle % 2 == 1
        seeds = 1 + rng.randrange(6)
        if broken:
            make = reductions.broken_c2_nondet_witness

            def expected(seed):  # refuted exactly where an exclusion is visible
                inst = problems.get_problem("llpo").generate(seed)
                return problems.REFUTED if any(inst.public_name.prefix(12)) else problems.CONSISTENT

        else:
            make = reductions.c2_nondet_witness

            def expected(seed):
                return problems.CONSISTENT

        def run():
            report = reductions.check_nondet(make(), "llpo", seeds=seeds)
            return Result((verdicts(report),), 0, report_fuel=report.fuel_spent)

        return Op("nondet", run, _expect(seeds, expected), flip)

    def _loop_nondet(self, rng, cycle, offset, i):
        unique = cycle % 2 == 1

        def run():
            lifted = reductions.nondet_lift_inverse_limit(
                reductions.c2_nondet_witness(), "c2-loop-lift", unique=unique
            )
            report = reductions.check_loop_nondet(
                lifted,
                lambda s: operators.problem_loop("llpo", offset + s, 5),
                seeds=1,
                steps=5,
                adversarial=0 if unique else 2,
            )
            return Result((verdicts(report),), 0, report_fuel=report.fuel_spent)

        return Op("loop_nondet", run, _expect(1, lambda s: problems.CONSISTENT), flip)

    def _lifted(self, rng, cycle, offset, i):
        def run():
            report = reductions.check_lifted_reduction(
                reductions.c2_cn_lift(),
                lambda s: operators.problem_loop("llpo", offset + s, 5),
                reductions._translate_llpo_step_to_cn,
                "cn",
                seeds=1,
                depth=5,
                steps=5,
            )
            return Result((verdicts(report),), 0, report_fuel=report.fuel_spent)

        return Op("lifted", run, _expect(1, lambda s: problems.CONSISTENT), flip)

    def _limsim(self, rng, cycle, offset, i):
        def run():
            loop = operators.limnat_loop(offset, 5)
            result = reductions.simulate_limit_machine(loop, 5)
            final, spent = det(result.run.states[-1], 12, 400_000)
            summary = (result.stabilized, result.restarts, loop.meta["total_changes"])
            return Result(((result.verdict,), summary, final), spent)

        def verify(obs):
            (verdict,), (stabilized, restarts, budget), final = obs
            ok = verdict == problems.CONSISTENT and stabilized and restarts <= budget and len(final) == 12
            return ok, verdict != problems.UNDETERMINED

        def corrupt(obs):
            return ((problems.REFUTED,),) + obs[1:]

        return Op("limsim", run, verify, corrupt)

    def _diamond(self, rng, cycle, offset, i):
        n = 1 + rng.randrange(6)

        def run():
            loop = operators.countdown_loop(n, offset)
            answer, run_, cls = operators.diamond(loop.oracle, loop.q0, 8)
            head, spent = det(answer, 4, 400_000) if answer is not None else ((), 0)
            return Result((str(cls), head), spent)

        def verify(obs):
            cls, head = obs
            return cls == f"successful({n})" and head[:1] == (0,), cls.startswith("successful")

        return Op("diamond", run, verify, lambda obs: ("stalled(0)", obs[1]))

    def _inverse_limit(self, rng, cycle, offset, i):
        steps = 5

        def run():
            loop = operators.problem_loop("llpo", offset, steps + 1)
            out, handle = operators.inverse_limit(loop.oracle, loop.q0)
            run_ = handle.run(steps)
            checks = tuple(operators.validate_run(run_, loop.oracle, depth=8))
            cls = str(operators.classify_run(run_))
            tank = streams.Fuel(10**6)
            same = tuple(
                streams.project(out, i).determined_prefix(8, tank)
                == run_.states[i].determined_prefix(8, tank)
                for i in range(steps + 1)
            )
            return Result((checks, cls, same), tank.spent)

        def verify(obs):
            checks, cls, same = obs
            ok = (
                checks == (problems.CONSISTENT,) * steps
                and cls == f"undetermined [no-success-through-{steps}]"
                and all(same)
            )
            return ok, problems.UNDETERMINED not in checks

        def corrupt(obs):
            return ((problems.REFUTED,) + obs[0][1:],) + obs[1:]

        return Op("inverse_limit", run, verify, corrupt)

    def _omega(self, rng, cycle, offset, i):
        powers = 6

        def run():
            loop = operators.problem_loop("llpo", offset, 10)
            out = operators.omega(loop.oracle, loop.q0)
            tank = streams.Fuel(10**6)
            pairs = []
            for n in range(powers):
                fresh = operators.problem_loop("llpo", offset, 10)
                want, _ = operators.power_n(fresh.oracle, n, fresh.q0)
                pairs.append(
                    (streams.project(out, n).determined_prefix(16, tank), want.determined_prefix(16, tank))
                )
            return Result((tuple(pairs),), tank.spent)

        def verify(obs):
            (pairs,) = obs
            ok = all(len(a) == 16 and a == b for a, b in pairs)
            return ok, ok

        def corrupt(obs):
            (a, b), *rest = obs[0]
            return (((extend_word(a), b), *rest),)

        return Op("omega", run, verify, corrupt)

    def _cli(self, rng, cycle, offset, i):
        argv, golden = self.golden[i % len(self.golden)]
        argv = list(argv)
        if argv[0] == "loop":
            argv[2] = str(self.root / argv[2])

        def run():
            out = _Capture()
            code = cli.main(argv, out=out)
            text = "".join(out.parts)
            return Result((code, text), 0, out_bytes=len(text.encode()))

        def verify(obs):
            code, text = obs
            return code == 0 and text == golden, code == 0

        return Op("cli", run, verify, lambda obs: (obs[0], obs[1] + "x"))


def _expect(seeds, expected):
    def verify(obs):
        got = obs[0]
        want = tuple((s, expected(s)) for s in range(seeds))
        return got == want, all(v != problems.UNDETERMINED for _, v in got)

    return verify


class _Capture:
    """Minimal text sink for cli.main: keeps what was written."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


WORKLOADS = {"codec": CodecOps, "transform": TransformOps, "check": CheckOps}
