"""Standard problems as instance generators, checkers, and oracle realizers.

A problem instance carries a public name (what a solver may read) and a
hidden witness (the generator's secret: the true limit, a valid choice, an
infinite path).  Oracle realizers may read the witness, which is how
non-computable problems get executable solvers; checkers never touch it,
so a checker verdict is evidence about the public data alone.

Verdicts are three-valued.  REFUTED is conclusive and absorbing: once a
solution prefix contradicts the public data at some depth it stays
contradicted.  CONSISTENT means everything checkable at this depth agrees;
UNDETERMINED means there was nothing to check yet.

Conventions fixed here and used everywhere else:

* discrete values ride in the output stream's first symbol, the rest is 0;
* negative information: symbol 0 is padding, symbol n+1 excludes code n;
* a binary word w names the cylinder with code (1w read in binary) - 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .machine import parse_word_text
from .streams import (
    FuelLike,
    FunctionStream,
    PlanStream,
    Stream,
    Word,
    as_fuel,
    is_prefix,
    tuple_countable,
)

CONSISTENT = "consistent"
REFUTED = "refuted"
UNDETERMINED = "undetermined"


@dataclass
class Instance:
    problem: str
    seed: int
    public_name: Stream
    hidden: tuple  # witness data; only generators and oracle realizers read it
    public_spec: dict = field(default_factory=dict)  # "commits", for the lim checkers


@dataclass
class Problem:
    name: str
    generate: Callable[[int], Instance]
    check_solution: Callable[..., str]  # (instance, output, depth, fuel): reads go on fuel


@dataclass
class OracleRealizer:
    problem: str
    solve: Callable[[Instance], Stream]


def value_stream(v: int) -> PlanStream:
    """First-symbol encoding of a discrete value."""
    return PlanStream((v,), ("zeros",))


def realizer_value(problem: str) -> OracleRealizer:
    """The realizer of a problem whose witness is a value: its first-symbol
    encoding (`value_stream`)."""
    return OracleRealizer(problem, lambda inst: value_stream(inst.hidden[1]))


def _rng(problem: str, seed: int) -> random.Random:
    return random.Random(f"{problem}:{seed}")


# ---------------------------------------------------------------------------
# negative information


def exclusions_upto(name: Stream, depth: int, fuel: FuelLike = None) -> set:
    """Codes excluded by a negative-information name within a depth."""
    return {sym - 1 for sym in name.prefix(depth, fuel) if sym > 0}


def cylinder_code(bits: Word) -> int:
    code = 1
    for b in bits:
        code = 2 * code + b
    return code - 1


def cylinder_word(code: int) -> Word:
    return tuple(int(b) for b in format(code + 1, "b")[1:])


def sierpinski_value(p: Stream, depth: int, fuel: FuelLike = None):
    """Scan of a Sierpinski name: ("zero-so-far", None) or ("nonzero-at", k)."""
    fuel = as_fuel(fuel)
    for k in range(depth):
        if p.at(k, fuel) != 0:
            return ("nonzero-at", k)
    return ("zero-so-far", None)


# ---------------------------------------------------------------------------
# identity


def problem_id() -> Problem:
    def generate(seed):
        rng = _rng("id", seed)
        head = tuple(rng.randrange(4) for _ in range(12))
        return Instance("id", seed, PlanStream(head, ("zeros",)), ("copy",))

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        want = instance.public_name.prefix(min(depth, len(output)), fuel)
        if output[: len(want)] != want:
            return REFUTED
        return CONSISTENT

    return Problem("id", generate, check)


def realizer_id() -> OracleRealizer:
    return OracleRealizer("id", lambda instance: instance.public_name)


# ---------------------------------------------------------------------------
# zero-detection


def problem_lpo() -> Problem:
    """Decide whether the input is the zero stream; 1 means "all zero"."""

    def generate(seed):
        rng = _rng("lpo", seed)
        if rng.random() < 1 / 3:
            return Instance("lpo", seed, PlanStream((), ("zeros",)), ("allzero",))
        k = rng.randrange(12)
        v = 1 + rng.randrange(9)
        head = (0,) * k + (v,) + tuple(rng.randrange(3) for _ in range(4))
        return Instance("lpo", seed, PlanStream(head, ("zeros",)), ("nonzero", k, v))

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        claim = output[0]
        if claim > 1:
            return REFUTED
        seen = sierpinski_value(instance.public_name, depth, fuel)
        if claim == 1:
            return REFUTED if seen[0] == "nonzero-at" else CONSISTENT
        # claim 0 is only ever confirmed, never refuted at finite depth
        return CONSISTENT if seen[0] == "nonzero-at" else UNDETERMINED

    return Problem("lpo", generate, check)


def realizer_lpo() -> OracleRealizer:
    def solve(instance):
        return value_stream(1 if instance.hidden[0] == "allzero" else 0)

    return OracleRealizer("lpo", solve)


# ---------------------------------------------------------------------------
# binary choice (negative information over {0, 1})


def problem_llpo() -> Problem:
    """Pick a point of {0,1} not excluded by the negative information."""

    def generate(seed):
        rng = _rng("llpo", seed)
        witness = rng.randrange(2)
        head = [0] * 10
        if rng.random() < 0.7:
            head[1 + rng.randrange(8)] = (1 - witness) + 1  # exclude the other
        return Instance("llpo", seed, PlanStream(tuple(head), ("zeros",)), ("choice", witness))

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        point = output[0]
        if point > 1:
            return REFUTED
        if point in exclusions_upto(instance.public_name, depth, fuel):
            return REFUTED
        return CONSISTENT

    return Problem("llpo", generate, check)


# ---------------------------------------------------------------------------
# choice on the naturals


def problem_cn() -> Problem:
    def generate(seed):
        rng = _rng("cn", seed)
        witness = rng.randrange(10)
        excluded = sorted(
            e for e in rng.sample(range(10), rng.randrange(5)) if e != witness
        )
        head = [0] * (2 * len(excluded) + 4)
        for i, e in enumerate(excluded):
            head[2 * i + 1] = e + 1
        return Instance("cn", seed, PlanStream(tuple(head), ("zeros",)), ("choice", witness))

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        if output[0] in exclusions_upto(instance.public_name, depth, fuel):
            return REFUTED
        return CONSISTENT

    return Problem("cn", generate, check)


# ---------------------------------------------------------------------------
# limits


def _lim_public(commits, noise):
    """Tuple of component streams from a commit table and noise values.

    Component n at coordinate k equals the committed value from stage s(k)
    on; before that it reads the noise table (default 0).
    """
    table = {(n, k): v for n, k, v in noise}
    commit_at = {k: (v, s) for k, v, s in commits}

    def component(n):
        def value(k):
            if k in commit_at and n >= commit_at[k][1]:
                return commit_at[k][0]
            return table.get((n, k), 0)

        return FunctionStream(value)

    return tuple_countable(component)


def problem_lim() -> Problem:
    """Limit of a convergent sequence of streams, coordinatewise stable."""

    def generate(seed):
        rng = _rng("lim", seed)
        width = 8  # committed coordinates; beyond them the limit is 0 from stage 0
        commits = []
        noise = []
        for k in range(width):
            v = rng.randrange(5)
            s = rng.randrange(6)
            commits.append((k, v, s))
            for n in range(s):
                noise.append((n, k, rng.randrange(5)))
        public = _lim_public(commits, noise)
        limit_head = tuple(v for _, v, _ in commits)
        hidden = ("limit", limit_head)
        return Instance("lim", seed, public, hidden, {"commits": commits})

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        commits = {k: (v, s) for k, v, s in instance.public_spec["commits"]}
        for k, got in enumerate(output[:depth]):
            want = commits[k][0] if k in commits else 0
            if got != want:
                return REFUTED
        return CONSISTENT

    return Problem("lim", generate, check)


def realizer_lim() -> OracleRealizer:
    def solve(instance):
        return PlanStream(instance.hidden[1], ("zeros",))

    return OracleRealizer("lim", solve)


def problem_lim_nat() -> Problem:
    """Eventual value of a finitely-changing sequence of naturals."""

    def generate(seed):
        rng = _rng("limnat", seed)
        changes = rng.randrange(4)
        head = []
        value = rng.randrange(6)
        for _ in range(changes):
            head.extend([value] * (1 + rng.randrange(4)))
            value = rng.randrange(6)
        stable_from = len(head)
        head.extend([value] * 2)
        plan = PlanStream(tuple(head), ("cycle", (value,)))
        spec = {"commits": [(0, value, stable_from)]}
        return Instance("limnat", seed, plan, ("value", value, stable_from), spec)

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        (k0, v, s) = instance.public_spec["commits"][0]
        if depth > s and output[0] != v:
            return REFUTED
        return CONSISTENT if depth > s else UNDETERMINED

    return Problem("limnat", generate, check)


# ---------------------------------------------------------------------------
# paths through binary trees (choice on Cantor space)


def problem_path_choice() -> Problem:
    """Find an infinite binary path avoiding excluded cylinders."""

    def generate(seed):
        rng = _rng("wkl", seed)
        path_head = tuple(rng.randrange(2) for _ in range(10))
        path_cycle = (rng.randrange(2), rng.randrange(2))
        path = PlanStream(path_head, ("cycle", path_cycle))
        codes = []
        for _ in range(rng.randrange(8)):
            # exclude a cylinder deviating from the path
            split = rng.randrange(6)
            bits = path_head[:split] + (1 - path_head[split],)
            codes.append(cylinder_code(bits))
        head = [0] * (2 * len(codes) + 2)
        for i, c in enumerate(codes):
            head[2 * i + 1] = c + 1
        plan = PlanStream(tuple(head), ("zeros",))
        return Instance("wkl", seed, plan, ("path", path_head, path_cycle))

    def check(instance, output, depth, fuel=None):
        if not output:
            return UNDETERMINED
        if any(b > 1 for b in output):
            return REFUTED
        for code in exclusions_upto(instance.public_name, depth, fuel):
            if is_prefix(cylinder_word(code), output):
                return REFUTED
        return CONSISTENT

    return Problem("wkl", generate, check)


def realizer_path_choice() -> OracleRealizer:
    def solve(instance):
        _, head, cycle = instance.hidden
        return PlanStream(head, ("cycle", cycle))

    return OracleRealizer("wkl", solve)


# ---------------------------------------------------------------------------
# registry and the plan syntax

PROBLEMS = {
    "id": (problem_id, realizer_id),
    "lpo": (problem_lpo, realizer_lpo),
    "llpo": (problem_llpo, partial(realizer_value, "llpo")),
    "cn": (problem_cn, partial(realizer_value, "cn")),
    "lim": (problem_lim, realizer_lim),
    "limnat": (problem_lim_nat, partial(realizer_value, "limnat")),
    "wkl": (problem_path_choice, realizer_path_choice),
}


def get_problem(name: str) -> Problem:
    return PROBLEMS[name][0]()


def get_realizer(name: str) -> OracleRealizer:
    return PROBLEMS[name][1]()


def parse_plan(tokens) -> PlanStream:
    """The plan syntax: literal prefix, then `zeros` or `cycle w`.

    The prefix is naturals, with `eps` standing for the empty word; the
    cycled word w must be nonempty and `zeros` ends the plan.  Raises
    ValueError on anything else.
    """
    tokens = list(tokens)
    tails = [i for i, tok in enumerate(tokens) if tok in ("zeros", "cycle")]
    if not tails:
        raise ValueError("needs a tail rule: `zeros` or `cycle w`")
    i = tails[0]
    head = parse_word_text(" ".join(tok for tok in tokens[:i] if tok != "eps"))
    if tokens[i] == "zeros":
        if tokens[i + 1 :]:
            raise ValueError(f"`zeros` ends the plan; unexpected {' '.join(tokens[i + 1 :])}")
        return PlanStream(head, ("zeros",))
    return PlanStream(head, ("cycle", parse_word_text(" ".join(tokens[i + 1 :]))))

