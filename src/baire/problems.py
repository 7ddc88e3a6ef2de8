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
from typing import Callable

from .machine import parse_natural, parse_word_text
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
    public_spec: dict = field(default_factory=dict)  # finite description


@dataclass
class Problem:
    name: str
    generate: Callable[[int], Instance]
    check_solution: Callable[[Instance, Word, int], str]


@dataclass
class OracleRealizer:
    problem: str
    solve: Callable[[Instance], Stream]


def value_stream(v: int) -> PlanStream:
    """First-symbol encoding of a discrete value."""
    return PlanStream((v,), ("zeros",))


def _rng(problem: str, seed: int) -> random.Random:
    return random.Random(f"{problem}:{seed}")


# ---------------------------------------------------------------------------
# negative information


def exclusions_upto(name: Stream, depth: int) -> set:
    """Codes excluded by a negative-information name within a depth."""
    return {sym - 1 for sym in name.prefix(depth) if sym > 0}


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
        plan = PlanStream(head, ("zeros",))
        return Instance("id", seed, plan, ("copy",), {"plan": plan})

    def check(instance, output, depth):
        if not output:
            return UNDETERMINED
        want = instance.public_name.prefix(min(depth, len(output)))
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
            plan = PlanStream((), ("zeros",))
            return Instance("lpo", seed, plan, ("allzero",), {"plan": plan})
        k = rng.randrange(12)
        v = 1 + rng.randrange(9)
        head = (0,) * k + (v,) + tuple(rng.randrange(3) for _ in range(4))
        plan = PlanStream(head, ("zeros",))
        return Instance("lpo", seed, plan, ("nonzero", k, v), {"plan": plan})

    def check(instance, output, depth):
        if not output:
            return UNDETERMINED
        claim = output[0]
        if claim > 1:
            return REFUTED
        seen = sierpinski_value(instance.public_name, depth)
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
        plan = PlanStream(tuple(head), ("zeros",))
        return Instance("llpo", seed, plan, ("choice", witness), {"plan": plan})

    def check(instance, output, depth):
        if not output:
            return UNDETERMINED
        point = output[0]
        if point > 1:
            return REFUTED
        if point in exclusions_upto(instance.public_name, depth):
            return REFUTED
        return CONSISTENT

    return Problem("llpo", generate, check)


def realizer_llpo() -> OracleRealizer:
    return OracleRealizer("llpo", lambda inst: value_stream(inst.hidden[1]))


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
        plan = PlanStream(tuple(head), ("zeros",))
        return Instance(
            "cn", seed, plan, ("choice", witness), {"plan": plan, "excluded": excluded}
        )

    def check(instance, output, depth):
        if not output:
            return UNDETERMINED
        if output[0] in exclusions_upto(instance.public_name, depth):
            return REFUTED
        return CONSISTENT

    return Problem("cn", generate, check)


def realizer_cn() -> OracleRealizer:
    return OracleRealizer("cn", lambda inst: value_stream(inst.hidden[1]))


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
        spec = {"commits": commits, "noise": noise}
        return Instance("lim", seed, public, hidden, spec)

    def check(instance, output, depth):
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
        spec = {"plan": plan, "commits": [(0, value, stable_from)]}
        return Instance("limnat", seed, plan, ("value", value, stable_from), spec)

    def check(instance, output, depth):
        if not output:
            return UNDETERMINED
        (k0, v, s) = instance.public_spec["commits"][0]
        if depth > s and output[0] != v:
            return REFUTED
        return CONSISTENT if depth > s else UNDETERMINED

    return Problem("limnat", generate, check)


def realizer_lim_nat() -> OracleRealizer:
    return OracleRealizer("limnat", lambda inst: value_stream(inst.hidden[1]))


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
        spec = {"plan": plan, "codes": sorted(set(codes))}
        return Instance("wkl", seed, plan, ("path", path_head, path_cycle), spec)

    def check(instance, output, depth):
        if not output:
            return UNDETERMINED
        if any(b > 1 for b in output):
            return REFUTED
        for code in exclusions_upto(instance.public_name, depth):
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
# registry and instance file format

PROBLEMS = {
    "id": (problem_id, realizer_id),
    "lpo": (problem_lpo, realizer_lpo),
    "llpo": (problem_llpo, realizer_llpo),
    "cn": (problem_cn, realizer_cn),
    "lim": (problem_lim, realizer_lim),
    "limnat": (problem_lim_nat, realizer_lim_nat),
    "wkl": (problem_path_choice, realizer_path_choice),
}


def get_problem(name: str) -> Problem:
    return PROBLEMS[name][0]()


def get_realizer(name: str) -> OracleRealizer:
    return PROBLEMS[name][1]()


def instance_text(instance: Instance) -> str:
    """Serialize an instance to the line-oriented file format."""
    lines = [f"problem {instance.problem} seed {instance.seed}"]
    spec = instance.public_spec
    if "plan" in spec:
        lines.append(f"public: {spec['plan'].spec_text()}")
    else:
        lines.append("public: commits")
    kind = instance.hidden[0]
    if kind in ("copy",):
        lines.append("witness: copy")
    elif kind == "allzero":
        lines.append("witness: allzero")
    elif kind == "nonzero":
        lines.append(f"witness: nonzero {instance.hidden[1]} {instance.hidden[2]}")
    elif kind == "choice":
        lines.append(f"witness: choice {instance.hidden[1]}")
    elif kind == "value":
        lines.append(f"witness: value {instance.hidden[1]} {instance.hidden[2]}")
    elif kind == "limit":
        lines.append("witness: limit " + " ".join(map(str, instance.hidden[1])))
    elif kind == "path":
        head, cycle = instance.hidden[1], instance.hidden[2]
        lines.append(
            "witness: path "
            + " ".join(map(str, head))
            + " cycle "
            + " ".join(map(str, cycle))
        )
    for k, v, s in spec.get("commits", []):
        lines.append(f"commit {k} {v} {s}")
    for n, k, v in spec.get("noise", []):
        lines.append(f"noise {n} {k} {v}")
    return "\n".join(lines)


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


def _parse_witness(kind: str, rest) -> tuple:
    if kind in ("copy", "allzero"):
        return (kind,)
    if kind in ("nonzero", "value"):
        return (kind, parse_natural(rest[0]), parse_natural(rest[1]))
    if kind == "choice":
        return ("choice", parse_natural(rest[0]))
    if kind == "limit":
        return ("limit", parse_word_text(" ".join(rest)))
    if kind == "path":
        split = rest.index("cycle")
        head, cycle = " ".join(rest[:split]), " ".join(rest[split + 1 :])
        return ("path", parse_word_text(head), parse_word_text(cycle))
    raise ValueError(f"unknown witness kind {kind}")


def parse_instance(text: str) -> Instance:
    """Parse the instance file format back into an Instance."""
    problem = None
    seed = 0
    public_plan = None
    hidden = None
    commits = []
    noise = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] == "problem":
                if len(tokens) != 4 or tokens[2] != "seed":
                    raise ValueError("expected `problem <name> seed <n>`")
                problem, seed = tokens[1], parse_natural(tokens[3])
                if problem not in PROBLEMS:
                    raise ValueError(f"unknown problem {problem}")
            elif tokens[0] == "public:":
                if tokens[1:] != ["commits"]:
                    public_plan = parse_plan(tokens[1:])
            elif tokens[0] == "witness:":
                hidden = _parse_witness(tokens[1], tokens[2:])
            elif tokens[0] in ("commit", "noise"):
                row = parse_word_text(" ".join(tokens[1:]))
                if len(row) != 3:
                    raise ValueError(f"{tokens[0]} takes three naturals")
                (commits if tokens[0] == "commit" else noise).append(row)
            else:
                raise ValueError(f"unrecognized record {tokens[0]}")
        except IndexError:
            raise ValueError(f"line {lineno}: {tokens[0]} is missing a field") from None
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if problem is None or hidden is None:
        raise ValueError("instance file needs `problem` and `witness:` lines")
    spec = {}
    if public_plan is not None:
        spec["plan"] = public_plan
        public = public_plan
    else:
        spec["commits"] = commits
        spec["noise"] = noise
        public = _lim_public(commits, noise)
    if commits and public_plan is not None:
        spec["commits"] = commits
    return Instance(problem, seed, public, hidden, spec)
