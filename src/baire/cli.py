"""Command-line driver: evaluation, transformations, loops, and check suites.

Everything is deterministic: identical flags and files give byte-identical
output.  Exit codes: 0 all consistent, 1 refutation, 2 usage or parse
error, 3 undetermined-only outcomes under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .machine import eval_stream, parse_machine_text, parse_natural
from .operators import (
    LOOP_KINDS,
    LoopInstance,
    TaggedStream,
    classify_run,
    diamond,
    inverse_limit,
    omega,
    power_n,
    star,
    validate_run,
)
from .problems import CONSISTENT, REFUTED, UNDETERMINED, parse_plan
from .reductions import simulate_limit_machine, witness_library
from .streams import Fuel, NeedMoreFuel, PlanStream, odd_part, pair_stream, project
from .transform import const_transformer_name, injective_recursion, injection, quine, recursion_T, smn


# the common flags' values when they are not given
DEFAULTS = {"depth": 32, "fuel": 10**6, "seed": 0, "steps": 8, "strict": False}

# the commands, transform kinds and loop operations that read each flag
# that not every command reads; a flag given to any other is a usage error
READERS = {
    "seed": ("transform",),
    "steps": ("loop omega", "loop diamond", "loop infty", "limsim"),
    "seeds": ("check",),
    "machine": ("transform smn", "transform fix", "transform inject", "transform extract"),
    "input": (
        "transform smn", "transform fix", "transform inject", "transform extract",
        "transform injrec",
    ),
    "verify": (
        "transform smn", "transform fix", "transform extract", "transform injrec",
        "transform quine",
    ),
    "n": ("loop power", "loop star"),
    "validate": ("loop infty",),
}


class CliError(Exception):
    pass


def natural(text: str) -> int:
    """argparse type of the numeric flags: negative values are usage errors.

    A named wrapper, so argparse reports "invalid natural value".
    """
    return parse_natural(text)


def parse_input_spec(tokens) -> PlanStream:
    """Literal prefix plus a tail rule: `zeros` or `cycle w`."""
    try:
        return parse_plan(tokens)
    except ValueError as exc:
        raise CliError(f"input spec: {exc}")


def read_file(path: str, parse, what: str):
    """Parse a machine or loop file; unreadable or malformed files are usage errors."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def reject_unread(args) -> None:
    """Usage error for a flag given to a command, kind or operation that
    never reads it; run before the defaults fill in the global flags."""
    choice = getattr(args, "kind", None) or getattr(args, "op", None)
    what = f"{args.command} {choice}" if choice else args.command
    for flag, readers in READERS.items():
        value = getattr(args, flag, None)
        if value is None or value is False:
            continue  # not given
        if args.command not in readers and what not in readers:
            raise CliError(f"{what} reads no --{flag}")


def seeded_input(seed: int) -> PlanStream:
    import random

    rng = random.Random(f"cli:{seed}")
    return PlanStream(tuple(rng.randrange(4) for _ in range(24)), ("zeros",))


def determined_report(stream, depth: int, fuel_per_index: int):
    """Per-index reads with a fresh budget each; fuel shortfalls are noted."""
    # not a read_prefix: every index gets its own tank, and the printed
    # fuel is the sum over those tanks
    symbols = []
    spent = 0
    note = ""
    for i in range(depth):
        tank = Fuel(fuel_per_index)
        try:
            symbols.append(stream.at(i, tank))
        except NeedMoreFuel:
            spent += tank.spent
            note = f"index {i} undetermined at fuel {fuel_per_index}"
            break
        spent += tank.spent
    return symbols, spent, note


def emit(out, line=""):
    out.write(line + "\n")


def emit_report(out, stream, depth: int, fuel: int, prefix: str = "", empty: str = ""):
    """Print a stream's determined prefix, and the index where it stopped short.

    Returns (fuel spent, whether the report stopped short).
    """
    symbols, spent, note = determined_report(stream, depth, fuel)
    emit(out, prefix + (" ".join(map(str, symbols)) if symbols else empty))
    if note:
        emit(out, note)
    return spent, bool(note)


def exit_status(args, disagreements: int, short: bool) -> int:
    """1 on a disagreement; 3 under --strict when something stopped short."""
    if disagreements:
        return 1
    return 3 if args.strict and short else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args, out) -> int:
    name = read_file(args.machine_file, parse_machine_text, "machine")
    source = parse_input_spec(args.input_spec)
    stream = eval_stream(name, source)
    spent, short = emit_report(out, stream, args.depth, args.fuel, empty="(nothing determined)")
    emit(out, f"fuel {spent}")
    return exit_status(args, 0, short)


def _agreement_lines(out, left, right, depth, fuel, label):
    """Compare two streams index by index; returns (disagreements, compared)."""
    disagreements = 0
    compared = 0
    tank = Fuel(fuel)
    for i in range(depth):
        try:
            a = left.at(i, tank)
            b = right.at(i, tank)
        except NeedMoreFuel:
            emit(out, f"{label} index {i} undetermined; stopping")
            break
        compared += 1
        if a == b:
            emit(out, f"{label} index {i} agree {a}")
        else:
            emit(out, f"{label} index {i} DISAGREE {a} vs {b}")
            disagreements += 1
    emit(out, f"{label} compared {compared} disagreements {disagreements}")
    return disagreements, compared


def cmd_transform(args, out) -> int:
    kind = args.kind
    disagreements = 0
    compared = None  # indices a --verify compared
    if kind == "quine":
        q = quine()
        _, short = emit_report(out, q, args.depth, args.fuel)
        if args.verify:
            p = seeded_input(args.seed)
            lhs = eval_stream(q, p)
            rhs = pair_stream(q, seeded_input(args.seed))
            disagreements, compared = _agreement_lines(out, lhs, rhs, args.depth, args.fuel, "quine")
    elif kind in ("smn", "fix", "inject", "extract"):
        if not args.machine:
            raise CliError(f"transform {kind} needs --machine FILE")
        file_name = read_file(args.machine, parse_machine_text, "machine")
        argument = (
            parse_input_spec(args.input) if args.input else seeded_input(args.seed)
        )
        if kind == "smn":
            S = smn(file_name.machine)
            specialized = S.apply(argument)
            _, short = emit_report(out, specialized, args.depth, args.fuel)
            if args.verify:
                p = seeded_input(args.seed + 1)
                lhs = eval_stream(specialized, p)
                rhs = eval_stream(
                    file_name,
                    pair_stream(argument, seeded_input(args.seed + 1)),
                )
                disagreements, compared = _agreement_lines(out, lhs, rhs, args.depth, args.fuel, "smn")
        elif kind == "fix":
            p_name = const_transformer_name(file_name)
            fixed = recursion_T().apply(p_name)
            _, short = emit_report(out, fixed, args.depth, args.fuel)
            if args.verify:
                z = argument
                lhs = eval_stream(fixed, z)
                rhs = eval_stream(eval_stream(p_name, fixed), z)
                disagreements, compared = _agreement_lines(out, lhs, rhs, args.depth, args.fuel, "fix")
        else:
            inj = injection()
            injected = eval_stream(inj.apply(file_name), argument)
            if kind == "inject":
                _, short = emit_report(out, injected, args.depth, args.fuel)
            else:  # extract
                recovered = inj.extract(injected)
                _, short = emit_report(out, recovered, args.depth, args.fuel)
                if args.verify:
                    disagreements, compared = _agreement_lines(
                        out, recovered, argument, min(args.depth, 16), args.fuel, "extract"
                    )
    elif kind == "injrec":
        R = injective_recursion(lambda rn, x, fuel: odd_part(x), "cli")
        argument = (
            parse_input_spec(args.input) if args.input else seeded_input(args.seed)
        )
        name = R.apply(argument)
        _, short = emit_report(out, name, args.depth, args.fuel)
        if args.verify:
            p = seeded_input(args.seed + 2)
            lhs = eval_stream(name, p)
            rhs = seeded_input(args.seed + 2)
            disagreements, compared = _agreement_lines(
                out, lhs, rhs, min(args.depth, 16), args.fuel * 4, "injrec"
            )
    else:
        raise CliError(f"unknown transform kind: {kind}")
    return exit_status(args, disagreements, short or compared == 0)


def parse_loop_file(text: str) -> LoopInstance:
    """Parse the loop file format; raises ValueError naming a bad line."""
    kind = None
    seed = 0
    params = {}  # key -> (value, line number)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] == "problem":
                if kind is not None:
                    raise ValueError("a second `problem` line")
                if len(tokens) != 4 or tokens[2] != "seed":
                    raise ValueError("expected `problem <kind> seed <n>`")
                kind, seed = tokens[1], parse_natural(tokens[3])
            elif tokens[0] == "public:":
                keys, values = tokens[1::2], tokens[2::2]
                if len(keys) != len(values):
                    raise ValueError("public: takes `key value` pairs")
                for key, value in zip(keys, values):
                    if key in params:
                        raise ValueError(f"public key {key} given twice")
                    params[key] = (parse_natural(value), lineno)
            elif tokens[0] != "witness:":
                raise ValueError(f"unrecognized record {tokens[0]}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if kind is None:
        raise ValueError("loop file needs a `problem <kind> seed <n>` line")
    if kind not in LOOP_KINDS:
        raise ValueError(f"unknown loop kind: {kind}")
    make, key, default = LOOP_KINDS[kind]
    value, _ = params.pop(key, (default, 0))
    for key, (_, lineno) in params.items():  # the first key left over
        raise ValueError(f"line {lineno}: loop kind {kind} reads no public key {key}")
    loop = make(seed, value)
    loop.meta["kind"] = kind
    return loop


def cmd_loop(args, out) -> int:
    loop = read_file(args.loop, parse_loop_file, "loop")
    op = args.op
    status = 0
    if op in ("power", "star"):
        n = args.n if args.n is not None else 1
        if op == "power":
            result, records = power_n(loop.oracle, n, loop.q0)
        else:
            result, records = star(loop.oracle, TaggedStream(n, loop.q0))
        _, short = emit_report(out, result, args.depth, args.fuel)
        emit(out, f"calls {len(records)}")
        status = exit_status(args, 0, short)
    elif op == "omega":
        result = omega(loop.oracle, loop.q0)
        short = False
        for i in range(min(args.steps, 6)):
            _, stopped = emit_report(
                out, project(result, i), min(args.depth, 12), args.fuel, f"component {i}: "
            )
            short = short or stopped
        status = exit_status(args, 0, short)
    elif op == "diamond":
        answer, run, cls = diamond(loop.oracle, loop.q0, args.steps, args.fuel)
        for line in run.trace_lines(args.fuel, min(args.depth, 10)):
            emit(out, line)
        emit(out, f"class {cls}")
        if cls.kind == "undetermined":
            status = 3 if args.strict else 0
    elif op == "infty":
        _, handle = inverse_limit(loop.oracle, loop.q0)
        run = handle.run(args.steps)
        for line in run.trace_lines(args.fuel, min(args.depth, 10)):
            emit(out, line)
        emit(out, f"class {classify_run(run, args.fuel)}")
        if args.validate:
            verdicts = validate_run(run, loop.oracle, min(args.depth, 8), args.fuel)
            for i, v in enumerate(verdicts):
                emit(out, f"validate step {i} {v}")
            if REFUTED in verdicts:
                status = 1
            elif args.strict and CONSISTENT not in verdicts:
                status = 3
    else:
        raise CliError(f"unknown loop operation: {op}")
    return status


def cmd_check(args, out) -> int:
    library = witness_library()
    if args.witness not in library:
        known = [f"known witness {e.name}: {e.describe}" for e in library.values()]
        raise CliError("\n".join([f"unknown witness: {args.witness}"] + known))
    entry = library[args.witness]
    # given flags only; otherwise each entry keeps its own size, depth and budget
    kwargs = {
        key: getattr(args, flag)
        for flag, key in (("seeds", "seeds"), ("depth", "depth"), ("fuel", "budget"))
        if flag in args.given
    }
    report = entry.run_check(**kwargs)
    for line in report.lines():
        emit(out, line)
    if report.refutations:
        return 1
    if args.strict and report.count(CONSISTENT) == 0:
        return 3
    return 0


def cmd_limsim(args, out) -> int:
    loop = read_file(args.loop, parse_loop_file, "loop")
    # the guess-and-restart simulation treats a data stream's eventual value
    # as the step's answer, which only eventual-value loops mean
    if loop.base_problem != "limnat":
        raise CliError(
            f"{args.loop}: limsim runs eventual-value loops (limnat-loop)"
            f" only, not {loop.meta['kind']}"
        )
    # a given --fuel is the simulation's budget; otherwise it keeps its own
    options = {"budget": args.fuel} if "fuel" in args.given else {}
    result = simulate_limit_machine(
        loop, min(args.steps, loop.steps), scan_depth=args.depth, **options
    )
    for line in result.trace_lines():
        emit(out, line)
    emit_report(out, result.run.states[-1], min(args.depth, 12), args.fuel, "final ")
    if result.verdict == REFUTED:
        return 1
    if not result.stabilized:
        emit(out, "undetermined: budget exhausted before stabilization")
    return 3 if args.strict and result.verdict == UNDETERMINED else 0


# ---------------------------------------------------------------------------
# argument plumbing


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    # the common flags may come before or after the subcommand; SUPPRESS
    # keeps an unset subcommand-level flag from shadowing a set global one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--depth", type=natural, default=argparse.SUPPRESS, help="output indices to determine"
    )
    common.add_argument(
        "--fuel", type=natural, default=argparse.SUPPRESS, help="step ceiling per query"
    )
    common.add_argument("--seed", type=natural, default=argparse.SUPPRESS)
    common.add_argument(
        "--steps", type=natural, default=argparse.SUPPRESS, help="loop step ceiling"
    )
    common.add_argument(
        "--seeds", type=natural, default=argparse.SUPPRESS, help="suite size for check"
    )
    common.add_argument("--strict", action="store_true", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="baire",
        description="workbench for continuous operations on Baire space",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run a machine file on an input", parents=[common])
    # dests apart from the flags of the same names, which eval never reads
    p_eval.add_argument("machine_file", metavar="machine")
    p_eval.add_argument(
        "input_spec", metavar="input", nargs="+", help="literal prefix then `zeros` or `cycle w`"
    )

    p_tr = sub.add_parser("transform", help="apply a program transformation", parents=[common])
    p_tr.add_argument("kind", choices=("smn", "fix", "inject", "extract", "injrec", "quine"))
    p_tr.add_argument("--machine", default=None)
    p_tr.add_argument("--input", nargs="+", default=None)
    p_tr.add_argument("--verify", action="store_true")

    p_loop = sub.add_parser("loop", help="run a loop operator on a loop file", parents=[common])
    p_loop.add_argument("op", choices=("power", "star", "omega", "diamond", "infty"))
    p_loop.add_argument("loop")
    p_loop.add_argument("--n", type=natural, default=None)
    p_loop.add_argument("--validate", action="store_true")

    p_check = sub.add_parser("check", help="verify a registered witness", parents=[common])
    p_check.add_argument("witness")

    p_sim = sub.add_parser("limsim", help="guess-and-restart simulation of a loop", parents=[common])
    p_sim.add_argument("loop")
    return parser


def main(argv=None, out=None) -> int:
    """Run one command and return its exit code.  Results and help go to out
    (default stdout), usage errors to stderr; the parser is built once."""
    out = out or sys.stdout
    try:
        with contextlib.redirect_stdout(out):  # argparse prints help to stdout
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    args.given = set(vars(args))  # what was parsed, before the defaults fill in
    handlers = {
        "eval": cmd_eval,
        "transform": cmd_transform,
        "loop": cmd_loop,
        "check": cmd_check,
        "limsim": cmd_limsim,
    }
    try:
        reject_unread(args)
        for key, value in DEFAULTS.items():
            vars(args).setdefault(key, value)
        return handlers[args.command](args, out)
    except CliError as exc:
        emit(out, f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
