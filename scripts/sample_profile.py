"""Sample where the benchmark's operations spend their time.

    python scripts/sample_profile.py --workload W [--kinds K[,K...]] [--ops N] [--seed S] [--lines]

Builds the shared objects and the first N seeded operations of the chosen
kinds (all kinds by default) from `bench/workloads.py`, as `bench/run.py`
does, then runs them in order under a CPU-time timer of this process
(`signal.setitimer(signal.ITIMER_PROF)`) that fires every INTERVAL_S, or
every kernel tick where that is longer.  A firing inside an operation's
`run()` records the stack below the driving loop; one between operations
is dropped.  Unlike a deterministic profiler it adds no cost per call, so
time spent inside C-level slices and copies is not buried under per-call
overhead; CPython handles the signal where it next checks for one (a call
or a loop's back edge), so such time lands on that line or the next.  It
prints the sample count, then for each function its self share (samples
in which it was running) and its cumulative share (samples in which it was
on the stack), or with --lines each source line's self share, largest
first, TOP rows.  Shares are percentages of all samples.  Nothing is
written: bytecode writing is off, so nothing appears under bench/.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERVAL_S = 0.001
TOP = 30


def seeded_ops(workload, kinds, n, seed):
    """The first n operations of `kinds` (None: every kind), built unsampled."""
    import run as bench_run
    import workloads

    gen = workloads.WORKLOADS[workload](seed, bench_run.build_shared(), ROOT)
    cycle = gen.kinds
    unknown = set(kinds or ()) - set(cycle)
    if unknown:
        known = ", ".join(sorted(set(cycle)))
        sys.exit(f"error: {workload} has no kind {', '.join(sorted(unknown))}; kinds: {known}")
    picked = (i for i in range(n * len(cycle)) if kinds is None or cycle[i % len(cycle)] in kinds)
    return [gen.op(i) for i, _ in zip(picked, range(n))]


def sample(ops):
    """Stacks sampled while the ops run: one list of (code, line) per firing
    inside an op, innermost frame first, ending above this function's frame;
    a firing between two ops has an empty stack and is dropped."""
    here = sys._getframe()
    stacks = []

    def record(signum, frame):
        stack = []
        while frame is not None and frame is not here:
            stack.append((frame.f_code, frame.f_lineno))
            frame = frame.f_back
        stacks.append(stack)

    previous = signal.signal(signal.SIGPROF, record)
    # armed once: re-arming per operation restarts the interval, which the
    # kernel rounds up to its tick, and would leave short operations unseen
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for op in ops:
            op.run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return [stack for stack in stacks if stack]


def where(code, line=None):
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except ValueError:
        pass
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11 on
    return f"{path}:{code.co_firstlineno if line is None else line} {name}"


def report(stacks, lines):
    total = len(stacks)
    print(f"samples {total}")
    if not total:
        return
    if lines:
        own = Counter(stack[0] for stack in stacks)
        print("  self%  line")
        for (code, line), n in own.most_common(TOP):
            print(f"{100 * n / total:7.1f}  {where(code, line)}")
        return
    own = Counter(stack[0][0] for stack in stacks)
    cum = Counter(code for stack in stacks for code in {c for c, _ in stack})
    print("  self%   cum%  function")
    for code, n in sorted(cum.items(), key=lambda item: (-own[item[0]], -item[1]))[:TOP]:
        print(f"{100 * own[code] / total:7.1f} {100 * n / total:6.1f}  {where(code)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("codec", "transform", "check"))
    parser.add_argument("--kinds", default=None, help="comma-separated kinds (default: all)")
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lines", action="store_true", help="self share per source line")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    kinds = None if args.kinds is None else set(args.kinds.split(","))
    report(sample(seeded_ops(args.workload, kinds, args.ops, args.seed)), args.lines)


if __name__ == "__main__":
    main()
