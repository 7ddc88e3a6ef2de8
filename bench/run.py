"""Benchmark of the baire workbench: seeded workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 bench/run.py --workload codec --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics of an untraced run, after replaying its first PREFIX_OPS operations
in a fresh interpreter to check that they answer and spend fuel exactly
alike.  `--trace 1` times those PREFIX_OPS operations untraced, then reports
the per-layer metrics of a traced replay of them in a fresh interpreter,
after the same check.  Every reported time is scaled to the host's speed,
as measured by a calibration loop timed between operations (see
CAL_REF_S).  The line before it is a JSON object describing the run
(interpreter, cores, sample counts, raw wall figures, cache statistics,
self-test).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 140  # leaves at least ten samples beyond p90
PREFIX_OPS = 140  # fixed prefix of the operation stream: fuel_per_op, replays, trace
SETUP_PROBES = 8  # fresh interpreters timing set-up, besides the run's own

# Host-speed calibration.  On a shared host the same Python code runs up to
# twice as slow for seconds or minutes at a time, and it slows nearly alike
# for the library and for a loop of tuple and dict work.  So a fixed loop is
# timed between operations, once per CAL_EVERY_S of operation time (a pass
# before every short operation would evict its working set), and each
# reported time is scaled by CAL_REF_S over the mean pass time of the
# CAL_WINDOW passes on either side of it: it reads as the wall time on a
# host where one pass takes CAL_REF_S.  Raw wall figures are in the run
# description line.
CAL_LOOPS = 2500
CAL_REF_S = 0.00055  # one pass on an idle core of the 2-core VM used to write this
CAL_WINDOW = 4
CAL_EVERY_S = 0.02


def build_shared():
    """Import the library and build the program objects the workloads share."""
    from baire import cli, machine, reductions, streams, transform
    import baire.operators  # noqa: F401  (part of the import cost users pay)
    import baire.problems  # noqa: F401

    def drop(r_name, x, fuel):
        return streams.odd_part(x)

    def use(r_name, x, fuel):
        q, p = streams.even_part(x), streams.odd_part(x)
        return streams.interleave_word(machine.apply_name(r_name, q, fuel), p)

    return {
        "T": transform.recursion_T(),
        "inj": transform.injection(),
        "R_drop": transform.injective_recursion(drop, "drop"),
        "R_use": transform.injective_recursion(use, "use"),
        "use": use,
        "witnesses": reductions.witness_library(),
        "parser": cli.build_parser(),
    }


def calibrate():
    """Seconds one pass of a fixed loop of tuple and dict work takes.  Work
    that allocates tracks the library's slow-downs much closer than plain
    integer arithmetic; the tuples die at once, so the pass does not bring
    the garbage collector's next run closer."""
    start = time.perf_counter()
    table, s = {}, 0
    for i in range(CAL_LOOPS):
        t = (i, i + 1, i & 7)
        table[t[2]] = t
        s += len(table) + t[1]
    return time.perf_counter() - start


def scaled(seconds, passes):
    """Wall seconds scaled to the host speed that `passes` were timed at."""
    return seconds * CAL_REF_S / statistics.fmean(passes)


def timed_setup():
    """Build the shared objects; return them with the raw and scaled time."""
    before = [calibrate() for _ in range(2 * CAL_WINDOW)]
    start = time.perf_counter()
    shared = build_shared()
    seconds = time.perf_counter() - start
    after = [calibrate() for _ in range(2 * CAL_WINDOW)]
    return shared, seconds, scaled(seconds, before + after)


def child(args):
    """Run this file again in a fresh interpreter; return its last line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"child run {args} failed with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    """Outcomes of a pass over the operation stream."""

    def __init__(self):
        self.times = []  # raw wall seconds per operation
        self.passes = []  # calibration passes, the last one after the last operation
        self.pass_at = []  # index of the operation each pass was timed before
        self.digests = []
        self.fuel = []
        self.decided = 0
        self.failed = 0
        self.report_fuel = 0
        self.out_bytes = 0
        self.kinds = []  # (kind, ok) per operation
        self.selftest = [0, 0]  # corrupted answers checked, counted as failed
        self.rss_mb = None  # peak resident memory once the fixed prefix is done

    def scaled_times(self):
        """Per-operation times scaled by the calibration passes around each."""
        p, w = self.passes, CAL_WINDOW
        times = []
        for i, t in enumerate(self.times):
            k = bisect.bisect_right(self.pass_at, i)  # passes timed before operation i
            times.append(scaled(t, p[max(0, k - w) : k + w]))
        return times

    def calibrate(self, i):
        self.pass_at.append(i)
        self.passes.append(calibrate())

    def add(self, op, result, seconds, ok, decided):
        self.times.append(seconds)
        self.digests.append(hashlib.sha1(repr(result.obs).encode()).hexdigest()[:16])
        self.fuel.append(result.fuel)
        self.decided += decided
        self.failed += not ok
        self.report_fuel += result.report_fuel
        self.out_bytes += result.out_bytes
        self.kinds.append((op.kind, ok))


def run_ops(workload, seed, shared, seconds, count=None, tracer=None):
    """Time operations until the deadline (and at least MIN_OPS), or `count`."""
    import workloads

    gen = workloads.WORKLOADS[workload](seed, shared, ROOT)
    tally = Tally()
    checked = set()
    deadline = time.perf_counter() + seconds
    i, since_pass = 0, CAL_EVERY_S
    while (i < count) if count is not None else (i < MIN_OPS or time.perf_counter() < deadline):
        op = gen.op(i)
        if tracer is not None:
            tracer.op = i
        if since_pass >= CAL_EVERY_S:
            tally.calibrate(i)
            since_pass = 0.0
        start = time.perf_counter()
        result = op.run()
        elapsed = time.perf_counter() - start
        since_pass += elapsed
        if tracer is not None:
            tracer.settle_fuel()
            with tracer.suspended():
                ok, decided = op.verify(result.obs)
                _selftest(op, result, checked, tally)
        else:
            ok, decided = op.verify(result.obs)
            _selftest(op, result, checked, tally)
        tally.add(op, result, elapsed, ok, decided)
        i += 1
        if i == PREFIX_OPS:
            tally.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.calibrate(i)
    return tally


def _selftest(op, result, checked, tally):
    """The first answer of each kind is also judged corrupted: it must fail."""
    if op.kind in checked:
        return
    checked.add(op.kind)
    ok, _ = op.verify(op.corrupt(result.obs))
    tally.selftest[0] += 1
    tally.selftest[1] += not ok


def cache_stats():
    from baire import machine

    return {
        "decode_entries": machine.decode_entries.cache_info()._asdict(),
        "eval_name": machine.eval_name.cache_info()._asdict(),
        "word_pool_len": len(machine._word_pool),
    }


def replay_child(args, trace):
    """Replay the first PREFIX_OPS operations in a fresh interpreter."""
    return child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--replay", str(PREFIX_OPS), "--trace", str(trace)]
    )


def same_answers(replayed, tally):
    """Answers and per-operation fuel of a replay match the timed prefix."""
    return (
        replayed["digests"] == tally.digests[:PREFIX_OPS]
        and replayed["fuel"] == tally.fuel[:PREFIX_OPS]
        and replayed["failed"] == 0
    )


def kind_summary(tally):
    by_kind = {}
    for (kind, ok), seconds in zip(tally.kinds, tally.scaled_times()):
        k = by_kind.setdefault(kind, [0, 0, []])
        k[0] += 1
        k[1] += not ok
        k[2].append(seconds)
    return {
        kind: {"ops": k[0], "failed": k[1], "median_s": statistics.median(k[2])}
        for kind, k in sorted(by_kind.items())
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, shared, own_setup):
    tally = run_ops(args.workload, args.seed, shared, args.seconds)
    probes = [child(["--probe-setup"]) for _ in range(SETUP_PROBES)]
    replay_identical = same_answers(replay_child(args, 0), tally)
    n = len(tally.times)
    times = tally.scaled_times()
    metrics = {
        "setup_s": (statistics.median([p["setup_s"] for p in probes] + [own_setup[1]]), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (percentile(times, 90), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "fuel_per_op": (sum(tally.fuel[:PREFIX_OPS]) / PREFIX_OPS, "steps"),
        "decided_ratio": (tally.decided / n, "ratio"),
        "pass_ratio": ((n - tally.failed) / n, "ratio"),
        "peak_rss_mb": (tally.rss_mb, "MB"),
    }
    info = {
        "samples": n,
        "prefix_ops": PREFIX_OPS,
        "replay_identical": replay_identical,
        "setup_wall_s": [own_setup[0]] + [p["wall_s"] for p in probes],
        "wall": {
            "op_s.p50": statistics.median(tally.times),
            "op_s.p90": percentile(tally.times, 90),
            "ops_per_s": n / sum(tally.times),
        },
        "host_slowdown": statistics.median(tally.passes) / CAL_REF_S,
        "caches": cache_stats(),
    }
    return tally, metrics, replay_identical, info


def replay(args):
    """Child side of a replay: re-run the first --replay operations, untraced
    or (with --trace 1) traced, and report answers, fuel and layer figures."""
    if not args.trace:
        tally = run_ops(args.workload, args.seed, build_shared(), 0, count=args.replay)
        return {"digests": tally.digests, "fuel": tally.fuel, "failed": tally.failed}
    from baire import cli, machine  # noqa: F401  (import before patching)
    import baire.operators, baire.problems, baire.reductions, baire.transform  # noqa: F401
    from spans import Tracer

    decode, evaluate = machine.decode_entries, machine.eval_name
    tracer = Tracer()
    tracer.install()
    shared = build_shared()
    decode0, eval0 = decode.cache_info(), evaluate.cache_info()
    tally = run_ops(args.workload, args.seed, shared, 0, count=args.replay, tracer=tracer)
    tracer.uninstall()
    decode1, eval1 = decode.cache_info(), evaluate.cache_info()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.tsv.gz")

    def hit_ratio(a, b):
        hits, misses = b.hits - a.hits, b.misses - a.misses
        return hits / (hits + misses) if hits + misses else 0.0

    host = CAL_REF_S / statistics.fmean(tally.passes)  # self times scaled like op times
    c = tracer.calls

    def s(name):
        return tracer.self_s(name) * host

    layer = {
        "streams.fuel_steps": (tracer.fuel_steps, "steps"),
        "streams.prefix.calls": (c("streams.prefix"), "count"),
        "streams.prefix.self_s": (s("streams.prefix"), "s"),
        "streams.determined_prefix.self_s": (s("streams.determined_prefix"), "s"),
        "machine.decode_entries.calls": (c("machine.decode_entries"), "count"),
        "machine.decode_entries.hit_ratio": (hit_ratio(decode0, decode1), "ratio"),
        "machine.decode_entries.self_s": (s("machine.decode_entries"), "s"),
        "machine.decode_entries.symbols": (tracer.decoded_symbols, "count"),
        "machine.eval_name.calls": (c("machine.eval_name"), "count"),
        "machine.eval_name.hit_ratio": (hit_ratio(eval0, eval1), "ratio"),
        "machine.eval_name.self_s": (s("machine.eval_name"), "s"),
        "machine.apply_name.calls": (c("machine.apply_name"), "count"),
        "machine.apply_name.self_s": (s("machine.apply_name"), "s"),
        "machine.raw_eval.self_s": (s("machine.raw_eval"), "s"),
        "machine.machine_stream.self_s": (s("machine.machine_stream"), "s"),
        "machine.machine_name.self_s": (s("machine.machine_name"), "s"),
        "machine.candidate_word.calls": (c("machine.candidate_word"), "count"),
        "machine.word_pool_len": (len(machine._word_pool), "count"),
        "transform.transformer_word_prefix.calls": (c("transform.transformer_word_prefix"), "count"),
        "transform.transformer_word_prefix.self_s": (s("transform.transformer_word_prefix"), "s"),
        "transform.bounded_value_prefix.calls": (c("transform.bounded_value_prefix"), "count"),
        "transform.bounded_value_prefix.self_s": (s("transform.bounded_value_prefix"), "s"),
        "transform.available_prefix.self_s": (s("transform.available_prefix"), "s"),
        "transform.injection_output.self_s": (s("transform.injection_output"), "s"),
        "transform.quine.self_s": (s("transform.quine"), "s"),
        "transform.build_s": (s("transform.build"), "s"),
        "problems.generate.calls": (c("problems.generate"), "count"),
        "problems.generate.self_s": (s("problems.generate"), "s"),
        "problems.solve.calls": (c("problems.solve"), "count"),
        "problems.solve.self_s": (s("problems.solve"), "s"),
        "problems.check_solution.calls": (c("problems.check_solution"), "count"),
        "problems.check_solution.self_s": (s("problems.check_solution"), "s"),
        "operators.loop_step.calls": (c("operators.loop_step"), "count"),
        "operators.loop_step.self_s": (s("operators.loop_step"), "s"),
        "operators.program_name.self_s": (s("operators.program_name"), "s"),
        "operators.validate_run.self_s": (s("operators.validate_run"), "s"),
        "operators.classify_run.self_s": (s("operators.classify_run"), "s"),
        "reductions.check_loop_run.calls": (c("reductions.check_loop_run"), "count"),
        "reductions.check_loop_run.self_s": (s("reductions.check_loop_run"), "s"),
        "reductions.nonzero_within.calls": (c("reductions.nonzero_within"), "count"),
        "reductions.nonzero_within.self_s": (s("reductions.nonzero_within"), "s"),
        "reductions.report_fuel": (tally.report_fuel, "steps"),
        "cli.main.calls": (c("cli.main"), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.build_parser.self_s": (s("cli.build_parser"), "s"),
        "cli.determined_report.self_s": (s("cli.determined_report"), "s"),
        "cli.output_bytes": (tally.out_bytes, "bytes"),
    }
    return {
        "layer": layer,
        "digests": tally.digests,
        "fuel": tally.fuel,
        "failed": tally.failed,
        "selftest": tally.selftest,
        "op_seconds": sum(tally.scaled_times()),
        "spans_kept": len(tracer.span_start),
        "spans_dropped": tracer.spans_dropped,
    }


def per_layer(args, shared):
    tally = run_ops(args.workload, args.seed, shared, 0, count=PREFIX_OPS)
    n = len(tally.times)
    traced = replay_child(args, 1)
    identical = same_answers(traced, tally)
    metrics = dict(traced["layer"])
    steps = metrics["streams.fuel_steps"][0]
    op_seconds = sum(tally.scaled_times())
    metrics["streams.ns_per_step"] = (op_seconds / steps * 1e9 if steps else 0.0, "ns")
    metrics["trace_overhead_ratio"] = (traced["op_seconds"] / op_seconds, "ratio")
    info = {
        "samples": n,
        "traced_identical": identical,
        "traced_failed": traced["failed"],
        "traced_selftest": traced["selftest"],
        "spans_kept": traced["spans_kept"],
        "spans_dropped": traced["spans_dropped"],
    }
    ok = identical and traced["selftest"][0] == traced["selftest"][1]
    return tally, metrics, ok, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("codec", "transform", "check"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "baire" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {ROOT / 'src' / 'baire'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))

    if args.probe_setup:
        _, wall, seconds = timed_setup()
        print(json.dumps({"setup_s": seconds, "wall_s": wall}))
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.replay is not None:
        print(json.dumps(replay(args)))
        return

    shared, *own_setup = timed_setup()
    if args.trace:
        tally, metrics, extra_ok, info = per_layer(args, shared)
    else:
        tally, metrics, extra_ok, info = end_to_end(args, shared, own_setup)
    selftest_ok = tally.selftest[0] > 0 and tally.selftest[0] == tally.selftest[1]
    info.update(
        workload=args.workload,
        seed=args.seed,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        selftest={"corrupted": tally.selftest[0], "counted_failed": tally.selftest[1]},
        kinds=kind_summary(tally),
    )
    print(json.dumps(info))
    attempted = len(tally.times)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and selftest_ok and extra_ok,
                "attempted": attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
