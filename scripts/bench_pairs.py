"""Compare a git revision with the working tree on one benchmark workload.

    python scripts/bench_pairs.py REF --workload W --pairs N --seed S [--seconds T] [--aa M] [--json PATH]

Both sides run from fresh copies side by side in one temporary directory,
so that they differ only in their files: REF extracted with `git archive`
(the repository's `.git` is only read), and the working tree as a copy of
its tracked files and its untracked files that git does not ignore.
`bench/run.py --trace 0` runs N times on REF and N times on the working
tree, one run of each per pair, with the side that runs first alternating
from pair to pair.  For every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the number of pairs the working tree wins, and whether the
medians lie further apart than REF's interquartile range.  With --aa M,
M pairs of REF against REF run before the pairs, and the script prints
each end-to-end metric's A/A spread, the largest difference between the
two runs of one such pair; the medians then read apart only when they lie
further apart than both REF's interquartile range and that spread.
`setup_s` reads apart only beyond one more floor, the set-up probe spread:
the median, over every run of the pairs, of the interquartile range of the
run's own nine set-up timings (`setup_wall_s` on the line before the result
line), taken relative to their median and scaled to the run's `setup_s`.
The script prints it, and --json records it under `setup_probe_spread`.
For every
operation kind it prints each side's median, over the pairs, of the run's
median time of that kind (the `kinds` block `bench/run.py` prints before its
result line), and the number of pairs the working tree wins.  Beside it, it
prints each side's median end-of-run cache figures from the same line (the
`caches` block): the `currsize` of `decode_entries` and of `eval_name`, and
`word_pool_len`, which show a growth that `peak_rss_mb`, read at operation
140, does not.  Before the pairs, `bench/run.py --replay 140` runs once on
each side, and the script prints whether the two replays give identical
answer digests and identical per-operation fuel, and, when the fuel
differs, on how many operations it fell and on how many it rose, with the
first few indices of each; with `--pairs 0` and no `--aa` it stops
there.  With --json it also writes that summary to PATH, with the per-kind
rows under `kinds`, the cache figures under `caches`, the A/A pairs and
spread under `aa`, the replay comparison (the fuel moves under
`fuel_fell` and `fuel_rose`), REF's commit, the workload, the seed and the
number of pairs (`BENCH_<label>.json` records a claimed gain).  The temporary
directory is deleted at the end.  The exit status is 1 when the replays
differ in an answer digest or a per-operation fuel count, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLAY_OPS = 140  # bench/run.py's PREFIX_OPS: the operations fuel_per_op covers
FUEL_MOVES_SHOWN = 5  # indices shown of the operations whose replay fuel fell, and rose


def quartiles(values):
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, end_to_end, spread=None):
    """One row per metric of `end_to_end` for a list of (ref, tree) results.

    A result is the parsed last line of `bench/run.py`; a metric is a
    BENCHMARK.json entry with `name` and `better`.  A row holds the metric
    name, its direction, REF's and the tree's (q1, median, q3), the pairs
    the tree wins (strictly better than REF in the same pair) and whether
    the medians are further apart than REF's interquartile range and than
    the metric's floor in `spread`, when given: its A/A spread
    (`aa_spread`), and for `setup_s` at least `setup_probe_spread`.
    """
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        ref = [r["metrics"][name]["value"] for r, _ in pairs]
        tree = [t["metrics"][name]["value"] for _, t in pairs]
        wins = sum(sign * (t - r) > 0 for r, t in zip(ref, tree))
        ref_q, tree_q = quartiles(ref), quartiles(tree)
        noise = max(ref_q[2] - ref_q[0], (spread or {}).get(name, 0))
        apart = abs(tree_q[1] - ref_q[1]) > noise
        rows.append((name, metric["better"], ref_q, tree_q, wins, apart))
    return rows


def setup_probe_spread(pairs):
    """The median, over every run of the (ref, tree) pairs, of the
    interquartile range of the run's nine set-up timings (`setup_wall_s`)
    relative to their median, scaled to the run's `setup_s`: how far apart
    the set-up of identical code reads within one run.  0 when a run lacks
    the timings."""
    spreads = []
    for result in (run for pair in pairs for run in pair):
        if "setup_wall_s" not in result:
            return 0
        q1, median, q3 = quartiles(result["setup_wall_s"])
        spreads.append((q3 - q1) / median * result["metrics"]["setup_s"]["value"])
    return statistics.median(spreads) if spreads else 0


def aa_spread(pairs, end_to_end):
    """Per metric of `end_to_end`, the largest difference between the two
    runs of one pair, for pairs of REF against REF: how far apart runs of
    identical code read."""
    def value(result, name):
        return result["metrics"][name]["value"]

    return {
        m["name"]: max(abs(value(a, m["name"]) - value(b, m["name"])) for a, b in pairs)
        for m in end_to_end
    }


def format_spread(spread, n_pairs):
    row = "{:16s} {:>12s}".format
    lines = [row("metric", f"A/A spread ({n_pairs} pairs)")]
    lines.extend(row(name, f"{value:.6g}") for name, value in spread.items())
    return "\n".join(lines)


def format_rows(rows, n_pairs):
    def show(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    row = "{:16s} {:6s} {:36s} {:36s} {:5s} {}".format
    lines = [row("metric", "better", "REF median [q1, q3]", "tree median [q1, q3]", "wins", "apart")]
    for name, better, ref_q, tree_q, wins, apart in rows:
        verdict = "yes" if apart else "no"
        lines.append(row(name, better, show(ref_q), show(tree_q), f"{wins}/{n_pairs}", verdict))
    return "\n".join(lines)


def summarize_kinds(pairs):
    """One row per operation kind that every run ran, for a list of (ref,
    tree) results: the kind, REF's and the tree's median of the runs'
    `median_s` for that kind, and the pairs the tree wins (strictly faster)."""
    kinds = set.intersection(
        *(set(r.get("kinds", ())) & set(t.get("kinds", ())) for r, t in pairs)
    )
    rows = []
    for kind in sorted(kinds):
        ref = [r["kinds"][kind]["median_s"] for r, _ in pairs]
        tree = [t["kinds"][kind]["median_s"] for _, t in pairs]
        wins = sum(t < r for r, t in zip(ref, tree))
        rows.append((kind, statistics.median(ref), statistics.median(tree), wins))
    return rows


def format_kinds(rows, n_pairs):
    row = "{:18s} {:>14s} {:>14s} {:>8s} {}".format
    lines = [row("kind", "REF median_s", "tree median_s", "REF/tree", "wins")]
    for kind, ref, tree, wins in rows:
        lines.append(row(kind, f"{ref:.6g}", f"{tree:.6g}", f"{ref / tree:.3f}", f"{wins}/{n_pairs}"))
    return "\n".join(lines)


def cache_figures(result):
    """The end-of-run cache figures of a result, by name."""
    caches = result["caches"]
    return {
        "decode_entries.currsize": caches["decode_entries"]["currsize"],
        "eval_name.currsize": caches["eval_name"]["currsize"],
        "word_pool_len": caches["word_pool_len"],
    }


def summarize_caches(pairs):
    """One row per cache figure, when every run has a `caches` block: the
    figure and REF's and the tree's median over the runs."""
    if not all("caches" in r and "caches" in t for r, t in pairs):
        return []
    ref = [cache_figures(r) for r, _ in pairs]
    tree = [cache_figures(t) for _, t in pairs]
    return [
        (name, statistics.median(r[name] for r in ref), statistics.median(t[name] for t in tree))
        for name in ref[0]
    ]


def format_caches(rows):
    row = "{:24s} {:>12s} {:>12s}".format
    lines = [row("cache figure", "REF median", "tree median")]
    for name, ref, tree in rows:
        lines.append(row(name, f"{ref:g}", f"{tree:g}"))
    return "\n".join(lines)


def kinds_record(rows):
    """The per-kind rows as a JSON-ready dict, one entry per kind."""
    return {kind: {"ref": ref, "tree": tree, "wins": wins} for kind, ref, tree, wins in rows}


def summary_record(ref, commit, workload, seed, seconds, rows, n_pairs):
    """The printed summary as a JSON-ready dict, one entry per metric."""

    def side(q):
        return {"q1": q[0], "median": q[1], "q3": q[2]}

    return {
        "ref": ref,
        "ref_commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": n_pairs,
        "metrics": {
            name: {
                "better": better,
                "ref": side(ref_q),
                "tree": side(tree_q),
                "wins": wins,
                "apart": apart,
            }
            for name, better, ref_q, tree_q, wins, apart in rows
        },
    }


def compare_replays(ref, tree):
    """Whether two `bench/run.py --replay` results give the same answers
    (digests) and the same fuel, operation by operation.  When the fuel
    differs, `fuel_fell` and `fuel_rose` count the operations whose fuel
    the tree lowers and raises, with the first indices of each."""
    replay = {
        "ops": len(ref["digests"]),
        "digests_identical": ref["digests"] == tree["digests"],
        "fuel_identical": ref["fuel"] == tree["fuel"],
    }
    if not replay["fuel_identical"]:
        pairs = list(enumerate(zip(ref["fuel"], tree["fuel"])))
        for key, moved in (("fuel_fell", lambda a, b: b < a), ("fuel_rose", lambda a, b: b > a)):
            ops = [i for i, (a, b) in pairs if moved(a, b)]
            replay[key] = {"ops": len(ops), "first": ops[:FUEL_MOVES_SHOWN]}
    return replay


def format_replay(replay):
    def same(flag):
        return "identical" if flag else "DIFFERENT"

    def moves(word, moved):
        first = " ".join(map(str, moved["first"]))
        if moved["ops"] > len(moved["first"]):
            first += " ..."
        return f"{word} on {moved['ops']} ops" + (f" ({first})" if moved["ops"] else "")

    line = (
        f"replay {replay['ops']} ops: digests {same(replay['digests_identical'])},"
        f" per-op fuel {same(replay['fuel_identical'])}"
    )
    if replay["fuel_identical"]:
        return line
    return f"{line}: {moves('fell', replay['fuel_fell'])}, {moves('rose', replay['fuel_rose'])}"


def commit_of(ref: str) -> str:
    """The commit id `ref` names in the repository."""
    return subprocess.run(
        ["git", "rev-parse", ref], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(ref: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def copy_tree(into: Path, root: Path = ROOT) -> None:
    """Copy the working tree's tracked files, and its untracked files that
    git does not ignore, from `root` to `into`."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():  # a tracked file deleted in the tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def bench_line(checkout: Path, *argv) -> dict:
    """The last line of a `bench/run.py` run in the checkout, parsed, with
    the `kinds` and `caches` blocks and the `setup_wall_s` timings of the
    line before it when it has them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2]) if len(lines) > 1 else {}
    for block in ("kinds", "caches", "setup_wall_s"):
        if block in info:
            result[block] = info[block]
    return result


def run_replay(checkout: Path, workload: str, seed: int) -> dict:
    return bench_line(
        checkout, "--workload", workload, "--seed", str(seed), "--replay", str(REPLAY_OPS)
    )


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    result = bench_line(
        checkout, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    )
    if not result["correct"]:
        sys.exit(f"error: incorrect run in {checkout}: {result}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref")
    parser.add_argument("--workload", required=True, choices=("codec", "transform", "check"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--aa", type=int, default=0, help="pairs of REF against REF to run first")
    parser.add_argument("--json", type=Path, default=None, help="also write the summary here")
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    ref_dir, tree_dir = scratch / "ref", scratch / "tree"
    try:
        extract(args.ref, ref_dir)
        copy_tree(tree_dir)
        replay = compare_replays(
            *(run_replay(c, args.workload, args.seed) for c in (ref_dir, tree_dir))
        )
        print(format_replay(replay), flush=True)
        aa = [
            tuple(run_bench(ref_dir, args.workload, args.seed, args.seconds) for _ in range(2))
            for _ in range(args.aa)
        ]
        spread = aa_spread(aa, end_to_end) if aa else {}
        if spread:
            print(format_spread(spread, len(aa)), flush=True)
        pairs = []
        for i in range(args.pairs):
            order = (ref_dir, tree_dir) if i % 2 == 0 else (tree_dir, ref_dir)
            runs = {c: run_bench(c, args.workload, args.seed, args.seconds) for c in order}
            pairs.append((runs[ref_dir], runs[tree_dir]))
            ops = [p["metrics"]["ops_per_s"]["value"] for p in pairs[-1]]
            print(f"pair {i + 1}: ops_per_s REF {ops[0]:.4g} tree {ops[1]:.4g}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rows = kind_rows = cache_rows = []
    probe_spread = setup_probe_spread(pairs)
    if pairs:
        print(f"setup_s probe spread {probe_spread:.6g}")
        noise = dict(spread, setup_s=max(spread.get("setup_s", 0), probe_spread))
        rows = summarize(pairs, end_to_end, noise)
        print(format_rows(rows, len(pairs)))
        kind_rows = summarize_kinds(pairs)
        print(format_kinds(kind_rows, len(pairs)))
        cache_rows = summarize_caches(pairs)
        print(format_caches(cache_rows))
    if args.json is not None:
        record = summary_record(
            args.ref, commit_of(args.ref), args.workload, args.seed, args.seconds, rows, len(pairs)
        )
        record["kinds"] = kinds_record(kind_rows)
        record["caches"] = {name: {"ref": ref, "tree": tree} for name, ref, tree in cache_rows}
        record["aa"] = {"pairs": len(aa), "spread": spread}
        record["setup_probe_spread"] = probe_spread
        record["replay"] = replay
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if replay["digests_identical"] and replay["fuel_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
