"""The demos the README documents under scripts/ run to completion, and the
benchmark-pairs script summarizes result lines as it says."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv", [["loop_trace_demo.py"], ["check_all_witnesses.py", "2"]], ids=lambda a: a[0]
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout


def test_check_all_witnesses_prints_each_entry_s_fuel(capsys):
    from baire.reductions import witness_library

    path = ROOT / "scripts" / "check_all_witnesses.py"
    spec = importlib.util.spec_from_file_location("check_all_witnesses", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(1) == 0
    fuel = dict(re.findall(r"^(\S+) .* fuel=(\d+) -> ok$", capsys.readouterr().out, re.M))
    library = witness_library().items()
    assert fuel == {name: str(entry.run_check(seeds=1).fuel_spent) for name, entry in library}


def _bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(ops_per_s, p50):
    # a `bench/run.py` result line carrying two of its metrics
    return json.dumps(
        {
            "correct": True,
            "attempted": 200,
            "failed": 0,
            "metrics": {
                "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                "op_s.p50": {"value": p50, "unit": "s"},
            },
        }
    )


def test_bench_pairs_summarizes_medians_quartiles_and_wins():
    bench_pairs = _bench_pairs()
    ref = [_result_line(ops, 0.007) for ops in (31.0, 32.0, 33.0, 34.0, 35.0)]
    tree = [
        _result_line(ops, p50)
        for ops, p50 in ((48.0, 0.005), (47.0, 0.007), (30.0, 0.008), (49.0, 0.004), (50.0, 0.005))
    ]
    pairs = [(json.loads(r), json.loads(t)) for r, t in zip(ref, tree)]
    metrics = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_s.p50", "better": "lower"}]
    ops, p50 = bench_pairs.summarize(pairs, metrics)
    assert ops == ("ops_per_s", "higher", (32.0, 33.0, 34.0), (47.0, 48.0, 49.0), 4, True)
    # a tie is not a win, and a median inside REF's (empty) spread is apart
    assert p50 == ("op_s.p50", "lower", (0.007, 0.007, 0.007), (0.005, 0.005, 0.007), 3, True)
    table = bench_pairs.format_rows([ops, p50], len(pairs)).splitlines()
    assert table[1].split() == [
        "ops_per_s", "higher", "33", "[32,", "34]", "48", "[47,", "49]", "4/5", "yes"
    ]
    assert table[2].split()[-2:] == ["3/5", "yes"]


def test_bench_pairs_summarizes_one_pair():
    bench_pairs = _bench_pairs()
    pairs = [(json.loads(_result_line(30.0, 0.01)), json.loads(_result_line(29.0, 0.01)))]
    (row,) = bench_pairs.summarize(pairs, [{"name": "ops_per_s", "better": "higher"}])
    assert row == ("ops_per_s", "higher", (30.0, 30.0, 30.0), (29.0, 29.0, 29.0), 0, True)


def test_bench_pairs_writes_its_summary_as_json():
    bench_pairs = _bench_pairs()
    ref = [_result_line(ops, 0.007) for ops in (31.0, 32.0, 33.0)]
    tree = [_result_line(ops, 0.006) for ops in (40.0, 30.0, 41.0)]
    pairs = [(json.loads(r), json.loads(t)) for r, t in zip(ref, tree)]
    metrics = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_s.p50", "better": "lower"}]
    rows = bench_pairs.summarize(pairs, metrics)
    record = bench_pairs.summary_record("HEAD~1", "abc123", "transform", 31, 25.0, rows, len(pairs))
    assert json.loads(json.dumps(record)) == {
        "ref": "HEAD~1",
        "ref_commit": "abc123",
        "workload": "transform",
        "seed": 31,
        "seconds": 25.0,
        "pairs": 3,
        "metrics": {
            "ops_per_s": {
                "better": "higher",
                "ref": {"q1": 31.5, "median": 32.0, "q3": 32.5},
                "tree": {"q1": 35.0, "median": 40.0, "q3": 40.5},
                "wins": 2,
                "apart": True,
            },
            "op_s.p50": {
                "better": "lower",
                "ref": {"q1": 0.007, "median": 0.007, "q3": 0.007},
                "tree": {"q1": 0.006, "median": 0.006, "q3": 0.006},
                "wins": 3,
                "apart": True,
            },
        },
    }


def _replay_line(digests, fuel):
    # a `bench/run.py --replay` result line
    return json.dumps({"digests": digests, "fuel": fuel, "failed": 0})


def test_bench_pairs_compares_replay_answers_and_fuel():
    bench_pairs = _bench_pairs()
    ref = json.loads(_replay_line(["a1", "b2", "c3"], [10, 0, 7]))
    same = bench_pairs.compare_replays(ref, json.loads(_replay_line(["a1", "b2", "c3"], [10, 0, 7])))
    assert same == {"ops": 3, "digests_identical": True, "fuel_identical": True}
    assert bench_pairs.format_replay(same) == "replay 3 ops: digests identical, per-op fuel identical"
    # the same total fuel, spent by different operations
    moved = bench_pairs.compare_replays(ref, json.loads(_replay_line(["a1", "b2", "c3"], [9, 1, 7])))
    assert moved == {
        "ops": 3,
        "digests_identical": True,
        "fuel_identical": False,
        "fuel_fell": {"ops": 1, "first": [0]},
        "fuel_rose": {"ops": 1, "first": [1]},
    }
    answer = bench_pairs.compare_replays(ref, json.loads(_replay_line(["a1", "xx", "c3"], [10, 0, 7])))
    assert bench_pairs.format_replay(answer) == (
        "replay 3 ops: digests DIFFERENT, per-op fuel identical"
    )


def test_bench_pairs_shows_which_way_the_replay_fuel_moved(monkeypatch, capsys, tmp_path):
    bench_pairs = _bench_pairs()
    fuel = [10, 20, 30, 40, 50, 60, 70, 80]
    tree = [9, 19, 29, 41, 49, 48, 70, 79]  # 6 fell, 1 rose, 1 kept
    ref_line, tree_line = _replay_line(["d"] * 8, fuel), _replay_line(["d"] * 8, tree)
    replay = bench_pairs.compare_replays(json.loads(ref_line), json.loads(tree_line))
    assert replay["fuel_fell"] == {"ops": 6, "first": [0, 1, 2, 4, 5]}
    assert replay["fuel_rose"] == {"ops": 1, "first": [3]}
    assert bench_pairs.format_replay(replay) == (
        "replay 8 ops: digests identical, per-op fuel DIFFERENT:"
        " fell on 6 ops (0 1 2 4 5 ...), rose on 1 ops (3)"
    )
    only_fell = bench_pairs.compare_replays(
        json.loads(ref_line), json.loads(_replay_line(["d"] * 8, fuel[:7] + [1]))
    )
    assert bench_pairs.format_replay(only_fell).endswith("fell on 1 ops (7), rose on 0 ops")
    # the exit status is still 1, and --json records the moves with the replay
    out = tmp_path / "pairs.json"
    status, runs = _main_on_canned_runs(monkeypatch, ref_line, tree_line, 0, extra=["--json", str(out)])
    assert (status, runs) == (1, [])
    assert capsys.readouterr().out.splitlines()[0] == bench_pairs.format_replay(replay)
    assert json.loads(out.read_text())["replay"] == replay


def _kinds_line(medians):
    # a `bench/run.py` result line with the `kinds` block of the line before
    # it, as `bench_line` merges them; `medians` maps a kind to its median_s
    result = json.loads(_result_line(40.0, 0.005))
    result["kinds"] = {
        kind: {"ops": 9, "failed": 0, "median_s": median} for kind, median in medians.items()
    }
    return result


def test_bench_pairs_summarizes_per_kind_medians_and_wins():
    bench_pairs = _bench_pairs()
    ref = [
        {"extract": 0.070, "fix": 0.005},
        {"extract": 0.066, "fix": 0.006},
        {"extract": 0.072, "fix": 0.004},
    ]
    tree = [
        {"extract": 0.052, "fix": 0.005, "quine": 0.001},
        {"extract": 0.068, "fix": 0.005},
        {"extract": 0.050, "fix": 0.005},
    ]
    pairs = [(_kinds_line(r), _kinds_line(t)) for r, t in zip(ref, tree)]
    rows = bench_pairs.summarize_kinds(pairs)
    # a kind some run lacks has no row; a tie is not a win
    assert rows == [("extract", 0.070, 0.052, 2), ("fix", 0.005, 0.005, 1)]
    table = bench_pairs.format_kinds(rows, len(pairs)).splitlines()
    assert table[0].split() == ["kind", "REF", "median_s", "tree", "median_s", "REF/tree", "wins"]
    assert table[1].split() == ["extract", "0.07", "0.052", "1.346", "2/3"]
    assert table[2].split() == ["fix", "0.005", "0.005", "1.000", "1/3"]
    assert json.loads(json.dumps(bench_pairs.kinds_record(rows))) == {
        "extract": {"ref": 0.070, "tree": 0.052, "wins": 2},
        "fix": {"ref": 0.005, "tree": 0.005, "wins": 1},
    }
    # result lines without a `kinds` block give no rows
    bare = [(json.loads(_result_line(30.0, 0.01)), json.loads(_result_line(31.0, 0.01)))]
    assert bench_pairs.summarize_kinds(bare) == []


def _full_result_line(value):
    # a `bench/run.py` result line carrying every end-to-end metric
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    return {"correct": True, "metrics": {name: {"value": value} for name in names}}


def _main_on_canned_runs(monkeypatch, ref_replay, tree_replay, pairs, result=None, extra=()):
    """bench_pairs.main with --pairs `pairs` and the arguments `extra` on
    canned replay and result lines (`result(checkout, run)` when given), no
    checkout extracted, no commit looked up and no benchmark run: (exit
    status, runs made)."""
    bench_pairs = _bench_pairs()
    runs = []
    monkeypatch.setattr(bench_pairs, "commit_of", lambda ref: "0" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, into: None)
    monkeypatch.setattr(bench_pairs, "copy_tree", lambda into: None)

    def run_replay(checkout, workload, seed):
        return json.loads(tree_replay if checkout.name == "tree" else ref_replay)

    def run_bench(checkout, workload, seed, seconds):
        runs.append(checkout)
        return result(checkout, len(runs)) if result else _full_result_line(1.0)

    monkeypatch.setattr(bench_pairs, "run_replay", run_replay)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    argv = ["HEAD", "--workload", "transform", "--pairs", str(pairs), *extra]
    return bench_pairs.main(argv), runs


def test_bench_pairs_with_zero_pairs_stops_after_the_replay(monkeypatch, capsys):
    same = _replay_line(["a1", "b2"], [10, 7])
    status, runs = _main_on_canned_runs(monkeypatch, same, same, 0)
    assert (status, runs) == (0, [])
    assert capsys.readouterr().out == "replay 2 ops: digests identical, per-op fuel identical\n"


@pytest.mark.parametrize("pairs", [0, 2])
@pytest.mark.parametrize(
    "tree", [_replay_line(["a1", "b2"], [9, 8]), _replay_line(["a1", "xx"], [10, 7])],
    ids=["fuel", "digest"],
)
def test_bench_pairs_exits_1_when_the_replays_differ(monkeypatch, capsys, tree, pairs):
    status, runs = _main_on_canned_runs(monkeypatch, _replay_line(["a1", "b2"], [10, 7]), tree, pairs)
    assert (status, len(runs)) == (1, 2 * pairs)
    assert "DIFFERENT" in capsys.readouterr().out.splitlines()[0]


def test_bench_pairs_prints_and_records_the_median_cache_figures(monkeypatch, capsys, tmp_path):
    # the `caches` block of `bench/run.py`'s info line, as `bench_line` keeps it
    def result(checkout, run):
        line = _full_result_line(1.0)
        grown = 1000 * run if checkout.name == "ref" else 0
        line["caches"] = {
            "decode_entries": {"hits": 9, "misses": 5, "maxsize": 64, "currsize": 64 + grown},
            "eval_name": {"hits": 9, "misses": 5, "maxsize": 256, "currsize": 256 + 2 * grown},
            "word_pool_len": 11912 + run,
        }
        return line

    same = _replay_line(["a1", "b2"], [10, 7])
    out = tmp_path / "pairs.json"
    status, runs = _main_on_canned_runs(monkeypatch, same, same, 3, result, ["--json", str(out)])
    assert status == 0 and len(runs) == 6
    # the ref side runs 1st, 4th and 5th; the median is over the pairs
    table = capsys.readouterr().out.splitlines()[-4:]
    assert [line.split() for line in table] == [
        ["cache", "figure", "REF", "median", "tree", "median"],
        ["decode_entries.currsize", "4064", "64"],
        ["eval_name.currsize", "8256", "256"],
        ["word_pool_len", "11916", "11915"],
    ]
    assert json.loads(out.read_text())["caches"] == {
        "decode_entries.currsize": {"ref": 4064, "tree": 64},
        "eval_name.currsize": {"ref": 8256, "tree": 256},
        "word_pool_len": {"ref": 11916, "tree": 11915},
    }
    # result lines without a `caches` block give no rows
    bare = [(json.loads(_result_line(30.0, 0.01)), json.loads(_result_line(31.0, 0.01)))]
    assert _bench_pairs().summarize_caches(bare) == []


def test_bench_pairs_copies_the_tree_git_would_commit(tmp_path):
    # tracked files, edited or not, and untracked files git does not ignore
    # are copied; ignored files and tracked files deleted in the tree are not
    repo, into = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    files = {"src/a.py": "a = 1\n", "gone.py": "", ".gitignore": "*.pyc\nout/\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "seed"], cwd=repo, check=True)
    (repo / "src/a.py").write_text("a = 2\n")
    (repo / "gone.py").unlink()
    (repo / "src/new.py").write_text("b = 3\n")
    (repo / "src/a.pyc").write_text("")
    (repo / "out").mkdir()
    (repo / "out/run.json").write_text("{}")
    _bench_pairs().copy_tree(into, repo)
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/a.py", "src/new.py"]
    assert (into / "src/a.py").read_text() == "a = 2\n"



def test_bench_pairs_reads_apart_only_beyond_the_aa_spread(monkeypatch, capsys, tmp_path):
    # the A/A runs of REF read ops_per_s 10 and 13 and op_s.p50 6 and 6.5;
    # in the pairs REF reads 11 and 6 every time and the tree 13 and 1.  The
    # tree's ops_per_s median is 2 above REF's, beyond REF's interquartile
    # range (0) but within the A/A spread (3); its p50 is beyond both
    aa_values = [(10.0, 6.0), (13.0, 6.5)]

    def result(checkout, run):
        line = _full_result_line(1.0)
        if checkout.name == "tree":
            ops, p50 = 13.0, 1.0
        elif run <= 2 * aa:
            ops, p50 = aa_values[run % 2]
        else:
            ops, p50 = 11.0, 6.0
        line["metrics"]["ops_per_s"]["value"] = ops
        line["metrics"]["op_s.p50"]["value"] = p50
        return line

    same = _replay_line(["a1", "b2"], [10, 7])
    apart = {}
    for aa in (0, 2):
        out = tmp_path / f"aa{aa}.json"
        status, runs = _main_on_canned_runs(
            monkeypatch, same, same, 4, result, ["--aa", str(aa), "--json", str(out)]
        )
        assert status == 0 and len(runs) == 2 * aa + 8
        assert [c.name for c in runs[: 2 * aa]] == ["ref"] * 2 * aa
        record = json.loads(out.read_text())
        apart[aa] = {name: m["apart"] for name, m in record["metrics"].items()}
        printed = capsys.readouterr().out.splitlines()
    assert apart[0]["ops_per_s"] and apart[0]["op_s.p50"]
    assert not apart[2]["ops_per_s"] and apart[2]["op_s.p50"]
    assert record["aa"]["pairs"] == 2
    assert (record["aa"]["spread"]["ops_per_s"], record["aa"]["spread"]["op_s.p50"]) == (3.0, 0.5)
    assert printed[1].split()[:3] == ["metric", "A/A", "spread"]
    assert ["ops_per_s", "3"] in [line.split() for line in printed]


def test_bench_pairs_reads_setup_apart_only_beyond_the_probe_spread(monkeypatch, capsys, tmp_path):
    # every pair reads setup_s 80 ms on REF and 84 ms on the tree, so REF's
    # interquartile range is 0.  Loose runs time their nine set-ups at 90,
    # 95, .., 130 ms (interquartile range 20 around a median of 110, so the
    # spread is 20/110 of the run's setup_s, about 15 ms); tight runs at 100
    # ms each.  The 4 ms move is apart only with tight runs, and result
    # lines without the timings leave it apart as before
    def runs(walls):
        def result(checkout, run):
            line = _full_result_line(1.0)
            line["metrics"]["setup_s"]["value"] = 0.084 if checkout.name == "tree" else 0.080
            if walls is not None:
                line["setup_wall_s"] = walls
            return line

        return result

    same = _replay_line(["a1", "b2"], [10, 7])
    loose = [0.090 + 0.005 * i for i in range(9)]
    apart, spread = {}, {}
    for label, walls in (("loose", loose), ("tight", [0.1] * 9), ("none", None)):
        out = tmp_path / f"{label}.json"
        status, runs_made = _main_on_canned_runs(
            monkeypatch, same, same, 4, runs(walls), ["--json", str(out)]
        )
        assert status == 0 and len(runs_made) == 8
        record = json.loads(out.read_text())
        apart[label] = record["metrics"]["setup_s"]["apart"]
        spread[label] = record["setup_probe_spread"]
        printed = capsys.readouterr().out.splitlines()
        assert f"setup_s probe spread {spread[label]:.6g}" in printed
    assert apart == {"loose": False, "tight": True, "none": True}
    assert spread["loose"] == pytest.approx(0.082 * 0.02 / 0.11)
    assert spread["tight"] == spread["none"] == 0


@pytest.mark.parametrize("lines", [False, True], ids=["functions", "lines"])
def test_sample_profile_prints_a_count_and_a_share_per_row(lines):
    # the shape of the report only: the shares depend on the host
    argv = ["--workload", "codec", "--kinds", "raw_open", "--ops", "60", "--seed", "1"]
    argv += ["--lines"] if lines else []
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sample_profile.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert re.fullmatch(r"samples [1-9]\d*", head)
    assert columns.split() == (["self%", "line"] if lines else ["self%", "cum%", "function"])
    row = r" *\d+\.\d  +\S+:\d+ \S+" if lines else r" *\d+\.\d +\d+\.\d  +\S+:\d+ \S+"
    assert rows and all(re.fullmatch(row, line) for line in rows)
    assert any("src/baire/" in line for line in rows)
