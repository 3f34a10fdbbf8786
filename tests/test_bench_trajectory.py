"""The committed performance trajectory and the A/B command that writes it."""

import importlib.util
import json
import os
import re
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = {"run_s", "setup_s", "elem_steps_per_s", "peak_rss_mb"}
WORKLOADS = {"vortex_ec", "sod_mood", "implicit_lxf"}


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(ROOT, "tools", "bench_ab.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trajectory_entry_names_its_script_environment_and_parent():
    with open(os.path.join(ROOT, "BENCH_trajectory.json")) as fh:
        entries = json.load(fh)
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert isinstance(entry["script"], str) and entry["script"]
        assert isinstance(entry["environment"], dict) and entry["environment"].get("python")
        parent = entry["parent_commit"]
        assert (re.fullmatch(r"[0-9a-f]{7,}", parent)
                or re.fullmatch(r"src-sha256:[0-9a-f]{16}", parent))
        assert entry["workload"] in WORKLOADS
        assert set(entry["metrics"]) == END_TO_END
        for metric in entry["metrics"].values():
            for side in ("parent", "change"):
                assert isinstance(metric[side]["median"], (int, float))
        if entry["script"] != "tools/bench_ab.py":
            # hand-interleaved runs copied from the change log
            assert entry["source"] == "CHANGES.md"


def _result(run_s, digest, ok=True):
    reps = [
        {"ok": ok, "traced": False, "run_s": t, "setup_s": 0.1, "n_elems": 10, "n_steps": 5,
         "peak_rss_mb": 70.0, "facts": {"digest": digest}}
        for t in run_s
    ]
    return {"env": {"python": "3.x", "numpy": "n", "scipy": "s", "blas": "b"}, "reps": reps}


def test_ab_summary_alternates_sides_and_records(tmp_path, monkeypatch):
    tool = _load_tool()
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((os.path.basename(tree), seed))
        # the change is faster on every pair but the second
        times = {"parent": [2.0, 2.2, 1.8], "change": [1.0, 1.1, 0.9]}[os.path.basename(tree)]
        if os.path.basename(tree) == "change" and seed == 8:
            times = [3.0, 3.0, 3.0]
        return _result(times, "abc")

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower"}, {"name": "elem_steps_per_s", "better": "higher"},
        ]}))
    trajectory = tmp_path / "BENCH_trajectory.json"
    monkeypatch.setattr(tool, "run_side", fake_run)
    monkeypatch.setattr(tool, "TRAJECTORY", str(trajectory))
    code = tool.main([
        "--base", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "vortex_ec", "--pairs", "3", "--seconds", "1", "--first-seed", "7",
        "--record", "test",
    ])
    assert code == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9)]
    entry = json.loads(trajectory.read_text())[-1]
    assert entry["script"] == "tools/bench_ab.py" and entry["seeds"] == [7, 8, 9]
    assert entry["metrics"]["run_s"]["change_wins"] == 2
    assert entry["metrics"]["elem_steps_per_s"]["change_wins"] == 2
    assert entry["metrics"]["run_s"]["parent"]["median"] == pytest.approx(2.0)
    assert entry["digests_equal"] is True


def test_ab_prints_the_median_paired_difference_in_the_metric_unit(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    rss = {("parent", 1): 70.0, ("change", 1): 70.2, ("parent", 2): 71.0, ("change", 2): 71.3,
           ("parent", 3): 70.5, ("change", 3): 70.6}

    def fake_run(tree, workload, seed, seconds):
        side = os.path.basename(tree)
        result = _result([1.0], "d")
        result["reps"][0]["peak_rss_mb"] = rss[side, seed]
        return result

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
            {"name": "run_s", "better": "lower"}]}))
    monkeypatch.setattr(tool, "run_side", fake_run)
    assert tool.main(["--base", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "vortex_ec", "--pairs", "3", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the differences are +0.2, +0.3 and +0.1 MB; a metric without a unit prints none
    assert [ln for ln in lines if ln.startswith("peak_rss_mb")][0].endswith(
        "; paired difference +0.2 MB")
    assert [ln for ln in lines if ln.startswith("run_s")][0].endswith("; paired difference +0")


def test_ab_prints_the_src_line_count_of_both_trees(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "run_side", lambda tree, workload, seed, seconds: _result([1.0], "d"))
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                        ("change", {"a.py": "x = 1\n", "notes.txt": "not\ncounted\n"})):
        lib = tmp_path / side / "src" / "rdeuler"
        lib.mkdir(parents=True)
        for name, text in files.items():
            (lib / name).write_text(text)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower"}]}))
    assert tool.main(["--base", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "vortex_ec", "--pairs", "1", "--seconds", "1"]) == 0
    assert "src lines: parent 3, change 1" in capsys.readouterr().out.splitlines()
    assert tool.src_lines(str(tmp_path / "missing")) == "n/a"


def test_ab_run_metrics_skip_failed_repetitions():
    tool = _load_tool()
    result = _result([1.0, 3.0], "d")
    result["reps"].append(_result([0.1], "d", ok=False)["reps"][0])
    m = tool.run_metrics(result)
    assert m["run_s"] == pytest.approx(2.0)
    # like bench/run.py: the median of the per-repetition rates
    assert m["elem_steps_per_s"] == pytest.approx(0.5 * (50.0 + 50.0 / 3.0))


def test_ab_verdict_against_the_bound():
    tool = _load_tool()

    def pairs(parent, change, name="run_s"):
        return [({name: p}, {name: c}) for p, c in zip(parent, change)]

    tight = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0]
    # spread 0.02 of the median: the medians decide
    assert tool.verdict(pairs(tight, [1.2] * 8), "run_s", "lower", 0.25) == "no worse"
    assert tool.verdict(pairs(tight, [1.3] * 8), "run_s", "lower", 0.25) == "worse"
    assert tool.verdict(pairs(tight, [0.5] * 8), "run_s", "lower", 0.25) == "no worse"
    # a higher-is-better rate: a lower change median is the worse one
    assert tool.verdict(pairs(tight, [0.7] * 8, "r"), "r", "higher", 0.25) == "worse"
    assert tool.verdict(pairs(tight, [0.8] * 8, "r"), "r", "higher", 0.25) == "no worse"
    # parent p25-p75 spread 0.5 of its median, wider than the bound
    wide = [0.5, 0.6, 1.0, 1.0, 1.0, 1.4, 1.5, 1.0]
    assert tool.verdict(pairs(wide, [1.0] * 8), "run_s", "lower", 0.25) == "unresolved"
    assert tool.verdict(pairs(wide, [2.0] * 8), "run_s", "lower", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert tool.verdict(pairs(wide, [0.4] * 8), "run_s", "lower", 0.25) == "no worse"
    assert tool.verdict(pairs(wide, [1.6] * 8, "r"), "r", "higher", 0.25) == "no worse"


def test_ab_prints_a_verdict_for_each_metric_with_a_bound(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    times = {"parent": [2.0], "change": [3.0]}
    monkeypatch.setattr(tool, "run_side", lambda tree, workload, seed, seconds: _result(
        times[os.path.basename(tree)], "d"))
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower"}]}))
    assert tool.main(["--base", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "vortex_ec", "--pairs", "2", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "run_s verdict (bound 0.25): worse" in lines
    assert not [ln for ln in lines if ln.startswith("peak_rss_mb verdict")]


def _write_final_snapshot(tree, workload, U):
    out = tree / ".bench_out" / workload / "out"
    out.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{i},0.0,0.0,{','.join(repr(v) for v in u)}\n" for i, u in enumerate(U))
    (out / "snap_final.csv").write_text(
        "# rdeuler snapshot\n# mesh_hash=x t=0.25 config_hash=y\ndof_id,x,y,rho,mx,my,E\n" + rows
    )


def test_ab_states_the_final_u_change_of_differing_digests(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    base = [[1.0, 0.5, -0.25, 2.0], [2.0, -1.0, 0.5, 4.0]]
    # the change moves rho by 1e-10 and E by 4e-12 of their largest values
    moved = [[1.0, 0.5, -0.25, 2.0], [2.0 + 2e-10, -1.0, 0.5, 4.0 - 1.6e-11]]

    def fake_run(tree, workload, seed, seconds):
        side = os.path.basename(tree)
        _write_final_snapshot(tmp_path / side, workload, moved if side == "change" else base)
        return _result([1.0], "new" if side == "change" else "old")

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower"}]}))
    monkeypatch.setattr(tool, "run_side", fake_run)
    code = tool.main(["--base", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "vortex_ec", "--pairs", "2", "--seconds", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "digests equal: no" in out
    for pair in (1, 2):
        assert f"# pair {pair} seed {pair}: final U max relative change per component 1e-10 0 0 4e-12" in out
    rel = tool.relative_change(tool.final_u(str(tmp_path / "parent"), "vortex_ec"),
                               tool.final_u(str(tmp_path / "change"), "vortex_ec"))
    assert rel == pytest.approx([1e-10, 0.0, 0.0, 4e-12], rel=1e-5)
    # a tree against itself reads 0 in every component
    same = tool.final_u(str(tmp_path / "parent"), "vortex_ec")
    assert tool.relative_change(same, same) == [0.0, 0.0, 0.0, 0.0]


def test_ab_summarizes_and_records_the_final_u_change_over_pairs(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    base = [[1.0, 0.5, -0.25, 2.0], [2.0, -1.0, 0.5, 4.0]]
    # pair 1 moves rho by 1e-10 of its largest value, pair 2 E by 4e-12
    # and rho by 5e-11; pair 3 has no snapshot on the change side
    moved = {1: [[1.0, 0.5, -0.25, 2.0], [2.0 + 2e-10, -1.0, 0.5, 4.0]],
             2: [[1.0 + 1e-10, 0.5, -0.25, 2.0], [2.0, -1.0, 0.5, 4.0 - 1.6e-11]]}

    def fake_run(tree, workload, seed, seconds):
        side = os.path.basename(tree)
        snap = tmp_path / side / ".bench_out" / workload / "out" / "snap_final.csv"
        if side == "change" and seed == 3:
            snap.unlink()
        else:
            _write_final_snapshot(tmp_path / side, workload, moved[seed] if side == "change" else base)
        return _result([1.0], "new" if side == "change" else "old")

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower"}]}))
    trajectory = tmp_path / "BENCH_trajectory.json"
    monkeypatch.setattr(tool, "run_side", fake_run)
    monkeypatch.setattr(tool, "TRAJECTORY", str(trajectory))
    assert tool.main(["--base", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "vortex_ec", "--pairs", "3", "--seconds", "1",
                      "--record", "test"]) == 0
    out = capsys.readouterr().out
    assert "final U max relative change over pairs: 1e-10 0 0 4e-12\n" in out
    entry = json.loads(trajectory.read_text())[-1]
    assert entry["final_u_change"] == pytest.approx([1e-10, 0.0, 0.0, 4e-12], rel=1e-5)
    # without any pair of snapshots there is no change to state
    assert tool.max_over_pairs([None, None]) is None


def test_ab_reads_each_final_u_before_the_other_side_runs(tmp_path, monkeypatch, capsys):
    # a tree against itself: both sides write the same snapshot file, and
    # a second run that moves rho must still show up
    tool = _load_tool()
    runs = []

    def fake_run(tree, workload, seed, seconds):
        runs.append(seed)
        U = [[1.0 + (1e-9 if len(runs) == 2 else 0.0), 0.0, 0.0, 2.0]]
        _write_final_snapshot(tmp_path / "tree", workload, U)
        return _result([1.0], "d")

    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "better": "lower"}]}))
    monkeypatch.setattr(tool, "run_side", fake_run)
    tree = str(tmp_path / "tree")
    assert tool.main(["--base", tree, "--change", tree, "--workload", "sod_mood",
                      "--pairs", "1", "--seconds", "1"]) == 0
    assert "# pair 1 seed 1: final U max relative change per component 1e-09 0 0 0" in capsys.readouterr().out


def test_a_tree_without_git_is_named_by_a_hash_of_its_src(tmp_path, monkeypatch):
    tool = _load_tool()
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src", "rdeuler"), tree / "src" / "rdeuler",
                    ignore=shutil.ignore_patterns("__pycache__"))
    commit, uncommitted = tool.git_commit(str(tree))
    assert re.fullmatch(r"src-sha256:[0-9a-f]{16}", commit) and not uncommitted
    # the hash bench/run.py records for the same tree
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    monkeypatch.chdir(tree)
    assert commit == "src-sha256:" + bench_run.environment(1)["src_sha256"]
    # one changed byte of the library changes the name
    path = tree / "src" / "rdeuler" / "euler.py"
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    assert tool.git_commit(str(tree))[0] != commit
