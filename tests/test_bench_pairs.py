import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(op_p50_ms, ops_per_s, attempted=10, failed=0, correct=True):
    """A perfbench result line with two end-to-end metrics."""
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


def test_summary_quartiles_and_won_pairs():
    """Quartiles per side, and pairs won in each metric's direction; a tie
    counts for neither side; workloads keep their order of appearance."""
    parent_ms, change_ms = [10.0, 12.0, 14.0, 16.0, 18.0], [8.0, 12.0, 15.0, 9.0, 9.0]
    pairs = [{"workload": "w", "seed": s, "pair": s, "first": "parent",
              "parent": result_line(p, 1e3 / p), "change": result_line(c, 1e3 / c)}
             for s, (p, c) in enumerate(zip(parent_ms, change_ms))]
    pairs.append({"workload": "v", "seed": 0, "pair": 0, "first": "change",
                  "parent": result_line(5.0, 1.0), "change": result_line(6.0, 2.0)})
    summary = bench_pairs.summarize(pairs, {"op_p50_ms": "lower", "ops_per_s": "higher"})
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert w["op_p50_ms"]["parent"] == {"q25": 12.0, "median": 14.0, "q75": 16.0}
    assert w["op_p50_ms"]["change"] == {"q25": 9.0, "median": 9.0, "q75": 12.0}
    # pairs 0, 3 and 4 are faster, pair 1 ties and pair 2 is slower
    assert w["op_p50_ms"]["change_better_pairs"] == "3/5"
    assert w["ops_per_s"]["change_better_pairs"] == "3/5"
    assert w["ops_per_s"]["parent"]["median"] == pytest.approx(1e3 / 14.0)
    assert summary["v"]["op_p50_ms"]["change_better_pairs"] == "0/1"
    assert summary["v"]["ops_per_s"]["change_better_pairs"] == "1/1"


def test_summary_failed_share_and_correctness():
    """Each side's failed share pools its runs' ops; one incorrect run makes
    the side not all correct."""
    pairs = [{"workload": "w", "seed": s, "pair": s, "first": "parent",
              "parent": result_line(5.0, 1.0, attempted=a, failed=f),
              "change": result_line(5.0, 1.0, attempted=3, failed=2, correct=s == 0)}
             for s, (a, f) in enumerate([(3, 2), (6, 4), (1, 0)])]
    summary = bench_pairs.summarize(pairs, {"op_p50_ms": "lower"})["w"]
    assert summary["failed_share"] == {"parent": 6 / 10, "change": 6 / 9}
    assert summary["all_correct"] == {"parent": True, "change": False}


def run_main(tmp_path, monkeypatch, fake_perfbench, runs):
    """bench_pairs.main with ``fake_perfbench`` in place of perfbench runs,
    the change checkout at tmp_path; its exit code and the written JSON."""
    spec = {"run_seconds": 1, "end_to_end": [{"name": "op_p50_ms", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
                             "--out", str(out), "--runs", runs])
    return code, json.loads(out.read_text())


def test_failed_run_keeps_finished_pairs(tmp_path, monkeypatch):
    """A run that exits non-zero ends the pairs: the finished pairs and the
    failed run are written, and main returns non-zero."""
    calls = []

    def fake_perfbench(root, workload, seed, seconds, trace):
        calls.append(("parent" if root.name == "parent" else "change", seed))
        if len(calls) == 4:  # pair 1 runs the change first, then fails on the parent
            raise subprocess.CalledProcessError(3, ["perfbench"], output="",
                                                stderr="x" * 3000 + "Traceback: boom")
        return result_line(5.0, 1.0, failed=seed), {"python": "3"}

    code, result = run_main(tmp_path, monkeypatch, fake_perfbench, "w:7:3")
    assert code == 1
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    assert [p["seed"] for p in result["pairs"]] == [7]
    assert result["summary"]["w"]["failed_share"] == {"parent": 0.7, "change": 0.7}
    failed = result["failed_run"]
    assert {k: failed[k] for k in ("workload", "seed", "side", "exit_code")} == {
        "workload": "w", "seed": 8, "side": "parent", "exit_code": 3}
    assert len(failed["stderr_tail"]) == 2000 and failed["stderr_tail"].endswith("boom")


def test_all_runs_pass_exits_zero(tmp_path, monkeypatch):
    code, result = run_main(tmp_path, monkeypatch,
                            lambda *args: (result_line(5.0, 1.0), {"python": "3"}), "w:0:2")
    assert code == 0
    assert "failed_run" not in result
    assert len(result["pairs"]) == 2 and set(result["traced"]) == {"command", "parent", "change"}


def test_run_notes_kept_and_per_kind_medians_summarized(monkeypatch):
    """A run keeps its printed notes beside its metrics, and the summary
    compares each op kind's median latency from them."""
    stdout = "\n".join([
        '# w seed=1 trace=0 sizes={"n": 2} env={"python": "3"}',
        "  op_p50_ms                                     12.5 ms",
        "  op_p50_ms[a]                     3.0 over 10 ops",
        "  fail_frac                        0.0 (0 of 20 ops; 0 of them the known cqng stall)",
        "  ERROR op 3: wrong",
        json.dumps(result_line(12.5, 80.0))])
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, stdout, ""))
    run, env = bench_pairs.perfbench(Path("."), "w", 1, 1, 0)
    assert env == {"python": "3"}
    assert run["notes"] == {"op_p50_ms[a]": "3.0 over 10 ops",
                            "fail_frac": "0.0 (0 of 20 ops; 0 of them the known cqng stall)"}
    pairs = [{"workload": "w", "seed": s, "pair": s, "first": "parent",
              "parent": {**run, "notes": {"op_p50_ms[a]": f"{p} over 10 ops"}},
              "change": {**run, "notes": {"op_p50_ms[a]": f"{c} over 10 ops"}}}
             for s, (p, c) in enumerate([(3.0, 2.0), (4.0, 4.0), (5.0, 1.0)])]
    kind = bench_pairs.summarize(pairs, {"op_p50_ms": "lower"})["w"]["op_p50_ms[a]"]
    assert kind["parent"]["median"] == 4.0 and kind["change"]["median"] == 2.0
    assert kind["change_better_pairs"] == "2/3"
