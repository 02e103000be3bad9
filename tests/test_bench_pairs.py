import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(op_p50_ms, ops_per_s):
    """A perfbench result line with two end-to-end metrics."""
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
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
