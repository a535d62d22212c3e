"""``tools/bench_pairs.py summarize`` on a synthetic RUNS file: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

# change value = parent value * factor; every other metric is unchanged
FACTORS = {
    "rerank_p50_ms": 0.6,      # the claimed gain
    "rerank_p90_ms": 1.3,      # worse than its 0.25 bound
    "search_p50_ms": 1.2,      # worse, but within its bound
    "extract_fn_per_s": 0.7,   # higher is better: 30 % worse, past its bound
    "peak_rss_mb": 1.05,       # within its 0.1 bound
}


def _record(workload, seed, side, trace=0, failed=1, attempted=100, rc=0):
    rec = {"workload": workload, "seed": seed, "side": side, "first": "parent",
           "trace": trace, "rc": rc}
    if rc == 0:
        # the parent drifts with the seed, as a host that changes speed would
        scale = 1.0 + 0.01 * seed
        metrics = {m["name"]: {"value": 10.0 * scale * (FACTORS.get(m["name"], 1.0) if side == "change" else 1.0)}
                   for m in END_TO_END}
        rec["result"] = {"correct": True, "attempted": attempted, "failed": failed,
                         "metrics": metrics}
    return rec


@pytest.fixture
def summary(tmp_path):
    runs = tmp_path / "RUNS.jsonl"
    records = []
    for seed in range(1, 11):
        records.append(_record("w", seed, "parent"))
        records.append(_record("w", seed, "change", failed=2 if seed == 3 else 1))
    records.append(_record("w", 11, "parent", trace=1))
    records.append(_record("w", 11, "change", trace=1))
    records.append(_record("w", 12, "change", rc=1))
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    return bench_pairs.summarize(runs, "abc", "w:rerank_p50_ms", ["note"])


def test_failures_are_given_per_side(summary):
    block = summary["workloads"]["w"]
    assert block["failed_over_attempted"] == {"parent": ["1/100"], "change": ["1/100", "2/100"]}
    assert block["failed_share"] == {"parent": pytest.approx(0.01), "change": pytest.approx(0.011)}
    assert block["change_fails_more"] is True


def test_lists_every_metric_worse_than_its_bound(summary):
    worse = summary["workloads"]["w"]["worse_than_bound"]
    assert [w["metric"] for w in worse] == ["rerank_p90_ms", "extract_fn_per_s"]
    assert worse[0]["change_vs_parent"] == pytest.approx(0.3)
    assert worse[0]["bound"] == 0.25
    assert worse[1]["change_vs_parent"] == pytest.approx(-0.3)


def test_claim_and_pair_counts(summary):
    block = summary["workloads"]["w"]
    assert block["pairs"] == 10
    claim = block["claim"]
    assert claim["metric"] == "rerank_p50_ms" and claim["change_won"] == 10 and claim["met"]
    assert block["summary"]["rerank_p50_ms"]["pair_ratio"]["median"] == pytest.approx(0.6)
    assert block["summary"]["setup_s"]["change_won"] == 0
    assert block["summary"]["setup_s"]["change_lost"] == 0


@pytest.mark.parametrize("metric, factor", [("search_p50_ms", 0.8), ("extract_fn_per_s", 1.25)])
def test_claim_survives_a_host_slowdown_between_pairs(tmp_path, metric, factor):
    # The host runs twice as slow from pair 6 on; every pair is 20 % better
    # for the change. The spread across pairs dwarfs the gain, the ratios do not.
    runs = tmp_path / "RUNS.jsonl"
    records = []
    for seed in range(1, 11):
        slow = 2.0 if seed > 5 else 1.0
        for side in ("parent", "change"):
            rec = _record("w", seed, side)
            value = 10.0 * (slow if metric.endswith("_ms") else 1 / slow)
            rec["result"]["metrics"][metric]["value"] = value * (factor if side == "change" else 1.0)
            records.append(rec)
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    claim = bench_pairs.summarize(runs, "abc", f"w:{metric}", [])["workloads"]["w"]["claim"]
    assert claim["change_won"] == 10 and claim["median_gain"] < claim["parent_iqr"]
    assert claim["worse_pair_ratio"] == pytest.approx(factor)
    assert claim["met"]


def test_claim_not_met_below_nine_wins_in_ten(tmp_path):
    # Eight wins in ten pairs fall short of nine, however large the wins.
    runs = tmp_path / "RUNS.jsonl"
    records = []
    for seed, factor in enumerate([0.5] * 8 + [1.01] * 2, 1):
        for side in ("parent", "change"):
            rec = _record("w", seed, side)
            rec["result"]["metrics"]["search_p50_ms"]["value"] = 10.0 * (factor if side == "change" else 1.0)
            records.append(rec)
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    claim = bench_pairs.summarize(runs, "abc", "w:search_p50_ms", [])["workloads"]["w"]["claim"]
    assert claim["change_won"] == 8 and not claim["met"]


def test_traced_runs_are_kept_apart(summary):
    assert [(t["seed"], t["side"]) for t in summary["traced"]["w"]] == [(11, "parent"), (11, "change")]
    assert summary["notes"] == ["note"] and summary["parent_commit"] == "abc"


def test_no_failures_on_either_side(tmp_path):
    runs = tmp_path / "RUNS.jsonl"
    runs.write_text("".join(json.dumps(_record("w", s, side, failed=0)) + "\n"
                            for s in (1, 2) for side in ("parent", "change")))
    block = bench_pairs.summarize(runs, "abc", None, [])["workloads"]["w"]
    assert block["failed_over_attempted"] == {"parent": ["0/100"], "change": ["0/100"]}
    assert block["change_fails_more"] is False
    assert "claim" not in block
