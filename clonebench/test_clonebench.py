"""The benchmark's own test: every workload at a tiny size with every check,
plus a deliberately wrong ranking that the checks must reject.

    python3 -m pytest clonebench/test_clonebench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import stages
import tracer

HERE = Path(__file__).resolve().parent
SCALE = 500  # 100k documents become 200


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    prov = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert prov["attempted"] == result["attempted"] and prov["failed"] == result["failed"]
    return result


@pytest.mark.parametrize("workload", sorted(stages.WORKLOADS))
def test_workload_end_to_end(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = stages.WORKLOADS[workload].scaled(SCALE)
    per_round = 2 * spec.n_queries
    assert result["attempted"] % per_round == 0
    rounds = result["attempted"] // per_round
    self_vecs = stages.gen.self_lookup_embeddings(spec.n_self)
    faults = sum(stages.orc.self_cosine_exceeds_one(v) for v in self_vecs)
    assert result["failed"] == faults * rounds
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(stages.WORKLOADS))
def test_workload_traced(workload):
    result = _run(workload, 1)
    assert result["correct"] is True
    layers = result["metrics"]
    assert set(layers) == set(tracer.layer_metrics(tracer.Tracer(), {}))
    for name in ("index.add_us", "index.search_self_ms", "kernels.postings_scanned",
                 "similarity.jaccard_calls", "prompts.build_prompt_us", "cli.eval_self_s"):
        assert layers[name]["value"] > 0, name
    assert layers["extraction.attempts_per_fn"]["value"] == 1.0


def test_wrong_ranking_is_rejected(tmp_path):
    api = bench.import_program()
    search = api.InvertedIndex.search

    def reversed_search(self, query, k):
        result = search(self, query, k)
        return type(result)(entries=tuple(reversed(result.entries)))

    api.InvertedIndex.search = reversed_search
    try:
        spec = stages.WORKLOADS["query-uniform"].scaled(SCALE)
        run = stages.Run(api, spec, seed=5, seconds=0.0, work=tmp_path / "work")
        run.execute()
    finally:
        api.InvertedIndex.search = search
    assert any("search for" in p and "differs from the oracle" in p for p in run.problems)
    assert any("search command output differs" in p for p in run.problems)
