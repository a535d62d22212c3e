#!/usr/bin/env python3
"""Paired clonebench runs of two checkouts, and their summary as a BENCH record.

Run pairs (the two sides alternate which runs first: odd seeds run the
parent first), appending one JSON line per run to RUNS:

    python3 tools/bench_pairs.py run RUNS PARENT_DIR CHANGE_DIR --trace 0 \\
        query-schema:901 query-schema:902 query-uniform:921 ...

Each run is ``python3 clonebench/run.py --workload W --seed S --seconds 50
--trace T`` in that checkout. Then summarize every run into one record:

    python3 tools/bench_pairs.py summarize RUNS OUT.json --parent-commit SHA \\
        --claim query-schema:index_s

The summary gives, per workload and end-to-end metric, each side's median
and quartiles, the change's median relative to the parent's, and the pairs
the change won (ties count for neither side); for the claimed metric, also
whether the change won at least nine in ten pairs by more than the parent's
interquartile range. Traced runs (``--trace 1``) are listed per pair with
their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def run_pairs(runs: Path, parent: Path, change: Path, trace: int, plan: list[str]) -> None:
    sides = {"parent": parent, "change": change}
    for item in plan:
        workload, seed = item.rsplit(":", 1)
        order = ("parent", "change") if int(seed) % 2 else ("change", "parent")
        for side in order:
            t0 = time.time()
            done = subprocess.run(
                [sys.executable, "clonebench/run.py", "--workload", workload, "--seed", seed,
                 "--seconds", "50", "--trace", str(trace)],
                cwd=sides[side], capture_output=True, text=True,
            )
            record = {"workload": workload, "seed": int(seed), "side": side, "first": order[0],
                      "trace": trace, "rc": done.returncode, "wall_s": round(time.time() - t0, 1)}
            lines = done.stdout.strip().splitlines()
            if done.returncode == 0:
                record["provenance"] = json.loads(lines[-2])["provenance"]
                record["result"] = json.loads(lines[-1])
            else:
                record["stderr"] = done.stderr[-2000:]
            with open(runs, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: Path, parent_commit: str, claim: str | None, notes: list[str]) -> dict:
    records = [json.loads(line) for line in runs.read_text(encoding="utf-8").splitlines()]
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads: dict[str, dict] = {}
    traced: dict[str, list] = {}
    for rec in records:
        entry = {"seed": rec["seed"], "side": rec["side"], "first": rec["first"], "rc": rec["rc"]}
        if rec["rc"] == 0:
            res = rec["result"]
            entry.update(correct=res["correct"], attempted=res["attempted"], failed=res["failed"],
                         metrics={k: v["value"] for k, v in res["metrics"].items()})
        if rec["trace"]:
            traced.setdefault(rec["workload"], []).append(entry)
        else:
            workloads.setdefault(rec["workload"], {"runs": []})["runs"].append(entry)

    claim_workload, claim_metric = claim.split(":") if claim else (None, None)
    for workload, block in workloads.items():
        ok = [r for r in block["runs"] if r["rc"] == 0]
        pairs = {}
        for r in ok:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = {s: p for s, p in sorted(pairs.items()) if len(p) == 2}
        summary = {}
        for metric, direction in better.items():
            sides = {side: [p[side]["metrics"][metric] for p in pairs.values()]
                     for side in ("parent", "change")}
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for p in pairs.values()
                       if sign * (p["change"]["metrics"][metric] - p["parent"]["metrics"][metric]) > 0)
            losses = sum(1 for p in pairs.values()
                         if sign * (p["change"]["metrics"][metric] - p["parent"]["metrics"][metric]) < 0)
            stats = {}
            for side, values in sides.items():
                q1, med, q3 = _quartiles(values)
                stats[side] = {"median": med, "q1": q1, "q3": q3}
            pm, cm = stats["parent"]["median"], stats["change"]["median"]
            summary[metric] = {**stats, "change_vs_parent": cm / pm - 1 if pm else None,
                               "pairs": len(pairs), "change_won": wins, "change_lost": losses}
        block["pairs"] = len(pairs)
        block["all_correct"] = all(r.get("correct") for r in block["runs"])
        block["failed_over_attempted"] = sorted({f"{r['failed']}/{r['attempted']}" for r in ok})
        block["summary"] = summary
        if workload == claim_workload:
            s = summary[claim_metric]
            iqr = s["parent"]["q3"] - s["parent"]["q1"]
            gap = s["parent"]["median"] - s["change"]["median"]
            if better[claim_metric] == "higher":
                gap = -gap
            block["claim"] = {
                "metric": claim_metric, "pairs": s["pairs"], "change_won": s["change_won"],
                "median_gain": gap, "parent_iqr": iqr,
                "met": s["change_won"] >= 0.9 * s["pairs"] and gap > iqr,
            }
    return {
        "command": "python3 clonebench/run.py --workload W --seed S --seconds 50 --trace T",
        "made_by": "tools/bench_pairs.py",
        "parent_commit": parent_commit,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "order": "odd seeds run the parent first, even seeds the change",
        "notes": notes,
        "workloads": workloads,
        "traced": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run")
    sp.add_argument("runs", type=Path)
    sp.add_argument("parent", type=Path)
    sp.add_argument("change", type=Path)
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("plan", nargs="+", help="WORKLOAD:SEED")
    sp = sub.add_parser("summarize")
    sp.add_argument("runs", type=Path)
    sp.add_argument("output", type=Path)
    sp.add_argument("--parent-commit", required=True)
    sp.add_argument("--claim", help="WORKLOAD:METRIC")
    sp.add_argument("--note", action="append", default=[], help="free text kept in the record")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args.runs, args.parent, args.change, args.trace, args.plan)
    else:
        record = summarize(args.runs, args.parent_commit, args.claim, args.note)
        args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
