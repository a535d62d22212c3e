#!/usr/bin/env python3
"""Clone-search benchmark: one workload, end to end or layer by layer.

Run from the root of a checkout:

    python3 clonebench/run.py --workload query-schema --seed 1 --seconds 50 --trace 0

The program is imported from ``src/asmsieve`` of the checkout. With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` the public functions of ``asmsieve`` are wrapped and it
holds the per-layer metrics. The line before it holds the run's provenance.
Both also go to ``clonebench/out/runs/``. See clonebench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# one thread: keep numpy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "index_s": "s", "snapshot_mb": "MB",
    "load_s": "s", "load_rss_mb": "MB", "search_p50_ms": "ms", "search_p90_ms": "ms",
    "rerank_p50_ms": "ms", "rerank_p90_ms": "ms", "update_s": "s",
    "extract_fn_per_s": "1/s", "search_cmd_s": "s", "eval_jaccard_s": "s", "eval_hybrid_s": "s",
}


def import_program():
    """Import asmsieve from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "asmsieve" / "__init__.py").is_file():
        raise ImportError(f"no asmsieve package under {src}")
    sys.path.insert(0, str(src))
    import asmsieve
    from asmsieve import cli, fixtures, prompts

    if Path(asmsieve.__file__).resolve().parent != (src / "asmsieve").resolve():
        raise ImportError(f"asmsieve was imported from {asmsieve.__file__}, not {src}")
    return SimpleNamespace(
        cli_main=cli.main,
        InvertedIndex=asmsieve.InvertedIndex,
        EmbeddingStore=asmsieve.EmbeddingStore,
        EmbeddingVector=asmsieve.EmbeddingVector,
        AssemblyFunction=asmsieve.AssemblyFunction,
        FixtureStore=fixtures.FixtureStore,
        PromptConfig=prompts.PromptConfig,
        build_prompt=prompts.build_prompt,
        load_example_bank=prompts.load_example_bank,
        prompt_sha256=fixtures.prompt_sha256,
        flatten=asmsieve.flatten,
        validate=asmsieve.validate,
    )


def provenance(args, run) -> dict:
    import numpy

    from asmsieve import _kernels

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "asmsieve").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": _imports("numba"),
        "kernel_backend": _kernels.current_backend(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "attempted": run.attempted,
        "failed": run.failed,
        "serving": run.samples,
        "stage_reps": run.reps,
        "phase_wall_s": {k: round(v, 3) for k, v in run.wall.items()},
    }


def _imports(name: str) -> bool:
    try:
        __import__(name)
    except Exception:  # noqa: BLE001 - any import failure means "does not import"
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every input size by this (tests use tiny inputs)")
    args = parser.parse_args(argv)

    try:
        api = import_program()
    except ImportError as exc:
        print(f"clonebench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    import stages
    import tracer as tracing

    if args.workload not in stages.WORKLOADS:
        print(f"clonebench: unknown workload {args.workload!r}; "
              f"pick one of {', '.join(stages.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = stages.WORKLOADS[args.workload].scaled(args.scale)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    work = OUT / f"work-{os.getpid()}-{stamp}"
    tr = tracing.Tracer() if args.trace else None
    run = stages.Run(api, spec, args.seed, args.seconds, work, tr)
    try:
        if tr is not None:
            tr.install()
        run.execute()
    except Exception:  # noqa: BLE001 - report and fail the run without a result
        traceback.print_exc()
        return 1
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {name: {"value": run.metrics[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    if tr is not None:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracing.layer_metrics(tr, run.reps).items()
        }
    else:
        metrics = end_to_end
    for problem in run.problems:
        print(f"clonebench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    prov = provenance(args, run)
    record = {"provenance": prov, "result": result, "problems": run.problems}
    if tr is not None:
        # what the traced run measured end to end: traced minus untraced
        # figures give the tracing overhead
        record["end_to_end"] = end_to_end
        record["spans"] = tr.table()
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
