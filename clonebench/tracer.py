"""Per-layer spans and counts for a traced run.

The tracer wraps public functions of the modules under ``src/asmsieve/`` at
the name each caller looks up (``asmsieve.index.cosine`` is what
``InvertedIndex.prefilter_rerank`` calls, ``asmsieve._kernels.accumulate_counts``
is what ``InvertedIndex.search`` calls, and so on); the program itself is not
changed. Every call records its duration, its self time (duration minus the
wrapped calls made inside it) and, for the accumulation kernel, the postings
it scanned and the documents it touched. Aggregates are kept in memory per
(phase, span), where the phase is the benchmark stage running at the time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, class or None, attribute, span name)
TARGETS = (
    ("asmsieve.index", "InvertedIndex", "add", "index.add"),
    ("asmsieve.index", "InvertedIndex", "search", "index.search"),
    ("asmsieve.index", "InvertedIndex", "prefilter_rerank", "index.rerank"),
    ("asmsieve.index", "InvertedIndex", "persist", "index.persist"),
    ("asmsieve.index", "InvertedIndex", "load", "index.load"),
    ("asmsieve.index", None, "cosine", "similarity.cosine"),
    ("asmsieve.index", None, "hybrid", "similarity.hybrid"),
    ("asmsieve._kernels", None, "accumulate_counts", "kernels.accumulate"),
    ("asmsieve.evaluation", None, "jaccard", "similarity.jaccard"),
    ("asmsieve.evaluation", None, "cosine", "similarity.cosine"),
    ("asmsieve.evaluation", None, "hybrid", "similarity.hybrid"),
    ("asmsieve.evaluation", None, "flatten", "similarity.flatten"),
    ("asmsieve.cli", None, "flatten", "similarity.flatten"),
    ("asmsieve.schema", None, "load_features", "schema.load_features"),
    ("asmsieve.schema", None, "save_features", "schema.save_features"),
    ("asmsieve.schema", None, "validate", "schema.validate"),
    ("asmsieve.extraction", None, "validate", "schema.validate"),
    ("asmsieve.schema", None, "canonicalize", "schema.canonicalize"),
    ("asmsieve.extraction", None, "build_prompt", "prompts.build_prompt"),
    ("asmsieve.prompts", None, "load_example_bank", "prompts.load_example_bank"),
    ("asmsieve.extraction", None, "prompt_sha256", "fixtures.prompt_sha256"),
    ("asmsieve.fixtures", None, "prompt_sha256", "fixtures.prompt_sha256"),
    ("asmsieve.fixtures", "FixtureStore", "get", "fixtures.get"),
    ("asmsieve.cli", None, "extract_features", "extraction.extract_features"),
    ("asmsieve.corpus", None, "load_corpus", "corpus.load_corpus"),
    ("asmsieve.corpus", None, "parse_listing", "corpus.parse_listing"),
    ("asmsieve.corpus", None, "load_pairs", "corpus.load_pairs"),
    ("asmsieve.cli", None, "load_embeddings", "similarity.load_embeddings"),
    ("asmsieve.cli", None, "evaluate_pool", "evaluation.evaluate_pool"),
    ("asmsieve.cli", None, "cmd_ingest", "cli.ingest"),
    ("asmsieve.cli", None, "cmd_extract", "cli.extract"),
    ("asmsieve.cli", None, "cmd_index", "cli.index"),
    ("asmsieve.cli", None, "cmd_search", "cli.search"),
    ("asmsieve.cli", None, "cmd_eval", "cli.eval"),
)


class Agg:
    __slots__ = ("calls", "total", "self_time", "postings", "touched")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.postings = 0
        self.touched = 0


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.aggs: dict[tuple[str, str], Agg] = defaultdict(Agg)
        self._children: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        children = self._children
        aggs = self.aggs
        clock = time.perf_counter
        counts_postings = span == "kernels.accumulate"

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                agg = aggs[(self.phase, span)]
                agg.calls += 1
                agg.total += dt
                agg.self_time += dt - inner
            if counts_postings:
                _, starts, ends, _ = args
                agg.postings += int((ends - starts).sum())
                agg.touched += int(np.count_nonzero(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, cls_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr] if cls_name is not None else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span))
            else:
                wrapped = self._wrap(raw, span)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def get(self, phase: str, span: str) -> Agg:
        return self.aggs.get((phase, span), Agg())

    def across(self, phases, span: str) -> Agg:
        out = Agg()
        for phase in phases:
            a = self.get(phase, span)
            out.calls += a.calls
            out.total += a.total
            out.self_time += a.self_time
            out.postings += a.postings
            out.touched += a.touched
        return out

    def table(self) -> list[dict]:
        return [
            {"phase": phase, "span": span, "calls": a.calls, "total_s": a.total,
             "self_s": a.self_time, "postings": a.postings, "touched": a.touched}
            for (phase, span), a in sorted(self.aggs.items())
        ]


MEASURED = (
    "extract", "index", "load", "serve", "update", "search_cmd", "eval_jaccard", "eval_hybrid",
)
EVALS = ("eval_jaccard", "eval_hybrid")


def layer_metrics(tr: Tracer, reps: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: means are per call; "per pass" sums a span's time in
    one execution of each stage (a stage that repeats divides by its reps)."""

    def per_pass(span, phases=MEASURED, self_time=False):
        return sum(
            (tr.get(p, span).self_time if self_time else tr.get(p, span).total) / reps[p]
            for p in phases if reps.get(p)
        )

    def mean(span, phases=MEASURED, self_time=False):
        a = tr.across(phases, span)
        return (a.self_time if self_time else a.total) / a.calls if a.calls else 0.0

    def ratio(span, per_span, phases):
        base = tr.across(phases, per_span).calls
        return tr.across(phases, span).calls / base if base else 0.0

    kern = tr.across(("serve",), "kernels.accumulate")
    n_kern = kern.calls or 1
    return {
        "index.add_us": (mean("index.add", ("index",)) * 1e6, "us"),
        "index.persist_s": (per_pass("index.persist", ("index",)), "s"),
        "index.load_s": (mean("index.load"), "s"),
        "index.search_self_ms": (mean("index.search", ("serve",), True) * 1e3, "ms"),
        "index.rerank_self_ms": (mean("index.rerank", ("serve",), True) * 1e3, "ms"),
        "index.update_add_ms": (per_pass("index.add", ("update",)) * 1e3, "ms"),
        "index.update_search_s": (per_pass("index.search", ("update",)), "s"),
        "kernels.accumulate_ms": (mean("kernels.accumulate", ("serve",)) * 1e3, "ms"),
        "kernels.postings_scanned": (kern.postings / n_kern, "count"),
        "kernels.docs_touched": (kern.touched / n_kern, "count"),
        "similarity.flatten_us": (mean("similarity.flatten") * 1e6, "us"),
        "similarity.jaccard_calls": (
            tr.get("eval_jaccard", "similarity.jaccard").calls / reps.get("eval_jaccard", 1), "count"),
        "similarity.jaccard_us": (mean("similarity.jaccard") * 1e6, "us"),
        "similarity.cosine_calls": (
            tr.get("eval_hybrid", "similarity.cosine").calls / reps.get("eval_hybrid", 1), "count"),
        "similarity.cosine_us": (mean("similarity.cosine") * 1e6, "us"),
        "similarity.hybrid_us": (mean("similarity.hybrid") * 1e6, "us"),
        "schema.load_features_s": (per_pass("schema.load_features"), "s"),
        "schema.validate_us": (mean("schema.validate") * 1e6, "us"),
        "schema.canonicalize_us": (mean("schema.canonicalize") * 1e6, "us"),
        "schema.save_features_s": (per_pass("schema.save_features", ("extract",)), "s"),
        "prompts.build_prompt_us": (mean("prompts.build_prompt") * 1e6, "us"),
        "prompts.example_bank_loads_per_fn": (
            ratio("prompts.load_example_bank", "extraction.extract_features", ("extract",)), "count"),
        "fixtures.prompt_sha256_us": (mean("fixtures.prompt_sha256") * 1e6, "us"),
        "fixtures.get_us": (mean("fixtures.get") * 1e6, "us"),
        "extraction.extract_self_us": (
            mean("extraction.extract_features", ("extract",), True) * 1e6, "us"),
        "extraction.attempts_per_fn": (
            ratio("fixtures.get", "extraction.extract_features", ("extract",)), "count"),
        "corpus.load_corpus_s": (per_pass("corpus.load_corpus", ("extract",)), "s"),
        "corpus.parse_listing_s": (per_pass("corpus.parse_listing", ("setup",)), "s"),
        "evaluation.evaluate_pool_self_s": (per_pass("evaluation.evaluate_pool", EVALS, True), "s"),
        "cli.index_self_s": (per_pass("cli.index", ("index",), True), "s"),
        "cli.extract_self_s": (per_pass("cli.extract", ("extract",), True), "s"),
        "cli.search_self_s": (per_pass("cli.search", ("search_cmd",), True), "s"),
        "cli.eval_self_s": (per_pass("cli.eval", EVALS, True), "s"),
    }
