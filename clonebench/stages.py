"""The workloads: set-up, the timed stages, and the checks of every output.

Each workload runs in one process on one thread. Set-up builds the inputs
from the seed and hands the program only files and program objects built
from them. Every stage then runs once, with the checks that need its first
output; after that, for ``--seconds`` seconds from the start of that first
pass, the stage that has had the least time so far runs next. Short stages
thus repeat between the long ones, so the samples of each metric spread over
the whole run and a slow spell of the host does not land on one stage only.
Query serving runs in whole closed-loop rounds over the query set. Checks
run outside every timed region.
"""

from __future__ import annotations

import ctypes
import gc
import json
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import inputs as gen
import oracle as orc

K = 10
K1 = 100
K2 = 10
SETUP_REPEATS = 3
# serving rounds get twice the time of another stage, for more latency
# samples; so does `index`, which at 100k documents takes 8-12 s a run
STAGE_WEIGHT = {"serve": 2.0, "index": 2.0}
SCORE_TOL = 1e-12
CROSS_OPT = "cross_optimization"
FAULT_TEXT = "s_e must lie in [-1, 1]"


@dataclass(frozen=True)
class Spec:
    shape: str  # "schema" | "uniform" | "replay"
    n_docs: int  # indexed documents; replay: functions per side (the O3 side is indexed)
    n_queries: int  # serving queries per round; replay: every O0 function
    n_self: int  # self-lookup queries among them
    n_update: int  # documents added by the update stage
    n_extract: int  # functions per side run through `extract`
    pool_jaccard: int
    pool_hybrid: int

    def scaled(self, div: int) -> "Spec":
        if div == 1:
            return self
        small = lambda v, low: max(low, v // div)  # noqa: E731
        n_docs = small(self.n_docs, 60)
        replay = self.shape == "replay"
        return replace(
            self,
            n_docs=n_docs,
            n_queries=n_docs if replay else small(self.n_queries, 12),
            n_self=min(self.n_self, 4),
            n_update=small(self.n_update, 3),
            n_extract=n_docs if replay else small(self.n_extract, 8),
            pool_jaccard=small(self.pool_jaccard, 12),
            pool_hybrid=small(self.pool_hybrid, 8),
        )


WORKLOADS = {
    "query-schema": Spec("schema", 100_000, 50, 5, 1_000, 300, 400, 200),
    "query-uniform": Spec("uniform", 100_000, 100, 10, 1_000, 300, 400, 200),
    "pipeline-replay": Spec("replay", 1_000, 1_000, 0, 10, 1_000, 1_000, 200),
}


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------------ set-up


@dataclass
class Extraction:
    corpus: Path
    output: Path
    ids: list[str]
    texts: list[str]


@dataclass
class EvalPool:
    pairs: Path
    features: list[Path]
    left: gen.Docs
    right: gen.Docs
    embeddings: Path | None = None
    left_vecs: np.ndarray | None = None
    right_vecs: np.ndarray | None = None

    @property
    def scorer(self) -> str:
        return "jaccard" if self.embeddings is None else "hybrid"

    def expected(self, n_tokens: int) -> dict:
        """The report a brute-force count over every (left, right) gives."""
        order = np.argsort(self.right.ids)
        scores = orc.jaccard_matrix(
            [self.left.tokens(i) for i in range(len(self.left))],
            [self.right.tokens(int(j)) for j in order],
            n_tokens,
        )
        if self.embeddings is not None:
            cos = orc.unit_rows(self.left_vecs) @ orc.unit_rows(self.right_vecs[order]).T
            scores = (cos + scores) / 2
        report = orc.eval_report(scores, np.argsort(order))
        report.update(scorer=self.scorer, pool_size=len(self.left))
        return report


@dataclass
class Inputs:
    """What set-up writes and generates. ``prepare`` adds the program objects
    and the oracle's answers once, after the timed set-ups."""

    work: Path
    n_tokens: int
    indexed: gen.Docs
    index_features: Path
    extractions: list[Extraction]
    queries: gen.Docs
    query_file: Path
    query_vectors: np.ndarray
    n_self: int  # the last n_self queries are self-lookups
    vectors: np.ndarray  # embedding per indexed row
    update: gen.Docs
    eval_jaccard: EvalPool
    eval_hybrid: EvalPool
    # filled by prepare()
    store: object = None
    query_tokens: list = field(default_factory=list)
    query_vecs: list = field(default_factory=list)
    update_tokens: list = field(default_factory=list)
    expect_fault: list = field(default_factory=list)

    @property
    def fixtures(self) -> Path:
        return self.work / "fixtures"


def _cli(api, argv: list[str]) -> None:
    rc = api.cli_main(argv)
    if rc != 0:
        raise CheckFailed(f"asmsieve {argv[0]} exited {rc}")


def _ingest_and_record(api, space, rng, seed: int, n: int, work: Path, cols=None):
    """Listings for n symbols per side (x86-64 O0 and O3), ingested with the
    `ingest` command; one fixture per function, recorded under the default
    prompt, returns the document synthesized for it. Returns the O0 and O3
    documents and the two extraction jobs."""
    cols = gen.schema_columns(rng, space, n) if cols is None else cols
    symbols = [f"fn_{i:05d}" for i in range(n)]
    sides = {
        "O0": gen.encode_schema(space, cols, [f"bench/{s}@x86-64/O0" for s in symbols]),
        "O3": gen.encode_schema(
            space, gen.drift_columns(rng, cols), [f"bench/{s}@x86-64/O3" for s in symbols]
        ),
    }
    store = api.FixtureStore(work / "fixtures", create=True)
    bank = api.load_example_bank()
    cfg = api.PromptConfig()
    jobs = []
    for opt, docs in sides.items():
        bodies = gen.listing_bodies(seed, symbols, opt)
        listing = work / f"bench_{opt}.lst"
        listing.write_text(gen.listing_text(symbols, bodies), encoding="utf-8")
        corpus = work / f"corpus_{opt}.jsonl"
        _cli(api, ["ingest", str(listing), "--library", "bench", "--arch", "x86-64",
                   "--opt-level", opt, "-o", str(corpus)])
        for fid, symbol, body, text in zip(docs.ids, symbols, bodies, docs.texts):
            fn = api.AssemblyFunction(
                id=fid, library="bench", source_symbol=symbol,
                arch="x86-64", opt_level=opt, instructions=tuple(body),
            )
            prompt = api.build_prompt(fn, cfg, bank)
            store.put(api.prompt_sha256(prompt.system, prompt.user), 0.2, 0, text)
        jobs.append(Extraction(corpus, work / f"features_{opt}.jsonl", docs.ids, docs.texts))
    return sides["O0"], sides["O3"], jobs


def _write_pairs(path: Path, left: gen.Docs, right: gen.Docs) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in zip(left.ids, right.ids):
            fh.write(json.dumps({"left": a, "right": b, "pairing": CROSS_OPT}) + "\n")
    return path


def _pools(work: Path, left: gen.Docs, right: gen.Docs, features: list[Path],
           left_vecs: np.ndarray, right_vecs: np.ndarray, n_hybrid: int) -> tuple[EvalPool, EvalPool]:
    """The jaccard pool (left[i], right[i]) and the hybrid pool over its
    first n_hybrid pairs, with distinct embeddings on the two sides."""
    jac = EvalPool(_write_pairs(work / "pool_jaccard.jsonl", left, right), features, left, right)
    hl, hr = gen.subset(left, range(n_hybrid)), gen.subset(right, range(n_hybrid))
    emb = work / "pool_hybrid_embeddings.jsonl"
    gen.write_embeddings(emb, hl.ids + hr.ids, np.vstack([left_vecs, right_vecs]))
    hyb = EvalPool(_write_pairs(work / "pool_hybrid.jsonl", hl, hr), features, hl, hr,
                   emb, left_vecs, right_vecs)
    return jac, hyb


def setup(api, spec: Spec, seed: int, work: Path) -> Inputs:
    """Generate the inputs from the seed and write every file the stages read."""
    work.mkdir(parents=True)
    rng = np.random.default_rng([seed, ("schema", "uniform", "replay").index(spec.shape)])
    space = gen.SchemaSpace(rng)
    if spec.shape == "replay":
        return _setup_replay(api, spec, seed, work, rng, space)

    n = spec.n_docs
    ids = [f"d/{i:07d}" for i in range(n)]
    if spec.shape == "schema":
        cols = gen.schema_columns(rng, space, n)
        docs = gen.encode_schema(space, cols, ids)
        n_tokens = space.n_tokens

        def drifted(rows, new_ids):
            return gen.encode_schema(space, gen.drift_columns(rng, gen.take_columns(cols, rows)), new_ids)
    else:
        rows_all = gen.uniform_rows(rng, n)
        docs = gen.encode_uniform(rows_all, ids)
        n_tokens = gen.UNIFORM_VOCAB

        def drifted(rows, new_ids):
            return gen.encode_uniform(gen.drift_uniform(rng, rows_all[rows]), new_ids)

    index_features = work / "docs.jsonl"
    gen.write_features(index_features, docs)
    vectors = gen.embeddings(rng, n)

    n_drift = spec.n_queries - spec.n_self
    perm = rng.permutation(n)
    q_src, self_rows = perm[:n_drift], np.sort(perm[n_drift:spec.n_queries])
    rest = perm[spec.n_queries:]
    e_src, u_src = rest[:spec.pool_jaccard], rest[spec.pool_jaccard:]
    vectors[self_rows] = gen.self_lookup_embeddings(spec.n_self)

    queries = gen.concat_docs([
        drifted(q_src, [f"q/{i:05d}" for i in range(n_drift)]),
        gen.subset(docs, self_rows),
    ])
    query_vectors = np.vstack([gen.drifted_embeddings(rng, vectors[q_src]), vectors[self_rows]])
    query_file = work / "queries.jsonl"
    gen.write_features(query_file, queries)

    # the first update documents are relatives of the queries, so the search
    # after the update finds them
    u_rows = np.concatenate([q_src, u_src])[: spec.n_update]
    update = drifted(u_rows, [f"u/{i:05d}" for i in range(spec.n_update)])

    left = drifted(e_src, [f"e/{i:05d}" for i in range(len(e_src))])
    right = gen.subset(docs, e_src)
    eval_file = work / "eval_docs.jsonl"
    gen.write_features(eval_file, gen.concat_docs([left, right]))
    h = spec.pool_hybrid
    pool_j, pool_h = _pools(work, left, right, [eval_file],
                            gen.drifted_embeddings(rng, vectors[e_src[:h]]), vectors[e_src[:h]], h)

    _, _, jobs = _ingest_and_record(api, space, rng, seed, spec.n_extract, work)
    return Inputs(work, n_tokens, docs, index_features, jobs, queries, query_file,
                  query_vectors, spec.n_self, vectors, update, pool_j, pool_h)


def _setup_replay(api, spec: Spec, seed: int, work: Path, rng, space) -> Inputs:
    n = spec.n_docs
    cols = gen.schema_columns(rng, space, n + spec.n_update)
    o0, o3, jobs = _ingest_and_record(api, space, rng, seed, n, work,
                                      gen.take_columns(cols, np.arange(n)))
    vectors = gen.embeddings(rng, n)
    query_vectors = gen.drifted_embeddings(rng, vectors)
    update = gen.encode_schema(
        space, gen.drift_columns(rng, gen.take_columns(cols, np.arange(n, n + spec.n_update))),
        [f"bench/up_{i:05d}@x86-64/O3" for i in range(spec.n_update)],
    )
    picked = np.sort(rng.choice(n, spec.pool_jaccard, replace=False))
    hp = picked[: spec.pool_hybrid]
    pool_j, pool_h = _pools(work, gen.subset(o0, picked), gen.subset(o3, picked),
                            [jobs[0].output, jobs[1].output], query_vectors[hp], vectors[hp],
                            spec.pool_hybrid)
    return Inputs(work, space.n_tokens, o3, jobs[1].output, jobs, o0, jobs[0].output,
                  query_vectors, 0, vectors, update, pool_j, pool_h)


def prepare(api, inp: Inputs) -> None:
    """Program objects the serving loop needs: the embedding store over every
    indexed document, the queries' token sets and embeddings, and which
    self-lookup reranks meet cosine(v, v) > 1."""
    store = api.EmbeddingStore()
    for fid, row in zip(inp.indexed.ids, inp.vectors):
        store.add(fid, row)
    inp.store = store
    first_self = len(inp.queries) - inp.n_self
    inp.query_vecs = [
        store[fid] if i >= first_self else api.EmbeddingVector(vec)
        for i, (fid, vec) in enumerate(zip(inp.queries.ids, inp.query_vectors))
    ]
    inp.expect_fault = [
        i >= first_self and orc.self_cosine_exceeds_one(vec)
        for i, vec in enumerate(inp.query_vectors)
    ]
    inp.query_tokens = [
        api.flatten(api.validate(inp.queries.features(i), required_fields=inp.queries.present))
        for i in range(len(inp.queries))
    ]
    inp.update_tokens = [
        api.flatten(api.validate(inp.update.features(i), required_fields=inp.update.present))
        for i in range(len(inp.update))
    ]


# ------------------------------------------------------------------ running


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _release_free_memory() -> None:
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One workload run. The tracer's phase names the stage running."""

    def __init__(self, api, spec: Spec, seed: int, seconds: float, work: Path, tracer=None):
        self.api = api
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.problems: list[str] = []
        self.reps: dict[str, int] = {}
        self.times: dict[str, list[float]] = {}
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.search_lat: list[float] = []
        self.rerank_lat: list[float] = []
        self.first_round = None
        self.rounds = 0
        self.ix_serve = None
        self.spent: dict[str, float] = defaultdict(float)  # timed seconds per scheduled stage
        self.runs: dict[str, int] = defaultdict(int)
        self.samples: dict[str, int] = {}
        self.wall: dict[str, float] = {}  # seconds per phase, checks included
        self._phase = ("check", time.perf_counter())

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        last, since = self._phase
        self.wall[last] = self.wall.get(last, 0.0) + now - since
        self._phase = (name, now)
        if self.tracer is not None:
            self.tracer.phase = name

    def _timed(self, name: str, fn) -> float:
        # every repetition starts from the same collector state, so whether a
        # full collection lands inside it does not depend on what ran before
        gc.collect()
        self.phase(name)
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        self.phase("check")
        self.times.setdefault(name, []).append(dt)
        self.reps[name] = self.reps.get(name, 0) + 1
        return dt

    def problem(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def execute(self) -> None:
        spec, api = self.spec, self.api
        setup_times = []
        for r in range(SETUP_REPEATS):
            if r:
                shutil.rmtree(self.inp.work)
                del self.inp
                gc.collect()
            self.phase("setup")
            t0 = time.perf_counter()
            self.inp = setup(api, spec, self.seed, self.work / f"setup{r}")
            setup_times.append(time.perf_counter() - t0)
        self.phase("check")
        self.reps["setup"] = SETUP_REPEATS
        inp = self.inp
        prepare(api, inp)
        self.oracle = orc.Oracle(inp.indexed.offsets, inp.indexed.flat, inp.indexed.ids, inp.n_tokens)
        self.expected = self.oracle.search(
            [inp.queries.tokens(i) for i in range(len(inp.queries))], K1)
        self.expected_eval = [pool.expected(inp.n_tokens) for pool in (inp.eval_jaccard, inp.eval_hybrid)]
        self.snapshot = inp.work / "index.snap"
        # the inputs live for the whole run; keep them out of the collector's
        # full passes so that the program's collections do not scan them
        gc.collect()
        gc.freeze()

        t_end = time.perf_counter() + self.seconds
        stages = {
            "extract": self.run_extract,
            "index": self.run_index,
            "load_update": self.load_update,
            "serve": self.serve_round,
            "search_cmd": self.run_search_cmd,
            "eval_jaccard": lambda: self.run_eval(0),
            "eval_hybrid": lambda: self.run_eval(1),
        }
        self.first_pass()
        gc.collect()
        gc.freeze()
        # then, until --seconds have passed, the stage that has had the least
        # time (weighted by STAGE_WEIGHT) runs next; short stages thus repeat
        # between the long ones and their samples spread over the whole run
        while True:
            name = min(stages, key=lambda s: self.spent[s] / STAGE_WEIGHT.get(s, 1.0))
            typical = self.spent[name] / self.runs[name]
            if time.perf_counter() + typical / 2 > t_end:
                break
            stages[name]()
        self.ix_serve = None

        t = {name: statistics.median(v) for name, v in self.times.items()}
        m = self.metrics
        m["setup_s"] = statistics.median(setup_times)
        m["index_s"] = t["index"]
        m["snapshot_mb"] = self.snapshot.stat().st_size / 1e6
        m["load_s"] = t["load"]
        m["update_s"] = t["update"]
        m["extract_fn_per_s"] = sum(len(job.ids) for job in inp.extractions) / t["extract"]
        m["search_cmd_s"] = t["search_cmd"]
        m["eval_jaccard_s"] = t["eval_jaccard"]
        m["eval_hybrid_s"] = t["eval_hybrid"]
        m["search_p50_ms"] = statistics.median(self.search_lat) * 1e3
        m["search_p90_ms"] = _percentile(self.search_lat, 90) * 1e3
        if self.rerank_lat:
            m["rerank_p50_ms"] = statistics.median(self.rerank_lat) * 1e3
            m["rerank_p90_ms"] = _percentile(self.rerank_lat, 90) * 1e3
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        self.samples = {"search": len(self.search_lat), "rerank": len(self.rerank_lat),
                        "rounds": self.rounds}

    def first_pass(self) -> None:
        """Every stage once, in dependency order, with the checks that need
        the first run: the snapshot against its writer, RSS across a load,
        the first serving round and the search after the update."""
        inp = self.inp
        self.run_extract()
        self.run_index(probe=True)

        _release_free_memory()
        rss0 = _rss_bytes()
        self._count("load_update", self._timed("load", self.load_serving_index))
        self.metrics["load_rss_mb"] = (_rss_bytes() - rss0) / 1e6
        probe = range(min(10, len(inp.queries)))
        loaded = [self.ix_serve.search(inp.query_tokens[i], K).entries for i in probe]
        self.problem(loaded == self.written, "loaded snapshot answers differ from its writer")

        self.serve_round()
        ix = self.load_update()
        self.check_update(ix)
        self.run_search_cmd()
        self.run_eval(0)
        self.run_eval(1)

    # -------------------------------------------------------------- stages

    def _count(self, name: str, spent: float) -> None:
        self.spent[name] += spent
        self.runs[name] += 1

    def run_extract(self) -> None:
        def extract():
            for job in self.inp.extractions:
                _cli(self.api, ["extract", "--corpus", str(job.corpus), "--client", "replay",
                                "--fixtures", str(self.inp.fixtures), "-o", str(job.output)])
        self._count("extract", self._timed("extract", extract))
        self.check_extract()

    def run_index(self, probe: bool = False) -> None:
        """The `index` command; with ``probe``, also what the index that wrote
        the snapshot answers, to compare with the loaded snapshot."""
        api, inp = self.api, self.inp
        writers = []
        persist = api.InvertedIndex.persist

        def capture(ix, path):
            writers[:] = [ix]
            return persist(ix, path)

        api.InvertedIndex.persist = capture
        try:
            self._count("index", self._timed("index", lambda: _cli(api, [
                "index", "--features", str(inp.index_features), "-o", str(self.snapshot)])))
        finally:
            api.InvertedIndex.persist = persist
        if probe:
            self.written = [writers[0].search(inp.query_tokens[i], K).entries
                            for i in range(min(10, len(inp.queries)))]

    def load_serving_index(self) -> None:
        self.ix_serve = None
        self.ix_serve = self.api.InvertedIndex.load(self.snapshot)

    def load_update(self):
        """Load the snapshot, then add the update batch to it: two samples.
        Returns the updated index."""
        box = []
        spent = self._timed("load", lambda: box.append(self.api.InvertedIndex.load(self.snapshot)))
        spent += self._timed("update", lambda: self.update(box[0]))
        self._count("load_update", spent)
        return box[0]

    def run_search_cmd(self) -> None:
        inp = self.inp
        out = inp.work / "search.jsonl"
        self._count("search_cmd", self._timed("search_cmd", lambda: _cli(self.api, [
            "search", "--index", str(self.snapshot), "--query", str(inp.query_file),
            "-k", str(K), "--format", "json", "-o", str(out)])))
        self.check_search_output(out)

    def run_eval(self, which: int) -> None:
        pool = (self.inp.eval_jaccard, self.inp.eval_hybrid)[which]
        report = self.inp.work / f"eval_{pool.scorer}.json"
        argv = ["eval", "--pool", str(pool.pairs), "--format", "json", "-o", str(report)]
        for path in pool.features:
            argv += ["--features", str(path)]
        if pool.embeddings is not None:
            argv += ["--embeddings", str(pool.embeddings), "--scorer", "hybrid"]
        self._count(f"eval_{pool.scorer}", self._timed(f"eval_{pool.scorer}",
                                                       lambda: _cli(self.api, argv)))
        self.check_eval(report, self.expected_eval[which])

    def serve_round(self) -> None:
        """One closed-loop round over every query: search, then rerank. The
        first round is checked against the oracle, later ones against the first."""
        inp, ix = self.inp, self.ix_serve
        clock = time.perf_counter
        gc.collect()
        self.phase("serve")
        results = []
        t_round = clock()
        for ts, vec in zip(inp.query_tokens, inp.query_vecs):
            t0 = clock()
            found = ix.search(ts, K)
            self.search_lat.append(clock() - t0)
            try:
                t0 = clock()
                reranked = ix.prefilter_rerank(ts, vec, K1, K2, inp.store)
                self.rerank_lat.append(clock() - t0)
                results.append((found.entries, reranked.entries))
            except ValueError as exc:
                self.failed += 1
                results.append((found.entries, ("error", str(exc))))
            self.attempted += 2
        self._count("serve", clock() - t_round)
        self.phase("check")
        self.rounds += 1
        if self.first_round is None:
            self.first_round = results
            self.check_serving(results)
        elif results != self.first_round:
            self.problems.append(f"serving round {self.rounds} differs from round 1")

    def update(self, ix) -> None:
        """Add the update batch to a loaded index, then the first search,
        which rebuilds the search view."""
        inp = self.inp
        for fid, ts in zip(inp.update.ids, inp.update_tokens):
            ix.add(fid, ts)
        ix.search(inp.query_tokens[0], K)

    # -------------------------------------------------------------- checks

    def check_extract(self) -> None:
        for job in self.inp.extractions:
            with open(job.output, encoding="utf-8") as fh:
                got = [json.loads(line) for line in fh]
            want = [{"id": fid, "features": json.loads(text)} for fid, text in zip(job.ids, job.texts)]
            self.problem(got == want, f"extracted documents in {job.output.name} differ from their fixtures")

    def check_serving(self, results) -> None:
        inp = self.inp
        row_of = {fid: r for r, fid in enumerate(inp.indexed.ids)}
        for i, (found, reranked) in enumerate(results):
            qid = inp.queries.ids[i]
            want = self.expected[i]
            self.problem(list(found) == want[:K], f"search for {qid} differs from the oracle")
            if isinstance(reranked, tuple) and reranked[:1] == ("error",):
                self.problem(inp.expect_fault[i] and FAULT_TEXT in reranked[1],
                             f"rerank for {qid} failed unexpectedly: {reranked[1]}")
                continue
            ref = orc.rerank(want, inp.query_vectors[i],
                             {fid: inp.vectors[row_of[fid]] for fid, _ in want}, K2)
            ok = [fid for fid, _ in reranked] == [fid for fid, _ in ref] and all(
                abs(a - b) <= SCORE_TOL for (_, a), (_, b) in zip(reranked, ref)
            )
            self.problem(ok, f"rerank for {qid} differs from the oracle")

    def check_update(self, ix) -> None:
        inp = self.inp
        extended = self.oracle.extended(inp.update.offsets, inp.update.flat, inp.update.ids)
        want = extended.search([inp.queries.tokens(i) for i in range(len(inp.queries))], K)
        got = [list(ix.search(ts, K).entries) for ts in inp.query_tokens]
        self.problem(got == want, "search after the update differs from the oracle")

    def check_search_output(self, path: Path) -> None:
        with open(path, encoding="utf-8") as fh:
            got = [json.loads(line) for line in fh]
        want = [
            {"query": qid, "results": [{"id": fid, "score": s} for fid, s in res[:K]]}
            for qid, res in zip(self.inp.queries.ids, self.expected)
        ]
        self.problem(got == want, "search command output differs from the oracle")

    def check_eval(self, path: Path, want: dict) -> None:
        report = json.loads(path.read_text(encoding="utf-8"))
        ok = all(report.get(key) == want[key] for key in (
            "scorer", "pool_size", "recall_at_1", "per_pair_ranks", "per_pair_pessimistic_ranks"))
        ok = ok and abs(report.get("mrr", -1.0) - want["mrr"]) <= SCORE_TOL
        self.problem(ok, f"eval report ({want['scorer']}) differs from the brute-force count")
