"""Command-line pipeline: ingest, extract, index, search, diff, rerank, eval.

Exit codes: 0 success, 2 input error, 3 some functions failed extraction,
4 configuration error. A ``--config FILE`` of ``key = value`` lines (keys are
long option names with underscores) supplies defaults; explicit flags win.
Secrets come from the environment (ASMSIEVE_LLM_URL, ASMSIEVE_LLM_KEY).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import corpus as corpus_mod
from . import schema as schema_mod
from .clients import DEFAULT_MAX_OUTPUT_TOKENS, HttpChatClient, StaticAnalysisClient
from .errors import (
    AsmsieveError,
    ClientTransportError,
    ConfigurationError,
    ExtractionFailedError,
    FixtureMissError,
    MissingEmbeddingError,
    MissingFeatureError,
)
from .evaluation import SCORERS, EvalPool, evaluate_pool
from .extraction import RetryPolicy, extract_features
from .fixtures import FixtureStore, RecordingClient, ReplayClient
from .index import InvertedIndex
from .prompts import SECTIONS, PromptConfig, load_example_bank
# flatten is no longer called here; kept because the benchmark tracer wraps cli.flatten by name
from .similarity import FlattenConfig, flatten, load_embeddings, read_token_sets  # noqa: F401
from .static_analysis import STATIC_FIELDS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EXTRACTION = 3
EXIT_CONFIG = 4


def _fail(message: str) -> None:
    print(f"asmsieve: error: {message}", file=sys.stderr)


def load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; values go through JSON when possible and
    stay strings when they are not JSON. A file that is not UTF-8, and a
    value JSON parses but cannot hold (an integer past int_max_str_digits,
    nesting past the recursion limit), raise ``ConfigurationError``."""
    text = schema_mod.read_text(path, lambda n, msg: ConfigurationError(f"{path}, line {n}: {msg}"))
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}, line {line_no}: config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(
                f"{path}, line {line_no}: config value for {key!r} is unreadable: {exc}") from exc
        out[key.replace("-", "_")] = value
    return out


def _flatten_config(args) -> FlattenConfig:
    return FlattenConfig(
        bucket_counts=getattr(args, "bucket_counts", False),
        atomic_arrays=getattr(args, "atomic_arrays", False),
    )


def _add_flatten_flags(sp) -> None:
    sp.add_argument("--bucket-counts", action="store_true",
                    help="log-bucket the count fields when flattening")
    sp.add_argument("--atomic-arrays", action="store_true",
                    help="flatten each array field to one token instead of per element")


@contextlib.contextmanager
def _output(path: str):
    """The ``-o`` stream: stdout for ``-``, left open, else the file, closed on exit."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _ordered_map(fn, items, parallel: int) -> list:
    """``[fn(x) for x in items]``: in the calling thread at ``parallel`` 1,
    else on that many threads; results keep the order of ``items``."""
    if parallel == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------- ingest

def cmd_ingest(args) -> int:
    functions = []
    for path in args.listings:
        functions.extend(
            corpus_mod.read_listing(
                path, library=args.library, arch=args.arch, opt_level=args.opt_level
            )
        )
    functions = corpus_mod.filter_short(functions, args.min_instr)
    if args.max_instr:
        functions = [corpus_mod.truncate(fn, args.max_instr) for fn in functions]
    with _output(args.output) as out:
        out.writelines(map(corpus_mod.corpus_line, functions))
    print(f"ingested {len(functions)} function(s)", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- extract

def _make_client(args):
    if args.client == "static":
        return StaticAnalysisClient()
    if args.client == "replay":
        if not args.fixtures:
            raise ConfigurationError("--client replay needs --fixtures DIR")
        return ReplayClient(FixtureStore(args.fixtures))
    client = HttpChatClient(url=args.url or None, model=args.model or None)
    if args.record:
        if not args.fixtures:
            raise ConfigurationError("--record needs --fixtures DIR")
        client = RecordingClient(client, FixtureStore(args.fixtures, create=True))
    return client


def cmd_extract(args) -> int:
    functions = corpus_mod.load_corpus(args.corpus)
    sections = tuple(args.sections.split(",")) if args.sections else SECTIONS
    cfg = PromptConfig(
        sections=sections,
        num_examples=args.examples,
        include_schema_in_prompt=args.schema_in_prompt,
        system_prompt_enabled=not args.no_system_prompt,
    )
    policy = RetryPolicy(
        max_retries=args.max_retries,
        base_temperature=args.base_temperature,
        temperature_step=args.temperature_step,
    )
    bank = load_example_bank(args.example_bank) if args.example_bank else None
    client = _make_client(args)
    required = None
    if args.client == "static":
        required = tuple(n for n in STATIC_FIELDS if n in cfg.enabled_fields)

    def run_one(fn):
        """The function's features, or the message of its failed extraction."""
        try:
            return extract_features(
                fn,
                client,
                cfg=cfg,
                policy=policy,
                bank=bank,
                max_output_tokens=args.max_output_tokens,
                required_fields=required,
            )[0]
        except (ExtractionFailedError, FixtureMissError, ClientTransportError) as exc:
            return str(exc)

    outcomes = list(zip(functions, _ordered_map(run_one, functions, args.parallel)))
    results = {fn.id: fs for fn, fs in outcomes if not isinstance(fs, str)}
    failures = [(fn.id, message) for fn, message in outcomes if isinstance(message, str)]
    schema_mod.save_features(args.output, results)
    for fid, message in failures:
        print(f"extraction failed for {fid}: {message}", file=sys.stderr)
    print(
        f"extracted {len(results)}/{len(functions)} function(s)"
        + (f", {len(failures)} failure(s)" if failures else ""),
        file=sys.stderr,
    )
    return EXIT_EXTRACTION if failures else EXIT_OK


# ---------------------------------------------------------------- index

def cmd_index(args) -> int:
    ix = InvertedIndex()
    for fid, tokens in read_token_sets(args.features, _flatten_config(args)):
        ix.add(fid, tokens)
    ix.persist(args.output)
    print(f"indexed {len(ix)} document(s) -> {args.output}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- search

def _print_ranked(query_id: str, result, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps({"query": query_id, "results": result.as_dict()}) + "\n")
        return
    out.write(f"query {query_id}\n")
    for rank, (fid, score) in enumerate(result.entries, 1):
        out.write(f"  {rank:>3}  {score:.6f}  {fid}\n")


def _read_queries(args) -> dict:
    """The query token sets by id; with ``--id``, that query alone. Every
    record is parsed and its id checked, but only the selected one is
    validated and tokenized."""
    queries = dict(read_token_sets(args.query, _flatten_config(args), args.id))
    if args.id is not None and not queries:
        raise MissingFeatureError(f"no features for id {args.id!r}")
    return queries


def cmd_search(args) -> int:
    ix = InvertedIndex.load(args.index)
    queries = _read_queries(args)
    with _output(args.output) as out:
        ranked = _ordered_map(lambda ts: ix.search(ts, args.k), queries.values(), args.parallel)
        for fid, result in zip(queries, ranked):
            _print_ranked(fid, result, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------- diff

def cmd_diff(args) -> int:
    features = schema_mod.load_features(*args.features)
    for fid in (args.left, args.right):
        if fid not in features:
            raise MissingFeatureError(f"no features for id {fid!r}")
    differences = schema_mod.diff(features[args.left], features[args.right])
    if args.format == "json":
        print(json.dumps([d.as_dict() for d in differences], indent=2))
        return EXIT_OK
    if not differences:
        print("documents are identical")
        return EXIT_OK
    for d in differences:
        left = "(absent)" if not d.left_present else json.dumps(d.as_dict()["left"])
        right = "(absent)" if not d.right_present else json.dumps(d.as_dict()["right"])
        print(f"{d.field}: {left} -> {right}")
        if d.added:
            print(f"    added:   {', '.join(d.added)}")
        if d.removed:
            print(f"    removed: {', '.join(d.removed)}")
    return EXIT_OK


# ---------------------------------------------------------------- rerank

def cmd_rerank(args) -> int:
    ix = InvertedIndex.load(args.index)
    embeddings = load_embeddings(args.embeddings)
    queries = _read_queries(args)
    with _output(args.output) as out:
        for fid, tokens in queries.items():
            if fid not in embeddings:
                raise MissingEmbeddingError(f"no embedding for query id {fid!r}")
            result = ix.prefilter_rerank(tokens, embeddings[fid], args.k1, args.k2, embeddings)
            _print_ranked(fid, result, args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    pairs = corpus_mod.load_pairs(args.pool)
    pool = EvalPool(pairs=tuple(pairs), scorer=args.scorer)
    features = dict(read_token_sets(args.features, _flatten_config(args)))
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    report = evaluate_pool(pool, features, embeddings=embeddings)
    with _output(args.output) as out:
        if args.format == "json":
            out.write(json.dumps(report.as_dict(), indent=2) + "\n")
        else:
            out.write(report.render_table() + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- parser

_ID_HELP = ("query only this function id; the other query records are parsed and "
            "their ids checked, but their fields are not validated")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="asmsieve",
        description="Clone search over binary functions via interpretable feature documents.",
    )
    parser.add_argument("--config", help="key = value config file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="parse listings into a corpus file")
    sp.add_argument("listings", nargs="+", help="listing file(s)")
    sp.add_argument("--library", required=True)
    sp.add_argument("--arch", required=True)
    sp.add_argument("--opt-level", required=True)
    sp.add_argument("--min-instr", type=int, default=3,
                    help="drop functions with fewer instructions (default 3)")
    sp.add_argument("--max-instr", type=int, default=128,
                    help="truncate to this many instructions, 0 disables (default 128)")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("extract", help="extract feature documents for a corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--client", choices=("live", "replay", "static"), default="replay")
    sp.add_argument("--fixtures", help="fixture directory (replay/record)")
    sp.add_argument("--record", action="store_true",
                    help="record live responses into --fixtures")
    sp.add_argument("--url", default="", help="chat endpoint URL (or ASMSIEVE_LLM_URL)")
    sp.add_argument("--model", default="", help="model name passed to the endpoint")
    sp.add_argument("--examples", type=int, default=3, help="few-shot examples (default 3)")
    sp.add_argument("--example-bank", help="directory of .asm/.json example pairs")
    sp.add_argument("--sections", default="",
                    help="comma-separated prompt sections (default: all five)")
    sp.add_argument("--no-system-prompt", action="store_true")
    sp.add_argument("--schema-in-prompt", action="store_true")
    sp.add_argument("--max-retries", type=int, default=3)
    sp.add_argument("--base-temperature", type=float, default=0.2)
    sp.add_argument("--temperature-step", type=float, default=0.2)
    sp.add_argument("--max-output-tokens", type=int, default=DEFAULT_MAX_OUTPUT_TOKENS)
    sp.add_argument("--parallel", type=int, default=1, help="in-flight extractions")
    sp.add_argument("-o", "--output", required=True, help="features file to write")
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("index", help="build an index snapshot from features")
    sp.add_argument("--features", action="append", required=True,
                    help="features file (repeatable)")
    _add_flatten_flags(sp)
    sp.add_argument("-o", "--output", required=True, help="snapshot file to write")
    sp.set_defaults(func=cmd_index)

    sp = sub.add_parser("search", help="top-k similar functions for each query")
    sp.add_argument("--index", required=True, help="snapshot file")
    sp.add_argument("--query", action="append", required=True,
                    help="features file with query documents (repeatable)")
    sp.add_argument("--id", help=_ID_HELP)
    sp.add_argument("-k", type=int, default=10)
    sp.add_argument("--parallel", type=int, default=1)
    _add_flatten_flags(sp)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("diff", help="field-level diff of two feature documents")
    sp.add_argument("--features", action="append", required=True)
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=cmd_diff)

    sp = sub.add_parser("rerank", help="token pre-filter then hybrid re-ranking")
    sp.add_argument("--index", required=True)
    sp.add_argument("--embeddings", required=True, help="embedding JSONL file")
    sp.add_argument("--query", action="append", required=True)
    sp.add_argument("--id", help=_ID_HELP)
    sp.add_argument("--k1", type=int, default=100, help="pre-filter depth (default 100)")
    sp.add_argument("--k2", type=int, default=10, help="results to keep (default 10)")
    _add_flatten_flags(sp)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_rerank)

    sp = sub.add_parser("eval", help="MRR / Recall@1 over a pool of pairs")
    sp.add_argument("--pool", required=True, help="pairs JSONL file")
    sp.add_argument("--features", action="append", required=True)
    sp.add_argument("--embeddings", help="embedding JSONL (hybrid/cosine scorers)")
    sp.add_argument("--scorer", choices=SCORERS, default="jaccard")
    _add_flatten_flags(sp)
    sp.add_argument("--format", choices=("table", "json"), default="json")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_eval)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            defaults = load_config_file(args.config)
        except (OSError, ConfigurationError) as exc:
            _fail(str(exc))
            return EXIT_CONFIG
        # The subcommand's options are the keys parsing set, less the top-level
        # ones and the handler that set_defaults stores; other keys are ignored.
        options = vars(args).keys() - {"config", "command", "func"}
        commands[args.command].set_defaults(**{k: v for k, v in defaults.items() if k in options})
        args = parser.parse_args(argv)
    # checked here rather than by an argparse type, which a config default skips
    if getattr(args, "parallel", 1) < 1:
        commands[args.command].error(f"argument --parallel: must be at least 1, got {args.parallel}")
    try:
        return args.func(args)
    except ConfigurationError as exc:
        _fail(str(exc))
        return EXIT_CONFIG
    except (AsmsieveError, ValueError, OSError) as exc:
        # a typed input error, a value no check names (a dimension mismatch,
        # ...) or a path that cannot be read or written
        _fail(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
