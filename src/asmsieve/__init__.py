"""asmsieve: clone search for binary functions.

Assembly functions become structured, human-readable feature documents
(extracted by a language model or a deterministic static analyzer), the
documents flatten into token sets, and an exact inverted index answers
top-k Jaccard queries, optionally re-ranked with embedding similarity.
"""

from .corpus import (
    AssemblyFunction,
    FunctionPair,
    build_pairs,
    filter_short,
    load_corpus,
    parse_listing,
    save_corpus,
    truncate,
)
from .errors import AsmsieveError
from .evaluation import EvalPool, EvalReport, ablation_grid, evaluate_pool, grid_cells, sample_pool
from .extraction import ClientTranscript, RetryPolicy, extract_features
from .fixtures import FixtureStore, ReplayClient
from .index import InvertedIndex, SearchResult
from .prompts import PromptConfig, build_prompt, load_example_bank
from .schema import FeatureSet, canonicalize, diff, validate
from .similarity import (
    EmbeddingStore,
    EmbeddingVector,
    cosine,
    flatten,
    hybrid,
    jaccard,
)
from .static_analysis import static_extract

__version__ = "0.1.0"

__all__ = [
    "AsmsieveError",
    "AssemblyFunction",
    "ClientTranscript",
    "EmbeddingStore",
    "EmbeddingVector",
    "EvalPool",
    "EvalReport",
    "FeatureSet",
    "FixtureStore",
    "FunctionPair",
    "InvertedIndex",
    "PromptConfig",
    "ReplayClient",
    "RetryPolicy",
    "SearchResult",
    "ablation_grid",
    "build_pairs",
    "build_prompt",
    "canonicalize",
    "cosine",
    "diff",
    "evaluate_pool",
    "extract_features",
    "filter_short",
    "flatten",
    "grid_cells",
    "hybrid",
    "jaccard",
    "load_corpus",
    "load_example_bank",
    "parse_listing",
    "sample_pool",
    "save_corpus",
    "static_extract",
    "truncate",
    "validate",
]
