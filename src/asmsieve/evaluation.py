"""Pool-based retrieval evaluation (MRR, Recall@1) and ablation grids.

For each pair (a_i, b_i) the query a_i is scored against every right-side
element of the pool; the rank of b_i (ties broken by ascending id) yields
the reciprocal rank. A pessimistic rank, counting tied candidates as
better, is reported alongside as a conservative bound.

Cost: each pair's left side is scored against the pool's right ids, sorted,
as one row (``_score_row``): one ``jaccard`` call per right side for
``jaccard`` and ``hybrid``, one ``similarity.cosines`` batch for ``cosine``
and one ``similarity.hybrids`` batch for ``hybrid``. Both ranks then come
from numpy comparisons of the row with its true-match element: the
optimistic rank counts the better scores and the ties at a smaller
position, the pessimistic rank the better scores and every other tie. A
pool of P pairs thus costs P² ``jaccard`` calls, P batches of P x d and P
rank steps of O(P). In process, on pools of 30-token documents from a
4,000-token vocabulary and 64-dimensional embeddings (2-vCPU host, numpy
2.4), ``jaccard`` took 0.20 s at P = 400 and 1.27 s at P = 1,000, and
``hybrid`` 0.26 s and 1.58 s, where a scalar score per pair took 0.54,
3.57, 1.12 and 7.30 s; the rank step is under 2 % of either.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import FunctionPair, AssemblyFunction
from .errors import (
    ConfigurationError,
    FixtureMissError,
    MissingEmbeddingError,
    MissingFeatureError,
)
from .extraction import RetryPolicy, extract_features
from .fixtures import FixtureStore, ReplayClient
from .prompts import SECTIONS, PromptConfig, PromptExample, load_example_bank
from .similarity import EmbeddingStore, EmbeddingVector, cosines, flatten, hybrids, jaccard
# cosine and hybrid are no longer called here; kept because the benchmark
# tracer wraps evaluation.cosine and evaluation.hybrid by name
from .similarity import cosine, hybrid  # noqa: F401

SCORERS = ("jaccard", "hybrid", "cosine")

ABLATION_AXES = ("num_examples", "drop_one_section", "system_prompt", "schema_in_prompt")


@dataclass(frozen=True)
class EvalPool:
    pairs: tuple[FunctionPair, ...]
    scorer: str = "jaccard"
    name: str = ""

    def __post_init__(self) -> None:
        if self.scorer not in SCORERS:
            raise ConfigurationError(f"unknown scorer {self.scorer!r}; pick one of {SCORERS}")
        counts = Counter(p.right for p in self.pairs)
        if len(counts) != len(self.pairs):
            dupes = sorted(r for r, c in counts.items() if c > 1)
            raise ConfigurationError(f"pool right-side ids must be distinct, repeated: {dupes}")

    @property
    def pool_size(self) -> int:
        return len(self.pairs)

    def ids(self) -> set[str]:
        out = set()
        for p in self.pairs:
            out.add(p.left)
            out.add(p.right)
        return out


@dataclass(frozen=True)
class EvalReport:
    mrr: float
    recall_at_1: float
    per_pair_ranks: tuple[int, ...]
    per_pair_pessimistic_ranks: tuple[int, ...]
    scorer: str
    pool_size: int
    config: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "scorer": self.scorer,
            "pool_size": self.pool_size,
            "mrr": self.mrr,
            "recall_at_1": self.recall_at_1,
            "per_pair_ranks": list(self.per_pair_ranks),
            "per_pair_pessimistic_ranks": list(self.per_pair_pessimistic_ranks),
        }
        if self.config:
            out["config"] = self.config
        return out

    def render_table(self) -> str:
        lines = [
            f"{'scorer':<12} {self.scorer}",
            f"{'pool size':<12} {self.pool_size}",
            f"{'MRR':<12} {self.mrr:.6f}",
            f"{'Recall@1':<12} {self.recall_at_1:.6f}",
        ]
        return "\n".join(lines)


def _score_row(
    scorer: str,
    tokens: Iterable[str],
    right_tokens: Sequence[Iterable[str]],
    vector: EmbeddingVector | None,
    right_vectors: Sequence[EmbeddingVector],
) -> np.ndarray:
    """One left side's scores against every right side, in the rights'
    order: bit for bit the scalar ``jaccard``, ``cosine`` or
    ``hybrid(jaccard, cosine).S`` of each pair, with the scalar loop's first
    error (``cosines`` and ``hybrids`` keep both). ``jaccard`` is called
    through this module's name, which the benchmark's tracer wraps."""
    if scorer == "cosine":
        return cosines(vector, right_vectors)
    s_a = np.array([jaccard(tokens, right) for right in right_tokens])
    if scorer == "jaccard":
        return s_a
    return hybrids(s_a, vector, right_vectors)


def evaluate_pool(
    pool: EvalPool,
    features: Mapping[str, Iterable[str]],
    embeddings: EmbeddingStore | None = None,
    config_echo: Mapping | None = None,
) -> EvalReport:
    """Rank every pair's true match among the pool's right-side elements."""
    ids = sorted(pool.ids())
    missing = [fid for fid in ids if fid not in features]
    if missing:
        raise MissingFeatureError("no features for id(s): " + ", ".join(missing))
    if pool.scorer in ("hybrid", "cosine"):
        if embeddings is None:
            raise MissingEmbeddingError(f"scorer {pool.scorer!r} needs an embedding store")
        missing = [fid for fid in ids if fid not in embeddings]
        if missing:
            raise MissingEmbeddingError("no embeddings for id(s): " + ", ".join(missing))

    rights = sorted(p.right for p in pool.pairs)
    position = {right: i for i, right in enumerate(rights)}
    right_tokens = [features[right] for right in rights]
    uses_vectors = pool.scorer != "jaccard"
    right_vectors = [embeddings[right] for right in rights] if uses_vectors else []
    ranks: list[int] = []
    pess_ranks: list[int] = []
    for pair in pool.pairs:
        vector = embeddings[pair.left] if uses_vectors else None
        row = _score_row(pool.scorer, features[pair.left], right_tokens, vector, right_vectors)
        at = position[pair.right]
        true_score = row[at]
        ties = row == true_score
        better = int(np.count_nonzero(row > true_score))
        tied_before = int(np.count_nonzero(ties[:at]))
        ranks.append(1 + better + tied_before)
        pess_ranks.append(1 + better + tied_before + int(np.count_nonzero(ties[at + 1:])))

    n = len(ranks)
    mrr = sum(1.0 / r for r in ranks) / n if n else 0.0
    recall = sum(1 for r in ranks if r == 1) / n if n else 0.0
    return EvalReport(
        mrr=mrr,
        recall_at_1=recall,
        per_pair_ranks=tuple(ranks),
        per_pair_pessimistic_ranks=tuple(pess_ranks),
        scorer=pool.scorer,
        pool_size=pool.pool_size,
        config=dict(config_echo or {}),
    )


def sample_pool(
    pairs: Sequence[FunctionPair],
    pool_size: int,
    seed: int,
    scorer: str = "jaccard",
) -> EvalPool:
    """Draw a reproducible pool; an explicit seed is mandatory."""
    if pool_size < 1 or pool_size > len(pairs):
        raise ConfigurationError(
            f"pool_size must lie in 1..{len(pairs)}, got {pool_size}"
        )
    rng = random.Random(seed)
    picked = rng.sample(list(pairs), pool_size)
    return EvalPool(pairs=tuple(picked), scorer=scorer)


@dataclass(frozen=True)
class GridCell:
    label: str
    config: PromptConfig


def grid_cells(base: PromptConfig, axis: str) -> tuple[GridCell, ...]:
    """Expand an ablation axis into its prompt configurations."""
    if axis == "num_examples":
        return tuple(
            GridCell(f"examples={n}", replace(base, num_examples=n)) for n in range(5)
        )
    if axis == "drop_one_section":
        cells = []
        for section in SECTIONS:
            kept = tuple(s for s in base.sections if s != section)
            if not kept:
                raise ConfigurationError(
                    f"cannot drop {section}: it is the only enabled section"
                )
            cells.append(GridCell(f"without={section}", replace(base, sections=kept)))
        return tuple(cells)
    if axis == "system_prompt":
        return (
            GridCell("system_prompt=on", replace(base, system_prompt_enabled=True)),
            GridCell("system_prompt=off", replace(base, system_prompt_enabled=False)),
        )
    if axis == "schema_in_prompt":
        return (
            GridCell("schema_in_prompt=on", replace(base, include_schema_in_prompt=True)),
            GridCell("schema_in_prompt=off", replace(base, include_schema_in_prompt=False)),
        )
    raise ConfigurationError(f"unknown ablation axis {axis!r}; pick one of {ABLATION_AXES}")


@dataclass(frozen=True)
class AblationTable:
    rows: tuple[tuple[str, str, EvalReport], ...]  # (cell label, pool name, report)

    def as_dict(self) -> list[dict]:
        return [
            {"cell": cell, "pool": pool, "report": report.as_dict()}
            for cell, pool, report in self.rows
        ]

    def render_table(self) -> str:
        header = f"{'cell':<28} {'pool':<12} {'MRR':>10} {'Recall@1':>10}"
        lines = [header, "-" * len(header)]
        for cell, pool, report in self.rows:
            lines.append(
                f"{cell:<28} {pool:<12} {report.mrr:>10.6f} {report.recall_at_1:>10.6f}"
            )
        return "\n".join(lines)


def ablation_grid(
    base: PromptConfig,
    axis: str,
    pools: Sequence[EvalPool],
    functions: Mapping[str, AssemblyFunction],
    store: FixtureStore,
    bank: Iterable[PromptExample] | None = None,
    policy: RetryPolicy | None = None,
    embeddings: EmbeddingStore | None = None,
) -> AblationTable:
    """Replay-based ablation: one EvalReport per (cell, pool).

    Every cell re-extracts features for the pooled functions through the
    fixture store; a missing fixture is an error naming the cell.
    """
    cells = grid_cells(base, axis)
    needed = sorted(set().union(*(pool.ids() for pool in pools))) if pools else []
    absent = [fid for fid in needed if fid not in functions]
    if absent:
        raise MissingFeatureError("no function records for id(s): " + ", ".join(absent))
    client = ReplayClient(store)
    bank = tuple(bank) if bank is not None else load_example_bank()

    rows: list[tuple[str, str, EvalReport]] = []
    for cell in cells:
        features: dict[str, frozenset[str]] = {}
        for fid in needed:
            try:
                fs, _ = extract_features(
                    functions[fid], client, cfg=cell.config, policy=policy, bank=bank
                )
            except FixtureMissError as exc:
                raise FixtureMissError(f"[cell {cell.label}] {exc}") from exc
            features[fid] = flatten(fs)
        for i, pool in enumerate(pools):
            pool_name = pool.name or f"pool{i}"
            report = evaluate_pool(
                pool,
                features,
                embeddings=embeddings,
                config_echo={"cell": cell.label, "axis": axis},
            )
            rows.append((cell.label, pool_name, report))
    return AblationTable(rows=tuple(rows))
