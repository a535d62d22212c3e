"""Reference answers computed apart from the program.

The oracle never calls into ``asmsieve``. It scans every document's token ids
(see ``inputs.Docs``) to get exact Jaccard scores, re-ranks with numpy, and
counts ranks by brute force. Rows are kept in ascending id order, so "ties by
ascending id" is "ties by ascending row".
"""

from __future__ import annotations

import numpy as np

# Overlap counts are summed in packed 6-bit fields, ten queries per uint64, so
# one pass over every document's tokens scores ten queries at once.
FIELD_BITS = 6
PER_WORD = 10


class Oracle:
    def __init__(self, offsets: np.ndarray, flat: np.ndarray, ids: list[str], n_tokens: int):
        if ids != sorted(ids):
            raise ValueError("oracle rows must be in ascending id order")
        self.offsets = offsets
        self.flat = flat
        self.ids = ids
        self.cards = np.diff(offsets).astype(np.int64)
        self.n_tokens = n_tokens

    def extended(self, offsets: np.ndarray, flat: np.ndarray, ids: list[str]) -> "Oracle":
        """The oracle over these documents plus the given ones (ids sort after)."""
        return Oracle(
            np.concatenate([self.offsets, self.offsets[-1] + offsets[1:]]),
            np.concatenate([self.flat, flat]),
            self.ids + ids,
            self.n_tokens,
        )

    def search(self, queries: list[np.ndarray], k: int) -> list[list[tuple[str, float]]]:
        """Exhaustive top-k Jaccard: score descending, then id ascending."""
        out = []
        for q, inter in zip(queries, overlaps(self.offsets, self.flat, self.n_tokens, queries)):
            scores = inter / (len(q) + self.cards - inter)
            rows = top_rows(scores, k)
            out.append([(self.ids[r], float(scores[r])) for r in rows])
        return out


def overlaps(offsets: np.ndarray, flat: np.ndarray, n_tokens: int, queries) -> np.ndarray:
    """|Q ∩ D| for every query (rows) and document (columns), by a full scan of
    every document's tokens. Documents must be non-empty and hold fewer than
    2**FIELD_BITS tokens."""
    sizes = np.diff(offsets)
    if len(sizes) and (sizes.min() == 0 or sizes.max() >= 1 << FIELD_BITS):
        raise ValueError("document sizes outside the oracle's packed range")
    out = np.empty((len(queries), len(sizes)), dtype=np.int64)
    mask = np.uint64((1 << FIELD_BITS) - 1)
    for b0 in range(0, len(queries), PER_WORD):
        batch = queries[b0:b0 + PER_WORD]
        marks = np.zeros(n_tokens, dtype=np.uint64)
        for j, q in enumerate(batch):
            marks[q] += np.uint64(1 << (FIELD_BITS * j))
        sums = np.add.reduceat(marks[flat], offsets[:-1])
        for j in range(len(batch)):
            out[b0 + j] = (sums >> np.uint64(FIELD_BITS * j)) & mask
    return out


def top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k best scores, ties by ascending row."""
    k = min(k, len(scores))
    kth = np.partition(-scores, k - 1)[k - 1]
    cand = np.nonzero(-scores <= kth)[0]
    order = np.lexsort((cand, -scores[cand]))
    return cand[order[:k]]


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def rerank(
    stage1: list[tuple[str, float]],
    query_vec: np.ndarray,
    vectors: dict[str, np.ndarray],
    k2: int,
) -> list[tuple[str, float]]:
    """Equal-weight hybrid of Jaccard and cosine over the stage-1 candidates."""
    cand = np.stack([vectors[fid] for fid, _ in stage1])
    s_e = unit_rows(cand) @ (query_vec / np.linalg.norm(query_vec))
    s_a = np.array([s for _, s in stage1])
    combined = (s_e + s_a) / 2
    ids = [fid for fid, _ in stage1]
    order = sorted(range(len(ids)), key=lambda i: (-combined[i], ids[i]))
    return [(ids[i], float(combined[i])) for i in order[:k2]]


def self_cosine_exceeds_one(v: np.ndarray) -> bool:
    """Whether cosine(v, v), as dot / (|v| |v|) in float64, rounds above 1."""
    n = float(np.linalg.norm(v))
    return float(np.dot(v, v) / (n * n)) > 1.0


def pool_ranks(scores: np.ndarray, true_cols: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-pair ranks (ties by ascending id) and pessimistic ranks (ties
    counted as worse) from a left x right score matrix whose columns are in
    ascending id order."""
    ranks, pess = [], []
    cols = np.arange(scores.shape[1])
    for row, j in zip(scores, true_cols):
        true = row[j]
        better = int((row > true).sum())
        tied = row == true
        ranks.append(1 + better + int((tied & (cols < j)).sum()))
        pess.append(better + int(tied.sum()))
    return ranks, pess


def jaccard_matrix(left: list[np.ndarray], right: list[np.ndarray], n_tokens: int) -> np.ndarray:
    offsets = np.zeros(len(right) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in right], out=offsets[1:])
    inter = overlaps(offsets, np.concatenate(right), n_tokens, left)
    lsize = np.array([len(q) for q in left])[:, None]
    rsize = np.diff(offsets)[None, :]
    return inter / (lsize + rsize - inter)


def eval_report(scores: np.ndarray, true_cols: np.ndarray) -> dict:
    ranks, pess = pool_ranks(scores, true_cols)
    n = len(ranks)
    return {
        "mrr": sum(1.0 / r for r in ranks) / n,
        "recall_at_1": sum(1 for r in ranks if r == 1) / n,
        "per_pair_ranks": ranks,
        "per_pair_pessimistic_ranks": pess,
    }
