"""Exact inverted-index retrieval over token sets.

Search returns precisely the exhaustive-scan Jaccard ranking: overlap counts
are accumulated from posting lists, |A ∪ B| follows from |A| + |B| − |A ∩ B|,
and only documents sharing at least one token are scored. Zero-overlap
documents are appended in id order when needed to fill ``k``. Ties break by
ascending function id, so results are identical no matter the insertion
order.

Ranking cost per query: one pass over the matched postings to accumulate
overlaps, a linear-time selection of the k-th best score among the touched
documents, and a sort of only the documents scoring above it (fewer than
``k``); the ties at the k-th score are taken in id order without sorting.

Concurrency: any number of threads may search; adding documents or
persisting requires exclusive access.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import (
    ConfigurationError,
    DuplicateIdError,
    MissingEmbeddingError,
    SnapshotError,
)
from .similarity import EmbeddingStore, EmbeddingVector, TokenSet, cosine, hybrid

SNAPSHOT_MAGIC = b"ASMSIEVE1"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class SearchResult:
    """Ranked (function id, score) pairs, scores non-increasing."""

    entries: tuple[tuple[str, float], ...]

    def ids(self) -> list[str]:
        return [fid for fid, _ in self.entries]

    def as_dict(self) -> list[dict[str, float | str]]:
        return [{"id": fid, "score": score} for fid, score in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


class _Finalized:
    """Immutable search view: ids sorted, vocabulary sorted, postings in CSR."""

    __slots__ = ("ids", "refs", "cards", "token_ids", "offsets", "flat")

    def __init__(self, ids, refs, cards, token_ids, offsets, flat):
        self.ids: list[str] = ids
        self.refs: list[str | None] = refs
        self.cards: np.ndarray = cards
        self.token_ids: dict[str, int] = token_ids
        self.offsets: np.ndarray = offsets
        self.flat: np.ndarray = flat


def _as_tokens(tokens: TokenSet | Iterable[str]) -> frozenset[str]:
    if isinstance(tokens, TokenSet):
        return tokens.tokens
    return frozenset(tokens)


class InvertedIndex:
    def __init__(self) -> None:
        self._ids: list[str] = []
        self._id_to_num: dict[str, int] = {}
        self._refs: list[str | None] = []
        self._cards: list[int] = []
        self._postings: dict[str, list[int]] = {}
        self._finalized: _Finalized | None = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, fid: str) -> bool:
        return fid in self._id_to_num

    def add(self, fid: str, tokens: TokenSet | Iterable[str], ref: str | None = None) -> None:
        """Register a document. ``ref`` optionally stores its canonical text."""
        if fid in self._id_to_num:
            raise DuplicateIdError(f"function id {fid!r} is already indexed")
        tokset = _as_tokens(tokens)
        num = len(self._ids)
        self._ids.append(fid)
        self._id_to_num[fid] = num
        self._refs.append(ref)
        self._cards.append(len(tokset))
        for token in tokset:
            self._postings.setdefault(token, []).append(num)
        self._finalized = None

    def document_ref(self, fid: str) -> str | None:
        return self._refs[self._id_to_num[fid]]

    def cardinality(self, fid: str) -> int:
        return self._cards[self._id_to_num[fid]]

    def _ensure_finalized(self) -> _Finalized:
        fin = self._finalized
        if fin is not None:
            return fin
        with self._lock:
            if self._finalized is not None:
                return self._finalized
            order = sorted(range(len(self._ids)), key=self._ids.__getitem__)
            new_num = np.empty(len(order), dtype=np.int64)
            for rank, old in enumerate(order):
                new_num[old] = rank
            ids = [self._ids[old] for old in order]
            refs = [self._refs[old] for old in order]
            cards = np.array([self._cards[old] for old in order], dtype=np.int64)

            tokens = sorted(self._postings)
            token_ids = {t: i for i, t in enumerate(tokens)}
            sizes = np.array([len(self._postings[t]) for t in tokens], dtype=np.int64)
            offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            flat = np.empty(int(offsets[-1]), dtype=np.int32)
            for i, t in enumerate(tokens):
                seg = new_num[np.asarray(self._postings[t], dtype=np.int64)]
                seg.sort()
                flat[offsets[i]:offsets[i + 1]] = seg
            self._finalized = _Finalized(ids, refs, cards, token_ids, offsets, flat)
            return self._finalized

    def search(self, query: TokenSet | Iterable[str], k: int) -> SearchResult:
        """Top-k documents by Jaccard overlap with the query token set."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not self._ids:
            raise ValueError("search on an empty index")
        fin = self._ensure_finalized()
        qtokens = _as_tokens(query)
        qlen = len(qtokens)
        tids = sorted(fin.token_ids[t] for t in qtokens if t in fin.token_ids)
        n = len(fin.ids)
        tid_arr = np.asarray(tids, dtype=np.int64)
        counts = _kernels.accumulate_counts(
            fin.flat, fin.offsets[tid_arr], fin.offsets[tid_arr + 1], n
        )
        touched = np.flatnonzero(counts != 0)
        inter = counts[touched]
        scores = inter / (qlen + fin.cards[touched] - inter)

        # Only documents scoring above the k-th best score are sorted. The
        # ties at that score follow in ascending doc number, which is the
        # tie-break order already; when fewer than k documents are touched,
        # the "ties" are the zero-overlap documents at score 0.0.
        k_eff = min(k, n)
        if len(touched) > k_eff:
            # The k-th largest score, taken as the k-th smallest of the negated
            # scores: numpy's introselect ran ten times slower selecting near
            # the back of an array with few distinct values, as when most
            # touched documents share one to three tokens with the query.
            kth = float(-np.partition(-scores, k_eff - 1)[k_eff - 1])
            ties = touched[scores == kth]
        else:
            kth = 0.0
            ties = np.flatnonzero(counts == 0)
        above = np.flatnonzero(scores > kth)
        above = above[np.lexsort((above, -scores[above]))]
        entries = [
            (fin.ids[doc], score)
            for doc, score in zip(touched[above].tolist(), scores[above].tolist())
        ]
        entries.extend((fin.ids[doc], kth) for doc in ties[: k_eff - len(above)].tolist())
        return SearchResult(entries=tuple(entries))

    def prefilter_rerank(
        self,
        query: TokenSet | Iterable[str],
        query_embedding: EmbeddingVector | Iterable[float],
        k1: int,
        k2: int,
        embeddings: EmbeddingStore,
    ) -> SearchResult:
        """Token search to ``k1`` candidates, then hybrid re-ranking to ``k2``.

        Every stage-1 survivor must have an embedding; otherwise the missing
        ids are reported.
        """
        if k2 > k1:
            raise ConfigurationError(f"k2 ({k2}) must not exceed k1 ({k1})")
        stage1 = self.search(query, k1)
        missing = [fid for fid, _ in stage1.entries if fid not in embeddings]
        if missing:
            raise MissingEmbeddingError(
                "no embedding for candidate id(s): " + ", ".join(sorted(missing))
            )
        rescored = [
            (fid, hybrid(s_a, cosine(query_embedding, embeddings[fid])).S)
            for fid, s_a in stage1.entries
        ]
        rescored.sort(key=lambda e: (-e[1], e[0]))
        return SearchResult(entries=tuple(rescored[:k2]))

    def persist(self, path) -> None:
        """Write a versioned single-file snapshot (see module docs for layout)."""
        fin = self._ensure_finalized()
        tokens = sorted(fin.token_ids, key=fin.token_ids.__getitem__)
        sections = [
            json.dumps(
                {"n_docs": len(fin.ids), "n_tokens": len(tokens), "nnz": int(fin.offsets[-1])},
                separators=(",", ":"),
            ).encode("utf-8"),
            json.dumps(
                {"ids": fin.ids, "refs": fin.refs, "cards": fin.cards.tolist()},
                separators=(",", ":"),
            ).encode("utf-8"),
            json.dumps(tokens, separators=(",", ":")).encode("utf-8"),
            np.ascontiguousarray(fin.offsets, dtype="<i8").tobytes(),
            np.ascontiguousarray(fin.flat, dtype="<i4").tobytes(),
        ]
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(struct.pack("<I", SNAPSHOT_VERSION))
            for payload in sections:
                fh.write(struct.pack("<QI", len(payload), zlib.crc32(payload)))
                fh.write(payload)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < len(SNAPSHOT_MAGIC) + 4 or not blob.startswith(SNAPSHOT_MAGIC):
            raise SnapshotError("not an index snapshot (bad magic)")
        pos = len(SNAPSHOT_MAGIC)
        (version,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        payloads = []
        for _ in range(5):
            if pos + 12 > len(blob):
                raise SnapshotError("snapshot truncated in section header")
            length, crc = struct.unpack_from("<QI", blob, pos)
            pos += 12
            if pos + length > len(blob):
                raise SnapshotError("snapshot truncated in section payload")
            payload = blob[pos : pos + length]
            if zlib.crc32(payload) != crc:
                raise SnapshotError("snapshot section failed checksum")
            payloads.append(payload)
            pos += length
        if pos != len(blob):
            raise SnapshotError("snapshot holds trailing bytes")

        try:
            meta = json.loads(payloads[0])
            docs = json.loads(payloads[1])
            tokens = json.loads(payloads[2])
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot section is not valid JSON: {exc}") from exc
        offsets = np.frombuffer(payloads[3], dtype="<i8").astype(np.int64)
        flat = np.frombuffer(payloads[4], dtype="<i4").astype(np.int32)
        ids, refs, cards = docs["ids"], docs["refs"], docs["cards"]
        if (
            len(ids) != meta["n_docs"]
            or len(tokens) != meta["n_tokens"]
            or len(flat) != meta["nnz"]
            or len(offsets) != meta["n_tokens"] + 1
            or len(refs) != len(ids)
            or len(cards) != len(ids)
        ):
            raise SnapshotError("snapshot sections disagree on sizes")

        ix = cls()
        ix._ids = list(ids)
        ix._id_to_num = {fid: i for i, fid in enumerate(ids)}
        ix._refs = list(refs)
        ix._cards = [int(c) for c in cards]
        ix._postings = {
            t: flat[offsets[i]:offsets[i + 1]].tolist() for i, t in enumerate(tokens)
        }
        ix._finalized = _Finalized(
            list(ids),
            list(refs),
            np.asarray(cards, dtype=np.int64),
            {t: i for i, t in enumerate(tokens)},
            offsets,
            flat,
        )
        return ix
