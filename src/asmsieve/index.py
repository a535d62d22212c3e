"""Exact inverted-index retrieval over token sets.

Search returns precisely the exhaustive-scan Jaccard ranking: overlap counts
are accumulated from posting lists, |A ∪ B| follows from |A| + |B| − |A ∩ B|,
and only documents sharing at least one token are scored, except that the
empty query scores the empty documents 1.0, as ``similarity.jaccard`` does two
empty sets. The others score 0.0 and are appended in id order when needed to
fill ``k``. Ties break by ascending function id, so results are identical no
matter the insertion order.

Ranking cost per query: one pass over the matched postings to accumulate
overlaps, a linear-time selection of the k-th best score among the touched
documents, and a sort of only the documents scoring above it (fewer than
``k``); the ties at the k-th score are taken in id order without sorting.

The documents live only in the CSR arrays of ``_Finalized``; ``add`` buffers
new ones until the next search, ``persist`` or ``cardinality`` merges them in.
The index holds token sets only; the readable documents stay in the features
file they were flattened from.

Snapshot layout (all integers little-endian): the magic ``ASMSIEVE1``, a
uint32 version (``SNAPSHOT_VERSION``), then five sections, each a uint64
payload length and a uint32 CRC32 of the payload, followed by the payload:

1. meta: JSON object ``{"n_docs", "n_tokens", "nnz"}``;
2. ids: JSON list of the ``n_docs`` function ids, sorted and unique;
3. tokens: JSON list of the ``n_tokens`` tokens, sorted and unique;
4. offsets: ``n_tokens + 1`` int64, from 0 to ``nnz``, non-decreasing;
5. postings: ``nnz`` int32 document numbers; token ``i``'s postings are
   ``postings[offsets[i]:offsets[i + 1]]``, strictly increasing.

``load`` checks the CRCs and every invariant above, raising ``SnapshotError``,
and installs the offsets and postings as read.

Concurrency: any number of threads may search; adding documents or
persisting requires exclusive access.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from array import array
from bisect import bisect_left
from collections import defaultdict
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
from .similarity import (
    EmbeddingStore,
    EmbeddingVector,
    TokenSet,
    _as_token_frozenset,
    cosine,
    hybrid,
)

SNAPSHOT_MAGIC = b"ASMSIEVE1"
SNAPSHOT_VERSION = 3
_META_KEYS = ("n_docs", "n_tokens", "nnz")


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

    __slots__ = ("ids", "token_ids", "offsets", "flat", "cards")

    def __init__(self, ids, token_ids, offsets, flat):
        self.ids: list[str] = ids
        self.token_ids: dict[str, int] = token_ids  # in sorted token order
        self.offsets: np.ndarray = offsets
        self.flat: np.ndarray = flat
        # Tokens per document, counted in place: np.bincount would first copy
        # the int32 postings to a temporary int64 array.
        self.cards = np.zeros(len(ids), dtype=np.int64)
        np.add.at(self.cards, flat, 1)

    def doc(self, fid: str) -> int | None:
        i = bisect_left(self.ids, fid)
        return i if i < len(self.ids) and self.ids[i] == fid else None


class InvertedIndex:
    def __init__(self) -> None:
        self._view = _Finalized([], {}, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        self._reset_buffer()
        self._lock = threading.Lock()

    def _reset_buffer(self) -> None:
        """Ids added since the last merge, their tokens' provisional numbers
        and their token counts, in add order."""
        self._new: dict[str, None] = {}  # insertion-ordered, so a set in add order
        # Looking up a token the vocabulary lacks numbers it len(vocab).
        self._vocab: defaultdict[str, int] = defaultdict()
        self._vocab.default_factory = self._vocab.__len__
        self._tok: list[int] = []
        self._lens = array("i")

    def __len__(self) -> int:
        return len(self._view.ids) + len(self._new)

    def __contains__(self, fid: str) -> bool:
        return fid in self._new or self._view.doc(fid) is not None

    def add(self, fid: str, tokens: TokenSet | Iterable[str]) -> None:
        """Register a document by its token set."""
        if fid in self:
            raise DuplicateIdError(f"function id {fid!r} is already indexed")
        tokset = _as_token_frozenset(tokens)
        self._tok.extend(map(self._vocab.__getitem__, tokset))
        self._lens.append(len(tokset))
        self._new[fid] = None

    def cardinality(self, fid: str) -> int:
        fin = self._ensure_finalized()
        doc = fin.doc(fid)
        if doc is None:
            raise KeyError(fid)
        return int(fin.cards[doc])

    def _ensure_finalized(self) -> _Finalized:
        """Merge the buffered documents into the view: renumber the docs in
        id order, remap both vocabularies onto the merged sorted one, and
        sort the (token, doc) keys of old and new postings together."""
        with self._lock:
            if not self._new:
                return self._view
            old, n_old, n = self._view, len(self._view.ids), len(self)
            ids = old.ids + list(self._new)
            order = sorted(range(n), key=ids.__getitem__)
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n)

            tokens = [*old.token_ids, *(t for t in self._vocab if t not in old.token_ids)]
            tokens.sort()
            token_ids = dict(zip(tokens, range(len(tokens))))

            def remap(vocab):
                return np.fromiter(map(token_ids.__getitem__, vocab), np.int64, len(vocab))

            # One key per posting, token << 32 | doc: once sorted, each token's
            # postings are contiguous and ascending.
            new_doc = np.repeat(rank[n_old:], np.frombuffer(self._lens, dtype=np.int32))
            new_tok = remap(self._vocab)[np.fromiter(self._tok, np.int64, len(self._tok))]
            keys = np.concatenate([
                np.repeat(remap(old.token_ids), np.diff(old.offsets)) << 32 | rank[old.flat],
                new_tok << 32 | new_doc,
            ])
            keys.sort()
            self._view = _Finalized(
                list(map(ids.__getitem__, order)),
                token_ids,
                np.searchsorted(keys, np.arange(len(tokens) + 1) << 32),
                (keys & 0xFFFFFFFF).astype(np.int32),
            )
            self._reset_buffer()
            return self._view

    def search(self, query: TokenSet | Iterable[str], k: int) -> SearchResult:
        """Top-k documents by Jaccard overlap with the query token set."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        fin = self._ensure_finalized()
        if not fin.ids:
            raise ValueError("search on an empty index")
        qtokens = _as_token_frozenset(query)
        qlen = len(qtokens)
        tids = sorted(fin.token_ids[t] for t in qtokens if t in fin.token_ids)
        n = len(fin.ids)
        tid_arr = np.asarray(tids, dtype=np.int64)
        counts = _kernels.accumulate_counts(
            fin.flat, fin.offsets[tid_arr], fin.offsets[tid_arr + 1], n
        )
        # The scored documents: those sharing a token with the query, or for
        # the empty query the empty documents, which score 1.0 as in jaccard.
        hit = counts != 0 if qlen else fin.cards == 0
        touched = np.flatnonzero(hit)
        inter = counts[touched]
        scores = inter / (qlen + fin.cards[touched] - inter) if qlen else np.ones(len(touched))

        # Only documents scoring above the k-th best score are sorted. The
        # ties at that score follow in ascending doc number, which is the
        # tie-break order already; when k or fewer documents are touched,
        # the "ties" are the unscored documents at score 0.0.
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
            ties = np.flatnonzero(~hit)
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
        tokens = list(fin.token_ids)
        meta = {"n_docs": len(fin.ids), "n_tokens": len(tokens), "nnz": len(fin.flat)}
        sections = [
            *(
                json.dumps(value, separators=(",", ":")).encode("utf-8")
                for value in (meta, fin.ids, tokens)
            ),
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
        """Read a snapshot written by ``persist``; any fault raises ``SnapshotError``."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(len(SNAPSHOT_MAGIC) + 4)
            if len(head) < len(SNAPSHOT_MAGIC) + 4 or not head.startswith(SNAPSHOT_MAGIC):
                raise SnapshotError("not an index snapshot (bad magic)")
            (version,) = struct.unpack_from("<I", head, len(SNAPSHOT_MAGIC))
            if version != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"unsupported snapshot version {version} (this build reads version "
                    f"{SNAPSHOT_VERSION}); re-run `asmsieve index` to rebuild the snapshot"
                )
            meta, ids, tokens, offsets, flat = (_read_section(fh, size) for _ in range(5))
            if fh.read(1):
                raise SnapshotError("snapshot holds trailing bytes")

        meta = _json_section(meta, "meta")
        if not isinstance(meta, dict) or any(
            type(meta.get(key)) is not int or meta[key] < 0 for key in _META_KEYS
        ):
            raise SnapshotError("snapshot meta needs non-negative integers " + ", ".join(_META_KEYS))
        n, n_tokens, nnz = (meta[key] for key in _META_KEYS)
        ids = _sorted_unique(_json_section(ids, "ids"), n, "ids")
        tokens = _sorted_unique(_json_section(tokens, "tokens"), n_tokens, "tokens")
        if len(offsets) != 8 * (n_tokens + 1) or len(flat) != 4 * nnz:
            raise SnapshotError("snapshot sections disagree on sizes")
        offsets = np.frombuffer(offsets, dtype="<i8")
        flat = np.frombuffer(flat, dtype="<i4")
        _check_postings(offsets, flat, n)

        ix = cls()
        ix._view = _Finalized(ids, dict(zip(tokens, range(n_tokens))), offsets, flat)
        return ix


def _read_section(fh, size: int) -> bytes:
    header = fh.read(12)
    if len(header) < 12:
        raise SnapshotError("snapshot truncated in section header")
    length, crc = struct.unpack("<QI", header)
    if length > size - fh.tell():
        raise SnapshotError("snapshot truncated in section payload")
    payload = fh.read(length)
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot section failed checksum")
    return payload


def _json_section(payload: bytes, name: str):
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"snapshot {name} section is not valid JSON: {exc}") from exc


def _sorted_unique(values, count: int, name: str) -> list[str]:
    if not (isinstance(values, list) and len(values) == count and set(map(type, values)) <= {str}):
        raise SnapshotError(f"snapshot {name} section is not a list of {count} strings")
    if not all(map(str.__lt__, values, values[1:])):
        raise SnapshotError(f"snapshot {name} are not sorted and unique")
    return values


def _check_postings(offsets: np.ndarray, flat: np.ndarray, n_docs: int) -> None:
    if offsets[0] != 0 or offsets[-1] != len(flat) or np.any(offsets[1:] < offsets[:-1]):
        raise SnapshotError("snapshot offsets do not rise from 0 to the posting count")
    if len(flat) and (flat.min() < 0 or flat.max() >= n_docs):
        raise SnapshotError(f"snapshot posting outside documents 0..{n_docs - 1}")
    rising = flat[1:] > flat[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(flat))] - 1] = True
    if not rising.all():
        raise SnapshotError("snapshot postings do not strictly increase within a token")
