"""Exact inverted-index retrieval over token sets.

Search returns precisely the exhaustive-scan Jaccard ranking: overlap counts
are accumulated from posting lists, |A ∪ B| follows from |A| + |B| − |A ∩ B|,
and only documents sharing at least one token are scored, except that the
empty query scores the empty documents 1.0, as ``similarity.jaccard`` does two
empty sets. The others score 0.0 and are appended in id order when needed to
fill ``k``. Ties break by ascending function id, so results are identical no
matter the insertion order.

Ranking cost per query: one pass accumulates the overlaps, then one of three
rankers picks the top k, all by the same score expression and tie rule.

- ``_rank_touched`` scores every touched document once, selects the k-th
  best score in linear time, and sorts only the documents above it (fewer
  than ``k``); the ties at the k-th score are taken in id order without
  sorting. It serves the empty query and every query the other two decline.
- ``_rank_by_cut``, off the mask path (below), scores only the documents
  that can still reach the k-th score. There a query touches a minority of
  the documents, but most of those share one token with it. Among the
  documents of overlap two or more, the largest overlap ``t`` that ``k`` of
  them reach bounds the k-th score from below by ``t / (|q| + dmax - t)``,
  and an overlap ``c`` bounds a score from above by
  ``c / (|q| + max(c, dmin) - c)``, where ``dmin`` and ``dmax`` are the
  smallest and largest cardinalities; only the overlaps whose upper bound
  reaches the lower one are scored (prefix and size filtering, Xiao et al.,
  WWW 2008 and ICDE 2009). It declines, for ``_rank_touched``, when fewer
  than ``k`` documents have overlap two or more, or when overlap one could
  still reach the bound. On the benchmark's seed-11 query-uniform inputs
  (100,000 documents; per query about 20,000 touched, 2,100 of them with
  overlap two or more; 2-vCPU host) the ranking step fell from 0.44 to
  0.25 ms at k = 10 and from 0.49 to 0.29 ms at k = 100 (medians of 9
  alternating passes over the 100 queries).
- ``_rank_by_histogram``, on the mask path, where nearly every document is
  touched and nearly all have overlap two or more. A score depends only on
  the overlap ``c <= |q|`` and the cardinality ``|d| < W``, where ``W`` is
  one more than the largest cardinality. So when ``(|q| + 1) * W <= n``,
  which keeps the bins no more than the documents, no float is made per
  document: one bincount of the keys ``c * W + |d|``, one score per
  non-empty bin by the same expression, the k-th score where the bins'
  counts summed in descending score order first reach ``k``, and one pass
  through a table of the bins at or above it to pick the documents. On the
  100,000-document query-schema index (2-vCPU host, top 10) it cut the
  ranking step from 1.0-1.3 ms to 0.46-0.59 ms. The overlap cut took
  1.9-2.4 ms there, against 0.5-0.8 ms for the histogram (k = 10 and 100).

IEEE division is correctly rounded, so it is monotone, and equal ratios from
different bins (1/2 and 2/4) are equal floats: the bounds order as the exact
ones do, and ids, scores and tie order are those of per-document scores.

Overlaps are accumulated one of two ways, chosen per query by cost. Each
search view keeps a dense-token mask: the 64 tokens with the longest posting
lists (ties by token number) each get one bit of a uint64 per document, 8
bytes per document in all. When the query's dense tokens hold more postings
than there are documents, one pass over the mask is cheaper than their lists:
the other lists are scanned and the dense overlaps added as the popcount of
each document's word masked by the query's bits. Otherwise every matched list
is scanned. Both give the same counts. The mask is built on the first search
of a view, not in ``load``, so a load that is not searched never pays for it,
and not at all when the 64 longest lists together hold no more postings than
there are documents, since then no query could take the mask path.

The documents live only in the CSR arrays of ``_Finalized``; ``add`` buffers
new ones until the next search, ``persist`` or ``cardinality`` merges them in.
The merge sorts the batch only: old doc and token numbers keep their order
under it, so the old postings are copied once, in order, around the new ones,
which a binary search places within their tokens' lists. On a 2-vCPU host,
1,000 documents added to a loaded 100,000-document index and the first search
after them took 20–31 ms, against 0.13 s when every posting was re-sorted, and
two to three times that when the new ids interleave with the old ones, which
renumbers the old postings.
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
from .schema import json_value
from .similarity import EmbeddingStore, EmbeddingVector, hybrids
# cosine and hybrid are no longer called here; kept because the benchmark
# tracer wraps index.cosine and index.hybrid by name
from .similarity import cosine, hybrid  # noqa: F401

SNAPSHOT_MAGIC = b"ASMSIEVE1"
SNAPSHOT_VERSION = 3
_META_KEYS = ("n_docs", "n_tokens", "nnz")
_MASK_BITS = 64  # dense tokens: one uint64 word per document
_CUT_FLOOR = 2  # the overlap cut never scores the overlap-1 bulk of the touched documents


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
    """Immutable search view: ids sorted, vocabulary sorted, postings in CSR,
    tokens per document, and the dense-token mask once a search asks for it."""

    __slots__ = ("ids", "token_ids", "offsets", "flat", "cards", "width", "dmin", "_dense")

    def __init__(self, ids, token_ids, offsets, flat, cards):
        self.ids: list[str] = ids
        self.token_ids: dict[str, int] = token_ids  # in sorted token order
        self.offsets: np.ndarray = offsets
        self.flat: np.ndarray = flat
        self.cards: np.ndarray = cards
        # Every cardinality is below it, so overlap * width + cardinality
        # keys the (overlap, cardinality) pairs one to one.
        self.width: int = int(cards.max()) + 1 if len(cards) else 1
        self.dmin: int = int(cards.min()) if len(cards) else 0  # width - 1 is the largest
        self._dense: tuple[dict[int, int], np.ndarray] | None = None

    def doc(self, fid: str) -> int | None:
        i = bisect_left(self.ids, fid)
        return i if i < len(self.ids) and self.ids[i] == fid else None

    def dense(self) -> tuple[dict[int, int], np.ndarray]:
        """The dense tokens, as {token number: bit}, and the mask: one uint64
        per document whose bit j is set when the document holds the token of
        bit j (no tokens and an empty mask when it could never pay). Built on
        first use and kept. Threads racing here may each build it; the builds
        are equal and the one assignment publishes a whole tuple, so a
        duplicate build costs time only."""
        if self._dense is None:
            self._dense = _dense_mask(self.offsets, self.flat, len(self.ids))
        return self._dense


def _dense_mask(offsets: np.ndarray, flat: np.ndarray, n_docs: int) -> tuple[dict[int, int], np.ndarray]:
    """Bits 0..63 go to the tokens with the longest posting lists, longest
    first, ties by token number. When those lists hold no more than
    ``n_docs`` postings together, no query's dense lists can outweigh the
    mask, so there are no dense tokens and no mask is built."""
    lengths = np.diff(offsets)
    top = np.arange(len(lengths))
    if len(lengths) > _MASK_BITS:
        cut = np.partition(lengths, len(lengths) - _MASK_BITS)[len(lengths) - _MASK_BITS]
        top = np.flatnonzero(lengths >= cut)
    top = top[np.argsort(-lengths[top], kind="stable")][:_MASK_BITS]
    if int(lengths[top].sum()) <= n_docs:
        return {}, np.zeros(0, dtype=np.uint64)
    top = top.tolist()
    mask = np.zeros(n_docs, dtype=np.uint64)
    for bit, tid in enumerate(top):
        # A token's postings are unique, so the buffered fancy-index |= sets
        # every bit; with intp indices it was the fastest scatter measured,
        # ahead of np.bitwise_or.at and packed bool rows.
        mask[flat[offsets[tid]:offsets[tid + 1]].astype(np.intp)] |= np.uint64(1 << bit)
    return dict(zip(top, range(len(top)))), mask


def _rank_touched(counts: np.ndarray, cards: np.ndarray, qlen: int, k: int):
    """The top ``k`` as (docs above the k-th score, sorted; their scores; the
    k-th score; the docs at it in doc order), from one float score per
    touched document. When k or fewer documents are touched, the "ties" are
    the unscored documents at score 0.0.

    Search asks the cheaper rankers first: ``_rank_by_cut`` off the mask
    path, ``_rank_by_histogram`` on it when ``(|q| + 1) * W <= n``. This one
    ranks the empty query, the mask-path queries past that size rule, and
    every query either of the others declines."""
    # The scored documents: those sharing a token with the query, or for
    # the empty query the empty documents, which score 1.0 as in jaccard.
    hit = counts != 0 if qlen else cards == 0
    touched = np.flatnonzero(hit)
    docs, scores, kth, ties = _rank_scored(touched, counts, cards, qlen, k)
    if len(touched) <= k:
        ties = np.flatnonzero(~hit)
    return docs, scores, kth, ties


def _rank_scored(docs: np.ndarray, counts: np.ndarray, cards: np.ndarray, qlen: int, k: int):
    """``_rank_touched``'s answer among ``docs`` (ascending), one float score
    each. Only documents scoring above the k-th best score are sorted; the
    ties at that score follow in ascending doc number, which is the
    tie-break order already. With k or fewer docs, all of them rank above a
    k-th score of 0.0 and there are no ties."""
    inter = counts[docs]
    scores = inter / (qlen + cards[docs] - inter) if qlen else np.ones(len(docs))
    kth = 0.0
    if len(docs) > k:
        # The k-th largest score, taken as the k-th smallest of the negated
        # scores: numpy's introselect ran ten times slower selecting near
        # the back of an array with few distinct values, as when most
        # touched documents share one to three tokens with the query.
        kth = float(-np.partition(-scores, k - 1)[k - 1])
    above = np.flatnonzero(scores > kth)
    above = above[np.lexsort((above, -scores[above]))]
    return docs[above], scores[above], kth, docs[scores == kth]


def _rank_by_cut(counts: np.ndarray, cards: np.ndarray, dmin: int, dmax: int, qlen: int, k: int):
    """``_rank_touched``'s answer, scoring only the documents that can still
    reach the k-th score, or None when fewer than k documents have overlap
    ``_CUT_FLOOR`` or more (as for the empty query) or when the cut would
    keep documents of lower overlap.

    Among the documents of overlap at least ``_CUT_FLOOR``, let ``t`` be the
    largest overlap that k of them reach: each of those k scores at least
    ``t / (|q| + dmax - t)``, a lower bound on the k-th score. A document of
    overlap ``c`` scores at most ``c / (|q| + max(c, dmin) - c)``, which
    rises with ``c``, so only overlaps from the first that reaches the
    bound can be in the top k or tied at the k-th score. Correctly rounded
    division is monotone, so the float bounds order as the exact ones do."""
    docs = np.flatnonzero(counts >= _CUT_FLOOR)
    if len(docs) < k:
        return None
    overlap = counts[docs]
    # reach[c]: how many of them have overlap c or more
    reach = np.cumsum(np.bincount(overlap, minlength=qlen + 1)[::-1])[::-1]
    t = int(np.flatnonzero(reach >= k)[-1])
    c = np.arange(qlen + 1)
    cut = int(np.argmax(c / (qlen + np.maximum(c, dmin) - c) >= t / (qlen + dmax - t)))
    if cut < _CUT_FLOOR:
        return None
    return _rank_scored(docs[overlap >= cut], counts, cards, qlen, k)


def _rank_by_histogram(counts: np.ndarray, cards: np.ndarray, width: int, qlen: int, k: int):
    """``_rank_touched``'s answer for a non-empty query, read from a
    histogram of the (overlap c, cardinality d) pairs keyed c * width + d,
    or None when k or fewer documents are touched. A score depends on the
    pair alone, so each non-empty bin is scored once, by the same
    expression, and the k-th score falls where the bins' counts, summed in
    descending score order, first reach k. Equal scores from different bins
    (1/2 and 2/4) are equal floats, as IEEE division is correctly rounded."""
    key = counts * width
    key += cards
    hist = np.bincount(key, minlength=(qlen + 1) * width)
    if len(key) - int(hist[:width].sum()) <= k:
        return None
    bins = np.flatnonzero(hist[width:]) + width
    c, d = np.divmod(bins, width)
    scores = c / (qlen + d - c)
    order = np.argsort(-scores)
    kth = scores[order[np.searchsorted(np.cumsum(hist[bins[order]]), k)]]
    # One pass picks the documents of the bins at or above the k-th score:
    # those above it are fewer than k, those at it, the ties, stay in doc order.
    score_of = np.zeros(len(hist))
    score_of[bins] = scores
    docs = np.flatnonzero((score_of >= kth)[key])
    doc_scores = score_of[key[docs]]
    is_above = doc_scores > kth
    above, above_scores = docs[is_above], doc_scores[is_above]
    order = np.argsort(-above_scores, kind="stable")
    return above[order], above_scores[order], float(kth), docs[~is_above]


def _merge(old: _Finalized, new_ids: list[str], vocab: dict[str, int], tok, lens) -> _Finalized:
    """The view holding ``old``'s documents and the buffered ones: ``new_ids``
    in add order, their tokens as ``tok``, numbers into ``vocab`` (a token's
    number is its first-seen order), ``lens`` of them per document.

    Only the batch is sorted. The old side keeps its order: old doc and
    token numbers map monotonically onto the merged ones, so the old
    postings go, in order, into the slots the new ones leave free."""
    m, n_old = len(new_ids), len(old.ids)
    order = sorted(range(m), key=new_ids.__getitem__)
    batch_ids = list(map(new_ids.__getitem__, order))
    rank = np.empty(m, dtype=np.int64)  # add order -> place among the new ids
    rank[order] = np.arange(m)
    lens = np.frombuffer(lens, dtype=np.int32)
    batch_cards = np.empty(m, dtype=np.int64)  # token counts of the sorted new ids
    batch_cards[rank] = lens

    added = sorted(t for t in vocab if t not in old.token_ids)
    token_ids, old_tok = old.token_ids, np.arange(len(old.token_ids))  # old -> merged numbers
    if added and token_ids:
        old_tokens = list(token_ids)
        before = _positions(old_tokens, added)
        merged_tokens = _interleave(old_tokens, added, before)
        token_ids = dict(zip(merged_tokens, range(len(merged_tokens))))
        old_tok = _shifted(len(old_tokens), before)
    elif added:
        token_ids = dict(zip(added, range(len(added))))
    # One key per batch posting, token << 32 | place among the new ids: once
    # sorted, each token's new postings are contiguous and in doc order.
    keys = np.fromiter(map(token_ids.__getitem__, vocab), np.int64, len(vocab))[
        np.fromiter(tok, np.int64, len(tok))
    ] << 32 | np.repeat(rank, lens)
    keys.sort()
    if not n_old:
        # A fresh build: the sorted keys are the index.
        return _Finalized(
            batch_ids,
            token_ids,
            np.searchsorted(keys, np.arange(len(token_ids) + 1) << 32),
            (keys & 0xFFFFFFFF).astype(np.int32),
            batch_cards,
        )

    # The k-th new id has at[k] old ids before it and becomes doc at[k] + k.
    at = _positions(old.ids, batch_ids)
    new_doc = at + np.arange(m)
    new_tok, new_k = keys >> 32, keys & 0xFFFFFFFF
    old_len = np.zeros(len(token_ids), dtype=np.int64)
    old_len[old_tok] = np.diff(old.offsets)
    offsets = np.zeros(len(token_ids) + 1, dtype=np.int64)
    np.cumsum(old_len + np.bincount(new_tok, minlength=len(token_ids)), out=offsets[1:])
    # Where each new posting goes among the old ones: at the end of its
    # token's old postings, unless some new id sorts before an old one.
    ends = np.cumsum(old_len)[new_tok]
    flat, cards = old.flat, np.empty(n_old + m, dtype=np.int64)
    if at[0] < n_old:
        size = old_len[new_tok]
        ends = _search_segments(old.flat, ends - size, size, at[new_k])
        old_doc = _shifted(n_old, at)
        flat = old_doc.astype(np.int32)[old.flat]
        cards[old_doc] = old.cards
    else:
        cards[:n_old] = old.cards
    cards[new_doc] = batch_cards
    slots = ends + np.arange(len(keys))
    merged = np.empty(len(old.flat) + len(keys), dtype=np.int32)
    merged[slots] = new_doc[new_k]
    free = np.ones(len(merged), dtype=bool)
    free[slots] = False
    merged[free] = flat
    return _Finalized(_interleave(old.ids, batch_ids, at), token_ids, offsets, merged, cards)


def _positions(old: list[str], new: list[str]) -> np.ndarray:
    """For each of the sorted ``new`` keys, how many sorted ``old`` keys
    sort before it."""
    at, lo = np.empty(len(new), dtype=np.int64), 0
    for k, key in enumerate(new):
        at[k] = lo = bisect_left(old, key, lo)
    return at


def _shifted(n_old: int, at: np.ndarray) -> np.ndarray:
    """Merged numbers of old items 0..n_old-1 when the k-th new item has
    ``at[k]`` old items before it: each moves up by the new ones before it."""
    old = np.arange(n_old)
    return old + np.searchsorted(at, old, "right")


def _interleave(old: list, new: list, at: np.ndarray) -> list:
    """The sorted merge of two sorted runs, ``new[k]`` after ``at[k]`` old items."""
    out, start = [], 0
    for key, stop in zip(new, at.tolist()):
        out += old[start:stop]
        out.append(key)
        start = stop
    out += old[start:]
    return out


def _search_segments(flat: np.ndarray, lo: np.ndarray, size: np.ndarray,
                     target: np.ndarray) -> np.ndarray:
    """For each i, the first index in the ascending run ``flat[lo[i]:lo[i] +
    size[i]]`` whose value is not below ``target[i]``, or the run's end: one
    binary search over all of them at once, in log2 of the longest run rounds."""
    while size.any():
        half = size >> 1
        mid = lo + half
        right = (flat.take(mid, mode="clip") < target) & (size > 0)
        lo = np.where(right, mid + 1, lo)
        size = np.where(right, size - half - 1, half)
    return lo


class InvertedIndex:
    def __init__(self) -> None:
        self._view = _Finalized(
            [], {}, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64)
        )
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

    def add(self, fid: str, tokens: Iterable[str]) -> None:
        """Register a document by its token set."""
        if fid in self:
            raise DuplicateIdError(f"function id {fid!r} is already indexed")
        tokset = frozenset(tokens)
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
        """Merge the buffered documents into the view and return it.

        The cost follows the batch, not the index, except for one copy of
        the old postings: the batch's m ids and B postings are sorted
        (O(B log B)), each new id is bisected into the old ids and each new
        posting into its token's old postings (O((m + B) log n)), and the
        old postings fill the merged array around the new ones in one pass.
        They are renumbered, by one gather, only when some new id sorts
        before an old one. A fresh build is the batch alone: one sort of its
        (token, doc) keys. See ``_merge``."""
        with self._lock:
            if not self._new:
                return self._view
            self._view = _merge(self._view, list(self._new), self._vocab, self._tok, self._lens)
            self._reset_buffer()
            return self._view

    def search(self, query: Iterable[str], k: int) -> SearchResult:
        """Top-k documents by Jaccard overlap with the query token set."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        fin = self._ensure_finalized()
        if not fin.ids:
            raise ValueError("search on an empty index")
        qtokens = frozenset(query)
        qlen = len(qtokens)
        tids = sorted(fin.token_ids[t] for t in qtokens if t in fin.token_ids)
        n = len(fin.ids)
        tid_arr = np.asarray(tids, dtype=np.int64)
        starts, ends = fin.offsets[tid_arr], fin.offsets[tid_arr + 1]
        # The mask costs one word per document: use it for the dense tokens
        # when their lists hold more postings than that.
        bits, mask = fin.dense()
        is_dense = np.fromiter(map(bits.__contains__, tids), bool, len(tids))
        is_mask = bool(bits) and int((ends - starts)[is_dense].sum()) > n
        if is_mask:
            counts = _kernels.accumulate_counts(fin.flat, starts[~is_dense], ends[~is_dense], n)
            qbits = np.uint64(sum(1 << bits[t] for t in tids if t in bits))
            counts += np.bitwise_count(mask & qbits)
        else:
            counts = _kernels.accumulate_counts(fin.flat, starts, ends, n)
        k_eff = min(k, n)
        ranked = None
        if not is_mask:
            ranked = _rank_by_cut(counts, fin.cards, fin.dmin, fin.width - 1, qlen, k_eff)
        elif (qlen + 1) * fin.width <= n:
            ranked = _rank_by_histogram(counts, fin.cards, fin.width, qlen, k_eff)
        docs, scores, kth, ties = ranked or _rank_touched(counts, fin.cards, qlen, k_eff)
        entries = [(fin.ids[doc], score) for doc, score in zip(docs.tolist(), scores.tolist())]
        entries.extend((fin.ids[doc], kth) for doc in ties[: k_eff - len(docs)].tolist())
        return SearchResult(entries=tuple(entries))

    def prefilter_rerank(
        self,
        query: Iterable[str],
        query_embedding: EmbeddingVector | Iterable[float],
        k1: int,
        k2: int,
        embeddings: EmbeddingStore,
    ) -> SearchResult:
        """Token search to ``k1`` candidates, then hybrid re-ranking to ``k2``.

        Every stage-1 survivor must have an embedding; otherwise the missing
        ids are reported. The candidates are scored as one batch by
        ``similarity.hybrids``: their rows are stacked and one ``np.vecdot``
        with the query runs over them, divided by the cached norms, so each
        score is bit for bit the ``hybrid(s_a, cosine(query, v)).S`` of the
        scalar composition, and a fault raises that composition's first
        error in stage-1 order. The cost is the search, ``k1`` store lookups,
        one ``k1 x d`` copy and product, and a sort of ``k1`` pairs. On the
        benchmark's 100,000-document workloads (``k1 = 100``, ``d = 64``, a
        2-vCPU host, numpy 2.4) the batch score takes 0.17-0.19 ms per query,
        where 100 ``cosine`` and ``hybrid`` calls, each re-deriving both
        norms, took about 0.95 ms.
        """
        if k2 <= 0:
            raise ValueError(f"k2 must be positive, got {k2}")
        if k2 > k1:
            raise ConfigurationError(f"k2 ({k2}) must not exceed k1 ({k1})")
        entries = self.search(query, k1).entries
        missing = [fid for fid, _ in entries if fid not in embeddings]
        if missing:
            raise MissingEmbeddingError(
                "no embedding for candidate id(s): " + ", ".join(sorted(missing))
            )
        ids = [fid for fid, _ in entries]
        scores = hybrids([s for _, s in entries], query_embedding, [embeddings[fid] for fid in ids])
        rescored = sorted(zip(ids, scores.tolist()), key=lambda e: (-e[1], e[0]))
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

        meta = json_value(meta, lambda message: SnapshotError(f"snapshot meta section holds {message}"))
        if not isinstance(meta, dict) or any(
            type(meta.get(key)) is not int or meta[key] < 0 for key in _META_KEYS
        ):
            raise SnapshotError("snapshot meta needs non-negative integers " + ", ".join(_META_KEYS))
        n, n_tokens, nnz = (meta[key] for key in _META_KEYS)
        ids = _sorted_unique(ids, n, "ids")
        tokens = _sorted_unique(tokens, n_tokens, "tokens")
        if len(offsets) != 8 * (n_tokens + 1) or len(flat) != 4 * nnz:
            raise SnapshotError("snapshot sections disagree on sizes")
        offsets = np.frombuffer(offsets, dtype="<i8")
        flat = np.frombuffer(flat, dtype="<i4")
        _check_postings(offsets, flat, n)

        # Tokens per document, counted in place: np.bincount would first copy
        # the int32 postings to a temporary int64 array.
        cards = np.zeros(n, dtype=np.int64)
        np.add.at(cards, flat, 1)
        ix = cls()
        ix._view = _Finalized(ids, dict(zip(tokens, range(n_tokens))), offsets, flat, cards)
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


def _sorted_unique(payload: bytes, count: int, name: str) -> list[str]:
    values = json_value(payload, lambda message: SnapshotError(f"snapshot {name} section holds {message}"))
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
