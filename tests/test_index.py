import json
import random
import re
import struct
import sys
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmsieve import _kernels
from asmsieve import index as index_module
from asmsieve.errors import (
    ConfigurationError,
    DuplicateIdError,
    MissingEmbeddingError,
    SnapshotError,
)
from asmsieve.index import InvertedIndex, SearchResult
from asmsieve.similarity import EmbeddingStore, EmbeddingVector, cosine, jaccard
from helpers import (
    SELF_OVER_ONE,
    exhaustive_search,
    random_token_set,
    seal_snapshot,
    snapshot_documents,
    snapshot_sections,
)


def build_index(docs):
    ix = InvertedIndex()
    for fid, tokens in docs.items():
        ix.add(fid, tokens)
    return ix


class TestAdd:
    def test_single_document_postings(self):
        ix = build_index({"a": {"t1", "t2"}})
        assert ix.cardinality("a") == 2
        assert "a" in ix

    def test_shared_token(self):
        ix = build_index({"b": {"t"}, "a": {"t"}})
        result = ix.search({"t"}, 2)
        assert result.ids() == ["a", "b"]  # both hold the token, id order

    def test_duplicate_id_rejected(self):
        ix = build_index({"a": {"t"}})
        with pytest.raises(DuplicateIdError):
            ix.add("a", {"u"})


class TestSearch:
    def test_identity_query(self):
        docs = {"a": {"t1", "t2", "t3"}, "b": {"t3", "t4"}}
        ix = build_index(docs)
        result = ix.search(docs["a"], 1)
        assert result.entries == (("a", 1.0),)

    def test_three_document_known_overlaps(self):
        docs = {
            "a": frozenset({"x", "y", "z"}),
            "b": frozenset({"y", "z", "w"}),
            "c": frozenset({"w", "v"}),
        }
        ix = build_index(docs)
        query = frozenset({"y", "z"})
        expected = exhaustive_search(docs, query, 3)
        got = [(fid, score) for fid, score in ix.search(query, 3).entries]
        assert got == expected

    def test_zero_overlap_fill_in_id_order(self):
        docs = {f"d{i}": {f"t{i}"} for i in range(6)}
        ix = build_index(docs)
        result = ix.search({"nope"}, 5)
        assert result.entries == tuple((f"d{i}", 0.0) for i in range(5))

    def test_empty_query_scores_empty_documents_one(self):
        docs = {"a": frozenset(), "b": frozenset({"t"}), "c": frozenset()}
        ix = build_index(docs)
        assert ix.search([], 3).entries == (("a", 1.0), ("c", 1.0), ("b", 0.0))
        assert ix.search([], 1).entries == (("a", jaccard([], docs["a"])),)
        assert ix.search({"t"}, 3).entries == (("b", 1.0), ("a", 0.0), ("c", 0.0))

    def test_k_validation(self):
        ix = build_index({"a": {"t"}})
        with pytest.raises(ValueError):
            ix.search({"t"}, 0)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            InvertedIndex().search({"t"}, 1)

    def test_k_larger_than_corpus(self):
        ix = build_index({"a": {"t"}, "b": {"u"}})
        assert len(ix.search({"t"}, 10)) == 2


class TestExactness:
    def test_matches_exhaustive_scan(self):
        rng = random.Random(2024)
        vocab = [f"tok{i}" for i in range(60)]
        for _ in range(30):
            n_docs = rng.randint(1, 40)
            docs = {
                f"doc{i:03d}": random_token_set(rng, vocab, 25) for i in range(n_docs)
            }
            ix = build_index(docs)
            for _ in range(5):
                query = random_token_set(rng, vocab, 25)
                for k in (1, 5, 10):
                    expected = exhaustive_search(docs, query, k)
                    got = list(ix.search(query, k).entries)
                    assert got == expected

    def test_insertion_order_irrelevant(self):
        rng = random.Random(7)
        vocab = [f"tok{i}" for i in range(40)]
        docs = {f"doc{i}": random_token_set(rng, vocab, 20) for i in range(25)}
        orders = [list(docs), sorted(docs), sorted(docs, reverse=True)]
        rng.shuffle(orders[0])
        query = random_token_set(rng, vocab, 20)
        results = []
        for order in orders:
            ix = InvertedIndex()
            for fid in order:
                ix.add(fid, docs[fid])
            results.append(ix.search(query, 10).entries)
        assert results[0] == results[1] == results[2]

    def test_prefix_stable_as_k_grows(self):
        rng = random.Random(13)
        vocab = [f"tok{i}" for i in range(30)]
        docs = {f"doc{i}": random_token_set(rng, vocab, 15) for i in range(20)}
        ix = build_index(docs)
        query = random_token_set(rng, vocab, 15)
        previous = []
        for k in range(1, 21):
            entries = list(ix.search(query, k).entries)
            assert entries[: len(previous)] == previous
            previous = entries


@st.composite
def tie_heavy_corpus(draw):
    """Up to 40 documents over 2-5 tokens (so dozens share each score), in a
    random insertion order, a query over the same tokens, and a split point
    for the part of the corpus added after a persist/load round trip."""
    vocab = [f"t{i}" for i in range(draw(st.integers(2, 5)))]
    subsets = st.frozensets(st.sampled_from(vocab))
    n = draw(st.integers(1, 40))
    docs = {f"d{i:02d}": draw(subsets) for i in range(n)}
    order = draw(st.permutations(list(docs)))
    return docs, order, draw(subsets), draw(st.integers(1, n))


class TestTieHeavyExactness:
    @staticmethod
    def _assert_exhaustive(ix, docs, query):
        # Every k from 1 to n + 2 covers touched < k, touched == k and
        # touched > k for the same query.
        for k in range(1, len(docs) + 3):
            assert list(ix.search(query, k).entries) == exhaustive_search(docs, query, k)

    @staticmethod
    def _assert_documents(ix, docs):
        assert len(ix) == len(docs)
        assert all(fid in ix for fid in docs)
        assert "absent" not in ix
        for fid, tokens in docs.items():
            assert ix.cardinality(fid) == len(tokens)

    @staticmethod
    def _loaded_then_added(tmp, docs, first, rest):
        """``first`` persisted and loaded, then ``rest`` added (still pending)."""
        partial = build_index({fid: docs[fid] for fid in first})
        path = Path(tmp) / "partial.snap"
        partial.persist(path)
        loaded = InvertedIndex.load(path)
        for fid in rest:
            loaded.add(fid, docs[fid])
        return loaded

    @given(tie_heavy_corpus())
    @settings(max_examples=60, deadline=None)
    def test_fresh_loaded_and_updated_match_exhaustive_scan(self, corpus):
        docs, order, query, split = corpus
        first, rest = order[:split], order[split:]
        ix = build_index({fid: docs[fid] for fid in order})
        self._assert_documents(ix, docs)
        self._assert_exhaustive(ix, docs, query)

        with tempfile.TemporaryDirectory() as tmp:
            loaded = self._loaded_then_added(tmp, docs, first, [])
            first_docs = {fid: docs[fid] for fid in first}
            self._assert_documents(loaded, first_docs)
            self._assert_exhaustive(loaded, first_docs, query)
            for fid in rest:
                loaded.add(fid, docs[fid])
            self._assert_documents(loaded, docs)
            self._assert_exhaustive(loaded, docs, query)

            # The same documents give the same bytes, however they arrived.
            fresh_path, loaded_path = Path(tmp) / "fresh.snap", Path(tmp) / "loaded.snap"
            ix.persist(fresh_path)
            loaded.persist(loaded_path)
            assert fresh_path.read_bytes() == loaded_path.read_bytes()

    @given(tie_heavy_corpus())
    @settings(max_examples=20, deadline=None)
    def test_threads_search_while_adds_are_pending(self, corpus):
        # The first search merges the pending documents; four threads race to it.
        docs, order, query, split = corpus
        with tempfile.TemporaryDirectory() as tmp:
            ix = self._loaded_then_added(tmp, docs, order[: split - 1], order[split - 1 :])
        ks = range(1, len(docs) + 3)
        barrier = threading.Barrier(4, timeout=30)

        def search_all(_):
            barrier.wait()
            return [list(ix.search(query, k).entries) for k in ks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(search_all, range(4)))
        finally:
            sys.setswitchinterval(interval)
        expected = [exhaustive_search(docs, query, k) for k in ks]
        assert all(result == expected for result in results)


@st.composite
def batched_corpus(draw):
    """Up to 30 documents, ids and tokens both drawn from small ranges so
    that a batch's ids and tokens sort before, between and after those of
    the batches before it, split into one to four batches in a random
    order, each with whether the index is persisted and loaded before it;
    and a query over the same tokens."""
    n_vocab = draw(st.integers(1, 12))
    tokens = st.frozensets(st.sampled_from([f"t{i:02d}" for i in range(n_vocab)]), max_size=5)
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=30, unique=True))
    docs = {f"d{i:02d}": draw(tokens) for i in ids}
    cuts = sorted(draw(st.lists(st.integers(1, len(ids)), max_size=3)))
    order = draw(st.permutations(list(docs)))
    batches = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)]) if a < b]
    reloads = [draw(st.booleans()) for _ in batches]
    return docs, list(zip(batches, reloads)), draw(tokens)


class TestMergeExactness:
    """After each batch is merged in, the index is the one a fresh build of
    the same documents gives: the same snapshot bytes, token counts and
    exhaustive ranking."""

    @staticmethod
    def _assert_as_fresh(ix, docs, queries, tmp):
        fresh_path, merged_path = Path(tmp) / "fresh.snap", Path(tmp) / "merged.snap"
        build_index(docs).persist(fresh_path)
        ix.persist(merged_path)
        assert merged_path.read_bytes() == fresh_path.read_bytes()
        for fid, tokens in docs.items():
            assert ix.cardinality(fid) == len(tokens)
        for query in queries:
            for k in range(1, len(docs) + 3):
                assert list(ix.search(query, k).entries) == exhaustive_search(docs, query, k)

    @classmethod
    def _add_batches(cls, batches, queries, tmp):
        """Add each batch, reloading the index first where asked, and check
        the index after every batch."""
        ix, docs = InvertedIndex(), {}
        for batch, reload in batches:
            if reload:
                ix.persist(Path(tmp) / "reload.snap")
                ix = InvertedIndex.load(Path(tmp) / "reload.snap")
            for fid, tokens in batch.items():
                ix.add(fid, tokens)
            docs.update(batch)
            cls._assert_as_fresh(ix, docs, queries, tmp)

    @given(batched_corpus())
    @settings(max_examples=80, deadline=None)
    def test_successive_batches_match_a_fresh_build(self, corpus):
        docs, batches, query = corpus
        with tempfile.TemporaryDirectory() as tmp:
            self._add_batches(
                [({fid: docs[fid] for fid in batch}, reload) for batch, reload in batches],
                [query, frozenset()], tmp,
            )

    @pytest.mark.parametrize("reload", [False, True], ids=["in-memory", "loaded"])
    @pytest.mark.parametrize("old, batch", [
        pytest.param({"m1": {"t1"}, "m2": {"t1", "t2"}}, {"a1": {"t2"}, "a2": {"t1"}},
                     id="ids-all-before"),
        pytest.param({"m1": {"t1"}, "m2": {"t1", "t2"}}, {"z1": {"t2"}, "z2": {"t1", "t2"}},
                     id="ids-all-after"),
        pytest.param({"b": {"t1"}, "d": {"t1", "t2"}, "f": {"t2"}},
                     {"a": {"t1", "t2"}, "c": {"t2"}, "e": {"t1"}, "g": {"t1", "t2"}},
                     id="ids-interleaved"),
        pytest.param({"b": {"t3", "t5"}, "d": {"t5"}}, {"a": {"t1", "t3"}, "c": {"t4", "t9"}},
                     id="tokens-before-between-after"),
        pytest.param({"b": {"t1"}, "d": {"t1", "t2"}}, {"a": set(), "c": set(), "e": set()},
                     id="batch-of-empty-documents"),
        pytest.param({"b": set(), "d": set()}, {"a": {"t1"}, "c": {"t1", "t2"}, "e": set()},
                     id="old-documents-all-empty"),
    ])
    def test_batch_placement(self, old, batch, reload, tmp_path):
        queries = [frozenset(), *map(frozenset, [*old.values(), *batch.values()])]
        self._add_batches([(old, False), (batch, reload)], queries, tmp_path)


def skewed_documents(rng, n, n_vocab):
    """``n`` documents whose token frequencies fall off steeply with the
    token's rank, so a few tokens are in most documents and the 64 densest
    tokens end among ties of rare ones."""
    vocab = [f"v{i:03d}" for i in range(n_vocab)]
    return {
        f"d{i:03d}": frozenset(t for r, t in enumerate(vocab) if rng.random() < 0.9 / (1 + r / 4))
        for i in range(n)
    }, vocab


@st.composite
def skewed_corpus(draw):
    """Up to 40 skewed documents over 70-100 tokens in a random insertion
    order, a split point as in ``tie_heavy_corpus``, and queries on both sides
    of the rule that counts dense tokens from the mask: one holding the
    densest tokens and some rare ones, one of rare tokens only, a random one
    and the empty one."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    docs, vocab = skewed_documents(rng, n, draw(st.integers(70, 100)))
    order = draw(st.permutations(list(docs)))
    queries = [
        frozenset(vocab[:8] + rng.sample(vocab[8:], 4)),
        frozenset(rng.sample(vocab[40:], 3)),
        frozenset(t for t in vocab if rng.random() < 0.2),
        frozenset(),
    ]
    return docs, order, queries, draw(st.integers(1, n))


class TestDenseMask:
    _assert_exhaustive = staticmethod(TestTieHeavyExactness._assert_exhaustive)
    _loaded_then_added = staticmethod(TestTieHeavyExactness._loaded_then_added)

    @given(skewed_corpus())
    @settings(max_examples=40, deadline=None)
    def test_fresh_loaded_and_updated_match_exhaustive_scan(self, corpus):
        docs, order, queries, split = corpus
        first, rest = order[:split], order[split:]
        first_docs = {fid: docs[fid] for fid in first}
        # Search, add, search again: the second view needs its own mask.
        ix = build_index(first_docs)
        for query in queries:
            self._assert_exhaustive(ix, first_docs, query)
        for fid in rest:
            ix.add(fid, docs[fid])
        for query in queries:
            self._assert_exhaustive(ix, docs, query)

        with tempfile.TemporaryDirectory() as tmp:
            loaded = self._loaded_then_added(tmp, docs, first, [])
            for query in queries:
                self._assert_exhaustive(loaded, first_docs, query)
            pending = self._loaded_then_added(tmp, docs, first, rest)
            for query in queries:
                self._assert_exhaustive(pending, docs, query)

    @given(skewed_corpus())
    @settings(max_examples=20, deadline=None)
    def test_threads_race_to_the_first_search_of_a_loaded_index(self, corpus):
        # The first search builds the mask; four threads race to it.
        docs, order, queries, _ = corpus
        with tempfile.TemporaryDirectory() as tmp:
            ix = self._loaded_then_added(tmp, docs, order, [])
        ks = range(1, len(docs) + 3)
        barrier = threading.Barrier(4, timeout=30)

        def search_all(_):
            barrier.wait()
            return [list(ix.search(query, k).entries) for query in queries for k in ks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(search_all, range(4)))
        finally:
            sys.setswitchinterval(interval)
        expected = [exhaustive_search(docs, query, k) for query in queries for k in ks]
        assert all(result == expected for result in results)

    def test_mask_bits_are_the_dense_postings(self):
        docs, _ = skewed_documents(random.Random(5), 200, 120)
        fin = build_index(docs)._ensure_finalized()
        bits, mask = fin.dense()
        tokens = list(fin.token_ids)
        df = Counter(t for ts in docs.values() for t in ts)
        # The 64 longest posting lists, ties by token number, longest first.
        dense = sorted(range(len(tokens)), key=lambda tid: (-df[tokens[tid]], tid))[:64]
        assert list(bits) == dense and list(bits.values()) == list(range(64))
        assert mask.dtype == np.uint64 and mask.shape == (len(docs),)
        for tid, bit in bits.items():
            held = (mask >> np.uint64(bit)) & np.uint64(1)
            assert held.tolist() == [int(tokens[tid] in docs[fid]) for fid in fin.ids]

    def test_no_mask_when_the_dense_lists_cannot_outweigh_it(self):
        # 100 documents over 200 tokens, each token in one document: the 64
        # longest lists hold 64 postings, fewer than one per document.
        docs = {f"d{i:03d}": frozenset({f"t{i}", f"t{i + 100}"}) for i in range(100)}
        ix = build_index(docs)
        bits, mask = ix._ensure_finalized().dense()
        assert bits == {} and len(mask) == 0
        query = frozenset({"t1", "t2", "t150"})
        assert list(ix.search(query, 5).entries) == exhaustive_search(docs, query, 5)

    def test_path_follows_the_dense_postings_count(self, monkeypatch):
        docs, vocab = skewed_documents(random.Random(6), 200, 120)
        ix = build_index(docs)
        fin = ix._ensure_finalized()
        bits, _ = fin.dense()
        scanned = []
        accumulate = _kernels.accumulate_counts

        def spy(flat, starts, ends, n_docs):
            scanned.append(int((ends - starts).sum()))
            return accumulate(flat, starts, ends, n_docs)

        monkeypatch.setattr(_kernels, "accumulate_counts", spy)
        df = Counter(t for ts in docs.values() for t in ts)
        heavy = frozenset(vocab[:6] + vocab[-3:])
        # The rare tokens and the last dense one, whose list is short.
        tokens = list(fin.token_ids)
        light = frozenset(t for t in vocab if fin.token_ids[t] not in bits) | {tokens[list(bits)[-1]]}
        assert sum(df[t] for t in heavy if fin.token_ids[t] in bits) > len(docs)
        assert sum(df[t] for t in light if fin.token_ids[t] in bits) <= len(docs)
        for query, expected_scan in ((heavy, sum(df[t] for t in vocab[-3:])),
                                     (light, sum(df[t] for t in light))):
            scanned.clear()
            assert list(ix.search(query, 10).entries) == exhaustive_search(docs, query, 10)
            assert scanned == [expected_scan]


def light_documents(rng, n, n_vocab):
    """``n`` documents, one in ten empty, the others holding the token of rank
    r with probability 0.9 / (1 + r): the three densest tokens hold more
    postings than there are documents, but a document holds about four
    tokens, so (|q| + 1) * W stays within ``n`` for short queries."""
    vocab = [f"v{i:03d}" for i in range(n_vocab)]
    return {
        f"d{i:03d}": frozenset() if rng.random() < 0.1 else
        frozenset(t for r, t in enumerate(vocab) if rng.random() < 0.9 / (1 + r))
        for i in range(n)
    }, vocab


@st.composite
def histogram_corpus(draw):
    """60-160 light documents over 70 tokens, plus two that score 1/3 and
    2/6 against the three densest tokens, in a random insertion order, a
    split point as in ``tie_heavy_corpus``, and queries that take the mask
    path: the three densest tokens alone, with rare and absent tokens, and a
    random draw of the twelve densest."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    docs, vocab = light_documents(rng, draw(st.integers(60, 160)), 70)
    docs["third-a"] = frozenset(vocab[:1])
    docs["third-b"] = frozenset(vocab[:2] + vocab[60:63])
    order = draw(st.permutations(list(docs)))
    queries = [
        frozenset(vocab[:3]),
        frozenset(vocab[:3] + rng.sample(vocab[40:], 2) + ["absent"]),
        frozenset(vocab[:3]) | frozenset(t for t in vocab[3:12] if rng.random() < 0.4),
    ]
    return docs, order, queries, draw(st.integers(1, len(docs)))


@contextmanager
def histogram_spy():
    """Record each call of the histogram ranking as (width, |q|, whether it
    ranked)."""
    calls, rank = [], index_module._rank_by_histogram

    def spy(counts, cards, width, qlen, k):
        ranked = rank(counts, cards, width, qlen, k)
        calls.append((width, qlen, ranked is not None))
        return ranked

    index_module._rank_by_histogram = spy
    try:
        yield calls
    finally:
        index_module._rank_by_histogram = rank


class TestHistogramRanking:
    """On the mask path, when (|q| + 1) * W <= n, search ranks by a
    histogram of (overlap, cardinality) pairs; the entries stay those of
    the exhaustive scan."""

    _loaded_then_added = staticmethod(TestTieHeavyExactness._loaded_then_added)

    @staticmethod
    def _assert_every_k(ix, docs, query):
        # exhaustive_search(docs, query, k) is the first k of the full ranking.
        ranking = exhaustive_search(docs, query, len(docs))
        for k in range(1, len(docs) + 3):
            assert list(ix.search(query, k).entries) == ranking[:k]

    @given(histogram_corpus())
    @settings(max_examples=25, deadline=None)
    def test_fresh_loaded_and_updated_match_exhaustive_scan(self, corpus):
        docs, order, queries, split = corpus
        with tempfile.TemporaryDirectory() as tmp, histogram_spy() as calls:
            for ix in (build_index({fid: docs[fid] for fid in order}),
                       self._loaded_then_added(tmp, docs, order, []),
                       self._loaded_then_added(tmp, docs, order[:split], order[split:])):
                for query in queries:
                    self._assert_every_k(ix, docs, query)
        # k runs past the touched documents, where the histogram declines.
        assert {ranked for _, _, ranked in calls} == {True, False}

    def test_equal_scores_from_different_bins_tie_by_id(self):
        # Against {t0, t1}: a scores 2/4 and b 1/2, from two bins; twelve
        # documents score 1.0 ahead of them, and c scores 1/3.
        docs = {"a": frozenset({"t0", "t1", "x", "y"}), "b": frozenset({"t0"}),
                "c": frozenset({"t1", "z"}), **{f"f{i:02d}": frozenset({"t0", "t1"}) for i in range(12)}}
        query = frozenset({"t0", "t1"})
        ix = build_index(docs)
        with histogram_spy() as calls:
            for k in range(1, len(docs) + 3):
                assert list(ix.search(query, k).entries) == exhaustive_search(docs, query, k)
        # W = 5 and (2 + 1) * 5 = n; 15 documents touched.
        assert calls == [(5, 2, True)] * 14 + [(5, 2, False)] * 3
        assert ix.search(query, 14).entries[-2:] == (("a", 0.5), ("b", 0.5))

    def test_only_on_the_mask_path_within_the_size_rule(self):
        docs, vocab = light_documents(random.Random(7), 200, 70)
        n, width = len(docs), max(map(len, docs.values())) + 1
        ix = build_index(docs)
        fin = ix._ensure_finalized()
        bits, _ = fin.dense()
        assert fin.width == width
        df = Counter(t for ts in docs.values() for t in ts)
        dense = frozenset(vocab[:3])
        light = frozenset([t for t in vocab if t in fin.token_ids][-4:])
        assert all(fin.token_ids[t] in bits for t in dense) and sum(df[t] for t in dense) > n
        assert sum(df[t] for t in light if fin.token_ids[t] in bits) <= n
        assert (len(light) + 1) * width <= n
        # Absent tokens raise |q| without touching a document: the largest
        # |q| with (|q| + 1) * W <= n, and one more.
        at_limit = dense | {f"absent{i}" for i in range(n // width - 1 - len(dense))}
        past = at_limit | {"absent-last"}
        assert (len(at_limit) + 1) * width <= n < (len(past) + 1) * width
        for query, expected in ((dense, [(width, 3, True)]),
                                (at_limit, [(width, len(at_limit), True)]),
                                (past, []), (light, [])):
            with histogram_spy() as calls:
                assert list(ix.search(query, 5).entries) == exhaustive_search(docs, query, 5)
            assert calls == expected


@st.composite
def cut_corpus(draw):
    """Documents against a query of 2-5 tokens, every one of which the
    posting lists rank: ``|q|`` documents or more per document holding a
    query token, so the query's lists hold no more postings than there are
    documents. The first "near" document is the query itself, the others
    hold drawn parts of it; every document adds up to ``|q|² - |q| - 1`` of
    eight background tokens, so cardinalities mix and some documents are
    empty. The largest cardinality stays below ``|q|²``, so at k = 1 the
    query's own document lifts the cut above overlap 1, and the documents
    without a query token make it decline at k = n. Ids are shuffled across
    near and far, with a split point as in ``tie_heavy_corpus``."""
    qlen = draw(st.integers(2, 5))
    query = frozenset(f"q{i}" for i in range(qlen))
    background = st.frozensets(st.sampled_from([f"b{i}" for i in range(8)]),
                               max_size=min(8, qlen * qlen - qlen - 1))
    parts = st.frozensets(st.sampled_from(sorted(query)), min_size=1)
    n_near = draw(st.integers(1, 8))
    near = [query] + [draw(parts) | draw(background) for _ in range(n_near - 1)]
    far = [draw(background) for _ in range((qlen - 1) * n_near + draw(st.integers(0, 5)))]
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(near) + len(far))]))
    docs = dict(zip(ids, near + far))
    return docs, ids, query, draw(st.integers(1, len(docs)))


@contextmanager
def cut_spy():
    """Record each call of the overlap cut as (k, whether it ranked)."""
    calls, rank = [], index_module._rank_by_cut

    def spy(counts, cards, dmin, dmax, qlen, k):
        ranked = rank(counts, cards, dmin, dmax, qlen, k)
        calls.append((k, ranked is not None))
        return ranked

    index_module._rank_by_cut = spy
    try:
        yield calls
    finally:
        index_module._rank_by_cut = rank


class TestOverlapCut:
    """Off the mask path, search scores only the documents whose overlap
    can still reach the k-th score; the entries stay those of the
    exhaustive scan, tie order included."""

    _assert_every_k = staticmethod(TestHistogramRanking._assert_every_k)
    _loaded_then_added = staticmethod(TestTieHeavyExactness._loaded_then_added)

    @given(cut_corpus())
    @settings(max_examples=40, deadline=None)
    def test_fresh_loaded_and_updated_match_exhaustive_scan(self, corpus):
        docs, order, query, split = corpus
        with tempfile.TemporaryDirectory() as tmp:
            for ix in (build_index({fid: docs[fid] for fid in order}),
                       self._loaded_then_added(tmp, docs, order, []),
                       self._loaded_then_added(tmp, docs, order[:split], order[split:])):
                with cut_spy() as calls:
                    self._assert_every_k(ix, docs, query)
                # Every k ran through the cut, which ranked at k = 1 and
                # declined at k = n.
                assert [k for k, _ in calls] == [min(k, len(docs)) for k in range(1, len(docs) + 3)]
                assert calls[0] == (1, True) and calls[-1] == (len(docs), False)

    def test_equal_scores_from_different_overlaps_tie_by_id(self):
        # Against {t0..t3}: "all" scores 1.0, a 3/6 and b 2/4, twelve
        # documents of overlap 1 score 1/5 and eight share no token; the
        # query's lists hold 21 postings for 23 documents, so no mask. dmin =
        # 2 and dmax = 5: for k = 1 to 3 the bound 4/5, 3/6 or 2/7 cuts off
        # overlap 1, and from k = 4 too few documents have overlap 2 or more.
        docs = {"all": frozenset({"t0", "t1", "t2", "t3"}), "a": frozenset({"t0", "t1", "t2", "x", "y"}),
                "b": frozenset({"t0", "t1"}), **{f"f{i:02d}": frozenset({"t3", f"z{i}"}) for i in range(12)},
                **{f"g{i}": frozenset({f"u{i}", f"w{i}"}) for i in range(8)}}
        query = frozenset({"t0", "t1", "t2", "t3"})
        ix = build_index(docs)
        with cut_spy() as calls:
            for k in range(1, len(docs) + 3):
                assert list(ix.search(query, k).entries) == exhaustive_search(docs, query, k)
        assert calls == [(1, True), (2, True), (3, True)] + [(k, False) for k in range(4, 24)] + [(23, False)] * 2
        assert ix.search(query, 3).entries == (("all", 1.0), ("a", 0.5), ("b", 0.5))

    def test_never_on_the_mask_path(self):
        docs, vocab = light_documents(random.Random(7), 200, 70)
        n, width = len(docs), max(map(len, docs.values())) + 1
        ix = build_index(docs)
        fin = ix._ensure_finalized()
        dense = frozenset(vocab[:3])
        light = frozenset([t for t in vocab if t in fin.token_ids][-4:])
        past = dense | {f"absent{i}" for i in range(n // width)}
        assert (len(past) + 1) * width > n
        for query, histogram, cut in ((dense, [(width, 3, True)], False), (past, [], False),
                                      (light, [], True)):
            with cut_spy() as cuts, histogram_spy() as histograms:
                assert list(ix.search(query, 5).entries) == exhaustive_search(docs, query, 5)
            # The histogram's own spy still sees it on the mask path.
            assert histograms == histogram
            assert bool(cuts) == cut


class TestPrefilterRerank:
    def _setup(self, rng, n=5, dim=2):
        vocab = [f"tok{i}" for i in range(20)]
        docs = {f"doc{i}": random_token_set(rng, vocab, 10) for i in range(n)}
        ix = build_index(docs)
        store = EmbeddingStore()
        for fid in docs:
            store.add(fid, [rng.uniform(-1, 1) or 0.1 for _ in range(dim)])
        query = random_token_set(rng, vocab, 10)
        q_emb = [rng.uniform(-1, 1) or 0.2 for _ in range(dim)]
        return docs, ix, store, query, q_emb

    def test_full_corpus_prefilter_equals_hybrid_ranking(self):
        rng = random.Random(31)
        docs, ix, store, query, q_emb = self._setup(rng)
        result = ix.prefilter_rerank(query, q_emb, k1=len(docs), k2=len(docs), embeddings=store)
        expected = []
        for fid, tokens in docs.items():
            inter = len(frozenset(query) & tokens)
            s_a = inter / len(frozenset(query) | tokens) if inter else 0.0
            s_e = cosine(q_emb, store[fid])
            expected.append((fid, (s_e + s_a) / 2))
        expected.sort(key=lambda e: (-e[1], e[0]))
        assert list(result.entries) == expected

    def test_constant_embeddings_preserve_stage1_order(self):
        rng = random.Random(8)
        docs, ix, store, query, _ = self._setup(rng)
        const = EmbeddingStore()
        for fid in docs:
            const.add(fid, [1.0, 1.0])
        stage1 = ix.search(query, len(docs))
        result = ix.prefilter_rerank(query, [1.0, 1.0], len(docs), len(docs), const)
        assert result.ids() == stage1.ids()

    def test_missing_embedding_named(self):
        rng = random.Random(9)
        docs, ix, store, query, q_emb = self._setup(rng)
        sparse = EmbeddingStore()
        for fid in list(docs)[:-1]:
            sparse.add(fid, [0.5, 0.5])
        with pytest.raises(MissingEmbeddingError, match=sorted(docs)[-1]):
            ix.prefilter_rerank(query, [0.5, 0.5], len(docs), 2, sparse)

    def test_k2_must_not_exceed_k1(self):
        rng = random.Random(10)
        _, ix, store, query, q_emb = self._setup(rng)
        with pytest.raises(ConfigurationError):
            ix.prefilter_rerank(query, q_emb, k1=2, k2=3, embeddings=store)

    @pytest.mark.parametrize("k2", [0, -1])
    def test_k2_must_be_positive(self, k2):
        rng = random.Random(11)
        _, ix, store, query, q_emb = self._setup(rng)
        with pytest.raises(ValueError, match=f"k2 must be positive, got {k2}"):
            ix.prefilter_rerank(query, q_emb, k1=5, k2=k2, embeddings=store)

    def test_candidate_set_is_stage1(self):
        # A document with a great embedding but no token overlap must not
        # appear when the pre-filter cuts it.
        ix = build_index({"hit": {"a", "b"}, "near": {"a"}, "far": {"z"}})
        store = EmbeddingStore()
        store.add("hit", [1.0, 0.0])
        store.add("near", [1.0, 0.0])
        store.add("far", [1.0, 0.0])
        result = ix.prefilter_rerank({"a", "b"}, [1.0, 0.0], k1=2, k2=2, embeddings=store)
        assert "far" not in result.ids()


class TestBatchRerankExactness:
    """``prefilter_rerank`` scores its candidates as one batch; every result
    and every error must be the scalar composition's, exactly."""

    def _setup(self, n=40, dim=64):
        rng = random.Random(5)
        vocab = [f"tok{i}" for i in range(30)]
        docs = {f"doc{i:02d}": random_token_set(rng, vocab, 12) for i in range(n)}
        rows = np.random.default_rng(5).standard_normal((n + 1, dim))
        store = EmbeddingStore()
        for fid, row in zip(docs, rows):
            store.add(fid, row)
        return build_index(docs), store, random_token_set(rng, vocab, 12), EmbeddingVector(rows[-1])

    @pytest.mark.parametrize("k1", [1, 7, 40])
    def test_equals_scalar_composition(self, k1):
        ix, store, query, q_emb = self._setup()
        expected = sorted(
            ((fid, (cosine(q_emb, store[fid]) + s_a) / 2) for fid, s_a in ix.search(query, k1).entries),
            key=lambda e: (-e[1], e[0]),
        )
        for k2 in {1, k1}:
            result = ix.prefilter_rerank(query, q_emb, k1, k2, store)
            assert result.entries == tuple(expected[:k2])
            assert all(type(score) is float for _, score in result.entries)
        assert ix.prefilter_rerank(query, list(q_emb.values), k1, k1, store).entries == tuple(expected)

    def _faulty(self, first):
        """Two candidates in stage-1 order: ``first`` then the other of a
        self-lookup vector whose cosine rounds above 1 and a vector whose
        norm underflows to 0, which is rescaled and scores like any other."""
        ix = build_index({"full": {"a", "b"}, "half": {"a"}})
        tiny = [1e-170] * 64
        store = EmbeddingStore()
        store.add("full", SELF_OVER_ONE if first == "over-one" else tiny)
        store.add("half", tiny if first == "over-one" else SELF_OVER_ONE)
        return ix, store

    def test_self_lookup_over_one_still_raises(self):
        ix, store = self._faulty("over-one")
        q = store["full"]
        assert cosine(q, q) == 1.0000000000000002
        with pytest.raises(ValueError, match=re.escape("s_e must lie in [-1, 1], got 1.0000000000000002")):
            ix.prefilter_rerank({"a", "b"}, q, 1, 1, store)

    @pytest.mark.parametrize("first, message", [
        ("over-one", re.escape("s_e must lie in [-1, 1], got 1.0000000000000002")),
        ("zero-norm", re.escape("s_e must lie in [-1, 1], got 1.0000000000000002")),
    ])
    def test_first_offending_candidate_in_stage1_order(self, first, message):
        ix, store = self._faulty(first)
        with pytest.raises(ValueError, match=message):
            ix.prefilter_rerank({"a", "b"}, SELF_OVER_ONE, 2, 2, store)

    def test_error_order(self):
        ix, store, query, _ = self._setup(n=5, dim=2)
        with pytest.raises(MissingEmbeddingError):
            ix.prefilter_rerank(query, [0.0, 0.0, 0.0], 5, 5, EmbeddingStore())
        with pytest.raises(ValueError, match="^embedding dimensions differ: 3 vs 2$"):
            ix.prefilter_rerank(query, [0.0, 0.0, 0.0], 5, 5, store)
        with pytest.raises(ValueError, match="^cosine similarity is undefined for a zero vector$"):
            ix.prefilter_rerank(query, [0.0, 0.0], 5, 5, store)
        with pytest.raises(ValueError, match="^embedding must be a non-empty 1-D vector$"):
            ix.prefilter_rerank(query, [], 5, 5, store)


class TestPersistence:
    def test_round_trip_identical_search(self, tmp_path):
        rng = random.Random(21)
        vocab = [f"tok{i}" for i in range(40)]
        docs = {f"doc{i}": random_token_set(rng, vocab, 20) for i in range(30)}
        ix = build_index(docs)
        path = tmp_path / "index.snap"
        ix.persist(path)
        loaded = InvertedIndex.load(path)
        for _ in range(10):
            query = random_token_set(rng, vocab, 20)
            assert loaded.search(query, 7).entries == ix.search(query, 7).entries

    def test_truncated_file_rejected(self, tmp_path):
        ix = build_index({"a": {"t1", "t2"}})
        path = tmp_path / "index.snap"
        ix.persist(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(SnapshotError, match="truncated"):
            InvertedIndex.load(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        ix = build_index({"a": {"t1", "t2"}})
        path = tmp_path / "index.snap"
        ix.persist(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            InvertedIndex.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "index.snap"
        path.write_bytes(b"NOTASNAPSHOT")
        with pytest.raises(SnapshotError, match="magic"):
            InvertedIndex.load(path)

    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "index.snap"
        InvertedIndex().persist(path)
        assert len(InvertedIndex.load(path)) == 0

    def test_add_after_load(self, tmp_path):
        ix = build_index({"a": {"t1"}, "b": {"t1", "t2"}})
        path = tmp_path / "index.snap"
        ix.persist(path)
        loaded = InvertedIndex.load(path)
        loaded.add("c", {"t2"})
        # c matches exactly (1.0), b shares one of two tokens (0.5)
        assert loaded.search({"t2"}, 2).entries == (("c", 1.0), ("b", 0.5))


def _mutate_section(data, sections):
    """Change one section: a raw byte, a cut, or (decoded) a swapped, copied,
    dropped or retyped element, a dropped or altered meta key, a new integer."""
    s = data.draw(st.integers(0, len(sections) - 1), label="section")
    payload = sections[s]
    how = data.draw(st.sampled_from(["byte", "cut", "value"]), label="how")
    if how == "byte" and payload:
        i = data.draw(st.integers(0, len(payload) - 1))
        payload = payload[:i] + bytes([data.draw(st.integers(0, 255))]) + payload[i + 1 :]
    elif how == "cut":
        payload = payload[: data.draw(st.integers(0, len(payload)))] + data.draw(st.binary(max_size=4))
    elif how == "value" and s == 0:
        try:
            meta = json.loads(payload)
        except ValueError:
            return
        if not isinstance(meta, dict) or not meta:  # an earlier change left no keys
            return
        key = data.draw(st.sampled_from(sorted(meta)))
        near = [meta[key] - 1, meta[key] + 1] if type(meta[key]) is int else []
        if data.draw(st.booleans()):
            del meta[key]
        else:
            meta[key] = data.draw(st.sampled_from([-1, 0, *near, "1", None, True, 1.5]))
        payload = json.dumps(meta).encode()
    elif how == "value":
        fmt = {3: "q", 4: "i"}.get(s)
        try:
            values = (
                list(struct.unpack(f"<{len(payload) // struct.calcsize(fmt)}{fmt}", payload))
                if fmt else list(json.loads(payload))
            )
        except (ValueError, TypeError, struct.error):  # an earlier change left no list
            return
        if values:
            i, j = (data.draw(st.integers(0, len(values) - 1)) for _ in range(2))
            op = data.draw(st.sampled_from(["swap", "copy", "drop", "set"]))
            if op == "swap":
                values[i], values[j] = values[j], values[i]
            elif op == "copy":
                values[i] = values[j]
            elif op == "drop":
                del values[i]
            elif fmt:
                values[i] = min(data.draw(st.sampled_from([-1, 0, values[j] + 1, len(values)])), 2**31 - 1)
            else:
                values[i] = data.draw(st.sampled_from([None, 0, ["x"], "zz", ""]))
        payload = struct.pack(f"<{len(values)}{fmt}", *values) if fmt else json.dumps(values).encode()
    sections[s] = payload


def _persisted_sections(docs, tmp_path):
    path = tmp_path / "index.snap"
    build_index(docs).persist(path)
    return path, snapshot_sections(path.read_bytes())


class TestSnapshotValidation:
    DOCS = {"a": frozenset({"t1", "t2"}), "b": frozenset({"t2", "t3"}), "c": frozenset({"t1"})}

    @staticmethod
    def _swap_ids(sections):
        ids = json.loads(sections[1])
        ids[0], ids[1] = ids[1], ids[0]
        sections[1] = json.dumps(ids).encode()

    @staticmethod
    def _drop_meta_key(sections):
        meta = json.loads(sections[0])
        del meta["nnz"]
        sections[0] = json.dumps(meta).encode()

    @staticmethod
    def _decreasing_offsets(sections):
        offsets = list(struct.unpack(f"<{len(sections[3]) // 8}q", sections[3]))
        offsets[1] = offsets[2] + 1
        sections[3] = struct.pack(f"<{len(offsets)}q", *offsets)

    # The last token, "t3", has the one posting [1]; these keep it rising.
    @staticmethod
    def _posting_past_last_document(sections):
        sections[4] = sections[4][:-4] + struct.pack("<i", 3)

    @staticmethod
    def _negative_posting(sections):
        sections[4] = sections[4][:-4] + struct.pack("<i", -1)

    @staticmethod
    def _postings_not_rising(sections):
        sections[4] = sections[4][4:8] + sections[4][:4] + sections[4][8:]

    @staticmethod
    def _deeply_nested_ids(sections):
        sections[1] = b"[" * 100_000

    @pytest.mark.parametrize(
        "fault",
        [
            _swap_ids,
            _drop_meta_key,
            _decreasing_offsets,
            _posting_past_last_document,
            _negative_posting,
            _postings_not_rising,
            _deeply_nested_ids,
        ],
    )
    def test_known_faults_rejected(self, tmp_path, fault):
        path, sections = _persisted_sections(self.DOCS, tmp_path)
        fault.__func__(sections)
        path.write_bytes(seal_snapshot(sections))
        with pytest.raises(SnapshotError):
            InvertedIndex.load(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_rejected_with_hint(self, tmp_path, version):
        # Version 2 had a sixth section of canonical document text.
        path, sections = _persisted_sections(self.DOCS, tmp_path)
        path.write_bytes(seal_snapshot(sections, version=version))
        with pytest.raises(
            SnapshotError, match=rf"unsupported snapshot version {version} .*asmsieve index"
        ):
            InvertedIndex.load(path)

    @given(tie_heavy_corpus(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_snapshot_fails_or_searches_exactly(self, corpus, data):
        docs, order, query, _ = corpus
        with tempfile.TemporaryDirectory() as tmp:
            path, sections = _persisted_sections({fid: docs[fid] for fid in order}, Path(tmp))
            for _ in range(data.draw(st.integers(1, 2), label="mutations")):
                _mutate_section(data, sections)
            path.write_bytes(seal_snapshot(sections))
            try:
                loaded = InvertedIndex.load(path)
            except SnapshotError:
                return
        described = snapshot_documents(sections)
        assert len(loaded) == len(described)
        for k in range(1, len(described) + 3):
            assert list(loaded.search(query, k).entries) == exhaustive_search(described, query, k)


@st.composite
def postings_and_ranges(draw):
    n_docs = draw(st.integers(1, 30))
    flat = draw(st.lists(st.integers(0, n_docs - 1), max_size=60))
    bound = st.integers(0, len(flat))
    ranges = [sorted(r) for r in draw(st.lists(st.tuples(bound, bound), max_size=8))]
    return n_docs, flat, ranges


class TestAccumulateCounts:
    @given(postings_and_ranges())
    @example((5, [1, 2, 3], []))  # no ranges
    @example((5, [1, 2, 3], [[1, 1], [3, 3]]))  # only empty ranges
    @example((5, [1, 2, 2, 4], [[0, 3], [1, 4]]))  # doc 2 repeated within and across ranges
    @settings(max_examples=200, deadline=None)
    def test_matches_counter(self, case):
        n_docs, flat, ranges = case
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        ends = np.array([e for _, e in ranges], dtype=np.int64)
        got = _kernels.accumulate_counts(np.array(flat, dtype=np.int32), starts, ends, n_docs)
        expected = Counter(d for s, e in ranges for d in flat[s:e])
        assert got.shape == (n_docs,) and np.issubdtype(got.dtype, np.integer)
        assert got.tolist() == [expected[d] for d in range(n_docs)]
