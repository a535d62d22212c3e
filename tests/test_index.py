import json
import random
import struct
import sys
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmsieve import _kernels
from asmsieve.errors import (
    ConfigurationError,
    DuplicateIdError,
    MissingEmbeddingError,
    SnapshotError,
)
from asmsieve.index import InvertedIndex, SearchResult
from asmsieve.similarity import EmbeddingStore, TokenSet, cosine, jaccard
from helpers import (
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

    def test_accepts_token_set_wrapper(self):
        ix = build_index({"a": {"t"}})
        assert ix.search(TokenSet(frozenset({"t"}), source="q"), 1).ids() == ["a"]


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

    @pytest.mark.parametrize(
        "fault",
        [
            _swap_ids,
            _drop_meta_key,
            _decreasing_offsets,
            _posting_past_last_document,
            _negative_posting,
            _postings_not_rising,
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
