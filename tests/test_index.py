import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from helpers import exhaustive_search, random_token_set


def build_index(docs):
    ix = InvertedIndex()
    for fid, tokens in docs.items():
        ix.add(fid, tokens)
    return ix


@pytest.fixture(params=sorted(_kernels._BACKENDS))
def backend(request):
    previous = _kernels.current_backend()
    _kernels.use_backend(request.param)
    yield request.param
    _kernels.use_backend(previous)


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

    def test_ref_stored(self):
        ix = InvertedIndex()
        ix.add("a", {"t"}, ref='{"x":1}')
        assert ix.document_ref("a") == '{"x":1}'


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
    def test_matches_exhaustive_scan(self, backend):
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

    def test_insertion_order_irrelevant(self, backend):
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

    @given(tie_heavy_corpus())
    @settings(max_examples=60, deadline=None)
    def test_fresh_loaded_and_updated_match_exhaustive_scan(self, corpus):
        docs, order, query, split = corpus
        first, rest = order[:split], order[split:]
        ix = InvertedIndex()
        for fid in order:
            ix.add(fid, docs[fid])
        self._assert_exhaustive(ix, docs, query)

        partial = InvertedIndex()
        for fid in first:
            partial.add(fid, docs[fid])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.snap"
            partial.persist(path)
            loaded = InvertedIndex.load(path)
        self._assert_exhaustive(loaded, {fid: docs[fid] for fid in first}, query)
        for fid in rest:
            loaded.add(fid, docs[fid])
        self._assert_exhaustive(loaded, docs, query)


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

    def test_refs_survive(self, tmp_path):
        ix = InvertedIndex()
        ix.add("a", {"t"}, ref="canonical-a")
        path = tmp_path / "index.snap"
        ix.persist(path)
        assert InvertedIndex.load(path).document_ref("a") == "canonical-a"


class TestKernelBackends:
    def test_backends_agree(self):
        rng = random.Random(55)
        flat = np.array([rng.randrange(50) for _ in range(300)], dtype=np.int32)
        offsets = np.sort(
            np.array([0, 300] + [rng.randrange(300) for _ in range(9)], dtype=np.int64)
        )
        starts, ends = offsets[:-1], offsets[1:]
        outputs = {}
        for name, fn in _kernels._BACKENDS.items():
            outputs[name] = fn(flat, starts, ends, 50)
        reference = next(iter(outputs.values()))
        for got in outputs.values():
            assert np.array_equal(got, reference)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            _kernels.use_backend("cuda")
