import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmsieve.errors import SchemaError
from asmsieve.schema import canonicalize, validate
from asmsieve.similarity import (
    EmbeddingVector,
    FlattenConfig,
    TokenSet,
    cosine,
    count_bucket,
    flatten,
    hybrid,
    jaccard,
    load_embeddings,
    save_embeddings,
)
from helpers import random_feature_set

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def sample_fs():
    return validate(json.loads((DATA / "sha384_init_x86_64.json").read_text()))


class TestFlatten:
    def test_sample_tokens(self, sample_fs):
        tokens = flatten(sample_fs).tokens
        assert "ret_type=Integer" in tokens
        assert "int_consts~0x39" in tokens
        assert "int_consts~0x4" in tokens
        assert "inferred_algo=Initialization" in tokens

    def test_empty_array_emits_nothing(self, sample_fs):
        tokens = flatten(sample_fs).tokens
        assert not any(t.startswith("float_consts") for t in tokens)

    def test_deterministic(self, sample_fs):
        assert flatten(sample_fs).tokens == flatten(sample_fs).tokens

    def test_positional_param_types(self):
        base = json.loads((DATA / "sha384_init_x86_64.json").read_text())
        ab = validate(dict(base, in_param_cnt=2, in_param_types=["Integer", "Pointer"]))
        ba = validate(dict(base, in_param_cnt=2, in_param_types=["Pointer", "Integer"]))
        assert flatten(ab).tokens != flatten(ba).tokens

    def test_extensions_flattened_by_name(self, sample_fs):
        base = json.loads((DATA / "sha384_init_x86_64.json").read_text())
        fs = validate(dict(base, origin="model-a", tags=["crypto", "init"]))
        tokens = flatten(fs).tokens
        assert 'origin="model-a"' in tokens
        assert 'tags~0:"crypto"' in tokens and 'tags~1:"init"' in tokens

    def test_bucketing_replaces_exact_counts(self, sample_fs):
        exact = flatten(sample_fs).tokens
        bucketed = flatten(sample_fs, FlattenConfig(bucket_counts=True)).tokens
        assert "imm_values_cnt=3" in exact
        assert "imm_values_cnt=bucket:3-4" in bucketed
        assert "imm_values_cnt=3" not in bucketed

    def test_atomic_arrays(self, sample_fs):
        tokens = flatten(sample_fs, FlattenConfig(atomic_arrays=True)).tokens
        assert 'int_consts=["0x39","0x4"]' in tokens

    def test_source_recorded(self, sample_fs):
        assert flatten(sample_fs, source="abc").source == "abc"


class TestCountBucket:
    @pytest.mark.parametrize(
        "n,label",
        [(0, "0"), (1, "1"), (2, "2"), (3, "3-4"), (4, "3-4"), (5, "5-8"),
         (8, "5-8"), (9, "9-16"), (16, "9-16"), (17, "17-32")],
    )
    def test_labels(self, n, label):
        assert count_bucket(n) == label


class TestJaccard:
    def test_identity(self):
        x = TokenSet(frozenset({"a", "b"}))
        assert jaccard(x, x) == 1.0

    def test_hand_example(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(5)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(200):
            a = frozenset(rng.sample(vocab, rng.randint(1, 20)))
            b = frozenset(rng.sample(vocab, rng.randint(1, 20)))
            s = jaccard(a, b)
            assert s == jaccard(b, a)
            assert 0.0 <= s <= 1.0
            assert (s == 1.0) == (a == b)

    def test_flatten_jaccard_one_iff_canonical_equal(self):
        rng = random.Random(99)
        sets = [random_feature_set(rng) for _ in range(30)]
        for a in sets[:12]:
            for b in sets[:12]:
                equal_score = jaccard(flatten(a), flatten(b)) == 1.0
                assert equal_score == (canonicalize(a) == canonicalize(b))

    def test_bucketing_never_decreases_similarity_within_bucket(self):
        rng = random.Random(42)
        for _ in range(100):
            fs = random_feature_set(rng)
            n = fs["imm_values_cnt"]
            bucket = count_bucket(n)
            for delta in (-1, 1, 2):
                m = n + delta
                if m < 0 or count_bucket(m) != bucket:
                    continue
                doc = json.loads(canonicalize(fs))
                doc["imm_values_cnt"] = m
                other = validate(doc)
                exact = jaccard(flatten(fs), flatten(other))
                coarse = jaccard(
                    flatten(fs, FlattenConfig(bucket_counts=True)),
                    flatten(other, FlattenConfig(bucket_counts=True)),
                )
                assert coarse >= exact


class TestCosine:
    def test_identity(self):
        u = [1.0, 2.0, -3.0]
        assert cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        expected = 32 / (math.sqrt(14) * math.sqrt(77))
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-9)
        assert round(expected, 6) == 0.974632

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine([1, 2], [1, 2, 3])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            cosine([0.0, 0.0], [1.0, 1.0])

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, alpha):
        u = np.array([0.5, -1.25, 2.0])
        v = np.array([1.0, 0.25, -0.75])
        assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-12)


class TestHybrid:
    @pytest.mark.parametrize(
        "s_a,s_e,expected", [(0.4, 0.8, 0.6), (1.0, 1.0, 1.0), (0.0, -1.0, -0.5)]
    )
    def test_values(self, s_a, s_e, expected):
        score = hybrid(s_a, s_e)
        assert score.S == (s_e + s_a) / 2  # exactly the combiner formula
        assert score.S == pytest.approx(expected, abs=1e-12)
        assert score.s_a == s_a and score.s_e == s_e

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hybrid(1.5, 0.0)
        with pytest.raises(ValueError):
            hybrid(0.5, -1.01)

    def test_monotone_in_s_a(self):
        values = [hybrid(s / 10, 0.3).S for s in range(11)]
        assert values == sorted(values)


class TestEmbeddingStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_embeddings(path, {"a": [1.0, 2.0], "b": [0.5, -0.5]})
        store = load_embeddings(path)
        assert store.dim == 2 and len(store) == 2
        assert np.allclose(store["a"].values, [1.0, 2.0])

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id":"a","values":[1,2]}\n{"id":"b","values":[1,2,3]}\n')
        with pytest.raises(Exception, match="dim"):
            load_embeddings(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id":"a","values":[0,0]}\n')
        with pytest.raises(Exception, match="zero"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id":"b","values":5}', "'values' must be a list"),
            ('{"id":"b","values":null}', "'values' must be a list"),
            ('{"id":["a"],"values":[1,2]}', "'id' must be a string"),
            ('{"id":"b","values":[1,{}]}', "float"),
            ('{"id":"b","values":[NaN,1]}', "embedding for 'b' holds a NaN"),
            ('{"id":"b","values":[1,Infinity]}', "embedding for 'b' holds a NaN"),
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, record, message):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id":"a","values":[1,2]}\n' + record + "\n")
        with pytest.raises(SchemaError, match=f":2: {message}"):
            load_embeddings(path)

    def test_vector_wrapper(self):
        vec = EmbeddingVector([1, 2, 3])
        assert vec.dim == 3
        with pytest.raises(ValueError):
            EmbeddingVector([[1, 2], [3, 4]])
