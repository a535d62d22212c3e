import dataclasses
import json
import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asmsieve.errors import SchemaError
from asmsieve.schema import FIELD_BY_NAME, FIELD_ORDER, canonicalize, validate
from asmsieve.similarity import (
    EmbeddingVector,
    cosine,
    cosines,
    flatten,
    hybrid,
    hybrids,
    jaccard,
    load_embeddings,
    read_token_sets,
    save_embeddings,
)
from helpers import SELF_OVER_ONE

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def sample_fs():
    return validate(json.loads((DATA / "sha384_init_x86_64.json").read_text()))


class TestFlatten:
    def test_sample_tokens(self, sample_fs):
        tokens = flatten(sample_fs)
        assert "ret_type=Integer" in tokens
        assert "int_consts~0x39" in tokens
        assert "int_consts~0x4" in tokens
        assert "inferred_algo=Initialization" in tokens

    def test_empty_array_emits_nothing(self, sample_fs):
        tokens = flatten(sample_fs)
        assert not any(t.startswith("float_consts") for t in tokens)

    def test_deterministic(self, sample_fs):
        assert flatten(sample_fs) == flatten(sample_fs)

    def test_positional_param_types(self):
        base = json.loads((DATA / "sha384_init_x86_64.json").read_text())
        ab = validate(dict(base, in_param_cnt=2, in_param_types=["Integer", "Pointer"]))
        ba = validate(dict(base, in_param_cnt=2, in_param_types=["Pointer", "Integer"]))
        assert flatten(ab) != flatten(ba)

    def test_extensions_flattened_by_name(self, sample_fs):
        base = json.loads((DATA / "sha384_init_x86_64.json").read_text())
        fs = validate(dict(base, origin="model-a", tags=["crypto", "init"]))
        tokens = flatten(fs)
        assert 'origin="model-a"' in tokens
        assert 'tags~0:"crypto"' in tokens and 'tags~1:"init"' in tokens

    def test_empty_extension_array_is_one_token(self, sample_fs):
        base = json.loads((DATA / "sha384_init_x86_64.json").read_text())
        tokens = flatten(validate(dict(base, tags=[])))
        assert tokens == flatten(sample_fs) | {"tags=[]"}


class TestJaccard:
    def test_identity(self):
        x = frozenset({"a", "b"})
        assert jaccard(x, x) == 1.0

    def test_hand_example(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    @given(st.lists(st.sampled_from("abcdefgh"), max_size=12),
           st.lists(st.sampled_from("abcdefgh"), max_size=12),
           st.sampled_from(("frozenset", "list")))
    @settings(max_examples=300, deadline=None)
    def test_equals_intersection_over_union_bit_for_bit(self, a, b, form):
        # the list form keeps its duplicates
        wrap = {"frozenset": frozenset, "list": list}[form]
        sa, sb = frozenset(a), frozenset(b)
        want = len(sa & sb) / len(sa | sb) if sa | sb else 1.0
        assert _bits([jaccard(wrap(a), wrap(b))]) == _bits([want])

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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_flatten_jaccard_one_iff_canonical_equal(self, data):
        # a full document against its canonical respelling, keys reordered,
        # or against that respelling with one extension set, dropped or emptied
        doc, _ = data.draw(raw_documents(partial=False))
        other = json.loads(canonicalize(validate(doc)))
        change = data.draw(st.sampled_from(("respell", "set", "drop", "empty")))
        key = data.draw(st.sampled_from(_EXTENSION_KEYS))
        if change == "set":
            other[key] = data.draw(_json_values)
        elif change == "drop":
            other.pop(key, None)
        elif change == "empty":
            other[key] = []
        other = dict(data.draw(st.permutations(list(other.items()))))
        a, b = validate(doc), validate(other)
        if change == "respell":
            assert canonicalize(a) == canonicalize(b)
        assert (jaccard(flatten(a), flatten(b)) == 1.0) == (canonicalize(a) == canonicalize(b))


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


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@st.composite
def _vectors(draw, dim):
    """A vector of ``dim`` standard-normal entries scaled by 10**e, e in [-100, 100]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(dim) * 10.0 ** draw(st.floats(-100, 100))


@st.composite
def _query_and_rows(draw):
    dim = draw(st.integers(1, 800))
    return draw(_vectors(dim)), draw(st.lists(_vectors(dim), min_size=1, max_size=8))


class TestBatchCosine:
    @given(_query_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_bit_for_bit(self, case):
        q, rows = case
        vs = [EmbeddingVector(r) for r in rows]
        assert _bits(cosines(q, vs)) == _bits([cosine(q, v) for v in vs])
        assert _bits(cosines(EmbeddingVector(q), vs)) == _bits([cosine(q, r) for r in rows])

    def test_self_cosine_over_one_on_both_paths(self):
        v = EmbeddingVector(SELF_OVER_ONE)
        assert cosine(v, v) == 1.0000000000000002
        assert cosines(v, [v, v]).tolist() == [1.0000000000000002] * 2

    def test_empty_batch_checks_nothing(self):
        assert cosines([], []).shape == (0,)

    @pytest.mark.parametrize("query, rows, message", [
        ([1.0, 2.0], [[1.0, 2.0, 3.0], [0.0, 1.0]], "embedding dimensions differ: 2 vs 3"),
        ([0.0, 0.0], [[1.0, 2.0, 3.0]], "embedding dimensions differ: 2 vs 3"),
        ([0.0, 0.0], [[1.0, 2.0], [1.0, 2.0, 3.0]], "undefined for a zero vector"),
        # the row's norm underflows to 0, yet it is a valid vector: the next row is the fault
        ([1.0, 2.0], [[1e-170, 1e-170], [1.0, 2.0, 3.0]], "embedding dimensions differ: 2 vs 3"),
        ([[1.0, 2.0]], [[1.0, 2.0]], "non-empty 1-D vector"),
    ], ids=["dim", "dim-before-zero-query", "zero-query", "zero-norm-row", "query-shape"])
    def test_first_error_is_the_scalar_loops(self, query, rows, message):
        vs = [EmbeddingVector(r) for r in rows]
        with pytest.raises(ValueError, match=message):
            [cosine(query, v) for v in vs]
        with pytest.raises(ValueError, match=message):
            cosines(query, vs)


class TestScaleSafeCosine:
    """Finite non-zero vectors whose norms, norm products or dot products
    leave the float64 range still have a cosine, the one of the same vectors
    scaled into range."""

    @pytest.mark.parametrize("u, v, want", [
        ([1e200, 1e-300, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0),
        ([1e200] * 4, [1e200] * 4, 1.0),
        ([1e-200] * 4, [1.0] * 4, 1.0),
        ([5e-324, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1.0),
        ([1e200, 0.0], [1e-200, 1e-200], 0.5 ** 0.5),
        ([1e-170, 0.0], [0.0, 3.0], 0.0),
    ], ids=["norm-overflows", "dot-overflows", "norm-underflows", "subnormal", "mixed", "orthogonal"])
    def test_extreme_vectors(self, u, v, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cosine(u, v)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-300)
            assert _bits(cosines(u, [EmbeddingVector(v), EmbeddingVector(u)])) == _bits(
                [got, cosine(u, u)])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(-1000, 1000))
    @example(0, 64, -1000)
    @example(0, 64, 1000)
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_scaling_moves_cosines_a_few_ulp(self, seed, dim, e):
        rng = np.random.default_rng(seed)
        u, v, w = rng.standard_normal((3, dim))
        scaled = np.ldexp(u, e)
        want = np.array([cosine(u, v), cosine(u, w)])
        for got in (np.array([cosine(scaled, v), cosine(scaled, w)]),
                    cosines(scaled, [EmbeddingVector(v), EmbeddingVector(w)])):
            assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()


class TestEmbeddingVector:
    def test_holds_its_own_read_only_copy(self):
        source = np.array([3.0, 4.0])
        vec = EmbeddingVector(source)
        source[:] = [0.0, 1.0]
        assert vec.values.tolist() == [3.0, 4.0] and vec.norm == 5.0
        assert cosine(vec, [3.0, 4.0]) == 1.0
        with pytest.raises(ValueError, match="read-only"):
            vec.values[0] = 1.0

    def test_is_frozen(self):
        vec = EmbeddingVector([3.0, 4.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            vec.norm = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            vec.values = np.zeros(2)

    def test_norm_is_linalg_norm(self):
        row = np.random.default_rng(1).standard_normal(97)
        assert EmbeddingVector(row).norm == float(np.linalg.norm(row))


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


@st.composite
def _hybrid_rows(draw):
    """``(s_a, rows)`` against the query ``SELF_OVER_ONE``: each row a scaled
    standard-normal vector or a fault, namely the query itself (cosine above
    one), a zero vector or a row of another dimension, and each ``s_a`` in
    [0, 1] or, now and then, just outside it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(("plain",) * 4 + ("over-one", "zero", "dim")),
                          max_size=8))
    rows = {
        "plain": lambda: rng.standard_normal(64) * 10.0 ** draw(st.floats(-100, 100)),
        "over-one": lambda: SELF_OVER_ONE,
        "zero": lambda: np.zeros(64),
        "dim": lambda: rng.standard_normal(63),
    }
    s_a = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                    st.sampled_from((-5e-324, 1.0000000000000002)))
    return [draw(s_a) for _ in kinds], [EmbeddingVector(rows[kind]()) for kind in kinds]


_ONES, _ZERO, _SHORT = np.ones(64), np.zeros(64), np.ones(63)


class TestBatchHybrid:
    @given(_hybrid_rows())
    @example(([0.5, 0.5], [EmbeddingVector(_ONES), EmbeddingVector(SELF_OVER_ONE)]))
    @example(([0.5, 0.5], [EmbeddingVector(_ZERO), EmbeddingVector(_SHORT)]))
    @example(([0.5, 0.5], [EmbeddingVector(_SHORT), EmbeddingVector(SELF_OVER_ONE)]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_composition(self, case):
        s_a, vs = case
        q = EmbeddingVector(SELF_OVER_ONE)
        try:
            want = [hybrid(s, cosine(q, v)).S for s, v in zip(s_a, vs)]
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                hybrids(s_a, q, vs)
            assert str(err.value) == str(exc)
        else:
            got = hybrids(np.array(s_a), q, vs)
            assert got.dtype == np.float64 and _bits(got) == _bits(want)


class TestEmbeddingStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        save_embeddings(path, {"a": [1.0, 2.0], "b": [0.5, -0.5]})
        store = load_embeddings(path)
        assert store.dim == 2 and len(store) == 2
        assert np.allclose(store["a"].values, [1.0, 2.0])

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id":"a","values":[1,2]}\n{"id":"b","values":[2,1]}\n{"id":"a","values":[3,4]}\n')
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: duplicate id 'a'$"):
            load_embeddings(path)

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
            pytest.param('{"id":"b","values":[true,false]}', "'values' must be a list of numbers",
                         id="booleans"),
            pytest.param('{"id":"b","values":["1.5","2"]}', "'values' must be a list of numbers",
                         id="numeric-strings"),
            ('{"id":"b","values":[NaN,1]}', "embedding for 'b' holds a NaN"),
            ('{"id":"b","values":[1,Infinity]}', "embedding for 'b' holds a NaN"),
            pytest.param('{"id":"b","values":[1,' + "9" * 5000 + "]}", "invalid JSON",
                         id="oversized-integer"),
            pytest.param("[" * 100_000, "invalid JSON: maximum recursion", id="deep-nesting"),
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, record, message):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id":"a","values":[1,2]}\n' + record + "\n")
        with pytest.raises(SchemaError, match=f":2: {message}"):
            load_embeddings(path)

    def test_non_utf8_line_names_its_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_bytes(b'{"id":"a","values":[1,2]}\n{"id":"\xc3","values":[1,2]}\n')
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:2: not UTF-8: "
                                              "'utf-8' codec can't decode byte 0xc3"):
            load_embeddings(path)

    def test_vector_wrapper(self):
        vec = EmbeddingVector([1, 2, 3])
        assert vec.dim == 3
        with pytest.raises(ValueError):
            EmbeddingVector([[1, 2], [3, 4]])


# ------------------------------------------------------------ read_token_sets

_BOOL_SPELLINGS = (True, False, "True", "false", "TRUE", " False ")
_PARAM_SPELLINGS = ("Integer", "int", "INT", "Pointer", "ptr", "Ptr", "POINTER")
_RET_SPELLINGS = ("Integer", "int", "Pointer", "ptr", "Float", "None", "void", "null", None)
_CATEGORY_SPELLINGS = (
    "Arithmetic", "bitwise", "Data Movement", "conditional-branching", "SUBROUTINECALL",
    "memory_access",
)
_ALGO_SPELLINGS = ("Initialization", "hashing", "wrapper", "control flow", "dispatch",
                   "utility/helper", "system/OS interaction", "Undetermined")
_HEX_VALUES = (2, 16, 0x1F, 0x2F41, 0xDEADBEEF, 1 << 40)
_FLOAT_SPELLINGS = (1, 1.0, 0.5, -0.125, 0.0, -0.0, 2, 1e300, "1.5", " 0.5 ", "1e3",
                    "-0.0", "1", "1.0", "inf")
_EXTENSION_KEYS = ("note", "tags", "origin", "meta", "x~y")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.sampled_from(["a", "b", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["b", "a", "c"]), inner, max_size=3),
    max_leaves=6,
)

# Values that fail each kind of field, for the invalid-document cases.
_BAD_VALUES = {
    "count": (True, False, -1, 1.5, "3", None, [1], {"a": 1}),
    "bool": (1, 0, 1.0, "yes", None, [], {}),
    "enum": (3, "nope", [], {}, True),
    "param_types": ("Pointer", 5, [True], ["pointr"], [["Pointer"]], [{}], {}),
    "cat_array": ([], ["Arithmetic", "arithmetic"], ["Nope"], "Arithmetic", [1], [["Bitwise"]]),
    "hex_array": ([0], [1], ["0xff"], [True], [-5], ["zz"], [1.5], [[16]], "0x10",
                  [f"0x{v:x}" for v in range(2, 18)]),
    "dec_array": ([True], ["abc"], [None], [[1.0]], "1.0", [{}]),
}


@st.composite
def _hex_spelling(draw):
    n = draw(st.sampled_from(_HEX_VALUES))
    forms = (n, f"0x{n:x}", f"0X{n:X}", f"{n:x}", f"{n:X}", f"0x{n:08x}", f" 0x{n:x} ")
    return draw(st.sampled_from(forms))


@st.composite
def raw_documents(draw, partial=True):
    """(features, present) of a valid document in raw input spellings, keys
    in any order, possibly with nested extensions, and under ``partial``
    possibly partial."""
    cnt = draw(st.integers(0, 4))
    doc = {
        "in_param_cnt": cnt,
        "in_param_types": draw(st.lists(st.sampled_from(_PARAM_SPELLINGS), min_size=cnt, max_size=cnt)),
        "ret_type": draw(st.sampled_from(_RET_SPELLINGS)),
        "dominant_operation_categories": draw(
            st.lists(st.sampled_from(_CATEGORY_SPELLINGS), min_size=1, max_size=6,
                     unique_by=lambda c: "".join(filter(str.isalnum, c.lower())))
        ),
        "subcall_targets": draw(st.integers(0, 3)),
        "int_consts": draw(st.lists(_hex_spelling(), max_size=8)),
        "float_consts": draw(st.lists(st.sampled_from(_FLOAT_SPELLINGS), max_size=6)),
        "imm_values_cnt": draw(st.integers(0, 3)),
        "interrupts_syscalls": draw(st.integers(0, 2)),
        "inferred_algo": draw(st.sampled_from(_ALGO_SPELLINGS)),
    }
    for name in (
        "loop", "jump_table", "indexed_addr", "simd", "string_literals", "mutates_inputs",
        "mutates_globals", "mem_alloc", "io_ops", "block_mem_ops", "error_handling",
    ):
        doc[name] = draw(st.sampled_from(_BOOL_SPELLINGS))
    doc.update(draw(st.dictionaries(st.sampled_from(_EXTENSION_KEYS), _json_values, max_size=2)))
    present = None
    if partial and draw(st.booleans()):  # a partial document
        kept = draw(st.lists(st.sampled_from(FIELD_ORDER), unique=True))
        doc = {k: v for k, v in doc.items() if k in kept or k not in FIELD_ORDER}
        present = draw(st.lists(st.sampled_from(kept), unique=True)) if kept else []
    keys = draw(st.permutations(list(doc)))
    return {k: doc[k] for k in keys}, present


@st.composite
def invalid_documents(draw):
    """A document from ``raw_documents`` with one mutation that may break it."""
    doc, present = draw(raw_documents())
    kind = draw(st.sampled_from(("value", "drop", "not-object", "unknown-required")))
    if kind == "value":
        spec = FIELD_BY_NAME[draw(st.sampled_from(FIELD_ORDER))]
        doc[spec.name] = draw(st.sampled_from(_BAD_VALUES[spec.kind]))
    elif kind == "drop" and set(doc) & set(FIELD_ORDER):
        del doc[draw(st.sampled_from(sorted(set(doc) & set(FIELD_ORDER))))]
    elif kind == "not-object":
        doc = draw(st.sampled_from(([], "loop", 5, None)))
    else:
        present = (present or []) + ["nope"]
    return doc, present


def _write_records(path, docs) -> list[tuple[str, object, list | None]]:
    """Write (features, present) pairs as a features file with ids d0, d1, ...;
    returns each record as read back from its JSON line."""
    lines = []
    for i, (doc, present) in enumerate(docs):
        record = {"id": f"d{i}", "features": doc}
        if present is not None:
            record["present"] = present
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    return [(r["id"], r["features"], r.get("present")) for r in map(json.loads, lines)]


def _assert_reader_matches_validate_then_flatten(path, docs):
    """read_token_sets over the file gives flatten(validate(...)) of each line,
    or, at the first invalid line, validate's SchemaError text after the
    ``path:line: `` prefix. Returns what it gives for the lines before the
    first error."""
    records = _write_records(path, docs)
    expected, error = [], None
    for line_no, (fid, doc, present) in enumerate(records, 1):
        try:
            expected.append((fid, flatten(validate(doc, present))))
        except SchemaError as exc:
            error = f"{path}:{line_no}: {exc}"
            break
    got, got_error = [], None
    try:
        got.extend(read_token_sets([path]))
    except SchemaError as exc:
        got_error = str(exc)
    assert got == expected
    assert got_error == error
    return expected


class TestReadTokenSets:
    @given(st.lists(raw_documents(), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_equals_flatten_of_validate(self, tmp_path_factory, docs):
        path = tmp_path_factory.getbasetemp() / "tokens_valid.jsonl"
        expected = _assert_reader_matches_validate_then_flatten(path, docs)
        assert len(expected) == len(docs)

    @given(st.lists(raw_documents(), max_size=3), invalid_documents(),
           st.lists(raw_documents(), max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_invalid_document_same_error(self, tmp_path_factory, before, bad, after):
        path = tmp_path_factory.getbasetemp() / "tokens_invalid.jsonl"
        _assert_reader_matches_validate_then_flatten(path, before + [bad] + after)

    @pytest.mark.parametrize(
        "field, first, second",
        [
            ("in_param_cnt", 1, True),
            ("loop", True, 1),
            ("float_consts", [1], [1.0]),
            ("float_consts", [0.0], [-0.0]),
            ("int_consts", ["0x10"], [16]),
        ],
    )
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_equal_hashing_values_stay_apart(self, tmp_path, field, first, second, order):
        values = [first, second] if order == "forward" else [second, first]
        docs = [({field: v}, [field]) for v in values]
        expected = _assert_reader_matches_validate_then_flatten(tmp_path / "f.jsonl", docs)
        if field in ("in_param_cnt", "loop"):  # the bool is no count, the count no bool
            assert len(expected) == (1 if order == "forward" else 0)
        elif field == "float_consts":
            assert expected[0][1] != expected[1][1]
        else:
            assert expected[0][1] == expected[1][1] == {"int_consts~0x10"}

    def test_extension_only_document_with_empty_present(self, tmp_path):
        docs = [({"note": {"b": [1, {"z": 0, "a": None}]}}, [])]
        expected = _assert_reader_matches_validate_then_flatten(tmp_path / "f.jsonl", docs)
        assert expected == [("d0", frozenset({'note={"b":[1,{"a":null,"z":0}]}'}))]


# Constants that warm the reader's entry table: 20 distinct hex values, some
# in two spellings, and float spellings; with the entries that are no string.
_HEX_POOL = tuple(f"0x{v:x}" for v in range(2, 22)) + ("0X1F", "1f", " 0x2 ", "0x0010")
_FLOAT_POOL = ("1.5", " 0.5 ", "1e3", "-0.0", "1", "1.0", "inf", "2")
_NON_STRING_ENTRIES = {
    "int_consts": (16, True, 0, 1.5, None, [16], ["0x10"], {"0x10": 1}),
    "float_consts": (1, 1.0, -0.0, True, None, [1.0], ["1.5"], {"1.5": 1}),
}
_BAD_STRING_ENTRIES = {"int_consts": ("1", "0xff", "zz", "-5"), "float_consts": ("abc", "")}


@st.composite
def shared_constant_documents(draw):
    """Documents whose constants come from one small pool, so entries repeat
    across lines; the last document may be mutated into an invalid one."""
    pools = {
        "int_consts": draw(st.lists(st.sampled_from(_HEX_POOL), min_size=1, max_size=20, unique=True)),
        "float_consts": draw(st.lists(st.sampled_from(_FLOAT_POOL), min_size=1, unique=True)),
    }
    docs = draw(st.lists(raw_documents(), min_size=1, max_size=6))
    for doc, _ in docs:
        for name, pool in pools.items():
            if name in doc:
                doc[name] = draw(st.lists(st.sampled_from(pool), max_size=18))
    kind = draw(st.sampled_from(("none", "constants", "constants-not-array", "other")))
    doc, _ = docs[-1]
    if kind == "constants":
        name = draw(st.sampled_from(sorted(pools)))
        odd = _NON_STRING_ENTRIES[name] + _BAD_STRING_ENTRIES[name]
        doc[name] = draw(st.lists(st.sampled_from(pools[name]) | st.sampled_from(odd),
                                  min_size=1, max_size=18))
    elif kind == "constants-not-array":
        name = draw(st.sampled_from(sorted(pools)))
        entry = draw(st.sampled_from(pools[name]))
        doc[name] = draw(st.sampled_from((entry, {entry: 1}, None, 16)))
    elif kind == "other":
        spec = FIELD_BY_NAME[draw(st.sampled_from(FIELD_ORDER))]
        doc[spec.name] = draw(st.sampled_from(_BAD_VALUES[spec.kind]))
    return docs


class TestWarmEntryTable:
    """read_token_sets keeps one table per call from each string entry of
    ``int_consts`` and ``float_consts`` to its token; these lines reach it
    warm, from the lines before them."""

    @staticmethod
    def _check(tmp_path, docs):
        return _assert_reader_matches_validate_then_flatten(tmp_path / "f.jsonl", docs)

    def test_sixteen_cached_entries_still_exceed_the_limit(self, tmp_path):
        hexes = [f"0x{v:x}" for v in range(2, 18)]
        docs = [({"int_consts": v}, ["int_consts"]) for v in (hexes[:8], hexes[8:], hexes)]
        expected = self._check(tmp_path, docs)
        assert len(expected) == 2

    def test_repeated_and_respelled_entries_count_once(self, tmp_path):
        hexes = [f"0x{v:x}" for v in range(2, 17)]  # 15 distinct values
        docs = [({"int_consts": hexes}, ["int_consts"]),
                ({"int_consts": hexes + hexes[:5] + ["0X2", "0x0003"]}, ["int_consts"])]
        expected = self._check(tmp_path, docs)
        assert expected[0][1] == expected[1][1] and len(expected[1][1]) == 15

    @pytest.mark.parametrize(
        "field, cached, later",
        [
            ("int_consts", "0x10", 16),
            ("int_consts", "0x10", True),
            ("int_consts", "0x10", 16.0),
            ("float_consts", "1", 1),
            ("float_consts", "1.0", 1.0),
            ("float_consts", "-0.0", -0.0),
            ("float_consts", "1", True),
        ],
    )
    def test_cached_string_then_equal_non_string(self, tmp_path, field, cached, later):
        docs = [({field: [cached]}, [field]), ({field: [later]}, [field]),
                ({field: [cached, later]}, [field])]
        self._check(tmp_path, docs)

    @pytest.mark.parametrize("field, cached", [("int_consts", "0x10"), ("float_consts", "1.5")])
    @pytest.mark.parametrize("nested", ["list", "dict", "list-of-cached"])
    def test_cached_string_beside_a_nested_value(self, tmp_path, field, cached, nested):
        odd = {"list": [16], "dict": {cached: 1}, "list-of-cached": [cached]}[nested]
        docs = [({field: [cached]}, [field]), ({field: [cached, odd]}, [field])]
        assert len(self._check(tmp_path, docs)) == 1

    @pytest.mark.parametrize("field, cached", [("int_consts", "0x10"), ("float_consts", "1.5")])
    @pytest.mark.parametrize("form", ["string", "dict", "string-of-cached-chars"])
    def test_cached_entries_do_not_pass_a_non_array(self, tmp_path, field, cached, form):
        chars = ["5", "2"] if field == "float_consts" else ["a", "b"]
        value = {"string": cached, "dict": {cached: 1}, "string-of-cached-chars": "".join(chars)}[form]
        docs = [({field: [cached, *chars]}, [field]), ({field: value}, [field])]
        assert len(self._check(tmp_path, docs)) == 1

    @pytest.mark.parametrize("order", ["bad-first", "constants-first"])
    def test_error_order_kept_when_constants_are_cached(self, tmp_path, order):
        warm = {"int_consts": ["0x10", "0x2f"], "float_consts": ["1.5"]}
        bad = {"loop": "maybe", "in_param_cnt": -1}
        fields = {**bad, **warm} if order == "bad-first" else {**warm, **bad}
        docs = [(warm, list(warm)), (fields, list(warm))]
        expected = self._check(tmp_path, docs)
        assert len(expected) == 1

    def test_uncached_constants_error_before_a_later_field(self, tmp_path):
        docs = [({"int_consts": ["0x10"]}, []),
                ({"int_consts": ["0x10", "zz"], "loop": "maybe"}, [])]
        self._check(tmp_path, docs)

    @given(shared_constant_documents())
    @settings(max_examples=200, deadline=None)
    def test_shared_pool_equals_flatten_of_validate(self, tmp_path_factory, docs):
        path = tmp_path_factory.getbasetemp() / "tokens_shared.jsonl"
        _assert_reader_matches_validate_then_flatten(path, docs)
