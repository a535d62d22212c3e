import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmsieve.errors import SchemaError
from asmsieve.schema import (
    FIELD_ORDER,
    FeatureSet,
    canonicalize,
    diff,
    load_features,
    normalize_hex_constant,
    save_features,
    validate,
)
from helpers import random_feature_set

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def variant_arm():
    return json.loads((DATA / "sha384_init_arm.json").read_text())


@pytest.fixture(scope="module")
def variant_x86(request):
    return json.loads((DATA / "sha384_init_x86_64.json").read_text())


class TestValidate:
    def test_sample_document_validates(self, variant_x86):
        fs = validate(variant_x86)
        assert fs["ret_type"] == "Integer"
        assert fs["int_consts"] == ("0x39", "0x4")
        assert fs["inferred_algo"] == "Initialization"
        assert fs["in_param_types"] == ("Pointer",)  # "Ptr" normalized

    def test_param_count_mismatch(self, variant_x86):
        doc = dict(variant_x86, in_param_cnt=2)
        with pytest.raises(SchemaError, match="in_param_types"):
            validate(doc)

    def test_hex_normalization(self, variant_x86):
        doc = dict(variant_x86, int_consts=["0X0039", "0x4"])
        assert validate(doc)["int_consts"] == ("0x39", "0x4")

    def test_missing_field_is_named(self, variant_x86):
        doc = dict(variant_x86)
        del doc["ret_type"]
        with pytest.raises(SchemaError, match="ret_type"):
            validate(doc)

    def test_type_mismatch(self, variant_x86):
        with pytest.raises(SchemaError, match="subcall_targets"):
            validate(dict(variant_x86, subcall_targets="two"))
        with pytest.raises(SchemaError, match="loop"):
            validate(dict(variant_x86, loop=3))

    def test_too_many_constants(self, variant_x86):
        consts = [f"0x{v:x}" for v in range(0x100, 0x110)]  # 16 entries
        with pytest.raises(SchemaError, match="limit"):
            validate(dict(variant_x86, int_consts=consts))

    def test_trivial_constants_rejected(self, variant_x86):
        for bad in ("0x0", "0x1", "0xff", "0xffffffff"):
            with pytest.raises(SchemaError, match="trivial"):
                validate(dict(variant_x86, int_consts=[bad]))

    def test_duplicate_categories(self, variant_x86):
        doc = dict(variant_x86, dominant_operation_categories=["Bitwise", "bitwise"])
        with pytest.raises(SchemaError, match="duplicates"):
            validate(doc)

    def test_enum_aliases(self, variant_x86):
        doc = dict(
            variant_x86,
            ret_type="none",
            dominant_operation_categories=["data movement", "conditional branching"],
            inferred_algo="cryptographic or hashing",
        )
        fs = validate(doc)
        assert fs["ret_type"] == "None"
        assert fs["dominant_operation_categories"] == ("DataMovement", "ConditionalBranching")
        assert fs["inferred_algo"] == "CryptographicHashing"

    def test_unknown_enum_value(self, variant_x86):
        with pytest.raises(SchemaError, match="inferred_algo"):
            validate(dict(variant_x86, inferred_algo="Sorting"))

    def test_extensions_preserved(self, variant_x86):
        fs = validate(dict(variant_x86, xrefs=3, origin="model-a"))
        assert fs.extensions == {"xrefs": 3, "origin": "model-a"}

    def test_partial_validation(self):
        fs = validate({"loop": True, "subcall_targets": 2},
                      required_fields=["loop", "subcall_targets"])
        assert fs.present_fields == ("loop", "subcall_targets")

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="object"):
            validate([1, 2, 3])


class TestNormalizeHex:
    @pytest.mark.parametrize(
        "raw,expected",
        [("0X0039", "0x39"), ("0x39", "0x39"), ("39", "0x39"), (57, "0x39"), ("DEADBEEF", "0xdeadbeef")],
    )
    def test_forms(self, raw, expected):
        assert normalize_hex_constant(raw) == expected

    def test_rejects_garbage(self):
        for bad in ("zz", "", "0x", -1, 1.5, None):
            with pytest.raises(SchemaError):
                normalize_hex_constant(bad)


class TestCanonicalize:
    def test_array_order_ignored(self, variant_x86):
        shuffled = dict(variant_x86, int_consts=["0x4", "0x39"])
        assert canonicalize(validate(variant_x86)) == canonicalize(validate(shuffled))

    def test_fixpoint(self, variant_x86):
        fs = validate(variant_x86)
        once = canonicalize(fs)
        assert canonicalize(validate(json.loads(once))) == once

    def test_round_trip(self, variant_x86):
        fs = validate(variant_x86)
        assert validate(json.loads(canonicalize(fs))) == fs

    def test_field_order_is_documented_order(self, variant_x86):
        keys = list(json.loads(canonicalize(validate(variant_x86))))
        assert tuple(keys) == FIELD_ORDER

    def test_extension_order_sorted(self, variant_x86):
        fs = validate(dict(variant_x86, zeta=1, alpha={"b": 1, "a": 2}))
        keys = list(json.loads(canonicalize(fs)))
        assert keys[-2:] == ["alpha", "zeta"]
        assert '"alpha":{"a":2,"b":1}' in canonicalize(fs)


class TestDiff:
    def test_self_diff_empty(self, variant_x86):
        fs = validate(variant_x86)
        assert diff(fs, fs) == []

    def test_variant_pair_differs_in_three_fields(self, variant_arm, variant_x86):
        differences = diff(validate(variant_arm), validate(variant_x86))
        by_field = {d.field: d for d in differences}
        assert set(by_field) == {"ret_type", "int_consts", "inferred_algo"}
        assert (by_field["ret_type"].left, by_field["ret_type"].right) == ("None", "Integer")
        assert by_field["int_consts"].added == ("0x4",)
        assert by_field["int_consts"].removed == ()
        assert (by_field["inferred_algo"].left, by_field["inferred_algo"].right) == (
            "Undetermined",
            "Initialization",
        )

    def test_symmetry(self, variant_arm, variant_x86):
        a, b = validate(variant_arm), validate(variant_x86)
        forward = {(d.field, d.left, d.right) for d in diff(a, b)}
        backward = {(d.field, d.right, d.left) for d in diff(b, a)}
        assert forward == backward

    def test_presence_difference_reported(self):
        full = validate({n: v for n, v in json.loads(
            (DATA / "sha384_init_x86_64.json").read_text()).items()})
        partial = validate({"loop": False}, required_fields=["loop"])
        fields = {d.field for d in diff(full, partial)}
        assert "ret_type" in fields and "loop" not in fields


class TestRandomizedRoundTrip:
    def test_seeded_round_trip(self):
        rng = random.Random(20260811)
        for _ in range(250):
            fs = random_feature_set(rng, with_extensions=True)
            assert validate(json.loads(canonicalize(fs))) == fs
            assert diff(fs, fs) == []

    def test_diff_empty_iff_canonical_equal(self):
        rng = random.Random(7)
        sets = [random_feature_set(rng) for _ in range(40)]
        for a in sets[:10]:
            for b in sets[:10]:
                assert (diff(a, b) == []) == (canonicalize(a) == canonicalize(b))


@given(st.integers(min_value=0, max_value=4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_property_round_trip(cnt, rnd):
    rng = random.Random(rnd.getrandbits(32))
    fs = random_feature_set(rng)
    assert validate(json.loads(canonicalize(fs))) == fs


class TestFeaturesFile:
    def test_save_load_round_trip(self, tmp_path, variant_arm, variant_x86):
        features = {
            "lib/a@ARM/O0": validate(variant_arm),
            "lib/a@x86-64/O0": validate(variant_x86),
            "lib/partial@ARM/O0": validate(
                {"loop": True, "imm_values_cnt": 2},
                required_fields=["loop", "imm_values_cnt"],
            ),
            # only extension keys: written with "present": [], which must not
            # read back as "every core field is required"
            "lib/ext-only@ARM/O0": validate({"note": "x"}, required_fields=[]),
        }
        path = tmp_path / "features.jsonl"
        save_features(path, features)
        assert load_features(path) == features

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"id":["a"]', "'id' must be a string"),
            ('"id":3', "'id' must be a string"),
            ('"id":"a","present":5', "'present' must be a list"),
            ('"id":"a","present":[["loop"]]', "'present' must be a list"),
            ('"id":"a","present":["loop"],"features":{"loop":5}',
             "field 'loop' must be a boolean, got 5"),
            ('"id":"a","present":["loop","simd"]', r"missing required field\(s\): simd"),
            ('"id":"ok","present":["loop"]', r"duplicate id 'ok' \(first at .*features.jsonl:1\)"),
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, fields, message):
        path = tmp_path / "features.jsonl"
        features = "" if '"features"' in fields else ',"features":{"loop":true}'
        path.write_text('{"id":"ok","features":{"loop":true},"present":["loop"]}\n'
                        '{' + fields + features + '}\n')
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:2: {message}"):
            load_features(path)

    def test_oversized_integer_names_its_line(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text('{"id":"a","features":{"float_consts":[' + "1" * 5000 + "]}}\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:1: invalid JSON: Exceeds"):
            load_features(path)

    def test_written_documents_are_canonical(self, tmp_path, variant_x86):
        path = tmp_path / "features.jsonl"
        fs = validate(variant_x86)
        save_features(path, {"x": fs})
        line = path.read_text().strip()
        assert line == '{"id":"x","features":' + canonicalize(fs) + "}"
